//! Provenance and process counters. Every probe degrades to `unknown`
//! (or 0) rather than failing the run.

use std::path::Path;

/// Where and on what a result was measured.
pub struct Provenance {
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub git_rev: String,
    /// Threads the OS offers this process.
    pub nproc: usize,
    /// Last-level cache size in bytes (0 when sysfs does not say).
    pub llc_bytes: u64,
    /// Transparent hugepage mode (`always`, `madvise`, `never`, `unknown`).
    pub thp: String,
}

impl Provenance {
    /// Probes the host.
    pub fn probe() -> Provenance {
        Provenance {
            git_rev: git_rev(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes: llc_bytes(),
            thp: thp_mode(),
        }
    }
}

fn git_rev() -> String {
    // Do not let git search above the working directory: a checkout
    // without history reports `unknown`, not some enclosing repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf));
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    match cmd.stderr(std::process::Stdio::null()).output() {
        Ok(out) if out.status.success() => {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if rev.is_empty() {
                "unknown".into()
            } else {
                rev
            }
        }
        _ => "unknown".into(),
    }
}

/// Largest cache size of the highest cache level sysfs lists for cpu0.
fn llc_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    let mut best = (0u32, 0u64);
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        let Ok(level) = read("level").trim().parse::<u32>() else {
            continue;
        };
        if let Some(bytes) = parse_cache_size(read("size").trim()) {
            best = best.max((level, bytes));
        }
    }
    best.1
}

/// Parses sysfs cache sizes such as `107520K` or `2M`.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, mult) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn thp_mode() -> String {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|s| {
            let open = s.find('[')?;
            let close = s[open..].find(']')? + open;
            Some(s[open + 1..close].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide (steal, total) CPU time in clock ticks, from the `cpu`
/// line of `/proc/stat`: time a hypervisor ran other guests on our
/// virtual CPUs is the noise a virtualized host adds to every timing.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share (%) of host CPU time stolen between two [`cpu_steal`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Runs `f` and returns its result with the share of the interval the
/// guest actually ran (1 − the stolen share).
pub fn ran_share<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = StealClock::start();
    let value = f();
    (value, 1.0 - clock.read().1)
}

/// Measures an interval's wall time and the CPU time the hypervisor
/// stole from this guest meanwhile.
pub struct StealClock {
    start: std::time::Instant,
    steal: (u64, u64),
}

impl StealClock {
    /// Starts measuring.
    pub fn start() -> StealClock {
        StealClock {
            start: std::time::Instant::now(),
            steal: cpu_steal(),
        }
    }

    /// (wall seconds, steal share in `[0, 1)`) since [`StealClock::start`].
    pub fn read(&self) -> (f64, f64) {
        let share = (steal_pct(self.steal, cpu_steal()) / 100.0).clamp(0.0, 0.9);
        (self.start.elapsed().as_secs_f64(), share)
    }

    /// Seconds the guest actually ran: wall time less the stolen share.
    pub fn run_seconds(&self) -> f64 {
        let (wall, share) = self.read();
        wall * (1.0 - share)
    }
}

/// (minor, major) page faults of this process so far — the counters
/// `getrusage` reports, read from `/proc/self/stat`.
pub fn page_faults() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name: state is field 3,
    // minflt field 10, majflt field 12 (1-based, man proc(5)).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0, 0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0);
    (get(7), get(9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K"), Some(107520 * 1024));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn process_counters_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let (minor, _) = page_faults();
        assert!(minor > 0);
    }
}
