//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! * `serve_small` — short jobs of every sampler × estimator pair over a
//!   cache-resident BA(50k, 4) store, a quarter of them cache hits;
//! * `serve_big` — 2M-step jobs, sequential and pooled, over a BA(2M, 5)
//!   store larger than the last-level cache, journal on;
//! * `paper_mc` — `run_degree_error` on `G_AB` (scale 0.2), no server.
//!
//! Inputs are generated from `--seed` into a scratch directory under
//! the working directory, which is removed afterwards. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the same workload
//! traced, replays its sample jobs layer by layer, writes the spans to
//! `.bench_out/`, and prints the per-layer metrics. The last stdout line
//! is the result object; the line before it carries provenance.

mod accuracy;
mod client;
mod env;
mod kinds;
mod layers;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use fs_serve::Json;
use report::{Outcome, RunCtx};
use std::path::PathBuf;

/// End-to-end metrics of every `--trace 0` run: (name, unit).
pub const END_TO_END: [(&str, &str); 7] = [
    ("jobs_per_s", "jobs/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("steps_per_s", "steps/s"),
    ("cnmse_fs", "cnmse"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of every `--trace 1` run: (name, unit).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("gen.graph_s", "s"),
    ("store.write_s", "s"),
    ("store.open_us", "us"),
    ("store.bytes", "B"),
    ("store.minor_faults", "count"),
    ("store.major_faults", "count"),
    ("graph.step_ns", "ns"),
    ("graph.queries_per_step", "queries/step"),
    ("runner.chunk_us_p50", "us"),
    ("runner.chunk_us_p99", "us"),
    ("runner.self_s", "s"),
    ("runner.steps", "count"),
    ("estimator.observe_ns", "ns"),
    ("estimator.snapshot_us", "us"),
    ("estimator.self_s", "s"),
    ("pool.run_s", "s"),
    ("pool.steps", "count"),
    ("sampler.fs.run_ms", "ms"),
    ("sampler.srw.run_ms", "ms"),
    ("sampler.mrw.run_ms", "ms"),
    ("mc.runs", "count"),
    ("mc.parallel_eff", "ratio"),
    ("jobs.e2e_ms_p50", "ms"),
    ("jobs.e2e_ms_p99", "ms"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.busy_share", "ratio"),
    ("jobs.failed", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_us_p50", "us"),
    ("cache.race_misses", "count"),
    ("journal.checkpoints", "count"),
    ("journal.bytes", "B"),
    ("journal.appends_failed", "count"),
    ("http.submit_rtt_us_p50", "us"),
    ("http.stream_wait_ms_p50", "ms"),
    ("http.overhead_ms_p50", "ms"),
    ("http.errors", "count"),
    ("json.parse_us", "us"),
    ("json.doc_bytes", "B"),
    ("replay.decomposed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("tracing.spans", "count"),
    ("run.wall_s", "s"),
];

/// Workload names.
pub const WORKLOADS: [&str; 3] = ["serve_small", "serve_big", "paper_mc"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only when empty
        }
    }
}

/// Runs one workload; every expected metric must come back finite.
pub fn run_workload(ctx: &RunCtx) -> Result<Outcome, String> {
    let wall = std::time::Instant::now();
    let mut out = Outcome::default();
    match ctx.workload.as_str() {
        "serve_small" => serve::run(&serve::ServeParams::small(), ctx, &mut out)?,
        "serve_big" => serve::run(&serve::ServeParams::big(), ctx, &mut out)?,
        "paper_mc" => paper::run(&paper::PaperParams::standard(), ctx, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    finish(ctx, wall, out)
}

/// Adds the process-wide metrics and checks the metric set is complete.
fn finish(ctx: &RunCtx, wall: std::time::Instant, mut out: Outcome) -> Result<Outcome, String> {
    if ctx.trace {
        out.put("run.wall_s", wall.elapsed().as_secs_f64(), "s");
    } else {
        out.put("peak_rss_mb", env::peak_rss_mb(), "MB");
    }
    let expected: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in expected {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, u)) if v.is_finite() && u == unit => {}
            Some((_, v, u)) => {
                return Err(format!(
                    "metric {name} = {v} {u} (want a finite value in {unit})"
                ))
            }
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    out.metrics
        .retain(|(n, _, _)| expected.iter().any(|(e, _)| e == n));
    out.metrics
        .sort_by_key(|(n, _, _)| expected.iter().position(|(e, _)| e == n));
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Runs the workload inside a scratch directory that is removed on
/// every return path, then prints provenance and the result.
fn run(args: Args) -> Result<(), String> {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let tmp = cwd
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("cannot create scratch directory {}: {e}", tmp.display()))?;
    let _scratch = Scratch(tmp.clone());
    let out_dir = cwd.join(".bench_out");
    if args.trace {
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    }
    let ctx = RunCtx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp,
        out_dir,
        prov: env::Provenance::probe(),
    };
    let out = run_workload(&ctx).map_err(|e| format!("{} failed: {e}", ctx.workload))?;
    let prov = &ctx.prov;
    let notes = Json::Obj(
        out.notes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    );
    let provenance = Json::obj([
        ("workload", Json::from(ctx.workload.as_str())),
        ("seed", Json::from(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::from(ctx.trace)),
        ("git_rev", Json::from(prov.git_rev.as_str())),
        ("nproc", Json::from(prov.nproc)),
        ("llc_bytes", Json::from(prov.llc_bytes)),
        ("thp", Json::from(prov.thp.as_str())),
        ("notes", notes),
    ]);
    println!("{}", Json::obj([("provenance", provenance)]).encode());
    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::from(unit.as_str())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::from(out.failed == 0)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.encode());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a workload at toy scale, untraced and traced, and checks the
    /// result is complete and correct.
    fn smoke(workload: &str, run: impl Fn(&RunCtx, &mut Outcome) -> Result<(), String>) {
        for trace in [false, true] {
            let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".bench_tmp");
            let tmp = base.join(format!("smoke-{workload}-{trace}-{}", std::process::id()));
            std::fs::create_dir_all(&tmp).unwrap();
            let _scratch = Scratch(tmp.clone());
            let ctx = RunCtx {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.4,
                trace,
                out_dir: tmp.clone(),
                tmp,
                prov: env::Provenance::probe(),
            };
            let wall = std::time::Instant::now();
            let mut out = Outcome::default();
            run(&ctx, &mut out).unwrap();
            let out = finish(&ctx, wall, out).unwrap();
            assert_eq!(out.failed, 0, "{workload} trace={trace}");
            assert!(out.attempted > 0);
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(out.metrics.len(), expected);
            if trace {
                assert!(ctx.trace_path().exists());
            } else {
                assert!(out.get("setup_s").unwrap() > 0.0);
                assert!(out.get("jobs_per_s").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn smoke_serve_small() {
        smoke("serve_small", |ctx, out| {
            serve::run(&serve::ServeParams::small().tiny(), ctx, out)
        });
    }

    #[test]
    fn smoke_serve_big() {
        smoke("serve_big", |ctx, out| {
            serve::run(&serve::ServeParams::big().tiny(), ctx, out)
        });
    }

    #[test]
    fn smoke_paper_mc() {
        smoke("paper_mc", |ctx, out| {
            paper::run(&paper::PaperParams::tiny(), ctx, out)
        });
    }

    #[test]
    fn metric_names_follow_the_benchmark_rules() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
            assert!(!names[..i].contains(n), "{n} twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = fs_serve::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
