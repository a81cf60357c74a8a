//! Span recording for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around calls
//! into each layer's public functions: name, start, end, parent span
//! and job id. They stay in memory and are written out when the run
//! ends. A disabled tracer records nothing, so the untraced run pays
//! one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `runner.chunk`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The job (or run) the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Tracers of one run share an epoch so
/// their spans merge onto one time line.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer measuring from `epoch`; `enabled = false` records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with this tracer's epoch and setting, for
    /// another thread (merge it back with [`Tracer::absorb`]).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time (s) of every span called `name`.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once; child time outside the parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut open: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                match open {
                    Some((a, b)) if lo <= b => open = Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        open = Some((lo, hi));
                    }
                    None => open = Some((lo, hi)),
                }
            }
            if let Some((a, b)) = open {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union 10..50
            span("c", 60, 70, Some(0)),
            span("leaf", 12, 18, Some(1)), // grandchild: only a's self shrinks
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 10, 6]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("x", None, 1);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let root = a.begin("root", None, 1);
        a.end(root);
        let mut b = a.fork();
        let p = b.begin("p", None, 2);
        let c = b.begin("c", p, 2);
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans().iter().filter(|s| s.name == "c").count(), 1);
        assert!(a.self_seconds("p") >= 0.0);
    }
}
