//! Job shapes and the direct library call each served job must match.

use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, EstimatorSpec, JobEstimator, Sample, SamplerSpec,
};
use frontier_sampling::{Budget, CostModel, FrontierSampler, MultipleRw, ParallelWalkerPool};
use fs_graph::{CountedAccess, ShardedCounter};
use fs_serve::Json;
use fs_store::MmapGraph;
use std::hint::black_box;
use std::sync::Arc;

/// Attempts per runner chunk — the serving tier's chunk size, so a
/// replay sees the same chunk boundaries (and snapshots) as a job.
pub const CHUNK: usize = 8_192;

/// Every estimator, in wire order.
pub const ESTIMATORS: [EstimatorSpec; 6] = [
    EstimatorSpec::AverageDegree,
    EstimatorSpec::DegreeDist,
    EstimatorSpec::Ccdf,
    EstimatorSpec::Assortativity,
    EstimatorSpec::Clustering,
    EstimatorSpec::PopulationSize,
];

/// The `i`-th job seed of stream `base`. Seeds travel as JSON numbers
/// (IEEE doubles), so they are kept to 53 bits.
pub fn job_seed(base: u64, i: u64) -> u64 {
    frontier_sampling::parallel::stream_seed(base, i) >> 11
}

/// One job shape: sampler, estimator and execution mode.
#[derive(Clone, Debug, PartialEq)]
pub struct JobKind {
    /// Sampling method.
    pub sampler: SamplerSpec,
    /// Reported estimate.
    pub estimator: EstimatorSpec,
    /// `Some(t)`: the deterministic walker pool on `t` threads.
    pub pool: Option<usize>,
}

impl JobKind {
    /// A sequential job.
    pub fn seq(sampler: SamplerSpec, estimator: EstimatorSpec) -> JobKind {
        JobKind {
            sampler,
            estimator,
            pool: None,
        }
    }

    /// Every (sampler, estimator) pair `JobEstimator::new` accepts, in
    /// sampler-major order, as sequential jobs.
    pub fn all_accepted(samplers: &[SamplerSpec]) -> Vec<JobKind> {
        samplers
            .iter()
            .flat_map(|s| {
                ESTIMATORS
                    .iter()
                    .filter(|e| JobEstimator::new(**e, s).is_ok())
                    .map(|e| JobKind::seq(s.clone(), *e))
            })
            .collect()
    }

    /// Whether this is a Frontier Sampling job.
    pub fn is_fs(&self) -> bool {
        matches!(self.sampler, SamplerSpec::Frontier { .. })
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        let pool = self.pool.map_or(String::new(), |t| format!(" pool={t}"));
        format!("{} / {}{pool}", self.sampler.label(), self.estimator.name())
    }

    /// The `POST /v1/jobs` body.
    pub fn body(&self, store: &str, budget: f64, seed: u64) -> String {
        let (name, m, alpha) = match self.sampler {
            SamplerSpec::Frontier { m } => ("fs", m, 0.0),
            SamplerSpec::Single => ("single", 1, 0.0),
            SamplerSpec::Multiple { m } => ("multiple", m, 0.0),
            SamplerSpec::Mhrw => ("mhrw", 1, 0.0),
            SamplerSpec::Nbrw => ("nbrw", 1, 0.0),
            SamplerSpec::Rwj { alpha } => ("rwj", 1, alpha),
        };
        let mut fields = vec![
            ("store", Json::from(store)),
            ("sampler", Json::from(name)),
            ("m", Json::from(m as u64)),
            ("alpha", Json::Num(alpha)),
            ("budget", Json::Num(budget)),
            ("seed", Json::from(seed)),
            ("estimator", Json::from(self.estimator.name())),
        ];
        if let Some(t) = self.pool {
            fields.push(("pool_threads", Json::from(t as u64)));
        }
        Json::obj(fields).encode()
    }

    /// The in-process spec of the same job.
    pub fn spec(&self, store: &str, budget: f64, seed: u64) -> fs_serve::JobSpec {
        fs_serve::JobSpec {
            store: store.to_string(),
            sampler: self.sampler.clone(),
            budget,
            seed,
            estimator: self.estimator,
            pool_threads: self.pool,
        }
    }
}

/// The direct library call a served job with `seed` must reproduce bit
/// for bit: `ChunkedRunner` + `JobEstimator` for sequential jobs,
/// `pool.frontier` / `pool.multiple_rw` + `JobEstimator` for pooled ones.
/// It runs the way a job worker does — walks through a `CountedAccess`
/// tap, the estimator observing inside the runner's sink, one snapshot
/// per chunk — so the traced run also times it as the inline job.
pub fn library_estimate(
    kind: &JobKind,
    graph: &MmapGraph,
    budget: f64,
    seed: u64,
) -> EstimateSnapshot {
    let access = CountedAccess::new(graph, Arc::new(ShardedCounter::new()));
    let mut est = JobEstimator::new(kind.estimator, &kind.sampler).expect("accepted job kind");
    match kind.pool {
        None => {
            let mut runner =
                ChunkedRunner::new(&kind.sampler, &access, &CostModel::unit(), budget, seed);
            loop {
                let status = runner.run_chunk(CHUNK, |s| est.observe(graph, s));
                black_box(est.snapshot());
                if status == ChunkStatus::Finished {
                    break;
                }
            }
        }
        Some(threads) => {
            let run = pooled_run(kind, &access, budget, seed, threads);
            for chunk in run.steps.chunks(CHUNK) {
                for edge in chunk.iter().filter_map(|s| s.outcome.sampled()) {
                    est.observe(graph, Sample::Edge(edge));
                }
                black_box(est.snapshot());
            }
        }
    }
    est.snapshot()
}

/// The pooled walk of a pooled FS or MultipleRW job.
pub fn pooled_run<A: fs_graph::GraphAccess + ?Sized>(
    kind: &JobKind,
    graph: &A,
    budget: f64,
    seed: u64,
    threads: usize,
) -> frontier_sampling::parallel::PoolRun {
    let pool = ParallelWalkerPool::with_threads(threads);
    let mut budget = Budget::new(budget);
    let cost = CostModel::unit();
    match kind.sampler {
        SamplerSpec::Frontier { m } => {
            pool.frontier(&FrontierSampler::new(m), graph, &cost, &mut budget, seed)
        }
        SamplerSpec::Multiple { m } => {
            pool.multiple_rw(&MultipleRw::new(m), graph, &cost, &mut budget, seed)
        }
        ref other => panic!("no pooled form of {}", other.label()),
    }
}

/// The estimate object of a served job document, as numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEstimate {
    /// Samples consumed.
    pub num_observed: u64,
    /// Scalar estimate.
    pub scalar: Option<f64>,
    /// Vector estimate.
    pub vector: Option<Vec<f64>>,
}

impl WireEstimate {
    /// Parses the `estimate` object text of a job document.
    pub fn parse(text: &str) -> Result<WireEstimate, String> {
        let doc = fs_serve::json::parse(text).map_err(|e| e.to_string())?;
        let num_observed = doc
            .get("num_observed")
            .and_then(Json::as_u64)
            .ok_or("estimate without num_observed")?;
        let scalar = doc.get("scalar").and_then(Json::as_f64);
        let vector = match doc.get("vector").and_then(Json::as_arr) {
            None => None,
            Some(items) => Some(
                items
                    .iter()
                    .map(|x| x.as_f64().ok_or("non-numeric vector entry"))
                    .collect::<Result<Vec<f64>, _>>()?,
            ),
        };
        Ok(WireEstimate {
            num_observed,
            scalar,
            vector,
        })
    }

    /// Whether every number equals the snapshot's, bit for bit.
    pub fn matches(&self, s: &EstimateSnapshot) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        self.num_observed == s.num_observed
            && self.scalar.map(f64::to_bits) == s.scalar.map(f64::to_bits)
            && self.vector.as_deref().map(bits) == s.vector.as_deref().map(bits)
    }
}

/// The raw `estimate` object of a job document line (the last field
/// the server writes), byte for byte.
pub fn raw_estimate(doc_line: &str) -> Option<&str> {
    let key = "\"estimate\":";
    let at = doc_line.rfind(key)? + key.len();
    doc_line.get(at..doc_line.trim_end().len().checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_pairs_match_the_estimator_rules() {
        let kinds = JobKind::all_accepted(&[
            SamplerSpec::Frontier { m: 16 },
            SamplerSpec::Single,
            SamplerSpec::Multiple { m: 16 },
            SamplerSpec::Mhrw,
            SamplerSpec::Nbrw,
            SamplerSpec::Rwj { alpha: 1.0 },
        ]);
        // Edge samplers take all six estimators, MHRW and RWJ three each.
        assert_eq!(kinds.len(), 4 * 6 + 2 * 3);
    }

    #[test]
    fn raw_estimate_is_the_trailing_object() {
        let line =
            r#"{"id":3,"cached":true,"estimate":{"num_observed":2,"scalar":1.5,"vector":null}}"#;
        assert_eq!(
            raw_estimate(line),
            Some(r#"{"num_observed":2,"scalar":1.5,"vector":null}"#)
        );
        let w = WireEstimate::parse(raw_estimate(line).unwrap()).unwrap();
        assert_eq!(w.scalar, Some(1.5));
        assert!(w.vector.is_none());
    }

    #[test]
    fn body_round_trips_through_the_wire_parser() {
        let kind = JobKind {
            sampler: SamplerSpec::Rwj { alpha: 1.0 },
            estimator: EstimatorSpec::Ccdf,
            pool: None,
        };
        let doc = fs_serve::json::parse(&kind.body("g.fsg", 20_000.0, 7)).unwrap();
        assert_eq!(doc.get("sampler").and_then(Json::as_str), Some("rwj"));
        assert_eq!(doc.get("alpha").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(7));
    }
}
