//! Run context and the result a workload reports.

use crate::env::Provenance;
use std::path::PathBuf;

/// Everything a workload needs to know about its run.
pub struct RunCtx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for generated inputs, removed after the run.
    pub tmp: PathBuf,
    /// Directory the span file of a traced run is written to.
    pub out_dir: PathBuf,
    /// Host provenance.
    pub prov: Provenance,
}

impl RunCtx {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// Counts and metrics of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (jobs, Monte Carlo calls, gate checks).
    pub attempted: u64,
    /// Operations failed, gate mismatches included.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Context printed beside the result (sample counts, sizes).
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a metric (a later value of the same name replaces it).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a context figure.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}
