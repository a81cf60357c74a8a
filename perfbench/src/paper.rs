//! The `paper_mc` workload: the paper's loosely connected case, no
//! server. `run_degree_error` computes CNMSE-of-CCDF on `G_AB` for FS,
//! SingleRW and MultipleRW at `B = 0.1·|V|` through the Monte Carlo
//! engine; one call (every method, `runs` runs each) is one operation.

use crate::client::Client;
use crate::env::{ran_share, StealClock};
use crate::kinds::{job_seed, JobKind};
use crate::layers::{self, ProbeInput, SampleJob};
use crate::report::{Outcome, RunCtx};
use crate::serve::{run_http_job, CLIENTS};
use crate::stats::{median, Summary, TAIL_Q};
use crate::trace::Tracer;
use frontier_sampling::parallel::{stream_seed, ParallelWalkerPool};
use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use frontier_sampling::{Budget, WalkMethod};
use fs_experiments::datasets::GroundTruth;
use fs_experiments::experiments::common::{
    fs_dimension, run_degree_error, scaled_budget_fraction, DegreeErrorSpec, ErrorMetric,
    SamplingMethod,
};
use fs_experiments::series::SeriesSet;
use fs_experiments::ExpConfig;
use fs_gen::datasets::DatasetKind;
use fs_graph::stats::DegreeKind;
use fs_graph::Graph;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the Monte Carlo workload.
#[derive(Clone, Debug)]
pub struct PaperParams {
    /// `G_AB` scale (1.0 = the paper's 10⁶ vertices).
    pub scale: f64,
    /// Monte Carlo runs per method in one operation.
    pub runs: usize,
    /// Full set-ups per run (the reported set-up time is their median).
    pub setups: usize,
    /// Cold operations whose FS errors enter `cnmse_fs`.
    pub accuracy_ops: usize,
    /// Runs per method in the 1- vs 2-thread identity check.
    pub gate_runs: usize,
}

/// Every `REPEAT_EVERY`-th operation repeats the previous one.
const REPEAT_EVERY: usize = 4;

impl PaperParams {
    /// `G_AB` at scale 0.2: 200k vertices.
    pub fn standard() -> PaperParams {
        // 48 runs per method make a call ~0.3 s, so a call spans the
        // host's short contention bursts instead of sitting inside one:
        // with 16 runs the tail quantile swung by ±25% between seeds.
        PaperParams {
            scale: 0.2,
            runs: 48,
            setups: 3,
            accuracy_ops: 8,
            gate_runs: 4,
        }
    }

    /// Toy scale for the smoke test.
    #[cfg(test)]
    pub fn tiny() -> PaperParams {
        PaperParams {
            scale: 0.004,
            runs: 4,
            setups: 2,
            accuracy_ops: 2,
            gate_runs: 2,
        }
    }
}

/// Graph, ground truth and methods of one set-up.
struct Deployment {
    graph: Graph,
    truth: Arc<GroundTruth>,
    budget: f64,
    m: usize,
    methods: Vec<SamplingMethod>,
    /// Walk steps one run of each method makes (same order as `methods`).
    steps_per_run: Vec<u64>,
    gen_s: f64,
}

fn deploy(p: &PaperParams, seed: u64) -> Deployment {
    let t = Instant::now();
    let graph = DatasetKind::Gab.generate(p.scale, seed).graph;
    let gen_s = t.elapsed().as_secs_f64();
    let truth = Arc::new(GroundTruth::compute(&graph));
    let budget = graph.num_vertices() as f64 * scaled_budget_fraction();
    let m = fs_dimension(budget);
    let methods = vec![
        SamplingMethod::walk(WalkMethod::frontier(m)),
        SamplingMethod::walk(WalkMethod::single()),
        SamplingMethod::walk(WalkMethod::multiple(m)),
    ];
    // Warm up, and count the walk steps a run makes (unit costs: every
    // sampled edge is one step on a complete graph store).
    let steps_per_run = methods
        .iter()
        .map(|method| {
            let SamplingMethod::Walk { method, cost } = method else {
                unreachable!("walk methods only")
            };
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut b = Budget::new(budget);
            let mut steps = 0u64;
            method.sample_edges(&graph, cost, &mut b, &mut rng, |_| steps += 1);
            steps
        })
        .collect();
    Deployment {
        graph,
        truth,
        budget,
        m,
        methods,
        steps_per_run,
        gen_s,
    }
}

/// One `run_degree_error` call.
fn op(d: &Deployment, p: &PaperParams, seed: u64) -> SeriesSet {
    let spec = DegreeErrorSpec {
        graph: &d.graph,
        degree: DegreeKind::Symmetric,
        budget: d.budget,
        methods: d.methods.clone(),
        metric: ErrorMetric::CnmseOfCcdf,
        truth: Some(Arc::clone(&d.truth)),
    };
    let cfg = ExpConfig {
        scale: p.scale,
        runs: p.runs,
        seed,
        quick: false,
    };
    run_degree_error(&spec, &cfg)
}

struct OpRecord {
    /// Cold operation ordinal (`None` for repeats).
    cold: Option<usize>,
    ns: u64,
    done_at_ns: u64,
    set: SeriesSet,
    ok: bool,
}

/// Operations until `seconds` have passed.
fn window(
    d: &Deployment,
    p: &PaperParams,
    base: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> (Vec<OpRecord>, f64) {
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<OpRecord> = Vec::new();
    let mut cold = 0usize;
    for index in 0.. {
        let twin = (index % REPEAT_EVERY == REPEAT_EVERY - 1)
            .then(|| records.last())
            .flatten()
            .filter(|r| r.cold.is_some());
        if twin.is_none() && Instant::now() >= stop_at {
            break;
        }
        let ordinal = twin.map_or(cold, |t| t.cold.expect("cold twin"));
        let span = tr.begin("mc.op", None, index as u64);
        let t = Instant::now();
        let set = op(d, p, stream_seed(base, ordinal as u64));
        let ns = t.elapsed().as_nanos() as u64;
        tr.end(span);
        // A repeat must reproduce its twin bit for bit.
        let ok = twin.is_none_or(|t| series_bits(&t.set) == series_bits(&set));
        if !ok {
            eprintln!("repeat of operation {ordinal} differs from its first run");
        }
        if twin.is_none() {
            cold += 1;
        }
        records.push(OpRecord {
            cold: twin.is_none().then_some(ordinal),
            ns,
            done_at_ns: start.elapsed().as_nanos() as u64,
            set,
            ok,
        });
    }
    let seconds = records.last().map_or(1e-9, |r| r.done_at_ns as f64 * 1e-9);
    (records, seconds)
}

fn series_bits(set: &SeriesSet) -> Vec<Vec<Option<u64>>> {
    set.series
        .iter()
        .map(|s| s.values.iter().map(|v| v.map(f64::to_bits)).collect())
        .collect()
}

/// Walk steps per second over the window.
fn steps_per_s(d: &Deployment, p: &PaperParams, records: &[OpRecord], seconds: f64) -> f64 {
    let per_op: u64 = d.steps_per_run.iter().sum::<u64>() * p.runs as u64;
    (per_op * records.len() as u64) as f64 / seconds
}

/// FS CNMSE over the first `accuracy_ops` cold operations: per degree
/// the root mean square of the operations' CNMSEs (each covers the same
/// number of runs, so this is the CNMSE over all their runs), then the
/// geometric mean over degrees.
fn fs_cnmse(d: &Deployment, p: &PaperParams, records: &[OpRecord]) -> Option<f64> {
    let label = format!("FS (m={})", d.m);
    let sets: Vec<&SeriesSet> = records
        .iter()
        .filter(|r| r.cold.is_some_and(|c| c < p.accuracy_ops))
        .map(|r| &r.set)
        .collect();
    let first = sets.first()?;
    let series: Vec<&[Option<f64>]> = sets
        .iter()
        .map(|s| {
            s.series
                .iter()
                .find(|x| x.label == label)
                .map(|x| x.values.as_slice())
        })
        .collect::<Option<_>>()?;
    let mut combined = SeriesSet::new("degree", first.xs.clone());
    combined.add_fn("FS", |x| {
        let i = first.xs.iter().position(|&y| y == x)?;
        let squares: Option<Vec<f64>> = series.iter().map(|s| s[i].map(|v| v * v)).collect();
        let squares = squares?;
        Some((squares.iter().sum::<f64>() / squares.len() as f64).sqrt())
    });
    combined.geometric_mean("FS")
}

/// Runs the workload and records its metrics.
pub fn run(p: &PaperParams, ctx: &RunCtx, out: &mut Outcome) -> Result<(), String> {
    let base = stream_seed(ctx.seed, 0x4D43);
    let setups = if ctx.trace { 1 } else { p.setups.max(1) };
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..setups {
        drop(deployment.take());
        let clock = StealClock::start();
        deployment = Some(deploy(p, ctx.seed));
        setup_s.push(clock.run_seconds());
    }
    let d = deployment.expect("at least one set-up");
    out.note("vertices", d.graph.num_vertices() as f64);
    out.note("budget", d.budget);

    let faults_before = crate::env::page_faults();
    let mut tr = Tracer::new(Instant::now(), false);
    // Timings count the time the guest actually ran (see the README).
    let (((records, seconds), ran), untraced) = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let plain = ran_share(|| window(&d, p, stream_seed(base, 1), half, &mut tr));
        tr = Tracer::new(Instant::now(), true);
        (
            ran_share(|| window(&d, p, base, half, &mut tr)),
            Some(plain),
        )
    } else {
        (
            ran_share(|| window(&d, p, base, ctx.seconds, &mut tr)),
            None,
        )
    };
    let faults_after = crate::env::page_faults();
    out.note("steal_pct", (1.0 - ran) * 100.0);

    // Determinism gate: the same runs on one and on two threads.
    let mut gate_failures = 0;
    for method in &d.methods {
        let body = |seed: u64| {
            method.estimate_degree_distribution(&d.graph, DegreeKind::Symmetric, d.budget, seed)
        };
        let one = fs_experiments::monte_carlo_with(
            &ParallelWalkerPool::with_threads(1),
            p.gate_runs,
            base,
            body,
        );
        let two = fs_experiments::monte_carlo_with(
            &ParallelWalkerPool::with_threads(2),
            p.gate_runs,
            base,
            body,
        );
        let bits = |runs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            runs.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        if bits(&one) != bits(&two) {
            eprintln!(
                "gate: {} estimates differ between 1 and 2 threads",
                method.label()
            );
            gate_failures += 1;
        }
    }
    let failed_ops = records.iter().filter(|r| !r.ok).count();
    out.attempted += (records.len() + d.methods.len()) as u64;
    out.failed += (failed_ops + gate_failures) as u64;

    let ms = |r: &OpRecord| r.ns as f64 * 1e-6;
    let cold: Vec<f64> = records
        .iter()
        .filter(|r| r.cold.is_some())
        .map(ms)
        .collect();
    let repeats: Vec<f64> = records
        .iter()
        .filter(|r| r.cold.is_none())
        .map(ms)
        .collect();
    let cold_sum = Summary::of(&cold, TAIL_Q);
    out.note("cold_ops", cold_sum.n as f64);
    out.note("cold_tail_quantile", cold_sum.tail_q);
    out.note("repeat_ops", repeats.len() as f64);

    if ctx.trace {
        let ((plain, plain_s), plain_ran) = untraced.expect("paired untraced half");
        let traced = steps_per_s(&d, p, &records, seconds * ran);
        let untraced = steps_per_s(&d, p, &plain, plain_s * plain_ran);
        out.put("trace.overhead_pct", (1.0 - traced / untraced) * 100.0, "%");
        out.put(
            "store.minor_faults",
            faults_after.0.saturating_sub(faults_before.0) as f64,
            "count",
        );
        out.put(
            "store.major_faults",
            faults_after.1.saturating_sub(faults_before.1) as f64,
            "count",
        );
        out.put("gen.graph_s", d.gen_s, "s");
        ledger(&d, ctx, base, &mut tr, out)?;
        let path = ctx.trace_path();
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.put("tracing.spans", tr.spans().len() as f64, "count");
        eprintln!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    } else {
        out.put(
            "jobs_per_s",
            records.len() as f64 / (seconds * ran),
            "jobs/s",
        );
        out.put("cold_p50_ms", cold_sum.p50 * ran, "ms");
        out.put("cold_p90_ms", cold_sum.tail * ran, "ms");
        out.note("repeat_p50_ms", median(&repeats) * ran);
        out.put(
            "steps_per_s",
            steps_per_s(&d, p, &records, seconds * ran),
            "steps/s",
        );
        out.put(
            "cnmse_fs",
            fs_cnmse(&d, p, &records).unwrap_or(f64::NAN),
            "cnmse",
        );
        out.put("setup_s", median(&setup_s), "s");
    }
    Ok(())
}

/// The traced layer ledger over `G_AB` written to a store: the paper's
/// three methods as degree-distribution jobs, served over HTTP once and
/// then replayed at every layer.
fn ledger(
    d: &Deployment,
    ctx: &RunCtx,
    base: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let root = ctx.tmp.join("stores");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let store_path = root.join("gab.fsg");
    let span = tr.begin("store.write", None, 0);
    let t = Instant::now();
    fs_store::write_store(&d.graph, &store_path).map_err(|e| format!("write store: {e}"))?;
    out.put("store.write_s", t.elapsed().as_secs_f64(), "s");
    tr.end(span);
    out.put(
        "store.bytes",
        std::fs::metadata(&store_path)
            .map_err(|e| e.to_string())?
            .len() as f64,
        "B",
    );
    out.put("journal.checkpoints", 0.0, "count");
    out.put("journal.appends_failed", 0.0, "count");
    out.put("journal.bytes", 0.0, "B");

    let dd = EstimatorSpec::DegreeDist;
    let kinds = vec![
        JobKind::seq(SamplerSpec::Frontier { m: d.m }, dd),
        JobKind::seq(SamplerSpec::Single, dd),
        JobKind::seq(SamplerSpec::Multiple { m: d.m }, dd),
    ];
    let mut sample: Vec<SampleJob> = (0..2 * kinds.len())
        .map(|i| SampleJob {
            kind: i % kinds.len(),
            seed: job_seed(base ^ 0x1ED6, i as u64),
            http_e2e_ns: None,
        })
        .collect();

    // The sample stream over HTTP, two clients, as the serve workloads run it.
    let server = fs_serve::Server::start(fs_serve::Config::new(&root))
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
    let served: Vec<(usize, Result<crate::serve::Served, String>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .iter_mut()
            .enumerate()
            .map(|(c, fork)| {
                let (kinds, sample) = (&kinds, &sample);
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut done = Vec::new();
                    for (i, job) in sample.iter().enumerate().filter(|(i, _)| i % CLIENTS == c) {
                        let t = Instant::now();
                        let result = client.as_mut().map_err(|e| e.clone()).and_then(|cl| {
                            cl.set_deadline(t + Duration::from_secs(60));
                            run_http_job(
                                cl,
                                fork,
                                i as u64,
                                &kinds[job.kind].body("gab.fsg", d.budget, job.seed),
                            )
                        });
                        done.push((i, result, t.elapsed().as_nanos() as u64));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for fork in forks {
        tr.absorb(fork);
    }
    server.shutdown();
    let mut errors = 0;
    let mut ok = Vec::new();
    for (i, result, ns) in served {
        match result {
            Ok(s) => {
                sample[i].http_e2e_ns = Some(ns);
                ok.push(s);
            }
            Err(e) => {
                eprintln!("ledger: served sample job failed: {e}");
                errors += 1;
            }
        }
    }
    out.attempted += sample.len() as u64;
    out.failed += errors as u64;
    let col =
        |f: &dyn Fn(&crate::serve::Served) -> f64| median(&ok.iter().map(f).collect::<Vec<_>>());
    out.put(
        "http.submit_rtt_us_p50",
        col(&|s| s.submit_ns as f64 * 1e-3),
        "us",
    );
    out.put(
        "http.stream_wait_ms_p50",
        col(&|s| s.stream_ns as f64 * 1e-6),
        "ms",
    );
    out.put("http.errors", errors as f64, "count");
    out.put("json.parse_us", col(&|s| s.parse_ns as f64 * 1e-3), "us");
    out.put("json.doc_bytes", col(&|s| s.doc_bytes as f64), "B");

    let graph = fs_store::MmapGraph::open(&store_path).map_err(|e| format!("open store: {e}"))?;
    let input = ProbeInput {
        store_path: store_path.clone(),
        kinds: &kinds,
        budget: d.budget,
        sample: &sample,
        journal: false,
        tmp: &ctx.tmp,
    };
    layers::probe(&input, &graph, tr, out)
}
