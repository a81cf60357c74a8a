//! The traced layer ledger: the workload's sample jobs timed at each
//! seam, outside in — bare `GraphAccess` steps, `ChunkedRunner` chunks,
//! `JobEstimator` observe/snapshot, the walker pool, the one-shot
//! samplers, the Monte Carlo engine, and an in-process `JobManager`
//! with its result cache and journal.
//!
//! Runner and estimator are timed apart: `run_chunk` gets a sink that
//! only buffers samples, and the estimator then observes the buffer.
//! `observe` never feeds back into the walk, so the decomposed replay
//! must end on the same bits as the inline one; a mismatch fails the run.

use crate::accuracy::fs_theta;
use crate::kinds::{library_estimate, pooled_run, JobKind, CHUNK};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{SpanId, Tracer};
use frontier_sampling::parallel::ParallelWalkerPool;
use frontier_sampling::runner::{
    ChunkStatus, ChunkedRunner, EstimateSnapshot, JobEstimator, Sample, SamplerSpec,
};
use frontier_sampling::{Budget, CostModel, WalkMethod};
use fs_graph::{CountedAccess, GraphAccess, ShardedCounter, VertexId};
use fs_serve::{JobManager, JobPhase, Journal, ResultCache, StoreRegistry};
use fs_store::MmapGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One job of the sample stream the ledger replays.
#[derive(Clone, Debug)]
pub struct SampleJob {
    /// Index into the workload's kinds.
    pub kind: usize,
    /// Job seed.
    pub seed: u64,
    /// End-to-end time of the same job served over HTTP, when known.
    pub http_e2e_ns: Option<u64>,
}

/// What the ledger runs over.
pub struct ProbeInput<'a> {
    /// The workload's store file.
    pub store_path: PathBuf,
    /// The workload's job kinds.
    pub kinds: &'a [JobKind],
    /// Job budget.
    pub budget: f64,
    /// The sample job stream.
    pub sample: &'a [SampleJob],
    /// Whether the in-process manager journals (as the workload's server does).
    pub journal: bool,
    /// Scratch directory.
    pub tmp: &'a Path,
}

/// Runs every layer probe and records the per-layer metrics.
pub fn probe(
    input: &ProbeInput,
    graph: &MmapGraph,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    store_open(input, tr, out)?;
    graph_walk(graph, input.budget, tr, out);
    replay(input, graph, tr, out)?;
    samplers(input, graph, tr, out);
    monte_carlo(input, graph, tr, out);
    in_process_jobs(input, tr, out)
}

fn us(ns: f64) -> f64 {
    ns * 1e-3
}

/// `MmapGraph::open` of the workload's store.
fn store_open(input: &ProbeInput, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut times = Vec::new();
    for i in 0..5 {
        let span = tr.begin("store.open", None, i);
        let t = Instant::now();
        let g = MmapGraph::open(&input.store_path).map_err(|e| format!("open store: {e}"))?;
        times.push(t.elapsed().as_nanos() as f64);
        tr.end(span);
        black_box(g.num_vertices());
    }
    out.put("store.open_us", us(median(&times)), "us");
    Ok(())
}

/// A bare single-walker loop of `step_query` calls over the store.
fn graph_walk(graph: &MmapGraph, budget: f64, tr: &mut Tracer, out: &mut Outcome) {
    let steps = (budget as usize).clamp(200_000, 2_000_000);
    let mut rng = SmallRng::seed_from_u64(0x57E9);
    let n = graph.num_vertices();
    let restart = |rng: &mut SmallRng| loop {
        let v = VertexId::new(rng.gen_range(0..n));
        let d = graph.degree(v);
        if d > 0 {
            return (v, d);
        }
    };
    let (mut v, mut d) = restart(&mut rng);
    let span = tr.begin("graph.walk", None, 0);
    let t = Instant::now();
    for _ in 0..steps {
        let reply = graph.step_query(v, rng.gen_range(0..d));
        match reply.reply.moved_to() {
            Some(next) if reply.target_degree > 0 => (v, d) = (next, reply.target_degree),
            _ => (v, d) = restart(&mut rng),
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    tr.end(span);
    black_box(v);
    out.put("graph.step_ns", ns / steps as f64, "ns");
}

/// Totals of the decomposed replays.
#[derive(Default)]
struct Ledger {
    chunk_ns: Vec<f64>,
    runner_steps: u64,
    queries: u64,
    walk_steps: u64,
    observe_ns: f64,
    observed: u64,
    snapshot_ns: Vec<f64>,
    pool_ns: f64,
    pool_steps: u64,
}

fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    job: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tr.begin(name, parent, job);
    let t = Instant::now();
    let value = f();
    let ns = t.elapsed().as_nanos() as f64;
    tr.end(span);
    (value, ns)
}

/// One job replayed layer by layer; returns its final snapshot and its
/// duration (ns).
fn replay_decomposed(
    kind: &JobKind,
    graph: &MmapGraph,
    budget: f64,
    seed: u64,
    job: u64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> (EstimateSnapshot, f64) {
    let t = Instant::now();
    let root = tr.begin("replay.job", None, job);
    let counter = Arc::new(ShardedCounter::new());
    let access = CountedAccess::new(graph, Arc::clone(&counter));
    let mut est = JobEstimator::new(kind.estimator, &kind.sampler).expect("accepted job kind");
    let mut buf: Vec<Sample> = Vec::with_capacity(CHUNK);
    let observe =
        |tr: &mut Tracer, ledger: &mut Ledger, est: &mut JobEstimator, buf: &mut Vec<Sample>| {
            let n = buf.len() as u64;
            let ((), ns) = timed(tr, "estimator.observe", root, job, || {
                for s in buf.drain(..) {
                    est.observe(graph, s);
                }
            });
            ledger.observe_ns += ns;
            ledger.observed += n;
            let (snap, ns) = timed(tr, "estimator.snapshot", root, job, || est.snapshot());
            black_box(snap);
            ledger.snapshot_ns.push(ns);
        };
    match kind.pool {
        None => {
            let mut runner =
                ChunkedRunner::new(&kind.sampler, &access, &CostModel::unit(), budget, seed);
            loop {
                let (status, ns) = timed(tr, "runner.chunk", root, job, || {
                    runner.run_chunk(CHUNK, |s| buf.push(s))
                });
                ledger.chunk_ns.push(ns);
                observe(tr, ledger, &mut est, &mut buf);
                if status == ChunkStatus::Finished {
                    break;
                }
            }
            ledger.runner_steps += runner.steps_done();
            ledger.walk_steps += runner.steps_done();
        }
        Some(threads) => {
            let (run, ns) = timed(tr, "pool.run", root, job, || {
                pooled_run(kind, &access, budget, seed, threads)
            });
            ledger.pool_ns += ns;
            ledger.pool_steps += run.steps.len() as u64;
            ledger.walk_steps += run.steps.len() as u64;
            for chunk in run.steps.chunks(CHUNK) {
                buf.extend(
                    chunk
                        .iter()
                        .filter_map(|s| s.outcome.sampled())
                        .map(Sample::Edge),
                );
                observe(tr, ledger, &mut est, &mut buf);
            }
        }
    }
    ledger.queries += counter.get();
    let snapshot = est.snapshot();
    tr.end(root);
    (snapshot, t.elapsed().as_nanos() as f64)
}

/// Decomposed vs inline replay of every sample job, plus pool probes
/// for workloads whose mix has no pooled job.
fn replay(
    input: &ProbeInput,
    graph: &MmapGraph,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let mut decomposed_ns = 0.0;
    let mut inline_ns = 0.0;
    for (i, job) in input.sample.iter().enumerate() {
        let kind = &input.kinds[job.kind];
        // Alternate which form runs first, so neither always finds the
        // caches warmed by the other.
        let inline = |tr: &mut Tracer| {
            timed(tr, "replay.inline", None, i as u64, || {
                library_estimate(kind, graph, input.budget, job.seed)
            })
        };
        let early = (i % 2 == 1).then(|| inline(tr));
        let (a, ns) = replay_decomposed(
            kind,
            graph,
            input.budget,
            job.seed,
            i as u64,
            tr,
            &mut ledger,
        );
        decomposed_ns += ns;
        let (b, ns) = early.unwrap_or_else(|| inline(tr));
        inline_ns += ns;
        out.attempted += 1;
        if a != b {
            eprintln!(
                "ledger: decomposed replay of {} differs from the inline run",
                kind.label()
            );
            out.failed += 1;
        }
    }
    if !input
        .sample
        .iter()
        .any(|j| input.kinds[j.kind].pool.is_some())
    {
        // No pooled job in the mix: time the pool on the mix's FS and
        // MultipleRW shapes instead.
        let pooled = input.sample.iter().filter(|j| {
            matches!(
                input.kinds[j.kind].sampler,
                SamplerSpec::Frontier { .. } | SamplerSpec::Multiple { .. }
            )
        });
        for (i, job) in pooled.enumerate() {
            let kind = JobKind {
                pool: Some(2),
                ..input.kinds[job.kind].clone()
            };
            let counter = Arc::new(ShardedCounter::new());
            let access = CountedAccess::new(graph, counter);
            let (run, ns) = timed(tr, "pool.run", None, 1_000 + i as u64, || {
                pooled_run(&kind, &access, input.budget, job.seed, 2)
            });
            ledger.pool_ns += ns;
            ledger.pool_steps += run.steps.len() as u64;
        }
    }
    let chunks = Summary::of(&ledger.chunk_ns, 0.99);
    out.put("runner.chunk_us_p50", us(chunks.p50), "us");
    out.put("runner.chunk_us_p99", us(chunks.tail), "us");
    out.note("runner.chunks", chunks.n as f64);
    out.put("runner.self_s", tr.self_seconds("runner.chunk"), "s");
    out.put("runner.steps", ledger.runner_steps as f64, "count");
    out.put(
        "graph.queries_per_step",
        ledger.queries as f64 / ledger.walk_steps.max(1) as f64,
        "queries/step",
    );
    out.put(
        "estimator.observe_ns",
        ledger.observe_ns / ledger.observed.max(1) as f64,
        "ns",
    );
    out.put(
        "estimator.snapshot_us",
        us(median(&ledger.snapshot_ns)),
        "us",
    );
    out.put(
        "estimator.self_s",
        tr.self_seconds("estimator.observe") + tr.self_seconds("estimator.snapshot"),
        "s",
    );
    out.put("pool.run_s", ledger.pool_ns * 1e-9, "s");
    out.put("pool.steps", ledger.pool_steps as f64, "count");
    let ratio = decomposed_ns / inline_ns;
    out.put("replay.decomposed_ratio", ratio, "ratio");
    if !(0.9..=1.1).contains(&ratio) {
        eprintln!("ledger: decomposed replay takes {ratio:.3}x the inline job time (outside ±10%)");
    }
    Ok(())
}

/// The mix's FS dimension (or 16 when it has no FS job).
fn walkers(kinds: &[JobKind]) -> usize {
    kinds
        .iter()
        .find_map(|k| match k.sampler {
            SamplerSpec::Frontier { m } => Some(m),
            _ => None,
        })
        .unwrap_or(16)
}

/// Runs of the one-shot library walks (`WalkMethod::sample_edges`).
fn samplers(input: &ProbeInput, graph: &MmapGraph, tr: &mut Tracer, out: &mut Outcome) {
    let m = walkers(input.kinds);
    let runs = (2e6 / input.budget).clamp(1.0, 5.0) as u64;
    let methods = [
        ("sampler.fs", "sampler.fs.run_ms", WalkMethod::frontier(m)),
        ("sampler.srw", "sampler.srw.run_ms", WalkMethod::single()),
        ("sampler.mrw", "sampler.mrw.run_ms", WalkMethod::multiple(m)),
    ];
    for (span, metric, method) in methods {
        let mut times = Vec::new();
        for r in 0..runs {
            let mut rng = SmallRng::seed_from_u64(0x5A4D + r);
            let mut budget = Budget::new(input.budget);
            let mut edges = 0u64;
            let ((), ns) = timed(tr, span, None, r, || {
                method.sample_edges(graph, &CostModel::unit(), &mut budget, &mut rng, |_| {
                    edges += 1
                })
            });
            black_box(edges);
            times.push(ns * 1e-6);
        }
        out.put(metric, median(&times), "ms");
    }
}

/// `monte_carlo_with` on one and on two threads over the mix's FS shape.
fn monte_carlo(input: &ProbeInput, graph: &MmapGraph, tr: &mut Tracer, out: &mut Outcome) {
    let m = walkers(input.kinds);
    let runs = ((4e6 / input.budget) as usize).clamp(4, 64);
    let body = |seed: u64| {
        let t = Instant::now();
        let theta = fs_theta(graph, m, input.budget, seed);
        (theta, t.elapsed().as_nanos() as f64)
    };
    let (serial, _) = timed(tr, "mc.serial", None, 0, || {
        fs_experiments::mc::monte_carlo_with(&ParallelWalkerPool::with_threads(1), runs, 0x3C, body)
    });
    let (parallel, wall_ns) = timed(tr, "mc.parallel", None, 0, || {
        fs_experiments::mc::monte_carlo_with(&ParallelWalkerPool::with_threads(2), runs, 0x3C, body)
    });
    let busy: f64 = parallel.iter().map(|r| r.1).sum();
    out.attempted += 1;
    if serial
        .iter()
        .map(|r| &r.0)
        .ne(parallel.iter().map(|r| &r.0))
    {
        eprintln!("ledger: monte_carlo results differ between 1 and 2 threads");
        out.failed += 1;
    }
    out.put("mc.runs", (2 * runs) as f64, "count");
    out.put("mc.parallel_eff", busy / (wall_ns * 2.0), "ratio");
}

/// Wakes waiters after every job state change (the manager's update hook).
#[derive(Default)]
struct Wake {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Wake {
    fn current(&self) -> u64 {
        *self.generation.lock().expect("wake lock poisoned")
    }

    fn wait_past(&self, seen: u64, limit: Duration) {
        let guard = self.generation.lock().expect("wake lock poisoned");
        let _ = self
            .cv
            .wait_timeout_while(guard, limit, |g| *g == seen)
            .expect("wake lock poisoned");
    }
}

/// Per-job figures of the in-process manager.
struct ManagedJob {
    e2e_ns: f64,
    queue_ns: f64,
    busy_us: u64,
    ok: bool,
    /// An immediate resubmission after `done` missed the cache.
    race_miss: bool,
}

/// The sample stream through a bare `JobManager` (two submitting
/// threads, woken by the update hook — no polling), then every job
/// again as a cache hit.
fn in_process_jobs(input: &ProbeInput, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let root = input
        .store_path
        .parent()
        .ok_or("store path without directory")?;
    let store = input
        .store_path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("store file name")?
        .to_string();
    let registry = Arc::new(StoreRegistry::new(root, 8));
    let cache = Arc::new(ResultCache::new(4_096, 64 << 20));
    let journal = if input.journal {
        let dir = input.tmp.join("ledger-journal");
        let stats = Arc::new(fs_serve::DurabilityStats::default());
        let (journal, _) = Journal::open(&dir, stats).map_err(|e| format!("open journal: {e}"))?;
        Some(Arc::new(journal))
    } else {
        None
    };
    let manager = JobManager::start(registry, cache, 2, 256, journal);
    let wake = Arc::new(Wake::default());
    let hook_wake = Arc::clone(&wake);
    manager.set_update_hook(Box::new(move || {
        *hook_wake.generation.lock().expect("wake lock poisoned") += 1;
        hook_wake.cv.notify_all();
    }));

    let run_one = |job: &SampleJob, tr: &mut Tracer, id: u64| -> ManagedJob {
        let kind = &input.kinds[job.kind];
        let span = tr.begin("jobs.job", None, id);
        let t = Instant::now();
        let mut queued_until = None;
        let failed = ManagedJob {
            e2e_ns: 0.0,
            queue_ns: 0.0,
            busy_us: 0,
            ok: false,
            race_miss: false,
        };
        let Ok(jid) = manager.submit(kind.spec(&store, input.budget, job.seed)) else {
            return failed;
        };
        let deadline = t + Duration::from_secs(120);
        let view = loop {
            let seen = wake.current();
            let Some(view) = manager.view(jid) else {
                return failed;
            };
            if queued_until.is_none() && view.phase != JobPhase::Queued {
                queued_until = Some(t.elapsed().as_nanos() as f64);
            }
            if view.phase.terminal() || Instant::now() > deadline {
                break view;
            }
            wake.wait_past(seen, Duration::from_millis(100));
        };
        let e2e_ns = t.elapsed().as_nanos() as f64;
        tr.end(span);
        // Resubmit the instant `done` is visible: a miss means the result
        // was not yet in the cache (the recompute is cancelled at once).
        let race_miss = view.phase == JobPhase::Done
            && match manager.submit(kind.spec(&store, input.budget, job.seed)) {
                Ok(again) => {
                    let missed = manager.view(again).is_some_and(|v| !v.cached);
                    if missed {
                        manager.cancel(again);
                    }
                    missed
                }
                Err(_) => true,
            };
        ManagedJob {
            e2e_ns,
            queue_ns: queued_until.unwrap_or(e2e_ns),
            busy_us: view.profile.busy_us,
            ok: view.phase == JobPhase::Done,
            race_miss,
        }
    };

    let mut forks = [tr.fork(), tr.fork()];
    let results: Vec<(usize, ManagedJob)> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .iter_mut()
            .enumerate()
            .map(|(c, fork)| {
                let run_one = &run_one;
                s.spawn(move || {
                    input
                        .sample
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == c)
                        .map(|(i, job)| (i, run_one(job, fork, i as u64)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ledger thread panicked"))
            .collect()
    });
    for fork in forks {
        tr.absorb(fork);
    }

    // A result reaches the cache only after its `done` is visible (the
    // race `cache.race_misses` counts): wait until every finished job's
    // result is there — the manager's hook fires after each insert.
    let done = results.iter().filter(|(_, j)| j.ok).count();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let seen = wake.current();
        if manager.cache_stats().entries >= done || Instant::now() > deadline {
            break;
        }
        wake.wait_past(seen, Duration::from_millis(100));
    }

    // Every sample job again: answered from the cache at submit.
    let mut hit_ns = Vec::new();
    for (i, job) in input.sample.iter().enumerate() {
        let spec = input.kinds[job.kind].spec(&store, input.budget, job.seed);
        let (id, ns) = timed(tr, "cache.hit", None, i as u64, || manager.submit(spec));
        let cached = id
            .ok()
            .and_then(|id| manager.view(id))
            .is_some_and(|v| v.cached);
        out.attempted += 1;
        if !cached {
            eprintln!("ledger: resubmitted sample job {i} missed the cache");
            out.failed += 1;
        }
        hit_ns.push(ns);
    }
    let stats = manager.cache_stats();
    manager.shutdown();

    let ok: Vec<&(usize, ManagedJob)> = results.iter().filter(|(_, j)| j.ok).collect();
    let e2e: Vec<f64> = ok.iter().map(|(_, j)| j.e2e_ns * 1e-6).collect();
    let e2e_sum = Summary::of(&e2e, 0.99);
    let failed = results.len() - ok.len();
    out.attempted += results.len() as u64;
    out.failed += failed as u64;
    out.put("jobs.e2e_ms_p50", e2e_sum.p50, "ms");
    out.put("jobs.e2e_ms_p99", e2e_sum.tail, "ms");
    out.put(
        "jobs.queue_wait_ms_p50",
        median(
            &ok.iter()
                .map(|(_, j)| j.queue_ns * 1e-6)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let busy_us: u64 = ok.iter().map(|(_, j)| j.busy_us).sum();
    let e2e_us: f64 = ok.iter().map(|(_, j)| j.e2e_ns * 1e-3).sum();
    out.put("jobs.busy_share", busy_us as f64 / e2e_us, "ratio");
    out.put("jobs.failed", failed as f64, "count");
    out.put("cache.hits", stats.hits as f64, "count");
    out.put("cache.misses", stats.misses as f64, "count");
    out.put("cache.hit_us_p50", us(median(&hit_ns)), "us");
    out.put(
        "cache.race_misses",
        ok.iter().filter(|(_, j)| j.race_miss).count() as f64,
        "count",
    );
    // HTTP overhead: the same job served over HTTP minus in process.
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|(i, j)| {
            let http = input.sample[*i].http_e2e_ns? as f64;
            Some((http - j.e2e_ns) * 1e-6)
        })
        .collect();
    out.put("http.overhead_ms_p50", median(&overhead), "ms");
    Ok(())
}
