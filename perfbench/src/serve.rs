//! The serve workloads: an in-process `fs_serve::Server` on an
//! ephemeral loopback port, driven as a closed loop by two keep-alive
//! clients. Each client submits a job, waits on its stream for the
//! terminal line, and only then sends the next one.

use crate::accuracy::{cnmse_ccdf, fs_library_cnmse, truth_ccdf};
use crate::client::Client;
use crate::env::{ran_share, StealClock};
use crate::kinds::{job_seed, library_estimate, raw_estimate, JobKind, WireEstimate};
use crate::layers::{self, ProbeInput, SampleJob};
use crate::report::{Outcome, RunCtx};
use crate::stats::{median, Summary, TAIL_Q};
use crate::trace::Tracer;
use frontier_sampling::parallel::stream_seed;
use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use fs_serve::{json, Config, Json, Server};
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client threads (and connections) driving the server.
pub const CLIENTS: usize = 2;

/// Shape of a serve workload.
#[derive(Clone, Debug)]
pub struct ServeParams {
    /// Barabási–Albert vertex count of the store.
    pub vertices: usize,
    /// Barabási–Albert attachment parameter.
    pub ba_m: usize,
    /// Budget `B` of every job.
    pub budget: f64,
    /// The job mix each client cycles through.
    pub kinds: Vec<JobKind>,
    /// Run the server with a job journal.
    pub journal: bool,
    /// Full set-ups per run (the reported set-up time is their median).
    pub setups: usize,
    /// `Some(n)`: every `n`-th job of the loop repeats one of the
    /// client's completed jobs. `None`: cold jobs only.
    pub repeat_every: Option<usize>,
    /// A job not finished this long after submission fails.
    pub deadline: Duration,
    /// Budget of the warm-up jobs (one per kind) closing each set-up.
    pub warmup_budget: f64,
    /// Where `cnmse_fs` comes from.
    pub accuracy: Accuracy,
}

/// Degrees whose true CCDF is below this are left out of a serve
/// workload's `cnmse_fs`: beyond them (degree ~100 on these BA stores)
/// sit a handful of hubs that differ from seed to seed, and with them
/// the error varied by ±20% between seeds.
const BODY_CCDF: f64 = 1e-3;

/// The FS runs behind a serve workload's `cnmse_fs` (a fixed set, so
/// the figure is a pure function of the seed).
#[derive(Clone, Debug)]
pub enum Accuracy {
    /// The served FS `degree_dist`/`ccdf` jobs of each client's first
    /// `cycles` mix cycles.
    Served {
        /// Mix cycles per client.
        cycles: usize,
    },
    /// `runs` library FS runs of the mix's FS shape at `budget` over the
    /// store — for long jobs too few to measure error steadily.
    Library {
        /// Monte Carlo runs.
        runs: usize,
        /// Budget per run.
        budget: f64,
    },
}

impl ServeParams {
    /// Short jobs over a cache-resident store: every sampler × every
    /// estimator it accepts, a quarter of them cache hits.
    pub fn small() -> ServeParams {
        ServeParams {
            vertices: 50_000,
            ba_m: 4,
            budget: 20_000.0,
            kinds: JobKind::all_accepted(&[
                SamplerSpec::Frontier { m: 16 },
                SamplerSpec::Single,
                SamplerSpec::Multiple { m: 16 },
                SamplerSpec::Mhrw,
                SamplerSpec::Nbrw,
                SamplerSpec::Rwj { alpha: 1.0 },
            ]),
            journal: false,
            setups: 5,
            repeat_every: Some(4),
            deadline: Duration::from_secs(30),
            warmup_budget: 20_000.0,
            accuracy: Accuracy::Served { cycles: 40 },
        }
    }

    /// Long jobs over a store larger than the last-level cache, with the
    /// journal on.
    pub fn big() -> ServeParams {
        let avg = EstimatorSpec::AverageDegree;
        ServeParams {
            vertices: 2_000_000,
            ba_m: 5,
            budget: 2_000_000.0,
            kinds: vec![
                JobKind::seq(SamplerSpec::Frontier { m: 100 }, avg),
                JobKind::seq(SamplerSpec::Single, avg),
                JobKind {
                    pool: Some(2),
                    ..JobKind::seq(SamplerSpec::Frontier { m: 100 }, avg)
                },
                JobKind {
                    pool: Some(2),
                    ..JobKind::seq(SamplerSpec::Multiple { m: 100 }, avg)
                },
            ],
            journal: true,
            setups: 2,
            // Unique seeds only: every job walks its 2M steps.
            repeat_every: None,
            deadline: Duration::from_secs(120),
            warmup_budget: 100_000.0,
            accuracy: Accuracy::Library {
                runs: 64,
                budget: 200_000.0,
            },
        }
    }

    /// The same workload at toy scale, for the smoke tests.
    #[cfg(test)]
    pub fn tiny(mut self) -> ServeParams {
        self.vertices = 2_000;
        self.budget = 3_000.0;
        self.warmup_budget = 1_000.0;
        self.setups = 2;
        self
    }
}

/// A running server over a freshly generated store.
struct Deployment {
    server: Server,
    /// Scratch directory of this set-up: `stores/`, `journal/`.
    dir: PathBuf,
    /// Exact degree CCDF of the store's graph.
    truth: Vec<f64>,
    store_bytes: u64,
    gen_s: f64,
    write_s: f64,
}

impl Deployment {
    fn store_path(&self) -> PathBuf {
        self.dir.join("stores").join(STORE_NAME)
    }
}

const STORE_NAME: &str = "bench.fsg";

/// Generates the graph, writes the store, starts the server and warms
/// it up with one short job per kind.
fn deploy(p: &ServeParams, dir: &Path, seed: u64) -> Result<Deployment, String> {
    let root = dir.join("stores");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let t = Instant::now();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let graph = fs_gen::barabasi_albert(p.vertices, p.ba_m, &mut rng);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store_path = root.join(STORE_NAME);
    fs_store::write_store(&graph, &store_path).map_err(|e| format!("write store: {e}"))?;
    let write_s = t.elapsed().as_secs_f64();
    let truth = truth_ccdf(&graph);
    drop(graph);
    let store_bytes = std::fs::metadata(&store_path)
        .map_err(|e| e.to_string())?
        .len();

    let mut config = Config::new(&root);
    config.journal_dir = p.journal.then(|| dir.join("journal"));
    let server = Server::start(config).map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(server.addr())?;
    wait_ready(&mut client, Instant::now() + p.deadline)?;
    let mut scratch = Tracer::new(Instant::now(), false);
    for (i, kind) in p.kinds.iter().enumerate() {
        let seed = job_seed(seed ^ 0x5741_524D, i as u64);
        client.set_deadline(Instant::now() + p.deadline);
        let body = kind.body(STORE_NAME, p.warmup_budget, seed);
        run_http_job(&mut client, &mut scratch, 0, &body)
            .map_err(|e| format!("warm-up job {}: {e}", kind.label()))?;
    }
    Ok(Deployment {
        server,
        dir: dir.to_path_buf(),
        truth,
        store_bytes,
        gen_s,
        write_s,
    })
}

/// Waits until the server answers `GET /healthz` with `200`. A server
/// with a journal answers `503` while it replays the journal, which
/// runs off-thread after `Server::start` returns, even for a new one.
pub fn wait_ready(client: &mut Client, deadline: Instant) -> Result<(), String> {
    client.set_deadline(deadline);
    loop {
        match client.request("GET", "/healthz", "")? {
            (200, _) => return Ok(()),
            (503, _) => std::thread::sleep(Duration::from_millis(1)),
            (status, body) => return Err(format!("healthz: HTTP {status}: {body}")),
        }
    }
}

/// What one served job returned.
pub struct Served {
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// Walk attempts the job made.
    pub steps: u64,
    /// The `estimate` object, byte for byte.
    pub estimate: String,
    /// Size of the terminal job document.
    pub doc_bytes: usize,
    /// `POST /v1/jobs` round trip (ns).
    pub submit_ns: u64,
    /// Stream wait until the terminal line (ns).
    pub stream_ns: u64,
    /// `json::parse` of the terminal document (ns).
    pub parse_ns: u64,
}

/// Submits `body` and waits on the job's stream for its terminal line.
/// Anything but a `202`, a `200` stream and a `done` phase is an error.
pub fn run_http_job(
    client: &mut Client,
    tr: &mut Tracer,
    job: u64,
    body: &str,
) -> Result<Served, String> {
    let root = tr.begin("http.job", None, job);
    let t = Instant::now();
    let span = tr.begin("http.submit", root, job);
    let (status, text) = client.request("POST", "/v1/jobs", body)?;
    tr.end(span);
    let submit_ns = t.elapsed().as_nanos() as u64;
    if status != 202 {
        return Err(format!("submit: HTTP {status}: {text}"));
    }
    let id = json::parse(&text)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("submit: no id in {text}"))?;
    let t = Instant::now();
    let span = tr.begin("http.stream", root, job);
    let (status, line) = client.stream_last_line(&format!("/v1/jobs/{id}/stream"))?;
    tr.end(span);
    let stream_ns = t.elapsed().as_nanos() as u64;
    if status != 200 {
        return Err(format!("stream: HTTP {status}: {line}"));
    }
    let t = Instant::now();
    let span = tr.begin("json.parse", root, job);
    let doc = json::parse(&line).map_err(|e| format!("terminal line: {e}"))?;
    tr.end(span);
    let parse_ns = t.elapsed().as_nanos() as u64;
    tr.end(root);
    let phase = doc.get("phase").and_then(Json::as_str).unwrap_or("?");
    if phase != "done" {
        let why = doc.get("error").map(Json::encode).unwrap_or_default();
        return Err(format!("job {id} ended {phase}: {why}"));
    }
    Ok(Served {
        cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        steps: doc.get("steps_done").and_then(Json::as_u64).unwrap_or(0),
        estimate: raw_estimate(&line)
            .ok_or("terminal line without estimate")?
            .to_string(),
        doc_bytes: line.len(),
        submit_ns,
        stream_ns,
        parse_ns,
    })
}

/// One job of the closed loop.
pub struct JobRecord {
    /// Client thread.
    pub client: usize,
    /// Index in the client's job sequence.
    pub index: usize,
    /// Index into the workload's kinds.
    pub kind: usize,
    /// Job seed.
    pub seed: u64,
    /// Mix cycle of a cold job (`None` for planned repeats).
    pub cycle: Option<usize>,
    /// Submission → terminal line parsed (ns).
    pub e2e_ns: u64,
    /// Completion time since the window opened (ns).
    pub done_at_ns: u64,
    /// The served result, or why the job failed.
    pub result: Result<Served, String>,
}

/// Closed-loop client: cycles through the kinds from its own offset and
/// makes every `repeat_every`-th submission a repeat. Stops at the first
/// mix-cycle boundary after `stop_at`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    p: &ServeParams,
    addr: SocketAddr,
    client_id: usize,
    base_seed: u64,
    start: Instant,
    stop_at: Instant,
    tr: &mut Tracer,
) -> Vec<JobRecord> {
    let mut records: Vec<JobRecord> = Vec::new();
    let mut client = Client::connect(addr);
    let kinds = p.kinds.len();
    let offset = client_id * kinds / CLIENTS;
    let mut cold = 0usize;
    for index in 0.. {
        // The twin is the client's cold job before its latest one: its
        // terminal line arrived at least a whole job ago. (The server
        // streams `done` before it inserts the result into the cache —
        // with the journal on, a terminal fsync lies between — so an
        // immediate repeat can miss; the traced run counts that race as
        // `cache.race_misses`.)
        let twin = p
            .repeat_every
            .filter(|n| index % n == n - 1)
            .and_then(|_| records.iter().rev().filter(|r| r.cycle.is_some()).nth(1))
            .filter(|r| r.result.is_ok());
        let (kind, seed, cycle) = match twin {
            Some(t) => (t.kind, t.seed, None),
            None => {
                if cold.is_multiple_of(kinds) && Instant::now() >= stop_at {
                    break;
                }
                let seed = job_seed(base_seed, ((client_id as u64) << 32) | cold as u64);
                let kind = (cold + offset) % kinds;
                cold += 1;
                (kind, seed, Some((cold - 1) / kinds))
            }
        };
        let job = ((client_id as u64) << 32) | index as u64;
        let t = Instant::now();
        let result = match &mut client {
            Ok(c) => {
                c.set_deadline(t + p.deadline);
                run_http_job(c, tr, job, &p.kinds[kind].body(STORE_NAME, p.budget, seed))
            }
            Err(e) => Err(e.clone()),
        };
        let e2e_ns = t.elapsed().as_nanos() as u64;
        // A repeat must come back from the cache, byte-identical to its
        // cold twin; a cold job must not.
        let result = result.and_then(|s| match (twin, s.cached) {
            (Some(t), true) if t.result.as_ref().is_ok_and(|c| c.estimate == s.estimate) => Ok(s),
            (Some(_), true) => Err("cache hit differs from its cold twin".into()),
            (Some(_), false) => Err("planned repeat was not answered from the cache".into()),
            (None, true) => Err("cold job answered from the cache".into()),
            (None, false) => Ok(s),
        });
        if result.is_err() {
            // The connection may hold half a response: start afresh.
            client = match client {
                Ok(mut c) => c.reconnect().map(|_| c),
                Err(_) => Client::connect(addr),
            };
        }
        records.push(JobRecord {
            client: client_id,
            index,
            kind,
            seed,
            cycle,
            e2e_ns,
            done_at_ns: start.elapsed().as_nanos() as u64,
            result,
        });
        // Keep an estimate only while it can still be a twin, or when the
        // gate or `cnmse_fs` reads it, so memory does not grow with
        // throughput.
        let stale = if cycle.is_none() {
            records.last_mut()
        } else {
            records
                .iter_mut()
                .rev()
                .filter(|r| r.cycle.is_some())
                .nth(2)
        };
        if let Some(r) = stale.filter(|r| !retained(p, r)) {
            if let Ok(s) = &mut r.result {
                s.estimate = String::new();
            }
        }
    }
    records
}

/// Whether a job's estimate is read after the window: client 0's first
/// cycle (the gate) and the FS jobs `cnmse_fs` is computed from.
fn retained(p: &ServeParams, r: &JobRecord) -> bool {
    let Some(cycle) = r.cycle else {
        return false;
    };
    let accuracy = matches!(p.accuracy, Accuracy::Served { cycles } if cycle < cycles);
    (r.client == 0 && cycle == 0) || (accuracy && p.kinds[r.kind].is_fs())
}

/// Throughput and latency of one measurement window.
struct Window {
    records: Vec<JobRecord>,
    seconds: f64,
}

impl Window {
    fn run(
        p: &ServeParams,
        addr: SocketAddr,
        base_seed: u64,
        seconds: f64,
        tr: &mut Tracer,
    ) -> Window {
        let start = Instant::now();
        let stop_at = start + Duration::from_secs_f64(seconds);
        let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
        let mut records: Vec<JobRecord> = std::thread::scope(|s| {
            let handles: Vec<_> = forks
                .iter_mut()
                .enumerate()
                .map(|(c, fork)| {
                    s.spawn(move || client_loop(p, addr, c, base_seed, start, stop_at, fork))
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
        records.sort_by_key(|r| (r.client, r.index));
        let end_ns = records.iter().map(|r| r.done_at_ns).max().unwrap_or(1);
        Window {
            records,
            seconds: end_ns as f64 * 1e-9,
        }
    }

    fn ok(&self) -> impl Iterator<Item = (&JobRecord, &Served)> {
        self.records
            .iter()
            .filter_map(|r| r.result.as_ref().ok().map(|s| (r, s)))
    }

    fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.result.is_err()).count()
    }

    fn cold_steps_per_s(&self) -> f64 {
        let steps: u64 = self
            .ok()
            .filter(|(r, _)| r.cycle.is_some())
            .map(|(_, s)| s.steps)
            .sum();
        steps as f64 / self.seconds
    }
}

/// Runs a serve workload and returns its metrics.
pub fn run(p: &ServeParams, ctx: &RunCtx, out: &mut Outcome) -> Result<(), String> {
    let base_seed = stream_seed(ctx.seed, 0x5E7E);
    // Set up `setups` times (once when traced); keep the last deployment.
    let setups = if ctx.trace { 1 } else { p.setups.max(1) };
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for i in 0..setups {
        if let Some(d) = deployment.take() {
            teardown(d);
        }
        let dir = ctx.tmp.join(format!("setup{i}"));
        let clock = StealClock::start();
        let d = deploy(p, &dir, ctx.seed)?;
        setup_s.push(clock.run_seconds());
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    out.note("store_bytes", d.store_bytes as f64);
    if ctx.prov.llc_bytes > 0 && p.vertices >= 1_000_000 && d.store_bytes <= ctx.prov.llc_bytes {
        eprintln!(
            "warning: store ({} B) is not larger than the last-level cache ({} B); \
             the large-store workload measures a cache-resident graph on this host",
            d.store_bytes, ctx.prov.llc_bytes
        );
    }

    let addr = d.server.addr();
    let faults_before = crate::env::page_faults();
    let mut tr = Tracer::new(Instant::now(), false);
    // Timings count the time the guest actually ran: on a shared virtual
    // host the stolen share varies by tens of percent between runs (see
    // the README).
    let ((window, ran), untraced) = if ctx.trace {
        // Paired halves: untraced first, then traced; the difference in
        // throughput is the tracing overhead.
        let half = ctx.seconds / 2.0;
        let plain = ran_share(|| Window::run(p, addr, stream_seed(base_seed, 1), half, &mut tr));
        tr = Tracer::new(Instant::now(), true);
        (
            ran_share(|| Window::run(p, addr, base_seed, half, &mut tr)),
            Some(plain),
        )
    } else {
        (
            ran_share(|| Window::run(p, addr, base_seed, ctx.seconds, &mut tr)),
            None,
        )
    };
    let faults_after = crate::env::page_faults();
    out.note("steal_pct", (1.0 - ran) * 100.0);
    let health = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/healthz", ""))
        .and_then(|(_, body)| json::parse(&body).map_err(|e| e.to_string()))
        .ok();

    // Correctness gate: the first mix cycle of client 0 must equal the
    // library call bit for bit.
    let graph =
        fs_store::MmapGraph::open(d.store_path()).map_err(|e| format!("open store: {e}"))?;
    let gate: Vec<&JobRecord> = window
        .records
        .iter()
        .filter(|r| r.client == 0 && r.cycle == Some(0))
        .collect();
    let mut gate_failures = 0usize;
    for r in &gate {
        let kind = &p.kinds[r.kind];
        let reference = library_estimate(kind, &graph, p.budget, r.seed);
        let served = r
            .result
            .as_ref()
            .ok()
            .map(|s| WireEstimate::parse(&s.estimate));
        if !matches!(served, Some(Ok(ref w)) if w.matches(&reference)) {
            eprintln!(
                "gate: served {} (seed {}) differs from the library call",
                kind.label(),
                r.seed
            );
            gate_failures += 1;
        }
    }
    if gate.is_empty() {
        eprintln!("gate: no job of client 0 completed");
        gate_failures += 1;
    }
    let failures: Vec<&String> = window
        .records
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    for f in failures.iter().take(5) {
        eprintln!("failed job: {f}");
    }
    out.attempted += (window.records.len() + gate.len()) as u64;
    out.failed += (window.failed() + gate_failures) as u64;

    let cold: Vec<f64> = window
        .ok()
        .filter(|(r, _)| r.cycle.is_some())
        .map(|(r, _)| r.e2e_ns as f64 * 1e-6)
        .collect();
    let cold_sum = Summary::of(&cold, TAIL_Q);
    let cold_p99 = Summary::of(&cold, 0.99);
    // Every kind is equally represented, so the plain median of the mix
    // falls in the gap between two kinds' latency clusters and swung by
    // ±15% between seeds; the median of the kinds' medians does not.
    let kind_p50: Vec<f64> = (0..p.kinds.len())
        .filter_map(|k| {
            let ms: Vec<f64> = window
                .ok()
                .filter(|(r, _)| r.cycle.is_some() && r.kind == k)
                .map(|(r, _)| r.e2e_ns as f64 * 1e-6)
                .collect();
            (!ms.is_empty()).then(|| median(&ms))
        })
        .collect();
    out.note("cold_jobs", cold_sum.n as f64);
    out.note("cold_tail_quantile", cold_sum.tail_q);
    if cold_p99.tail_q >= 0.99 {
        out.note("cold_p99_ms", cold_p99.tail * ran);
    }
    // Hit latency is context, not a bounded metric: a sub-millisecond
    // loopback round trip on a 2-vCPU guest is set by how the hypervisor
    // wakes the virtual CPUs, and its median swung 0.26–3.9 ms between
    // runs of `serve_big`.
    let hits: Vec<f64> = window
        .ok()
        .filter(|(r, _)| r.cycle.is_none())
        .map(|(r, _)| r.e2e_ns as f64 * 1e-6)
        .collect();
    out.note("hit_jobs", hits.len() as f64);
    if !hits.is_empty() {
        out.note("hit_p50_ms", median(&hits) * ran);
    }

    if ctx.trace {
        let (plain, plain_ran) = untraced.expect("paired untraced half");
        let traced_rate = window.cold_steps_per_s() / ran;
        let plain_rate = plain.cold_steps_per_s() / plain_ran;
        out.put(
            "trace.overhead_pct",
            (1.0 - traced_rate / plain_rate) * 100.0,
            "%",
        );
        let served: Vec<&Served> = window.ok().map(|(_, s)| s).collect();
        let us = |ns: u64| ns as f64 * 1e-3;
        out.put(
            "http.submit_rtt_us_p50",
            median(&served.iter().map(|s| us(s.submit_ns)).collect::<Vec<_>>()),
            "us",
        );
        out.put(
            "http.stream_wait_ms_p50",
            median(
                &served
                    .iter()
                    .map(|s| s.stream_ns as f64 * 1e-6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        );
        out.put("http.errors", window.failed() as f64, "count");
        out.put(
            "json.parse_us",
            median(&served.iter().map(|s| us(s.parse_ns)).collect::<Vec<_>>()),
            "us",
        );
        out.put(
            "json.doc_bytes",
            median(
                &served
                    .iter()
                    .map(|s| s.doc_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "B",
        );
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
        out.put("store.write_s", d.write_s, "s");
        out.put("store.bytes", d.store_bytes as f64, "B");
        let durability = health.as_ref().and_then(|h| h.get("durability"));
        let count = |k: &str| {
            durability
                .and_then(|x| x.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        out.put("journal.checkpoints", count("checkpoints_written"), "count");
        out.put("journal.appends_failed", count("appends_failed"), "count");
        out.put(
            "journal.bytes",
            dir_bytes(&d.dir.join("journal")) as f64,
            "B",
        );

        let sample: Vec<SampleJob> = gate
            .iter()
            .map(|r| SampleJob {
                kind: r.kind,
                seed: r.seed,
                http_e2e_ns: Some(r.e2e_ns),
            })
            .collect();
        let input = ProbeInput {
            store_path: d.store_path(),
            kinds: &p.kinds,
            budget: p.budget,
            sample: &sample,
            journal: p.journal,
            tmp: &ctx.tmp,
        };
        layers::probe(&input, &graph, &mut tr, out)?;
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
        let completed = window.ok().count() as f64;
        out.put("jobs_per_s", completed / window.seconds / ran, "jobs/s");
        out.put("cold_p50_ms", median(&kind_p50) * ran, "ms");
        out.put("cold_p90_ms", cold_sum.tail * ran, "ms");
        out.put("steps_per_s", window.cold_steps_per_s() / ran, "steps/s");
        let cnmse = serve_accuracy(p, &window, &graph, base_seed, &d.truth);
        out.put("cnmse_fs", cnmse.unwrap_or(f64::NAN), "cnmse");
        out.put("setup_s", median(&setup_s), "s");
    }
    drop(graph);
    teardown(d);
    Ok(())
}

/// `cnmse_fs` of a serve workload: geometric-mean CNMSE of FS's degree
/// CCDF (see [`Accuracy`]).
fn serve_accuracy(
    p: &ServeParams,
    w: &Window,
    graph: &fs_store::MmapGraph,
    seed: u64,
    truth: &[f64],
) -> Option<f64> {
    match p.accuracy {
        Accuracy::Served { cycles } => {
            let mut ccdfs = Vec::new();
            for (r, s) in w.ok() {
                if !(r.cycle.is_some_and(|c| c < cycles) && p.kinds[r.kind].is_fs()) {
                    continue;
                }
                let vector = WireEstimate::parse(&s.estimate).ok()?.vector;
                match (p.kinds[r.kind].estimator, vector) {
                    (EstimatorSpec::Ccdf, Some(v)) => ccdfs.push(v),
                    (EstimatorSpec::DegreeDist, Some(v)) => ccdfs.push(fs_graph::ccdf(&v)),
                    _ => {}
                }
            }
            cnmse_ccdf(&ccdfs, truth, BODY_CCDF)
        }
        Accuracy::Library { runs, budget } => {
            let m = p.kinds.iter().find_map(|k| match k.sampler {
                SamplerSpec::Frontier { m } => Some(m),
                _ => None,
            })?;
            fs_library_cnmse(graph, (m, budget), runs, seed, truth, BODY_CCDF)
        }
    }
}

/// Stops the server and deletes the set-up's store and journal.
fn teardown(d: Deployment) {
    d.server.shutdown();
    let _ = std::fs::remove_dir_all(&d.dir);
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
