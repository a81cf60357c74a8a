//! The HTTP server: an epoll [`Reactor`] (keep-alive + pipelining +
//! chunked streaming) routing onto the [`StoreRegistry`], the
//! [`JobManager`], and the deterministic [`ResultCache`].
//!
//! ## API
//!
//! | method & path                | meaning                                       |
//! |------------------------------|-----------------------------------------------|
//! | `GET /healthz`               | liveness + worker/queue/cache stats           |
//! | `GET /v1/stores`             | list `.fsg` stores under the root             |
//! | `POST /v1/jobs`              | submit a job (JSON body; `202` + `{"id": …}`) |
//! | `GET /v1/jobs/{id}`          | job status, progress, partial/final estimate  |
//! | `GET /v1/jobs/{id}/stream`   | chunked NDJSON: one line per fresh snapshot   |
//! | `DELETE /v1/jobs/{id}`       | cancel (`200`; `404` unknown, `409` terminal) |
//! | `POST /v1/shutdown`          | graceful shutdown (also via [`Server::shutdown`]) |
//!
//! Job body: `{"store": "name.fsg", "sampler": "fs", "m": 16,
//! "alpha": 1.0, "budget": 10000, "seed": 7, "estimator":
//! "avg_degree", "pool_threads": 8}` — `m`/`alpha`/`pool_threads`
//! optional where the sampler ignores them.
//!
//! ## Job lifecycle status codes (pinned by `protocol.rs`)
//!
//! * `GET /v1/jobs/{id}` — `200` for any known job (including one
//!   completed instantly from the result cache, where the body carries
//!   `"cached": true`), `404` for unknown ids.
//! * `DELETE /v1/jobs/{id}` — `200` when the job is now cancelled
//!   (queued, running, or *already cancelled* — double-cancel is
//!   idempotent), `409` when it already finished `done`/`failed` (the
//!   result stands; nothing to cancel), `404` for unknown ids.
//!
//! ## Shutdown
//!
//! Two stages: `POST /v1/shutdown` flips the drain flag — new requests
//! answer `503` while connections stay open. [`Server::shutdown`] then
//! cancels jobs (in-flight streams see the terminal snapshot and end
//! their chunked bodies cleanly), signals the reactor to quit, and
//! joins every thread — jobs in flight end `cancelled`, never wedged
//! (pinned by the protocol tests).

use crate::cache::ResultCache;
use crate::http::Limits;
use crate::jobs::{CancelOutcome, JobManager, JobPhase, JobSpec, JobView, SubmitError};
use crate::journal::{DurabilityStats, Journal};
use crate::json::{self, Json};
use crate::obs::ServeObs;
use crate::reactor::{Action, AppLogic, Reactor, StreamEvent, Waker};
use crate::registry::{RegistryError, StoreRegistry};
use frontier_sampling::runner::{EstimatorSpec, SamplerSpec};
use fs_obs::TraceSink;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directory holding `.fsg` stores.
    pub root: PathBuf,
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Job worker threads.
    pub job_workers: usize,
    /// Maximum queued jobs (back-pressure → `429`).
    pub max_queue: usize,
    /// Maximum stores kept mapped.
    pub store_capacity: usize,
    /// Hugepage policy for store mappings ([`fs_store::HugepageMode`]):
    /// `Off` (default), `Try` (hugepages when available, transparent
    /// fallback otherwise), or `Require`.
    pub hugepages: fs_store::HugepageMode,
    /// HTTP parsing limits.
    pub limits: Limits,
    /// Result-cache entry bound (`0` disables caching).
    pub cache_entries: usize,
    /// Result-cache byte bound.
    pub cache_bytes: usize,
    /// Directory for the crash-safe job journal (`--journal-dir`).
    /// `None` runs journal-free: identical behaviour, no durability.
    pub journal_dir: Option<PathBuf>,
    /// NDJSON file every trace event is appended to (`--trace-log`),
    /// in addition to the in-memory ring `GET /v1/trace` drains.
    pub trace_log: Option<PathBuf>,
}

impl Config {
    /// Sensible defaults over `root`, binding an ephemeral local port.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            addr: "127.0.0.1:0".to_string(),
            job_workers: 2,
            max_queue: 256,
            store_capacity: 8,
            hugepages: fs_store::HugepageMode::Off,
            limits: Limits::default(),
            cache_entries: 4_096,
            cache_bytes: 64 * 1024 * 1024,
            journal_dir: None,
            trace_log: None,
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`].
pub struct Server {
    addr: std::net::SocketAddr,
    /// Draining: `POST /v1/shutdown` sets it; requests answer `503`
    /// but connections are still served (the owner decides when to
    /// actually stop).
    shutdown_flag: Arc<AtomicBool>,
    /// Hard stop: set only by [`Server::shutdown`]; the reactor exits.
    quit_flag: Arc<AtomicBool>,
    manager: Arc<JobManager>,
    waker: Waker,
    reactor: Option<std::thread::JoinHandle<()>>,
}

/// The application half handed to the reactor: pure routing, no
/// blocking work (jobs run on the manager's worker pool).
struct Logic {
    registry: Arc<StoreRegistry>,
    manager: Arc<JobManager>,
    shutdown_flag: Arc<AtomicBool>,
    /// Journal replay still in progress: every route answers `503`
    /// with `"replaying": true` until recovery finishes, so clients
    /// never observe a half-restored job table.
    replaying: Arc<AtomicBool>,
    /// The single source of every operational number: `/metrics`
    /// renders it, `/healthz` reads it back by name, `/v1/trace`
    /// drains its ring. No handler keeps counters of its own.
    obs: Arc<ServeObs>,
}

impl Server {
    /// Binds, spawns the job workers and the reactor, and starts
    /// accepting. With [`Config::journal_dir`] set, opens (or replays)
    /// the job journal first: the listener answers `503` until every
    /// journaled job is re-registered and incomplete ones re-enqueued.
    pub fn start(config: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The observability bundle is created first so every layer
        // below can thread it through at construction.
        let obs = ServeObs::new();
        if let Some(path) = &config.trace_log {
            obs.trace().set_sink(TraceSink::open(path)?);
        }
        obs.install_failpoint_hook();
        let registry = Arc::new(
            StoreRegistry::new(&config.root, config.store_capacity)
                .with_hugepages(config.hugepages)
                .with_obs(Arc::clone(&obs)),
        );
        let cache = Arc::new(ResultCache::new(config.cache_entries, config.cache_bytes));
        let (journal, replay, durability) = match &config.journal_dir {
            None => (None, None, None),
            Some(dir) => {
                let stats = Arc::new(DurabilityStats::default());
                let (journal, replay) = Journal::open(dir, Arc::clone(&stats))?;
                journal.set_trace(Arc::clone(obs.trace()));
                (Some(Arc::new(journal)), Some(replay), Some(stats))
            }
        };
        let manager = JobManager::start(
            Arc::clone(&registry),
            Arc::clone(&cache),
            config.job_workers,
            config.max_queue,
            journal,
        );
        // Installed before the restore thread spawns, so replayed jobs
        // count and trace like live ones.
        manager.set_obs(Arc::clone(&obs));
        register_derived_metrics(
            &obs,
            &registry,
            &manager,
            &cache,
            durability.as_ref(),
            config.job_workers,
        );
        let shutdown_flag = Arc::new(AtomicBool::new(false));
        let quit_flag = Arc::new(AtomicBool::new(false));
        let replaying = Arc::new(AtomicBool::new(replay.is_some()));
        let logic = Arc::new(Logic {
            registry,
            manager: Arc::clone(&manager),
            shutdown_flag: Arc::clone(&shutdown_flag),
            replaying: Arc::clone(&replaying),
            obs: Arc::clone(&obs),
        });
        let (waker, handle) = Reactor::spawn(
            listener,
            logic,
            config.limits,
            Arc::clone(&quit_flag),
            Some(obs),
        )?;
        // Job workers poke the reactor after every chunk so streaming
        // connections learn about fresh snapshots without polling.
        let hook_waker = waker.clone();
        manager.set_update_hook(Box::new(move || hook_waker.wake()));
        // Restore off-thread: re-pinning stores mmaps real files, and
        // the listener should answer (503) rather than hang meanwhile.
        if let Some(replay) = replay {
            let restore_manager = Arc::clone(&manager);
            let restore_flag = Arc::clone(&replaying);
            std::thread::spawn(move || {
                restore_manager.restore(replay);
                restore_flag.store(false, Ordering::SeqCst);
            });
        }
        Ok(Server {
            addr,
            shutdown_flag,
            quit_flag,
            manager,
            waker,
            reactor: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether a client asked for shutdown (`POST /v1/shutdown`). The
    /// owner should then call [`Server::shutdown`] to drain and join.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_flag.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: see the [module docs](self). Idempotent.
    pub fn shutdown(mut self) {
        // Stage 1: drain — new requests answer 503.
        self.shutdown_flag.store(true, Ordering::SeqCst);
        // Stage 2: stop the jobs. Running jobs flip to `cancelled` at
        // their next chunk; each flip wakes the reactor, so in-flight
        // streams emit the terminal snapshot and end their chunked
        // bodies *before* the reactor is told to quit.
        self.manager.shutdown();
        // Stage 3: quit the reactor; it grace-drains pending output
        // (including those stream terminators) and joins.
        self.quit_flag.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

/// Registers the read-through views: numbers owned by other subsystems
/// (cache, durability stats, registry occupancy, in-flight jobs) become
/// registry metrics via closures, so `/metrics` and `/healthz` read the
/// same live values without any copy to drift.
///
/// Registry and manager are captured **weakly**: both hold the
/// `Arc<ServeObs>` whose registry owns these closures, and a strong
/// capture would cycle the three `Arc`s and leak the whole stack.
fn register_derived_metrics(
    obs: &Arc<ServeObs>,
    registry: &Arc<StoreRegistry>,
    manager: &Arc<JobManager>,
    cache: &Arc<ResultCache>,
    durability: Option<&Arc<DurabilityStats>>,
    job_workers: usize,
) {
    let r = obs.registry();
    let stores: Weak<StoreRegistry> = Arc::downgrade(registry);
    r.gauge_fn("fs_stores_open", "Stores currently mapped.", move || {
        stores.upgrade().map_or(0, |s| s.open_count() as u64)
    });
    let jobs: Weak<JobManager> = Arc::downgrade(manager);
    r.gauge_fn(
        "fs_jobs_in_flight",
        "Jobs currently queued or running.",
        move || jobs.upgrade().map_or(0, |m| m.in_flight() as u64),
    );
    r.gauge_fn(
        "fs_job_workers",
        "Configured job worker threads.",
        move || job_workers as u64,
    );
    for (name, help, read) in [
        (
            "fs_cache_hits_total",
            "Result-cache hits.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().hits
            }) as Box<dyn Fn() -> u64 + Send + Sync>,
        ),
        (
            "fs_cache_misses_total",
            "Result-cache misses.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().misses
            }),
        ),
        (
            "fs_cache_evictions_total",
            "Result-cache evictions.",
            Box::new({
                let c = Arc::clone(cache);
                move || c.stats().evictions
            }),
        ),
    ] {
        r.counter_fn(name, help, read);
    }
    let c = Arc::clone(cache);
    r.gauge_fn(
        "fs_cache_entries",
        "Result-cache entries held.",
        move || c.stats().entries as u64,
    );
    let c = Arc::clone(cache);
    r.gauge_fn("fs_cache_bytes", "Result-cache bytes held.", move || {
        c.stats().bytes as u64
    });
    if let Some(stats) = durability {
        type Reader = fn(&DurabilityStats) -> u64;
        let counters: [(&str, &str, Reader); 7] = [
            (
                "fs_journal_records_replayed_total",
                "Journal records replayed at startup.",
                |d| d.records_replayed.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_torn_truncated_total",
                "Torn journal tails truncated.",
                |d| d.torn_truncated.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_jobs_resumed_total",
                "Incomplete jobs re-enqueued after restart.",
                |d| d.jobs_resumed.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_jobs_recovered_total",
                "Finished jobs re-registered after restart.",
                |d| d.jobs_recovered.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_resumed_from_checkpoint_total",
                "Jobs resumed from a surviving checkpoint.",
                |d| d.resumed_from_checkpoint.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_checkpoints_written_total",
                "Checkpoints appended to the journal.",
                |d| d.checkpoints_written.load(Ordering::Relaxed),
            ),
            (
                "fs_journal_appends_failed_total",
                "Journal appends that failed and truncated back.",
                |d| d.appends_failed.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, read) in counters {
            let d = Arc::clone(stats);
            r.counter_fn(name, help, move || read(&d));
        }
        let d = Arc::clone(stats);
        r.gauge_fn(
            "fs_journal_degraded",
            "1 when the journal stopped appending after an unrecoverable failure.",
            move || u64::from(d.degraded.load(Ordering::Relaxed)),
        );
    }
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::from(message))]).encode()
}

fn respond(status: u16, body: String) -> Action {
    Action::Respond {
        status,
        body,
        close: false,
    }
}

impl AppLogic for Logic {
    fn handle(&self, request: &crate::http::Request) -> Action {
        if self.shutdown_flag.load(Ordering::SeqCst) {
            return respond(503, error_body("server is shutting down"));
        }
        if self.replaying.load(Ordering::SeqCst) {
            // Recovery in progress: a half-restored job table would
            // 404 ids that are about to reappear. The structured body
            // lets clients (and the load generator's retry loop) tell
            // this apart from a drain 503 and retry.
            return respond(
                503,
                Json::obj([
                    ("error", Json::from("journal replay in progress; retry")),
                    ("replaying", Json::from(true)),
                ])
                .encode(),
            );
        }
        let path = request.path.as_str();
        let method = request.method.as_str();
        match (method, path) {
            ("GET", "/healthz") => {
                // A thin JSON view over the metric registry: every
                // number is `Registry::value(name)` of a metric that
                // `/metrics` also renders, so the two surfaces cannot
                // drift (pinned by the metrics integration test). No
                // counter is hand-assembled here.
                let metric = |name: &str| Json::from(self.obs.registry().value(name).unwrap_or(0));
                let mut fields = vec![
                    ("status", Json::from("ok")),
                    ("open_stores", metric("fs_stores_open")),
                    ("in_flight_jobs", metric("fs_jobs_in_flight")),
                    ("job_workers", metric("fs_job_workers")),
                    (
                        "cache",
                        Json::obj([
                            ("hits", metric("fs_cache_hits_total")),
                            ("misses", metric("fs_cache_misses_total")),
                            ("entries", metric("fs_cache_entries")),
                            ("bytes", metric("fs_cache_bytes")),
                            ("evictions", metric("fs_cache_evictions_total")),
                        ]),
                    ),
                ];
                // Journal metrics register only when one is configured.
                if self
                    .obs
                    .registry()
                    .value("fs_journal_records_replayed_total")
                    .is_some()
                {
                    fields.push((
                        "durability",
                        Json::obj([
                            (
                                "records_replayed",
                                metric("fs_journal_records_replayed_total"),
                            ),
                            ("torn_truncated", metric("fs_journal_torn_truncated_total")),
                            ("jobs_resumed", metric("fs_journal_jobs_resumed_total")),
                            ("jobs_recovered", metric("fs_journal_jobs_recovered_total")),
                            (
                                "resumed_from_checkpoint",
                                metric("fs_journal_resumed_from_checkpoint_total"),
                            ),
                            (
                                "checkpoints_written",
                                metric("fs_journal_checkpoints_written_total"),
                            ),
                            ("appends_failed", metric("fs_journal_appends_failed_total")),
                            (
                                "degraded",
                                Json::from(
                                    self.obs
                                        .registry()
                                        .value("fs_journal_degraded")
                                        .unwrap_or(0)
                                        != 0,
                                ),
                            ),
                        ]),
                    ));
                }
                respond(200, Json::obj(fields).encode())
            }
            ("GET", "/metrics") => Action::RespondTyped {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: self.obs.registry().render_prometheus(),
                close: false,
            },
            ("GET", "/v1/trace") => {
                let mut body: String = String::new();
                for line in self.obs.trace().drain() {
                    body.push_str(&line);
                    body.push('\n');
                }
                Action::RespondTyped {
                    status: 200,
                    content_type: "application/x-ndjson",
                    body,
                    close: false,
                }
            }
            ("GET", "/v1/stores") => match self.registry.list() {
                Ok(infos) => {
                    let items: Vec<Json> = infos
                        .into_iter()
                        .map(|i| {
                            Json::obj([
                                ("name", Json::from(i.name)),
                                ("digest", Json::from(format!("{:016x}", i.digest))),
                                ("num_vertices", Json::from(i.num_vertices)),
                                ("num_arcs", Json::from(i.num_arcs)),
                                ("open", Json::from(i.open)),
                            ])
                        })
                        .collect();
                    respond(200, Json::obj([("stores", Json::Arr(items))]).encode())
                }
                Err(e) => respond(500, error_body(&format!("cannot list stores: {e}"))),
            },
            ("POST", "/v1/jobs") => self.submit_job(request),
            ("POST", "/v1/shutdown") => {
                self.shutdown_flag.store(true, Ordering::SeqCst);
                respond(
                    202,
                    Json::obj([("status", Json::from("shutting down"))]).encode(),
                )
            }
            _ => {
                if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                    return self.job_route(method, rest);
                }
                match path {
                    "/healthz" | "/metrics" | "/v1/stores" | "/v1/jobs" | "/v1/shutdown"
                    | "/v1/trace" => respond(
                        405,
                        error_body(&format!("method {method} not allowed on {path}")),
                    ),
                    _ => respond(404, error_body(&format!("no route for {path}"))),
                }
            }
        }
    }

    fn stream_poll(&self, job: u64, last_gen: &mut u64) -> StreamEvent {
        let Some(view) = self.manager.view(job) else {
            // Pruned by retention mid-stream: terminate rather than
            // hang the subscriber.
            return StreamEvent::End(error_body(&format!("job {job} no longer exists")));
        };
        if view.phase.terminal() {
            *last_gen = view.generation;
            return StreamEvent::End(job_json(&view).encode());
        }
        if view.generation > *last_gen {
            *last_gen = view.generation;
            return StreamEvent::Chunk(job_json(&view).encode());
        }
        StreamEvent::Idle
    }

    fn error_body(&self, message: &str) -> String {
        error_body(message)
    }
}

impl Logic {
    /// Routes `/v1/jobs/{id}` and `/v1/jobs/{id}/stream`.
    fn job_route(&self, method: &str, rest: &str) -> Action {
        let (id_text, stream) = match rest.strip_suffix("/stream") {
            Some(prefix) => (prefix, true),
            None => (rest, false),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return respond(400, error_body(&format!("bad job id '{id_text}'")));
        };
        match (method, stream) {
            ("GET", false) => match self.manager.view(id) {
                Some(view) => respond(200, job_json(&view).encode()),
                None => respond(404, error_body(&format!("no job {id}"))),
            },
            ("GET", true) => {
                if self.manager.view(id).is_none() {
                    return respond(404, error_body(&format!("no job {id}")));
                }
                Action::Stream { job: id }
            }
            ("DELETE", false) => match self.manager.cancel(id) {
                CancelOutcome::NotFound => respond(404, error_body(&format!("no job {id}"))),
                CancelOutcome::Terminal(phase) => respond(
                    409,
                    Json::obj([
                        ("id", Json::from(id)),
                        ("phase", Json::from(phase.name())),
                        (
                            "error",
                            Json::from(format!(
                                "job {id} already finished as {}; nothing to cancel",
                                phase.name()
                            )),
                        ),
                    ])
                    .encode(),
                ),
                CancelOutcome::Cancelled => respond(
                    200,
                    Json::obj([
                        ("id", Json::from(id)),
                        ("phase", Json::from(JobPhase::Cancelled.name())),
                    ])
                    .encode(),
                ),
            },
            ("DELETE", true) => respond(405, error_body("DELETE the job, not its stream")),
            _ => respond(405, error_body("use GET or DELETE on /v1/jobs/{id}")),
        }
    }

    fn submit_job(&self, request: &crate::http::Request) -> Action {
        let Ok(text) = std::str::from_utf8(&request.body) else {
            return respond(400, error_body("body is not UTF-8"));
        };
        let doc = match json::parse(text) {
            Ok(doc) => doc,
            Err(e) => return respond(400, error_body(&e.to_string())),
        };
        let spec = match parse_job_spec(&doc) {
            Ok(spec) => spec,
            Err(message) => return respond(400, error_body(&message)),
        };
        match self.manager.submit(spec) {
            Ok(id) => {
                // A cache hit completes the job at submit; report the
                // actual phase so clients need not poll a done job.
                let phase = self
                    .manager
                    .view(id)
                    .map(|v| v.phase)
                    .unwrap_or(JobPhase::Queued);
                respond(
                    202,
                    Json::obj([("id", Json::from(id)), ("phase", Json::from(phase.name()))])
                        .encode(),
                )
            }
            Err(SubmitError::Invalid(m)) => respond(400, error_body(&m)),
            Err(SubmitError::Store(RegistryError::NotFound(n))) => {
                respond(404, error_body(&format!("no store named '{n}'")))
            }
            Err(SubmitError::Store(e)) => respond(400, error_body(&e.to_string())),
            Err(SubmitError::QueueFull) => {
                respond(429, error_body("job queue is full; retry later"))
            }
            Err(SubmitError::ShuttingDown) => respond(503, error_body("server is shutting down")),
        }
    }
}

fn parse_job_spec(doc: &Json) -> Result<JobSpec, String> {
    let field_str = |name: &str| -> Result<&str, String> {
        doc.get(name)
            .ok_or_else(|| format!("missing field '{name}'"))?
            .as_str()
            .ok_or_else(|| format!("field '{name}' must be a string"))
    };
    let store = field_str("store")?.to_string();
    let sampler_name = field_str("sampler")?;
    let estimator_name = field_str("estimator")?;
    let budget = doc
        .get("budget")
        .ok_or("missing field 'budget'")?
        .as_f64()
        .ok_or("field 'budget' must be a number")?;
    let seed = doc
        .get("seed")
        .ok_or("missing field 'seed'")?
        .as_u64()
        .ok_or("field 'seed' must be a non-negative integer")?;
    let m = match doc.get("m") {
        None | Some(Json::Null) => 1,
        Some(v) => v
            .as_u64()
            .ok_or("field 'm' must be a non-negative integer")? as usize,
    };
    let alpha = match doc.get("alpha") {
        None | Some(Json::Null) => 0.0,
        Some(v) => v.as_f64().ok_or("field 'alpha' must be a number")?,
    };
    let pool_threads = match doc.get("pool_threads") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("field 'pool_threads' must be a non-negative integer")? as usize,
        ),
    };
    for (key, _) in match doc {
        Json::Obj(pairs) => pairs.iter(),
        _ => return Err("body must be a JSON object".into()),
    } {
        if !matches!(
            key.as_str(),
            "store" | "sampler" | "estimator" | "budget" | "seed" | "m" | "alpha" | "pool_threads"
        ) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    let sampler = SamplerSpec::parse(sampler_name, m, alpha)?;
    let estimator = EstimatorSpec::parse(estimator_name)?;
    Ok(JobSpec {
        store,
        sampler,
        budget,
        seed,
        estimator,
        pool_threads,
    })
}

/// Serializes a job view. Estimate floats use shortest-round-trip
/// encoding, so clients recover server-side values bit for bit — and a
/// cache-hit job's estimate is **byte-identical** to the original run's
/// (the `cached`/`id` bookkeeping fields differ; the payload does not).
fn job_json(view: &JobView) -> Json {
    let estimate = match &view.estimate {
        None => Json::Null,
        Some(snapshot) => Json::obj([
            ("num_observed", Json::from(snapshot.num_observed)),
            (
                "scalar",
                snapshot.scalar.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "vector",
                snapshot
                    .vector
                    .as_ref()
                    .map(|v| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()))
                    .unwrap_or(Json::Null),
            ),
        ]),
    };
    Json::obj([
        ("id", Json::from(view.id)),
        ("phase", Json::from(view.phase.name())),
        (
            "error",
            view.error.as_deref().map(Json::from).unwrap_or(Json::Null),
        ),
        ("store", Json::from(view.spec.store.clone())),
        (
            "store_digest",
            Json::from(format!("{:016x}", view.store_digest)),
        ),
        ("sampler", Json::from(view.spec.sampler.label())),
        ("estimator", Json::from(view.spec.estimator.name())),
        ("budget", Json::Num(view.spec.budget)),
        ("seed", Json::from(view.spec.seed)),
        (
            "pool_threads",
            view.spec
                .pool_threads
                .map(|t| Json::from(t as u64))
                .unwrap_or(Json::Null),
        ),
        ("steps_done", Json::from(view.steps_done)),
        ("progress", Json::Num(view.progress)),
        ("cached", Json::from(view.cached)),
        ("profile", profile_json(view)),
        ("final", Json::from(view.phase == JobPhase::Done)),
        ("estimate", estimate),
    ])
}

/// The per-job execution profile: raw totals from the chunk loop plus
/// the derived rates (`steps_per_sec`, `queries_per_step`) clients
/// would otherwise recompute. Observation only — nothing here feeds
/// back into sampling, so the `estimate` payload stays byte-identical
/// to a run without profiling (pinned by `determinism.rs` and
/// `loadgen --verify`, which compare estimate bits with this field
/// present).
fn profile_json(view: &JobView) -> Json {
    let p = &view.profile;
    let steps_per_sec = if p.busy_us > 0 {
        Json::Num(view.steps_done as f64 * 1e6 / p.busy_us as f64)
    } else {
        Json::Null
    };
    let queries_per_step = if view.steps_done > 0 {
        Json::Num(p.queries as f64 / view.steps_done as f64)
    } else {
        Json::Null
    };
    Json::obj([
        ("chunks", Json::from(p.chunks)),
        ("busy_us", Json::from(p.busy_us)),
        ("queries", Json::from(p.queries)),
        ("steps_per_sec", steps_per_sec),
        ("queries_per_step", queries_per_step),
        ("budget_spent", Json::Num(p.budget_spent)),
        ("budget_total", Json::Num(p.budget_total)),
        (
            "budget_remaining",
            Json::Num((p.budget_total - p.budget_spent).max(0.0)),
        ),
    ])
}
