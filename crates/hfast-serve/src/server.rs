//! The daemon: acceptor, connection threads, admission queue, worker pool.
//!
//! ## Thread model
//!
//! One non-blocking acceptor polls for connections and its shutdown flag.
//! Each connection gets a thread that reads frames under a short socket
//! timeout (so drain can interrupt an idle read), parses, and answers
//! cheap requests — health, stats, shutdown, cache hits — in place.
//! Compute requests go through the bounded admission queue to a fixed
//! worker pool; a full queue sheds the request with [`Response::Busy`]
//! instead of letting latency grow without bound. Workers run handlers
//! under `catch_unwind`, so a panicking request costs one structured
//! error, not a worker.
//!
//! ## Why cache hits bypass the queue
//!
//! Cacheable responses are pure functions of the request, so a hit can be
//! served from the connection thread without consuming worker capacity —
//! and because *every* response is either a cache hit or computed by a
//! deterministic handler, the bytes a client sees are independent of the
//! worker count. The integration suite pins that down (same seed, 1 vs 8
//! workers, byte-identical digests).
//!
//! ## Drain
//!
//! `Shutdown` (the request or [`ServerHandle::shutdown`]) flips one flag.
//! The acceptor stops accepting, idle connections close at their next
//! timeout tick, mid-frame connections get a bounded grace to finish,
//! queued work is completed by the workers before they exit, and
//! [`ServerHandle::join`] then flushes the observability export and the
//! Perfetto trace.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hfast_netsim::RetryPolicy;
use hfast_obs::{Outcome, ServeObs, SlidingWindow};
use hfast_trace::{server_span_id, TraceContext, TraceRecorder, Track};

use crate::cache::ResponseCache;
use crate::frame::{write_frame, FrameError, FramePoll, FrameReader};
use crate::handlers::execute;
use crate::jobs::{Fetched, JobQueue};
use crate::protocol::{
    decode_request_traced, encode_request, encode_response, request_key, Request, Response,
    VerbLatency, VerbWindow, ENDPOINTS,
};
use crate::registry::Registry;

/// How often blocked reads and waits wake up to check the shutdown flag.
const TICK: Duration = Duration::from_millis(50);

/// Ring slots in the `metrics` sliding window.
const WINDOW_BUCKETS: usize = 10;

/// Width of one window slot: one second, so `metrics` reports rolling
/// stats over the last ten seconds in bounded memory.
const WINDOW_BUCKET_NS: u64 = 1_000_000_000;

/// Timeout ticks granted to a connection caught mid-frame at drain time
/// (~1 s) before the server stops waiting for the rest of the frame.
const DRAIN_GRACE_TICKS: u32 = 20;

/// Serving knobs; every field has an `HFAST_SERVE_*` environment override.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute worker threads (`HFAST_SERVE_WORKERS`).
    pub workers: usize,
    /// Admission queue capacity before load-shedding (`HFAST_SERVE_QUEUE`).
    pub queue_cap: usize,
    /// Response-cache byte budget (`HFAST_SERVE_CACHE_BYTES`).
    pub cache_bytes: usize,
    /// Response-cache shard count (`HFAST_SERVE_SHARDS`).
    pub cache_shards: usize,
    /// Per-request queue deadline (`HFAST_SERVE_DEADLINE_MS`).
    pub deadline: Duration,
    /// Job worker threads for the durable queue
    /// (`HFAST_SERVE_JOB_WORKERS`).
    pub job_workers: usize,
    /// Job-journal path (`HFAST_SERVE_JOURNAL`); `None` keeps the queue
    /// in memory only.
    pub journal: Option<PathBuf>,
    /// Retry policy for panicking job attempts.
    pub job_retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            cache_bytes: 4 << 20,
            cache_shards: 8,
            deadline: Duration::from_millis(10_000),
            job_workers: 1,
            journal: None,
            job_retry: RetryPolicy::default(),
        }
    }
}

fn env_nonzero(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

impl ServerConfig {
    /// The default config with `HFAST_SERVE_*` environment overrides
    /// applied. Unset, empty, unparsable, or zero values keep defaults.
    pub fn from_env() -> Self {
        let d = ServerConfig::default();
        ServerConfig {
            workers: env_nonzero("HFAST_SERVE_WORKERS", d.workers),
            queue_cap: env_nonzero("HFAST_SERVE_QUEUE", d.queue_cap),
            cache_bytes: env_nonzero("HFAST_SERVE_CACHE_BYTES", d.cache_bytes),
            cache_shards: env_nonzero("HFAST_SERVE_SHARDS", d.cache_shards),
            deadline: Duration::from_millis(env_nonzero(
                "HFAST_SERVE_DEADLINE_MS",
                d.deadline.as_millis() as usize,
            ) as u64),
            job_workers: env_nonzero("HFAST_SERVE_JOB_WORKERS", d.job_workers),
            journal: std::env::var("HFAST_SERVE_JOURNAL")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
            job_retry: d.job_retry,
        }
    }
}

/// One queued compute request.
struct Job {
    request: Request,
    /// Cache key when the request is cacheable.
    key: Option<u64>,
    enqueued: Instant,
    deadline: Instant,
    /// Encoded response goes back to the connection thread here.
    reply: mpsc::Sender<String>,
}

/// State shared by the acceptor, connection threads, and workers.
struct Shared {
    config: ServerConfig,
    registry: Registry,
    cache: ResponseCache,
    obs: ServeObs,
    queue: Mutex<VecDeque<Job>>,
    queue_cond: Condvar,
    jobs: JobQueue,
    shutdown: AtomicBool,
    trace: Option<TraceRecorder>,
    epoch: Instant,
    span_counter: AtomicU64,
    /// Rolling per-verb latency/outcome window behind the `metrics` verb.
    /// Recorded unconditionally (the collection path is one short
    /// uncontended mutex per served request, dwarfed by the TCP
    /// round-trip); only the *export* surfaces are gated.
    window: SlidingWindow,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_cond.notify_all();
        self.jobs.drain();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_span(&self) -> u64 {
        server_span_id(self.span_counter.fetch_add(1, Ordering::Relaxed))
    }
}

/// Outcome of the connection-thread fast path for one request.
enum Routed {
    /// Answer now with these encoded bytes (`bool` = response cache hit).
    Immediate(String, bool),
    /// Queued; await the worker's reply on this receiver.
    Queued(mpsc::Receiver<String>),
}

/// One lifetime-latency row per `ENDPOINTS` entry, in table order, for
/// the `stats` response: request counts from the per-endpoint counters,
/// quantiles from the per-endpoint service histograms.
fn verb_latency_rows(shared: &Shared) -> Vec<VerbLatency> {
    ENDPOINTS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let hist = shared.obs.service_for(i);
            VerbLatency {
                verb: (*name).to_string(),
                count: shared.obs.requests_for(i),
                p50_ns: hist.map_or(0, |h| h.quantile(0.50)),
                p95_ns: hist.map_or(0, |h| h.quantile(0.95)),
                p99_ns: hist.map_or(0, |h| h.quantile(0.99)),
            }
        })
        .collect()
}

fn route_request(shared: &Shared, req: Request) -> Routed {
    shared.obs.record_request(req.verb_index());
    match req {
        Request::Health => Routed::Immediate(
            encode_response(&Response::Health {
                workers: shared.config.workers,
                queue: shared.config.queue_cap,
            }),
            false,
        ),
        Request::Stats => {
            let c = shared.cache.stats();
            let sim = shared.registry.sim_obs();
            let (graphs, fabrics) = shared.registry.entry_counts();
            Routed::Immediate(
                encode_response(&Response::Stats {
                    requests: shared.obs.total_requests(),
                    shed: shared.obs.shed.get(),
                    cache_hits: c.hits,
                    cache_misses: c.misses,
                    cache_evictions: c.evictions,
                    cache_entries: c.entries,
                    cache_bytes: c.bytes,
                    sim_events: sim.events.get(),
                    sim_events_per_sec: sim.events_per_sec.get(),
                    strategy_hits: shared.registry.strategy_hits(),
                    scenario_hits: shared.registry.scenario_hits(),
                    graphs,
                    fabrics,
                    jobs: shared.jobs.totals(),
                    latency: verb_latency_rows(shared),
                }),
                false,
            )
        }
        Request::Metrics => {
            let c = shared.cache.stats();
            let totals = shared.jobs.totals();
            let snap = shared.window.snapshot(shared.now_ns());
            let verbs = ENDPOINTS
                .iter()
                .zip(snap.lanes.iter())
                .map(|(name, l)| VerbWindow {
                    verb: (*name).to_string(),
                    count: l.count,
                    ok: l.ok,
                    busy: l.busy,
                    errors: l.errors,
                    p50_ns: l.p50_ns,
                    p95_ns: l.p95_ns,
                    p99_ns: l.p99_ns,
                })
                .collect();
            Routed::Immediate(
                encode_response(&Response::Metrics {
                    window_ns: snap.window_ns,
                    shards: 1,
                    queue_depth: shared.queue.lock().expect("queue poisoned").len() as u64,
                    cache_hits: c.hits,
                    cache_misses: c.misses,
                    jobs_pending: shared.jobs.pending() as u64,
                    jobs_retried: totals.retried,
                    hot_keys: 0,
                    verbs,
                }),
                false,
            )
        }
        Request::Shutdown => {
            shared.begin_drain();
            Routed::Immediate(encode_response(&Response::Ok), false)
        }
        Request::Submit { job } => {
            let resp = match shared.jobs.submit(*job) {
                Ok(id) => Response::JobAccepted { id },
                Err(resp) => resp,
            };
            if matches!(resp, Response::Busy) {
                shared.obs.shed.inc();
            }
            if matches!(resp, Response::Error { .. }) {
                shared.obs.errors.inc();
            }
            Routed::Immediate(encode_response(&resp), false)
        }
        Request::Poll { id } => {
            let resp = shared.jobs.poll(id);
            if matches!(resp, Response::Error { .. }) {
                shared.obs.errors.inc();
            }
            Routed::Immediate(encode_response(&resp), false)
        }
        Request::Fetch { id } => Routed::Immediate(
            match shared.jobs.fetch(id) {
                // Pass-through of the stored canonical text: a fetched
                // result is byte-identical to the synchronous response.
                Fetched::Ready(text) => text,
                Fetched::Status(resp) => {
                    if matches!(resp, Response::Error { .. }) {
                        shared.obs.errors.inc();
                    }
                    encode_response(&resp)
                }
            },
            false,
        ),
        Request::Cancel { id } => {
            let resp = shared.jobs.cancel(id);
            if matches!(resp, Response::Error { .. }) {
                shared.obs.errors.inc();
            }
            Routed::Immediate(encode_response(&resp), false)
        }
        req => {
            let key = if req.cacheable() {
                let key = request_key(&encode_request(&req));
                if let Some(hit) = shared.cache.get(key) {
                    return Routed::Immediate(hit, true);
                }
                Some(key)
            } else {
                None
            };
            let (tx, rx) = mpsc::channel();
            let now = Instant::now();
            let job = Job {
                request: req,
                key,
                enqueued: now,
                deadline: now + shared.config.deadline,
                reply: tx,
            };
            {
                let mut queue = shared.queue.lock().expect("queue poisoned");
                // Checked under the queue lock: workers only exit after
                // observing (empty, draining) under this same lock, so a
                // job admitted here is guaranteed a worker.
                if shared.draining() || queue.len() >= shared.config.queue_cap {
                    drop(queue);
                    shared.obs.shed.inc();
                    return Routed::Immediate(encode_response(&Response::Busy), false);
                }
                queue.push_back(job);
            }
            shared.obs.request_admitted();
            shared.queue_cond.notify_one();
            Routed::Queued(rx)
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cond
                    .wait_timeout(queue, TICK)
                    .expect("queue poisoned");
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        let now = Instant::now();
        shared
            .obs
            .queue_wait_ns
            .record(now.duration_since(job.enqueued).as_nanos() as u64);
        let response = if now > job.deadline {
            shared.obs.expired.inc();
            Response::Error {
                message: format!(
                    "deadline exceeded after {} ms in queue",
                    now.duration_since(job.enqueued).as_millis()
                ),
            }
        } else {
            let started = Instant::now();
            let outcome =
                catch_unwind(AssertUnwindSafe(|| execute(&job.request, &shared.registry)));
            shared
                .obs
                .service_ns
                .record(started.elapsed().as_nanos() as u64);
            match outcome {
                Ok(resp) => resp,
                Err(_) => {
                    shared.obs.panics.inc();
                    Response::Error {
                        message: format!(
                            "handler for {} panicked; worker recovered",
                            job.request.endpoint()
                        ),
                    }
                }
            }
        };
        if matches!(response, Response::Error { .. }) {
            shared.obs.errors.inc();
        }
        let encoded = encode_response(&response);
        if let (Some(key), false) = (job.key, matches!(response, Response::Error { .. })) {
            shared.cache.put(key, &encoded);
        }
        // A send error means the connection died while waiting; the
        // response is simply dropped.
        let _ = job.reply.send(encoded);
        shared.obs.request_done();
    }
}

/// Serves one request payload end to end; returns false when the
/// connection should close (write failure).
fn serve_frame(shared: &Shared, stream: &mut TcpStream, conn_id: usize, payload: &str) -> bool {
    let t_start = shared.now_ns();
    let root_span = shared.next_span();
    let mut ctx: Option<TraceContext> = None;
    let mut verb_idx: Option<usize> = None;
    let (encoded, outcome, cache_hit, t_parsed) = match decode_request_traced(payload) {
        Ok((req, version, trace_ctx)) => {
            ctx = trace_ctx;
            verb_idx = Some(req.verb_index());
            let t_parsed = shared.now_ns();
            let (body, hit) = match route_request(shared, req) {
                Routed::Immediate(encoded, hit) => (encoded, hit),
                Routed::Queued(rx) => {
                    let encoded = rx.recv().unwrap_or_else(|_| {
                        encode_response(&Response::Error {
                            message: "worker dropped the request during drain".into(),
                        })
                    });
                    (encoded, false)
                }
            };
            // Classify the outcome from the canonical v1 body prefix —
            // cheaper than re-decoding and exact because the body is
            // canonical (fixed field order, no whitespace).
            let outcome = if body.starts_with("{\"type\":\"busy\"") {
                Outcome::Busy
            } else if body.starts_with("{\"type\":\"error\"") {
                Outcome::Error
            } else {
                Outcome::Ok
            };
            // Answer in the envelope the request arrived in: cache and
            // queue always carry the canonical v1 body, so v1 and v2
            // clients share every cached entry. Responses never carry
            // trace context — it flows request-ward only.
            (version.wrap(body), outcome, hit, t_parsed)
        }
        Err(message) => {
            shared.obs.errors.inc();
            (
                encode_response(&Response::Error { message }),
                Outcome::Error,
                false,
                shared.now_ns(),
            )
        }
    };
    let t_done = shared.now_ns();
    let ok = write_frame(stream, &encoded).is_ok();
    if let Some(idx) = verb_idx {
        let latency = t_done.saturating_sub(t_start);
        shared.obs.record_service(idx, latency);
        shared.window.record(t_done, idx, latency, outcome);
    }
    if let Some(trace) = &shared.trace {
        let track = Track::Server(conn_id);
        // A request that arrived with trace context parents its span tree
        // under the remote caller's span so the stitcher can render the
        // whole fleet request as one causal tree; the trace id rides along
        // on every span as a plain field.
        let (remote_parent, trace_id) = match ctx {
            Some(c) => (c.parent_id, Some(c.trace_id)),
            None => (0, None),
        };
        let tag = |mut fields: Vec<(&'static str, u64)>| {
            if let Some(id) = trace_id {
                fields.push(("trace", id));
            }
            fields
        };
        trace.record_span(
            track,
            "request",
            t_start,
            shared.now_ns().saturating_sub(t_start),
            root_span,
            remote_parent,
            tag(vec![("cache_hit", cache_hit as u64)]),
        );
        trace.record_span(
            track,
            "parse",
            t_start,
            t_parsed.saturating_sub(t_start),
            shared.next_span(),
            root_span,
            tag(vec![("bytes", payload.len() as u64)]),
        );
        trace.record_span(
            track,
            "execute",
            t_parsed,
            t_done.saturating_sub(t_parsed),
            shared.next_span(),
            root_span,
            tag(vec![]),
        );
        trace.record_span(
            track,
            "respond",
            t_done,
            shared.now_ns().saturating_sub(t_done),
            shared.next_span(),
            root_span,
            tag(vec![("bytes", encoded.len() as u64), ("ok", ok as u64)]),
        );
    }
    ok
}

fn connection_loop(shared: &Shared, mut stream: TcpStream, conn_id: usize) {
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    // Responses are small; waiting for more bytes to coalesce only adds
    // round-trip latency.
    let _ = stream.set_nodelay(true);
    shared.obs.connections.inc();
    let mut reader = FrameReader::new();
    let mut grace = 0u32;
    loop {
        match reader.poll(&mut stream) {
            Ok(FramePoll::Frame(payload)) => {
                grace = 0;
                if !serve_frame(shared, &mut stream, conn_id, &payload) {
                    return;
                }
            }
            Ok(FramePoll::Pending) => {
                if shared.draining() {
                    if !reader.mid_frame() {
                        return; // idle connection: drain closes it now
                    }
                    grace += 1;
                    if grace > DRAIN_GRACE_TICKS {
                        return; // mid-frame but the rest never came
                    }
                }
            }
            Err(FrameError::Eof) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
            Err(e @ (FrameError::Oversized(_) | FrameError::NotUtf8)) => {
                // Structured refusal, then close: the stream position is
                // undefined past a bad frame.
                shared.obs.errors.inc();
                let resp = encode_response(&Response::Error {
                    message: e.to_string(),
                });
                let _ = write_frame(&mut stream, &resp);
                return;
            }
        }
    }
}

fn acceptor_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_id = 0usize;
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = conn_id;
                conn_id += 1;
                let shared = Arc::clone(&shared);
                conns.push(
                    thread::Builder::new()
                        .name(format!("hfast-serve-conn-{id}"))
                        .spawn(move || connection_loop(&shared, stream, id))
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
                // Occasionally reap finished connection threads so a
                // long-lived daemon does not accumulate handles.
                if conns.len() > 64 {
                    conns.retain(|h| !h.is_finished());
                }
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful drain (idempotent; also triggered by the
    /// `shutdown` request).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until drain completes — every connection closed, every
    /// queued request answered — then flushes the `HFAST_OBS` summary and
    /// the `HFAST_TRACE` Perfetto document. Call [`shutdown`] first (or
    /// let a client send the `shutdown` request) or this blocks forever.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.obs.export();
        if let Some(trace) = &self.shared.trace {
            hfast_trace::export_to_env_sink("server", &trace.snapshot());
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts the daemon.
///
/// # Errors
/// Propagates the bind failure, or a journal open/replay failure when
/// [`ServerConfig::journal`] is set.
pub fn start(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let jobs = match &config.journal {
        Some(path) => JobQueue::with_journal(path, config.job_retry)?,
        None => JobQueue::new(config.job_retry),
    };
    let shared = Arc::new(Shared {
        cache: ResponseCache::new(config.cache_shards, config.cache_bytes),
        registry: Registry::new(),
        obs: ServeObs::new(&ENDPOINTS),
        queue: Mutex::new(VecDeque::new()),
        queue_cond: Condvar::new(),
        jobs,
        shutdown: AtomicBool::new(false),
        trace: hfast_trace::enabled().then(TraceRecorder::new),
        epoch: Instant::now(),
        span_counter: AtomicU64::new(1),
        window: SlidingWindow::new(ENDPOINTS.len(), WINDOW_BUCKETS, WINDOW_BUCKET_NS),
        config,
    });
    let mut workers: Vec<JoinHandle<()>> = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("hfast-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();
    for i in 0..shared.config.job_workers {
        let shared = Arc::clone(&shared);
        workers.push(
            thread::Builder::new()
                .name(format!("hfast-serve-job-{i}"))
                .spawn(move || shared.jobs.run_worker(&shared.registry))
                .expect("spawn job worker thread"),
        );
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("hfast-serve-acceptor".into())
            .spawn(move || acceptor_loop(shared, listener))
            .expect("spawn acceptor thread")
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}
