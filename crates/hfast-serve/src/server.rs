//! The daemon: connection threads that compute under a counting permit.
//!
//! ## Thread model
//!
//! A nonblocking acceptor, and one thread per connection reading frames
//! under a 50 ms tick so that drain can interrupt an idle read. The
//! thread that decodes a request answers it; there are no other threads.
//! Health, stats, metrics, shutdown and cache hits answer at once. A
//! compute request first takes one of [`ServerConfig::workers`] permits.
//! While none is free it waits, for at most [`ServerConfig::deadline`];
//! a request that finds [`ServerConfig::queue_cap`] others already
//! waiting is shed with [`Response::Busy`] instead of letting latency
//! grow without bound. Once it holds a permit the handler runs to
//! completion under `catch_unwind`, so a panicking request costs one
//! structured error, and its permit is released as it unwinds.
//!
//! ## Why cache hits skip the permit
//!
//! Cacheable responses are pure functions of the request, so a hit is
//! served without consuming compute capacity — and because *every*
//! response is either a cache hit or computed by a deterministic handler,
//! the bytes a client sees are independent of the permit count. The
//! integration suite pins that down (same seed, 1 vs 8 permits,
//! byte-identical digests).
//!
//! ## Drain
//!
//! `Shutdown` (the request or [`ServerHandle::shutdown`]) closes the
//! permits, which is the one drain flag. The acceptor stops accepting,
//! idle connections close at their next tick, mid-frame connections get
//! a bounded grace to finish, new compute requests answer `busy` while
//! those already waiting for a permit are still served, and
//! [`ServerHandle::join`] then flushes the observability export and the
//! Perfetto trace.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hfast_obs::{Outcome, ServeObs, Sink, SlidingWindow};
use hfast_trace::{server_span_id, TraceRecorder, Track};

use crate::cache::ResponseCache;
use crate::frame::{write_frame, FrameError, FramePoll, FrameReader};
use crate::handlers::execute;
use crate::protocol::{
    decode_request, encode_request, encode_response, request_key, Request, Response, VerbLatency,
    VerbWindow, ENDPOINTS,
};
use crate::registry::Registry;

/// Ring slots in the `metrics` sliding window.
const WINDOW_BUCKETS: usize = 10;

/// Width of one window slot: one second, so `metrics` reports rolling
/// stats over the last ten seconds in bounded memory.
const WINDOW_BUCKET_NS: u64 = 1_000_000_000;

/// Socket-read tick: how often a connection blocked in a read looks at
/// the drain flag.
const TICK: Duration = Duration::from_millis(50);

/// Ticks granted to a connection caught mid-frame at drain time (~1 s)
/// before the daemon stops waiting for the rest of the frame.
const DRAIN_GRACE_TICKS: u32 = 20;

/// Serving knobs; every field has an `HFAST_SERVE_*` environment override.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute permits: how many requests compute at once, each on its
    /// own connection thread (`HFAST_SERVE_WORKERS`).
    pub workers: usize,
    /// Requests that may wait for a compute permit; one more is shed
    /// with `busy` (`HFAST_SERVE_QUEUE`).
    pub queue_cap: usize,
    /// Response-cache byte budget (`HFAST_SERVE_CACHE_BYTES`).
    pub cache_bytes: usize,
    /// Response-cache shard count (`HFAST_SERVE_SHARDS`).
    pub cache_shards: usize,
    /// How long a request may wait for a compute permit
    /// (`HFAST_SERVE_DEADLINE_MS`).
    pub deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            cache_bytes: 4 << 20,
            cache_shards: 8,
            deadline: Duration::from_millis(10_000),
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
        }
    }
}

/// Counting permits for compute: at most `limit` requests hold one at
/// a time and at most `queue_cap` more wait for one. Closing the permits
/// is the daemon's drain flag.
struct Permits {
    limit: usize,
    queue_cap: usize,
    closed: AtomicBool,
    state: Mutex<PermitCounts>,
    freed: Condvar,
}

#[derive(Default)]
struct PermitCounts {
    held: usize,
    waiting: usize,
}

/// Why a compute request got no permit.
#[derive(Debug, PartialEq)]
enum Refusal {
    /// The daemon drains, or `queue_cap` requests already wait.
    Busy,
    /// Still waiting at its deadline.
    Expired,
}

/// A held permit; dropping it, unwinding included, frees it.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn new(limit: usize, queue_cap: usize) -> Permits {
        Permits {
            limit,
            queue_cap,
            closed: AtomicBool::new(false),
            state: Mutex::new(PermitCounts::default()),
            freed: Condvar::new(),
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }

    fn closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Requests waiting for a permit.
    fn waiting(&self) -> usize {
        self.state.lock().expect("permits poisoned").waiting
    }

    /// Takes a permit, waiting for one until `deadline`. `admitted` runs
    /// once the request is let in to hold or wait. Requests that already
    /// wait when the permits close are still let through.
    fn acquire(&self, deadline: Instant, admitted: impl FnOnce()) -> Result<Permit<'_>, Refusal> {
        let mut counts = self.state.lock().expect("permits poisoned");
        if self.closed() || (counts.held >= self.limit && counts.waiting >= self.queue_cap) {
            return Err(Refusal::Busy);
        }
        admitted();
        counts.waiting += 1;
        while counts.held >= self.limit {
            let now = Instant::now();
            if now >= deadline {
                counts.waiting -= 1;
                return Err(Refusal::Expired);
            }
            counts = self
                .freed
                .wait_timeout(counts, deadline - now)
                .expect("permits poisoned")
                .0;
        }
        counts.waiting -= 1;
        counts.held += 1;
        Ok(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Never panic here: this runs while a handler's panic unwinds.
        // Every update of the counts is one step, so a poisoned lock
        // still guards valid counts.
        self.0
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .held -= 1;
        self.0.freed.notify_one();
    }
}

/// State shared by the acceptor and the connection threads.
struct Shared {
    config: ServerConfig,
    registry: Registry,
    cache: ResponseCache,
    obs: ServeObs,
    permits: Permits,
    /// The span recorder and the `HFAST_TRACE` sink it drains to.
    trace: Option<(TraceRecorder, Sink)>,
    epoch: Instant,
    span_counter: AtomicU64,
    /// Rolling per-verb latency/outcome window behind the `metrics` verb.
    /// Recorded unconditionally (the collection path is one short
    /// uncontended mutex per served request, dwarfed by the TCP
    /// round-trip); only the *export* surfaces are gated.
    window: SlidingWindow,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_span(&self) -> u64 {
        server_span_id(self.span_counter.fetch_add(1, Ordering::Relaxed))
    }
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

/// Answers one decoded request with its canonical body (`bool` =
/// response cache hit).
fn route_request(shared: &Shared, req: Request) -> (String, bool) {
    shared.obs.record_request(req.verb_index());
    let resp = match req {
        Request::Health => Response::Health {
            workers: shared.config.workers,
            queue: shared.config.queue_cap,
        },
        Request::Stats => {
            let c = shared.cache.stats();
            let sim = shared.registry.sim_obs();
            let (graphs, fabrics) = shared.registry.entry_counts();
            Response::Stats {
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
                latency: verb_latency_rows(shared),
            }
        }
        Request::Metrics => {
            let c = shared.cache.stats();
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
            Response::Metrics {
                window_ns: snap.window_ns,
                queue_depth: shared.permits.waiting() as u64,
                cache_hits: c.hits,
                cache_misses: c.misses,
                verbs,
            }
        }
        Request::Shutdown => {
            shared.permits.close();
            Response::Ok
        }
        req => {
            let key = if req.cacheable() {
                let key = request_key(&encode_request(&req));
                if let Some(hit) = shared.cache.get(key) {
                    return (hit, true);
                }
                Some(key)
            } else {
                None
            };
            return (compute(shared, &req, key), false);
        }
    };
    (encode_response(&resp), false)
}

/// Computes `req` on the calling connection thread under a permit and
/// caches a successful answer under `key`.
fn compute(shared: &Shared, req: &Request, key: Option<u64>) -> String {
    let enqueued = Instant::now();
    let acquired = shared
        .permits
        .acquire(enqueued + shared.config.deadline, || {
            shared.obs.request_admitted()
        });
    if let Err(Refusal::Busy) = acquired {
        shared.obs.shed.inc();
        return encode_response(&Response::Busy);
    }
    let waited = enqueued.elapsed();
    shared.obs.queue_wait_ns.record(waited.as_nanos() as u64);
    let response = match acquired {
        Ok(permit) => {
            let started = Instant::now();
            // The permit moves into the unwind boundary, so a panicking
            // handler frees it as it unwinds.
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let _permit = permit;
                execute(req, &shared.registry)
            }));
            shared
                .obs
                .service_ns
                .record(started.elapsed().as_nanos() as u64);
            outcome.unwrap_or_else(|_| {
                shared.obs.panics.inc();
                Response::Error {
                    message: format!("handler for {} panicked; worker recovered", req.endpoint()),
                }
            })
        }
        Err(_) => {
            shared.obs.expired.inc();
            Response::Error {
                message: format!("deadline exceeded after {} ms in queue", waited.as_millis()),
            }
        }
    };
    let failed = matches!(response, Response::Error { .. });
    if failed {
        shared.obs.errors.inc();
    }
    let encoded = encode_response(&response);
    if let (Some(key), false) = (key, failed) {
        shared.cache.put(key, &encoded);
    }
    shared.obs.request_done();
    encoded
}

impl Shared {
    /// Serves one request payload end to end: metrics, the `metrics`
    /// window and, with a recorder, the request's span tree.
    fn answer(&self, conn_id: usize, payload: &str) -> String {
        let t_start = self.now_ns();
        let root_span = self.next_span();
        let mut verb_idx: Option<usize> = None;
        let (encoded, outcome, cache_hit, t_parsed) = match decode_request(payload) {
            Ok(req) => {
                verb_idx = Some(req.verb_index());
                let t_parsed = self.now_ns();
                let (body, hit) = route_request(self, req);
                // Classify the outcome from the canonical body prefix —
                // cheaper than re-decoding and exact because the body is
                // canonical (fixed field order, no whitespace).
                let outcome = if body.starts_with("{\"type\":\"busy\"") {
                    Outcome::Busy
                } else if body.starts_with("{\"type\":\"error\"") {
                    Outcome::Error
                } else {
                    Outcome::Ok
                };
                (body, outcome, hit, t_parsed)
            }
            Err(message) => {
                self.obs.errors.inc();
                (
                    encode_response(&Response::Error { message }),
                    Outcome::Error,
                    false,
                    self.now_ns(),
                )
            }
        };
        let t_done = self.now_ns();
        if let Some(idx) = verb_idx {
            let latency = t_done.saturating_sub(t_start);
            self.obs.record_service(idx, latency);
            self.window.record(t_done, idx, latency, outcome);
        }
        if let Some((trace, _)) = &self.trace {
            let track = Track::Server(conn_id);
            trace.record_span(
                track,
                "request",
                t_start,
                t_done.saturating_sub(t_start),
                root_span,
                0,
                vec![("cache_hit", cache_hit as u64)],
            );
            trace.record_span(
                track,
                "parse",
                t_start,
                t_parsed.saturating_sub(t_start),
                self.next_span(),
                root_span,
                vec![("bytes", payload.len() as u64)],
            );
            trace.record_span(
                track,
                "execute",
                t_parsed,
                t_done.saturating_sub(t_parsed),
                self.next_span(),
                root_span,
                vec![],
            );
        }
        encoded
    }
}

/// Starts the acceptor thread. It accepts on `listener`, which must be
/// nonblocking, until the daemon drains; serves each connection on its
/// own `hfast-serve-conn-N` thread; and joins them all before it exits.
fn spawn_acceptor(listener: TcpListener, shared: Arc<Shared>) -> JoinHandle<()> {
    thread::Builder::new()
        .name("hfast-serve-acceptor".into())
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            let mut next_id = 0usize;
            while !shared.permits.closed() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let id = next_id;
                        next_id += 1;
                        let shared = Arc::clone(&shared);
                        conns.push(
                            thread::Builder::new()
                                .name(format!("hfast-serve-conn-{id}"))
                                .spawn(move || connection_loop(&shared, stream, id))
                                .expect("spawn connection thread"),
                        );
                    }
                    Err(_) => {
                        thread::sleep(Duration::from_millis(5));
                        // Reap finished connection threads now and then,
                        // so a long-lived daemon does not accumulate
                        // handles.
                        if conns.len() > 64 {
                            conns.retain(|h| !h.is_finished());
                        }
                    }
                }
            }
            for conn in conns {
                let _ = conn.join();
            }
        })
        .expect("spawn acceptor thread")
}

/// Reads frames under the read tick and writes each one's answer. Drain
/// closes an idle connection at its next tick and grants one caught
/// mid-frame [`DRAIN_GRACE_TICKS`] to finish it.
fn connection_loop(shared: &Shared, mut stream: TcpStream, id: usize) {
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    // Replies are small; waiting for more bytes to coalesce only adds
    // round-trip latency.
    let _ = stream.set_nodelay(true);
    shared.obs.connections.inc();
    let mut reader = FrameReader::new();
    let mut grace = 0u32;
    loop {
        match reader.poll(&mut stream) {
            Ok(FramePoll::Frame(payload)) => {
                grace = 0;
                let reply = shared.answer(id, &payload);
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Ok(FramePoll::Pending) if shared.permits.closed() => {
                grace += 1;
                if !reader.mid_frame() || grace > DRAIN_GRACE_TICKS {
                    return;
                }
            }
            Ok(FramePoll::Pending) => {}
            Err(FrameError::Eof | FrameError::Truncated | FrameError::Io(_)) => return,
            Err(e @ (FrameError::Oversized(_) | FrameError::NotUtf8)) => {
                // Structured refusal, then close: the stream position is
                // undefined past a bad frame.
                shared.obs.errors.inc();
                let message = e.to_string();
                let _ = write_frame(&mut stream, &encode_response(&Response::Error { message }));
                return;
            }
        }
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful drain (idempotent; also triggered by the
    /// `shutdown` request).
    pub fn shutdown(&self) {
        self.shared.permits.close();
    }

    /// Blocks until drain completes — every connection closed, every
    /// admitted request answered — then flushes the `HFAST_OBS` summary
    /// and the `HFAST_TRACE` Perfetto document. Call [`shutdown`] first
    /// (or let a client send the `shutdown` request) or this blocks
    /// forever.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn join(self) {
        let _ = self.acceptor.join();
        self.shared.obs.export();
        if let Some((trace, sink)) = &self.shared.trace {
            sink.write(&hfast_trace::export(&trace.snapshot()), false);
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts the daemon.
///
/// # Errors
/// Propagates the bind failure.
pub fn start(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cache: ResponseCache::new(config.cache_shards, config.cache_bytes),
        registry: Registry::new(),
        obs: ServeObs::new(&ENDPOINTS),
        permits: Permits::new(config.workers, config.queue_cap),
        trace: hfast_trace::sink().map(|sink| (TraceRecorder::new(), sink)),
        epoch: Instant::now(),
        span_counter: AtomicU64::new(1),
        window: SlidingWindow::new(ENDPOINTS.len(), WINDOW_BUCKETS, WINDOW_BUCKET_NS),
        config,
    });
    let acceptor = spawn_acceptor(listener, Arc::clone(&shared));
    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The far-off deadline of a request that should never expire.
    fn later() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    /// Spins until `n` requests wait — a state, not a timing, so no race.
    fn await_waiting(permits: &Permits, n: usize) {
        while permits.waiting() != n {
            thread::yield_now();
        }
    }

    #[test]
    fn limit_holders_at_once() {
        let permits = Permits::new(3, 0);
        let held: Vec<Permit> = (0..3)
            .map(|_| permits.acquire(later(), || {}).expect("a free permit"))
            .collect();
        assert_eq!(
            permits.acquire(later(), || {}).err(),
            Some(Refusal::Busy),
            "a fourth holder with no room to wait"
        );
        drop(held);
        assert!(permits.acquire(later(), || {}).is_ok(), "freed on drop");
    }

    #[test]
    fn a_waiter_beyond_the_queue_bound_is_refused() {
        let permits = Permits::new(1, 1);
        let holder = permits.acquire(later(), || {}).expect("a free permit");
        thread::scope(|s| {
            let waiter = s.spawn(|| permits.acquire(later(), || {}).map(drop));
            await_waiting(&permits, 1);
            let mut admitted = false;
            assert_eq!(
                permits.acquire(later(), || admitted = true).err(),
                Some(Refusal::Busy)
            );
            assert!(!admitted, "a refused request is never admitted");
            drop(holder);
            assert_eq!(waiter.join().expect("waiter"), Ok(()));
        });
        assert_eq!(permits.waiting(), 0);
    }

    #[test]
    fn a_waiter_past_its_deadline_expires() {
        let permits = Permits::new(1, 4);
        let _holder = permits.acquire(later(), || {}).expect("a free permit");
        let mut admitted = false;
        assert_eq!(
            permits.acquire(Instant::now(), || admitted = true).err(),
            Some(Refusal::Expired)
        );
        assert!(admitted, "an expired request was admitted to wait");
        assert_eq!(permits.waiting(), 0, "the expired waiter left the count");
    }

    #[test]
    fn drain_refuses_new_requests_but_lets_waiters_through() {
        let permits = Permits::new(1, 4);
        let holder = permits.acquire(later(), || {}).expect("a free permit");
        thread::scope(|s| {
            let waiter = s.spawn(|| permits.acquire(later(), || {}).map(drop));
            await_waiting(&permits, 1);
            permits.close();
            assert!(permits.closed());
            assert_eq!(permits.acquire(later(), || {}).err(), Some(Refusal::Busy));
            drop(holder);
            assert_eq!(waiter.join().expect("waiter"), Ok(()));
        });
        assert_eq!(
            permits.acquire(later(), || {}).err(),
            Some(Refusal::Busy),
            "a free permit is still refused while draining"
        );
    }

    #[test]
    fn a_guard_dropped_while_unwinding_frees_its_permit() {
        let permits = Permits::new(1, 0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = permits.acquire(later(), || {}).expect("a free permit");
            panic!("handler panics while holding the permit");
        }));
        assert!(unwound.is_err());
        assert!(
            permits.acquire(later(), || {}).is_ok(),
            "the unwound guard freed its permit"
        );
    }
}
