//! Fleet routing: consistent-hash sharding, failover, hot-key caching,
//! and a router daemon that fronts N `hfast-serve` shards.
//!
//! ## The ring
//!
//! `HashRing` places `vnodes` points per shard on a `u64` ring; a
//! request key (FNV-1a of its canonical v1 encoding, the same key the
//! response cache uses) is owned by the first point clockwise. Points
//! are hashed from the *shard index* (`"shard-3/vnode-17"`), not the
//! address, so every participant fronting the same shard list agrees on
//! ownership without exchanging ring state — and re-addressing a shard
//! (rolling restart on a new port) does not move keys.
//!
//! ## One routing path
//!
//! [`crate::FleetClient`] is the only routing code. The router below
//! holds one per connection and forwards every verb through it, adding
//! only what a shared front door needs: it answers `health` itself, puts
//! a hot-key cache in front of cacheable verbs, overlays that cache and
//! the hot-key gauge on the merged `metrics`, sets its own drain flag on
//! `shutdown`, and records its span between client and shard.
//!
//! ## Failover
//!
//! Cacheable verbs are pure functions of their canonical encoding, so
//! when the owner shard is unreachable or shedding, the request is
//! retried on the next *distinct* shard in ring order — any shard
//! computes byte-identical responses. When at least one shard was
//! reachable and every reachable shard shed, the answer is `busy`; only
//! when no shard was reachable is it a transport error. Job verbs are
//! stateful (the job lives in one shard's journal), so they never fail
//! over: they retry the owning shard through its restart window instead.
//!
//! ## Job ids
//!
//! Shards allocate job ids locally; the fleet namespaces them as
//! `(shard_index << 40) | local_id` — still below 2^53, so the id
//! survives JSON number transport. `wrap_job_id` / [`unwrap_job_id`]
//! are the whole scheme.
//!
//! ## Hot keys
//!
//! The router counts key frequencies (`HotKeys`); once a key crosses
//! the threshold its responses are admitted to a router-level sharded
//! LRU ([`ResponseCache`]) and served without touching a shard. Only
//! canonical v1 bodies of successful responses are cached, so a hit is
//! byte-identical to a shard round-trip.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hfast_trace::{router_span_id, TraceContext, TraceRecorder, Track};

use crate::cache::ResponseCache;
use crate::client::{ClientError, FleetClient};
use crate::frame::{spawn_acceptor, Service};
use crate::protocol::{
    decode_request_traced, encode_request, encode_response, request_key, JobTotals, Request,
    Response, VerbLatency,
};

/// Bits reserved for the shard-local job id; the shard index lives above
/// them. `40 + log2(shards) < 53` keeps ids JSON-number-safe.
pub(crate) const JOB_SHARD_SHIFT: u32 = 40;

/// Virtual nodes per shard — enough to keep the keyspace split within a
/// few percent of even at small shard counts.
pub(crate) const DEFAULT_VNODES: usize = 32;

/// Namespaces a shard-local job id as a fleet-global one. Total: a
/// `local` past 2^40 keeps its low 40 bits — aliasing inside its own
/// shard's namespace, never into another's — and a `shard` past 2^13
/// still round-trips through [`unwrap_job_id`] but no longer through a
/// JSON number.
pub(crate) fn wrap_job_id(shard: usize, local: u64) -> u64 {
    ((shard as u64) << JOB_SHARD_SHIFT) | (local & ((1u64 << JOB_SHARD_SHIFT) - 1))
}

/// Splits a fleet-global job id into (shard index, shard-local id).
pub fn unwrap_job_id(global: u64) -> (usize, u64) {
    (
        (global >> JOB_SHARD_SHIFT) as usize,
        global & ((1u64 << JOB_SHARD_SHIFT) - 1),
    )
}

/// A consistent-hash ring over shard *indexes*.
#[derive(Debug, Clone)]
pub(crate) struct HashRing {
    /// Sorted (point, shard) pairs.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// A ring of `shards` shards with `vnodes` points each.
    ///
    /// # Panics
    /// When `shards` or `vnodes` is zero.
    pub(crate) fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one point per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                points.push((request_key(&format!("shard-{shard}/vnode-{v}")), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// The shard owning `key`: first ring point clockwise from it.
    pub(crate) fn shard_for(&self, key: u64) -> usize {
        let idx = self.points.partition_point(|&(p, _)| p < key);
        self.points[idx % self.points.len()].1
    }

    /// Every shard in preference order for `key`: the owner first, then
    /// each further shard in the order its first point appears clockwise.
    pub(crate) fn route(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut order = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let shard = self.points[(start + i) % self.points.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

/// Frequency-threshold hot-key detector with a bounded table.
pub(crate) struct HotKeys {
    threshold: u32,
    cap: usize,
    counts: Mutex<std::collections::HashMap<u64, u32>>,
}

impl HotKeys {
    /// Keys seen at least `threshold` times count as hot; the table
    /// tracks at most `cap` keys (then resets — a coarse decay that also
    /// bounds memory).
    pub(crate) fn new(threshold: u32, cap: usize) -> HotKeys {
        HotKeys {
            threshold: threshold.max(1),
            cap: cap.max(1),
            counts: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Records one sighting of `key`; true once the key is hot.
    pub(crate) fn touch(&self, key: u64) -> bool {
        let mut counts = self.counts.lock().expect("hot-key table poisoned");
        if counts.len() >= self.cap && !counts.contains_key(&key) {
            counts.clear();
        }
        let c = counts.entry(key).or_insert(0);
        *c = c.saturating_add(1);
        *c >= self.threshold
    }

    /// Keys currently at or past the hot threshold — the `metrics`
    /// gauge. Resets with the table's coarse decay.
    pub(crate) fn hot_count(&self) -> usize {
        let counts = self.counts.lock().expect("hot-key table poisoned");
        counts.values().filter(|&&c| c >= self.threshold).count()
    }
}

/// Merges per-shard latency rows by verb name: counts sum, quantiles
/// take the max — exact quantile merging needs the raw histograms, and
/// the max is the conservative fleet-level bound an SLO check wants.
fn merge_latency(into: &mut Vec<VerbLatency>, rows: &[VerbLatency]) {
    for row in rows {
        match into.iter_mut().find(|r| r.verb == row.verb) {
            Some(r) => {
                r.count += row.count;
                r.p50_ns = r.p50_ns.max(row.p50_ns);
                r.p95_ns = r.p95_ns.max(row.p95_ns);
                r.p99_ns = r.p99_ns.max(row.p99_ns);
            }
            None => into.push(row.clone()),
        }
    }
}

/// Sums per-shard stats into one fleet-wide [`Response::Stats`].
///
/// Returns `None` when `parts` holds no stats response.
pub(crate) fn aggregate_stats(parts: &[Response]) -> Option<Response> {
    let mut requests = 0u64;
    let mut shed = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut cache_evictions = 0u64;
    let mut cache_entries = 0u64;
    let mut cache_bytes = 0u64;
    let mut sim_events = 0u64;
    let mut sim_events_per_sec = 0u64;
    let mut strategy_hits = [0u64; 3];
    let mut scenario_hits = [0u64; 5];
    let mut graphs = 0u64;
    let mut fabrics = 0u64;
    let mut jobs = JobTotals::default();
    let mut latency: Vec<VerbLatency> = Vec::new();
    let mut any = false;
    for part in parts {
        let Response::Stats {
            requests: r,
            shed: s,
            cache_hits: ch,
            cache_misses: cm,
            cache_evictions: ce,
            cache_entries: cn,
            cache_bytes: cb,
            sim_events: se,
            sim_events_per_sec: sps,
            strategy_hits: sh,
            scenario_hits: sch,
            graphs: g,
            fabrics: f,
            jobs: j,
            latency: l,
        } = part
        else {
            continue;
        };
        any = true;
        merge_latency(&mut latency, l);
        requests += r;
        shed += s;
        cache_hits += ch;
        cache_misses += cm;
        cache_evictions += ce;
        cache_entries += cn;
        cache_bytes += cb;
        sim_events += se;
        sim_events_per_sec += sps;
        for (slot, hit) in strategy_hits.iter_mut().zip(sh.iter()) {
            *slot += hit;
        }
        for (slot, hit) in scenario_hits.iter_mut().zip(sch.iter()) {
            *slot += hit;
        }
        graphs += g;
        fabrics += f;
        jobs.submitted += j.submitted;
        jobs.completed += j.completed;
        jobs.failed += j.failed;
        jobs.cancelled += j.cancelled;
        jobs.retried += j.retried;
    }
    any.then_some(Response::Stats {
        requests,
        shed,
        cache_hits,
        cache_misses,
        cache_evictions,
        cache_entries,
        cache_bytes,
        sim_events,
        sim_events_per_sec,
        strategy_hits,
        scenario_hits,
        graphs,
        fabrics,
        jobs,
        latency,
    })
}

/// Merges per-shard [`Response::Metrics`] snapshots into one fleet-wide
/// view: counts, gauges, and shard totals sum; `window_ns` and every
/// quantile take the per-shard max (a conservative fleet bound — see
/// [`merge_latency`] for why exact merging is off the table).
///
/// Returns `None` when `parts` holds no metrics response.
pub(crate) fn aggregate_metrics(parts: &[Response]) -> Option<Response> {
    let mut window_ns = 0u64;
    let mut shards = 0u64;
    let mut queue_depth = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut jobs_pending = 0u64;
    let mut jobs_retried = 0u64;
    let mut hot_keys = 0u64;
    let mut verbs: Vec<crate::protocol::VerbWindow> = Vec::new();
    let mut any = false;
    for part in parts {
        let Response::Metrics {
            window_ns: w,
            shards: n,
            queue_depth: q,
            cache_hits: ch,
            cache_misses: cm,
            jobs_pending: jp,
            jobs_retried: jr,
            hot_keys: hk,
            verbs: v,
        } = part
        else {
            continue;
        };
        any = true;
        window_ns = window_ns.max(*w);
        shards += n;
        queue_depth += q;
        cache_hits += ch;
        cache_misses += cm;
        jobs_pending += jp;
        jobs_retried += jr;
        hot_keys += hk;
        for row in v {
            match verbs.iter_mut().find(|r| r.verb == row.verb) {
                Some(r) => {
                    r.count += row.count;
                    r.ok += row.ok;
                    r.busy += row.busy;
                    r.errors += row.errors;
                    r.p50_ns = r.p50_ns.max(row.p50_ns);
                    r.p95_ns = r.p95_ns.max(row.p95_ns);
                    r.p99_ns = r.p99_ns.max(row.p99_ns);
                }
                None => verbs.push(row.clone()),
            }
        }
    }
    any.then_some(Response::Metrics {
        window_ns,
        shards,
        queue_depth,
        cache_hits,
        cache_misses,
        jobs_pending,
        jobs_retried,
        hot_keys,
        verbs,
    })
}

/// Sightings before a key counts as hot (and gets router-cached).
const HOT_THRESHOLD: u32 = 4;
/// Hot-key table capacity.
const HOT_CAP: usize = 64 << 10;
/// Router response-cache byte budget.
const CACHE_BYTES: usize = 4 << 20;
/// Router response-cache shard count.
const CACHE_SHARDS: usize = 8;

struct RouterShared {
    shard_addrs: Vec<String>,
    hot: HotKeys,
    cache: ResponseCache,
    shutdown: AtomicBool,
    trace: Option<Arc<TraceRecorder>>,
    epoch: Instant,
    span_counter: AtomicU64,
}

impl RouterShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_router_span(&self) -> u64 {
        router_span_id(self.span_counter.fetch_add(1, Ordering::Relaxed))
    }
}

/// The canonical v1 text answering a forwarded call.
fn reply(out: Result<(Response, String), ClientError>) -> String {
    match out {
        Ok((_, raw)) => raw,
        Err(e) => encode_response(&Response::Error {
            message: format!("fleet: {e}"),
        }),
    }
}

/// Answers one decoded request, forwarding through `fleet` with `ctx`
/// riding every shard hop.
fn route(
    shared: &RouterShared,
    fleet: &mut FleetClient,
    req: &Request,
    ctx: Option<TraceContext>,
) -> String {
    match req {
        // The router answers health itself: it is the liveness surface of
        // the fleet (shards report theirs through stats).
        Request::Health => encode_response(&Response::Health {
            workers: shared.shard_addrs.len(),
            queue: 0,
        }),
        // Fleet metrics = shard merge plus the router's own overlay: its
        // hot-key cache hits never reached a shard, and the hot-key gauge
        // only exists here.
        Request::Metrics => reply(fleet.forward(req, ctx).map(|(mut resp, _)| {
            if let Response::Metrics {
                cache_hits,
                cache_misses,
                hot_keys,
                ..
            } = &mut resp
            {
                let c = shared.cache.stats();
                *cache_hits += c.hits;
                *cache_misses += c.misses;
                *hot_keys = shared.hot.hot_count() as u64;
            }
            let raw = encode_response(&resp);
            (resp, raw)
        })),
        Request::Shutdown => {
            let out = fleet.forward(req, ctx);
            shared.shutdown.store(true, Ordering::Relaxed);
            reply(out)
        }
        _ => {
            let hot = req
                .cacheable()
                .then(|| request_key(&encode_request(req)))
                .filter(|&key| shared.hot.touch(key));
            if let Some(hit) = hot.and_then(|key| shared.cache.get(key)) {
                return hit;
            }
            let out = fleet.forward(req, ctx);
            if let (Some(key), Ok((resp, raw))) = (hot, &out) {
                if !matches!(resp, Response::Error { .. } | Response::Busy) {
                    shared.cache.put(key, raw);
                }
            }
            reply(out)
        }
    }
}

impl Service for RouterShared {
    /// Each connection forwards through its own fleet client.
    type Conn = FleetClient;

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn open(&self) -> FleetClient {
        FleetClient::connect(&self.shard_addrs)
    }

    fn answer(&self, fleet: &mut FleetClient, conn_id: usize, payload: &str) -> String {
        let (req, version, ctx) = match decode_request_traced(payload) {
            Ok(decoded) => decoded,
            Err(message) => return encode_response(&Response::Error { message }),
        };
        let t0 = self.now_ns();
        // With a recorder, the router interposes its own span: record a
        // child of the inbound context and forward a deepened context so
        // shard spans parent under the router, not the client. Without
        // one, the context passes through intact and shards parent
        // directly under the client.
        let (fwd, span) = match (&self.trace, ctx) {
            (Some(_), Some(c)) => {
                let span = self.next_router_span();
                (Some(c.deepen(span)), Some((c, span)))
            }
            _ => (ctx, None),
        };
        let body = route(self, fleet, &req, fwd);
        if let (Some(trace), Some((c, span))) = (&self.trace, span) {
            trace.record_span(
                Track::Router(conn_id),
                req.endpoint(),
                t0,
                self.now_ns().saturating_sub(t0).max(1),
                span,
                c.parent_id,
                vec![("trace", c.trace_id)],
            );
        }
        version.wrap(body)
    }
}

/// A running fleet router.
pub struct FleetHandle {
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl FleetHandle {
    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the acceptor and every connection thread exit, which
    /// they do once a client's `shutdown` has fanned out to the shards.
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Binds `addr` and starts a router fronting `shard_addrs` (index order
/// must match every other participant's).
///
/// `trace` receives the router's child spans. The embedding process owns
/// the recorder and its export — the router never probes the
/// environment — so [`FleetHandle::join`] writes nothing.
///
/// # Errors
/// Propagates the bind failure; an empty `shard_addrs` is `InvalidInput`.
pub fn start_fleet(
    addr: &str,
    shard_addrs: &[String],
    trace: Option<Arc<TraceRecorder>>,
) -> io::Result<FleetHandle> {
    if shard_addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a fleet needs at least one shard",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(RouterShared {
        shard_addrs: shard_addrs.to_vec(),
        hot: HotKeys::new(HOT_THRESHOLD, HOT_CAP),
        cache: ResponseCache::new(CACHE_SHARDS, CACHE_BYTES),
        shutdown: AtomicBool::new(false),
        trace,
        epoch: Instant::now(),
        span_counter: AtomicU64::new(1),
    });
    let acceptor = spawn_acceptor("hfast-fleet", listener, shared);
    Ok(FleetHandle { addr, acceptor })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip_the_namespace() {
        for shard in [0usize, 1, 3, 7, 4095] {
            for local in [0u64, 1, 42, (1 << JOB_SHARD_SHIFT) - 1] {
                let global = wrap_job_id(shard, local);
                assert_eq!(unwrap_job_id(global), (shard, local));
                assert!(global < (1 << 53), "JSON-number-safe");
            }
        }
    }

    /// Past the edges of the namespace (ROADMAP 3(b)): the packing never
    /// panics, an oversized local id cannot forge another shard's index,
    /// an oversized shard index is at least self-consistent, and whatever
    /// id a client sends, a fleet refuses the ones that name a shard it
    /// does not have before touching the network.
    #[test]
    fn job_id_packing_overflow_is_contained() {
        let local_mask = (1u64 << JOB_SHARD_SHIFT) - 1;
        for shard in [0usize, 1, 8191] {
            for local in [1 << JOB_SHARD_SHIFT, (1 << JOB_SHARD_SHIFT) | 5, u64::MAX] {
                let global = wrap_job_id(shard, local);
                assert_eq!(unwrap_job_id(global), (shard, local & local_mask));
            }
        }
        for shard in [1usize << 13, (1 << 13) + 1, (1 << 24) - 1] {
            let global = wrap_job_id(shard, 7);
            assert_eq!(unwrap_job_id(global), (shard, 7));
            assert!(
                global >= 1 << 53,
                "past 2^13 shards ids stop being JSON-safe"
            );
        }
        assert_eq!(unwrap_job_id(u64::MAX), ((1 << 24) - 1, local_mask));
        // Nothing listens on port 1, and nothing needs to.
        let mut fleet = crate::client::FleetClient::connect(&["127.0.0.1:1".to_string()]);
        for id in [wrap_job_id(1, 7), wrap_job_id(1 << 13, 7), u64::MAX] {
            for req in [
                Request::Poll { id },
                Request::Fetch { id },
                Request::Cancel { id },
            ] {
                match fleet.call(&req) {
                    Err(ClientError::Protocol(e)) => assert!(e.contains("fleet has 1"), "{e}"),
                    other => panic!("job {id}: expected a refusal, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(4, 32);
        let b = HashRing::new(4, 32);
        let mut owners = [0usize; 4];
        for key in 0..10_000u64 {
            let shard = a.shard_for(key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(shard, b.shard_for(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            owners[shard] += 1;
        }
        for (shard, count) in owners.iter().enumerate() {
            assert!(
                *count > 500,
                "shard {shard} owns {count}/10000 keys — ring badly skewed: {owners:?}"
            );
        }
    }

    #[test]
    fn route_starts_at_owner_and_visits_every_shard_once() {
        let ring = HashRing::new(4, 32);
        for key in [0u64, 17, 1 << 40, u64::MAX] {
            let order = ring.route(key);
            assert_eq!(order[0], ring.shard_for(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3],
                "route {order:?} not a permutation"
            );
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = HashRing::new(1, 8);
        for key in [0u64, 1, u64::MAX] {
            assert_eq!(ring.shard_for(key), 0);
            assert_eq!(ring.route(key), vec![0]);
        }
    }

    #[test]
    fn hot_keys_trip_at_threshold() {
        let hot = HotKeys::new(3, 16);
        assert!(!hot.touch(1));
        assert!(!hot.touch(1));
        assert!(hot.touch(1));
        assert!(hot.touch(1), "stays hot");
        assert!(!hot.touch(2), "independent keys");
    }

    #[test]
    fn aggregate_stats_sums_fields() {
        let part = |requests: u64| Response::Stats {
            requests,
            shed: 1,
            cache_hits: 2,
            cache_misses: 3,
            cache_evictions: 0,
            cache_entries: 4,
            cache_bytes: 100,
            sim_events: 5,
            sim_events_per_sec: 6,
            strategy_hits: [1, 0, 2],
            scenario_hits: [1, 0, 0, 2, 3],
            graphs: 1,
            fabrics: 1,
            jobs: JobTotals {
                submitted: 2,
                completed: 1,
                failed: 0,
                cancelled: 1,
                retried: 0,
            },
            latency: vec![VerbLatency {
                verb: "health".into(),
                count: 5,
                p50_ns: requests, // distinguish shards through the merge
                p95_ns: 200,
                p99_ns: 300,
            }],
        };
        let agg = aggregate_stats(&[part(10), part(20), Response::Busy]).unwrap();
        let Response::Stats {
            requests,
            strategy_hits,
            scenario_hits,
            jobs,
            latency,
            ..
        } = agg
        else {
            panic!("expected stats");
        };
        assert_eq!(requests, 30);
        assert_eq!(strategy_hits, [2, 0, 4]);
        assert_eq!(scenario_hits, [2, 0, 0, 4, 6]);
        assert_eq!(jobs.submitted, 4);
        assert_eq!(latency.len(), 1, "same verb merges into one row");
        assert_eq!(latency[0].count, 10, "counts sum");
        assert_eq!(latency[0].p50_ns, 20, "quantiles take the max");
        assert!(aggregate_stats(&[Response::Ok]).is_none());
    }

    #[test]
    fn aggregate_metrics_sums_counts_and_maxes_quantiles() {
        use crate::protocol::VerbWindow;
        let part = |p99: u64| Response::Metrics {
            window_ns: 10_000_000_000,
            shards: 1,
            queue_depth: 2,
            cache_hits: 3,
            cache_misses: 4,
            jobs_pending: 1,
            jobs_retried: 0,
            hot_keys: 0,
            verbs: vec![VerbWindow {
                verb: "tdc".into(),
                count: 7,
                ok: 6,
                busy: 1,
                errors: 0,
                p50_ns: 10,
                p95_ns: 20,
                p99_ns: p99,
            }],
        };
        let agg = aggregate_metrics(&[part(100), part(50), Response::Ok]).unwrap();
        let Response::Metrics {
            shards,
            queue_depth,
            verbs,
            ..
        } = agg
        else {
            panic!("expected metrics");
        };
        assert_eq!(shards, 2);
        assert_eq!(queue_depth, 4);
        assert_eq!(verbs.len(), 1);
        assert_eq!(verbs[0].count, 14);
        assert_eq!(verbs[0].busy, 2);
        assert_eq!(verbs[0].p99_ns, 100, "fleet p99 is the shard max");
        assert!(aggregate_metrics(&[Response::Busy]).is_none());
    }

    #[test]
    fn hot_count_tracks_keys_past_threshold() {
        let hot = HotKeys::new(2, 16);
        assert_eq!(hot.hot_count(), 0);
        hot.touch(1);
        assert_eq!(hot.hot_count(), 0, "one sighting is not hot");
        hot.touch(1);
        hot.touch(2);
        hot.touch(2);
        assert_eq!(hot.hot_count(), 2);
    }
}
