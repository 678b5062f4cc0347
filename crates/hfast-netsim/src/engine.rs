//! The discrete-event core: one event loop for every kind of run.
//!
//! A [`Simulation`] always executes the same `Driver`, which owns what
//! runs have in common — the merged pop over flow events, seed
//! admissions and control events (faults, HFAST sync points, repatches),
//! route resolution through the [`PathCache`], retry and abandon under a
//! [`RetryPolicy`], per-flow records, and the stats/obs/trace epilogue —
//! and meets the fabric's links through one narrow seam, the
//! `LinkModel`: `IdealFifo` (virtual cut-through over ideal FIFO
//! links, here) or `CreditBuffers` (finite credit buffers,
//! [`crate::congestion`]). Nothing selects a "fault loop" or a "lean
//! loop": with an empty [`FaultPlan`] the control schedule is empty, no
//! link ever carries its down bit, and the per-event work is a merged
//! pop, one arena load, one link claim, and one push.
//!
//! Instrumentation (`Probe`), the serialization lookup (`Ser`) and
//! the arena cell width are type parameters, so the uninstrumented
//! uniform-payload loop pays for none of them. Ideal, fault-free runs can
//! additionally execute conservative lookahead windows in parallel
//! (`HFAST_THREADS` / [`Simulation::with_threads`]) while preserving the
//! deterministic `(time, class, push order)` total order, so any thread
//! count produces byte-identical [`SimOutput`]s — the invariant every
//! release asserts.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use hfast_core::ReconfigStep;
use hfast_trace::{engine_span_id, FlowEnd, FlowRow, HopRow, TraceRecorder, Track};

use crate::congestion::{CongestionMode, CreditBuffers, CreditConfig};
use crate::fabric::{Fabric, LinkId, LinkSpec};
use crate::faultplan::{FaultAction, FaultEvent, FaultPlan, FaultState, FaultTarget, RetryPolicy};
use crate::obs::{EngineObs, HistBuf};
use crate::queue::{CalendarQueue, Ev, TieClass};
use crate::stats::RunStats;
use crate::traffic::Flow;

/// Batch size below which a drained lookahead window is executed inline:
/// fanning a handful of events out to workers costs more than the events.
const PAR_BATCH_MIN: usize = 64;

/// Per-slot state: fresh entries have no bits set; [`STALE_BIT`] marks an
/// entry whose route must be re-derived; [`NOROUTE_BIT`] caches the "this
/// pair is unreachable in the healthy fabric" verdict.
const STALE_BIT: u8 = 1;
const NOROUTE_BIT: u8 = 2;

/// `(src, dst)` packed into the cache's hash key.
#[inline]
fn pair_key(src: usize, dst: usize) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// A multiply-mix hasher for the packed pair keys: one SplitMix64
/// finalizer instead of SipHash's rounds. Pair interning runs once per
/// flow per run, so this is on the run-setup critical path.
#[derive(Debug, Clone, Default)]
struct PairHashBuilder;

impl BuildHasher for PairHashBuilder {
    type Hasher = PairHasher;
    fn build_hasher(&self) -> PairHasher {
        PairHasher(0)
    }
}

#[derive(Debug)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the pair map).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Memoized per-(src, dst) routes for a static fabric.
///
/// Fabrics never change during a run and application traffic repeats the
/// same pairs (halo exchanges, transposes), so the engine resolves each
/// distinct pair once. A cache can be reused across runs on the **same**
/// fabric — replaying several traffic patterns on one fabric pays the
/// routing cost once.
///
/// Internally the cache is an interned slot table: each pair owns a `u32`
/// slot whose route lives in one flat link arena (`offs`/`lens` spans
/// into `links`) and whose freshness is a per-slot state byte.
/// [`invalidate_pairs`] evicts routes in place — one indexed store per
/// evicted slot — and the slot stays allocated, so the next resolution of
/// that pair recomputes it. A run only ever *adds* primary routes to a
/// cache: detours taken around mid-run faults live in the run's own arena,
/// and the run evicts what a fault cuts from its own slot table, so a
/// cache handed to a fault run stays exact for a fault-free run
/// afterwards.
///
/// [`invalidate_pairs`]: PathCache::invalidate_pairs
#[derive(Debug, Default, Clone)]
pub struct PathCache {
    slot_of_pair: HashMap<u64, u32, PairHashBuilder>,
    /// Slot → its (src, dst) pair.
    pairs: Vec<(u32, u32)>,
    /// Slot → start of its route span in `links`.
    offs: Vec<u32>,
    /// Slot → length of its route span.
    lens: Vec<u32>,
    /// Flat route arena: every slot's links, concatenated. Rewrites (fault
    /// detours) append a fresh span and abandon the old one.
    links: Vec<LinkId>,
    /// Slot → [`STALE_BIT`] | [`NOROUTE_BIT`] state byte.
    state: Vec<u8>,
}

impl PathCache {
    /// An empty cache.
    pub fn new() -> Self {
        PathCache::default()
    }

    /// Number of distinct (src, dst) pairs resolved so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pair has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Forgets all cached routes (required before switching fabrics).
    pub fn clear(&mut self) {
        self.slot_of_pair.clear();
        self.pairs.clear();
        self.offs.clear();
        self.lens.clear();
        self.links.clear();
        self.state.clear();
    }

    /// The current route for a pair: `None` if the pair was never resolved
    /// or its entry is stale, `Some(None)` if the fabric has no route,
    /// `Some(Some(path))` otherwise.
    pub fn cached(&self, src: usize, dst: usize) -> Option<Option<&[LinkId]>> {
        let &slot = self.slot_of_pair.get(&pair_key(src, dst))?;
        if self.state[slot as usize] & STALE_BIT != 0 {
            return None;
        }
        Some(self.path(slot as usize))
    }

    /// Marks the cached routes for exactly the given (src, dst) pairs stale
    /// (both orientations), returning how many routes were evicted. This is
    /// the targeted eviction path for incremental re-provisioning: an
    /// [`ReprovisionOutcome`](hfast_core::ReprovisionOutcome) names the pairs
    /// whose circuits moved, and only those slots pay a recompute — O(pairs
    /// touched) hash probes instead of an O(cached pairs) sweep.
    pub fn invalidate_pairs(&mut self, pairs: &[(usize, usize)]) -> usize {
        let mut evicted = 0;
        for &(a, b) in pairs {
            for key in [pair_key(a, b), pair_key(b, a)] {
                if let Some(&slot) = self.slot_of_pair.get(&key) {
                    let slot = slot as usize;
                    if self.state[slot] & STALE_BIT == 0 {
                        self.state[slot] |= STALE_BIT;
                        evicted += 1;
                    }
                }
            }
        }
        evicted
    }

    /// The cached route in slot `slot` (ignoring staleness): `None` for a
    /// cached unreachable verdict.
    #[inline]
    fn path(&self, slot: usize) -> Option<&[LinkId]> {
        if self.state[slot] & NOROUTE_BIT != 0 {
            return None;
        }
        let off = self.offs[slot] as usize;
        Some(&self.links[off..off + self.lens[slot] as usize])
    }

    /// Appends a new slot for `pair` holding `route`.
    fn push_slot(&mut self, src: u32, dst: u32, route: Option<&[LinkId]>) {
        self.pairs.push((src, dst));
        self.offs.push(self.links.len() as u32);
        match route {
            Some(p) => {
                self.links.extend_from_slice(p);
                self.lens.push(p.len() as u32);
                self.state.push(0);
            }
            None => {
                self.lens.push(0);
                self.state.push(NOROUTE_BIT);
            }
        }
    }

    /// Overwrites slot `slot`'s route and marks it fresh. New routes
    /// append a fresh arena span (the old span is abandoned — only fault
    /// runs rewrite, so the garbage is bounded by detour churn).
    fn set_route(&mut self, slot: usize, route: Option<&[LinkId]>) {
        match route {
            Some(p) => {
                self.offs[slot] = self.links.len() as u32;
                self.links.extend_from_slice(p);
                self.lens[slot] = p.len() as u32;
                self.state[slot] = 0;
            }
            None => {
                self.lens[slot] = 0;
                self.state[slot] = NOROUTE_BIT;
            }
        }
    }

    /// Number of allocated slots (fresh or stale). Unlike [`len`], this is
    /// the bound a [`RouteView`] partitions on.
    ///
    /// [`len`]: PathCache::len
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.pairs.len()
    }

    /// The slot of a pair with a *fresh* entry, if any.
    #[inline]
    pub(crate) fn fresh_slot(&self, src: usize, dst: usize) -> Option<usize> {
        let &slot = self.slot_of_pair.get(&pair_key(src, dst))?;
        (self.state[slot as usize] & STALE_BIT == 0).then_some(slot as usize)
    }

    /// Stores a resolved route for a pair, allocating or refreshing its
    /// slot (used by warm-cache builders outside a run).
    pub(crate) fn insert_resolved(&mut self, src: usize, dst: usize, path: Option<Vec<LinkId>>) {
        match self.slot_of_pair.get(&pair_key(src, dst)) {
            Some(&slot) => self.set_route(slot as usize, path.as_deref()),
            None => {
                self.slot_of_pair
                    .insert(pair_key(src, dst), self.pairs.len() as u32);
                self.push_slot(src as u32, dst as u32, path.as_deref());
            }
        }
    }
}

/// Resolved routes for one run: an optional immutable base cache plus the
/// cache this run may extend.
///
/// Slots below `base_len` index into `base`; slots at or above it index
/// into `own`. With a caller-owned cache there is no base and every pair
/// lands in the caller's cache; the snapshot path leaves the shared base
/// untouched and resolves strictly-new pairs into a run-private `own`,
/// which is what lets many concurrent runs read one warm cache without
/// cloning or locking it. Nothing is written after indexing: fault-era
/// detours live in the run's own route arena, never in either cache.
struct RouteView<'a> {
    base: Option<&'a PathCache>,
    base_len: usize,
    own: &'a PathCache,
    slots: Vec<usize>,
}

impl<'a> RouteView<'a> {
    /// Resolves every flow's pair — a hit when `base` or `own` holds a
    /// fresh entry, otherwise computed from the fabric's primary routing
    /// into `own` (stale entries count as misses) — and records each
    /// flow's slot.
    fn index(
        base: Option<&'a PathCache>,
        own: &'a mut PathCache,
        fabric: &dyn Fabric,
        flows: &[Flow],
        obs: Option<&EngineObs>,
    ) -> Self {
        let base_len = base.map_or(0, PathCache::slot_count);
        let first_new = own.pairs.len();
        let mut slots = Vec::with_capacity(flows.len());
        let mut missing: Vec<(u32, u32)> = Vec::new();
        let mut refresh: Vec<u32> = Vec::new();
        let mut hits = 0u64;
        for f in flows {
            assert!(
                f.src < fabric.nodes() && f.dst < fabric.nodes(),
                "flow endpoints in range"
            );
            if let Some(slot) = base.and_then(|b| b.fresh_slot(f.src, f.dst)) {
                hits += 1;
                slots.push(slot);
                continue;
            }
            let next = (first_new + missing.len()) as u32;
            let mut fresh = false;
            let slot = *own
                .slot_of_pair
                .entry(pair_key(f.src, f.dst))
                .or_insert_with(|| {
                    missing.push((f.src as u32, f.dst as u32));
                    fresh = true;
                    next
                });
            if !fresh {
                let s = slot as usize;
                // A slot allocated earlier in this same call has no state
                // byte yet — it is being computed fresh below.
                if s < own.state.len() && own.state[s] & STALE_BIT != 0 {
                    // Claim the refresh so a repeated pair is queued once.
                    own.state[s] &= !STALE_BIT;
                    refresh.push(slot);
                } else {
                    hits += 1;
                }
            }
            slots.push(base_len + slot as usize);
        }
        if let Some(obs) = obs {
            obs.cache_hits.add(hits);
            obs.cache_misses.add((missing.len() + refresh.len()) as u64);
        }
        for (s, d) in missing {
            let path = fabric.path(s as usize, d as usize);
            own.push_slot(s, d, path.as_deref());
        }
        for slot in refresh {
            let (s, d) = own.pairs[slot as usize];
            let path = fabric.path(s as usize, d as usize);
            own.set_route(slot as usize, path.as_deref());
        }
        RouteView {
            base,
            base_len,
            own,
            slots,
        }
    }

    /// The cache and local slot behind a view slot.
    #[inline]
    fn locate(&self, slot: usize) -> (&PathCache, usize) {
        match self.base {
            Some(base) if slot < self.base_len => (base, slot),
            _ => (self.own, slot - self.base_len),
        }
    }

    /// The `(src, dst)` pair a view slot routes.
    #[inline]
    fn pair(&self, slot: usize) -> (usize, usize) {
        let (cache, local) = self.locate(slot);
        let (src, dst) = cache.pairs[local];
        (src as usize, dst as usize)
    }

    /// Number of view slots (the bound the run's slot tables are sized to).
    fn slot_count(&self) -> usize {
        self.base_len + self.own.slot_count()
    }
}

/// Per-flow simulation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Index into the input flow list.
    pub flow: usize,
    /// Injection time.
    pub start_ns: u64,
    /// Delivery time (`None` if the fabric had no route, the flow was
    /// abandoned, or — credit mode only — it wedged behind full buffers).
    pub end_ns: Option<u64>,
    /// Links traversed (of the delivering route; 0 if undelivered).
    pub hops: usize,
    /// Re-admissions this flow needed (0 in fault-free runs).
    pub retries: u32,
    /// True if the retry policy gave up on this flow.
    pub abandoned: bool,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Per-flow records; present only for [`Simulation::detailed`] runs.
    pub records: Option<Vec<FlowRecord>>,
    /// Mid-run circuit re-provisioning rounds, in sync-point order (empty
    /// unless faults hit a reprovision-capable fabric).
    pub reprovisions: Vec<ReconfigStep>,
    /// Event-loop execution metrics for this run. The **only**
    /// wall-clock-derived data in a `SimOutput`: everything else is
    /// deterministic simulated output, so equality checks and digests
    /// must ignore this field.
    pub perf: LoopPerf,
}

/// Simulated-output equality: compares `stats`, `records`, and
/// `reprovisions`; `perf` is wall-clock and deliberately excluded, so
/// two deterministic replays compare equal.
impl PartialEq for SimOutput {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
            && self.records == other.records
            && self.reprovisions == other.reprovisions
    }
}

/// How much work the event loop did and how fast it did it: the
/// benchmark currency of the engine (`netsim.ns_per_event` in the repo
/// benchmark is computed from these numbers).
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopPerf {
    /// Events the loop processed: under ideal links one per header
    /// arrival (a flow's admission is its first arrival); under credit
    /// links one per admission and one per service completion; plus one
    /// per fault, sync, and repatch event.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside the event loop proper —
    /// excludes route resolution, table setup, and statistics
    /// aggregation.
    pub loop_ns: u64,
}

impl LoopPerf {
    /// Events per wall-clock second, `0.0` for an instant loop.
    pub fn events_per_sec(&self) -> f64 {
        if self.loop_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.loop_ns as f64
        }
    }
}

impl SimOutput {
    /// The per-flow records of a detailed run.
    ///
    /// # Panics
    /// If the run was not configured with [`Simulation::detailed`].
    pub fn records(&self) -> &[FlowRecord] {
        self.records
            .as_deref()
            .expect("records require Simulation::detailed()")
    }

    /// FNV-1a over every stats field, every per-flow record (detailed
    /// runs), and the re-provisioning rounds: two runs with equal digests
    /// produced byte-identical simulated results. `perf` is excluded. The
    /// golden tests pin this value, so the mixing order is frozen.
    pub fn digest(&self) -> u64 {
        let s = &self.stats;
        let stats = [
            s.completed as u64,
            s.unrouted as u64,
            s.abandoned as u64,
            s.total_retries,
            s.delivered_bytes,
            s.makespan_ns,
            s.p50_latency_ns,
            s.p95_latency_ns,
            s.max_latency_ns,
            s.avg_hops.to_bits(),
            s.max_link_utilization.to_bits(),
            s.throughput.to_bits(),
        ];
        let records = self.records.iter().flatten().flat_map(|r| {
            let end = r.end_ns.unwrap_or(u64::MAX);
            let (retries, abandoned) = (u64::from(r.retries), u64::from(r.abandoned));
            [
                r.flow as u64,
                r.start_ns,
                end,
                r.hops as u64,
                retries,
                abandoned,
            ]
        });
        let rounds = std::iter::once(self.reprovisions.len() as u64).chain(
            self.reprovisions
                .iter()
                .map(|step| format!("{step:?}").len() as u64),
        );
        (stats.into_iter().chain(records).chain(rounds)).fold(0xcbf29ce484222325, |h, v| {
            (h ^ v).wrapping_mul(0x100000001b3)
        })
    }
}

/// Worker count for the lookahead-window executor: an explicitly set
/// `HFAST_THREADS` wins; unset (or 1) keeps the plain sequential loop.
/// Unlike [`hfast_par::thread_count`] this does **not** fall back to the
/// machine's available parallelism — windowed execution is an opt-in, so
/// default runs stay on the fastest single-thread path.
fn engine_threads() -> usize {
    std::env::var("HFAST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Builder for one simulation run — the single entry point for every
/// link model, with or without faults.
///
/// Default model: virtual cut-through. The message *header* advances hop
/// by hop, paying each link's fixed latency and waiting where a link is
/// busy; each link stays occupied for the message's serialization time
/// from the moment the header enters it; the tail arrives one
/// serialization time after the header clears the last link. Uncontended
/// end-to-end latency is therefore `Σ latency + bytes/bandwidth` —
/// pipelined, like real cut-through networks — while shared links still
/// contend FIFO. Simulated time saturates at `u64::MAX` instead of
/// wrapping.
///
/// ```
/// use hfast_netsim::{engine::PathCache, Simulation, TorusFabric, traffic};
///
/// let torus = TorusFabric::new((4, 4, 1)).unwrap();
/// let flows = traffic::alltoall(16, 4 << 10);
/// let mut cache = PathCache::new();
/// let out = Simulation::new(&torus)
///     .with_cache(&mut cache)
///     .detailed()
///     .run(&flows);
/// assert_eq!(out.stats.completed, flows.len());
/// assert_eq!(out.records().len(), flows.len());
/// ```
///
/// Injecting faults:
///
/// ```
/// use hfast_netsim::{FaultPlan, RetryPolicy, Simulation, TorusFabric, traffic};
///
/// let torus = TorusFabric::new((4, 4, 1)).unwrap();
/// let flows = traffic::alltoall(16, 4 << 10);
/// let plan = FaultPlan::builder()
///     .fail_link(0, 0)
///     .recover_link(60_000, 0)
///     .build(&torus)
///     .unwrap();
/// let out = Simulation::new(&torus)
///     .with_faults(&plan)
///     .with_retry(RetryPolicy::default())
///     .run(&flows);
/// assert_eq!(out.stats.completed + out.stats.unrouted, flows.len());
/// ```
#[must_use = "a Simulation does nothing until run()"]
pub struct Simulation<'a> {
    fabric: &'a dyn Fabric,
    cache: Option<&'a mut PathCache>,
    snapshot: Option<&'a PathCache>,
    detailed: bool,
    obs: Option<&'a EngineObs>,
    trace: Option<&'a TraceRecorder>,
    faults: Option<&'a FaultPlan>,
    retry: RetryPolicy,
    reprovision_interval_ns: Option<u64>,
    threads: Option<usize>,
    congestion: CreditConfig,
}

impl<'a> Simulation<'a> {
    /// A run over `fabric` with default settings: private path cache, no
    /// per-flow records, no instruments, no faults.
    pub fn new(fabric: &'a dyn Fabric) -> Self {
        Simulation {
            fabric,
            cache: None,
            snapshot: None,
            detailed: false,
            obs: None,
            trace: None,
            faults: None,
            retry: RetryPolicy::default(),
            reprovision_interval_ns: None,
            threads: None,
            congestion: CreditConfig::default(),
        }
    }

    /// Reuses a caller-owned [`PathCache`] (valid across runs on the same
    /// fabric; [`PathCache::clear`] it before switching fabrics). The run
    /// adds the primary route of every new pair and nothing else: detours
    /// taken around faults stay private to the run.
    pub fn with_cache(mut self, cache: &'a mut PathCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Reads routes from an immutable warm-cache snapshot (see
    /// [`SharedPathCache`](crate::SharedPathCache)) instead of resolving
    /// them privately: pairs the snapshot covers cost nothing, and only
    /// strictly-new pairs are routed into a run-private overlay. Because
    /// the snapshot is never written, any number of concurrent runs can
    /// share one `Arc<PathCache>` — this is what fixes the cold-start
    /// rescan a fresh private cache forces on every run.
    ///
    /// The snapshot must describe the same fabric. [`with_cache`] takes
    /// precedence when both are set.
    ///
    /// Results are bit-identical to a run with a private cache (asserted
    /// by property tests).
    ///
    /// [`with_cache`]: Simulation::with_cache
    pub fn with_snapshot(mut self, snapshot: &'a PathCache) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Also return per-flow [`FlowRecord`]s.
    pub fn detailed(mut self) -> Self {
        self.detailed = true;
        self
    }

    /// Records engine counters, gauges and histograms into `obs`.
    pub fn with_obs(mut self, obs: &'a EngineObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Records causal spans into `recorder`: one `flow` span per flow on
    /// the engine track (timestamped with simulated time, span ids from
    /// the flow index — fully deterministic) and one `hop` span per link
    /// crossing on that link's track, parented to the flow span with the
    /// queueing delay as a `wait` field. Fault kills, retries, and
    /// repatches land as annotations. Never changes results.
    pub fn with_trace(mut self, recorder: &'a TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Replays `plan`'s failures and recoveries during the run. An empty
    /// plan leaves the output bit-identical to a run without one.
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the [`RetryPolicy`] used when faults kill flows.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Executes conservative lookahead windows on `threads` workers
    /// (overriding `HFAST_THREADS`). `1` is the plain sequential loop.
    /// Results are byte-identical for every thread count — the windowed
    /// executor preserves the `(time, push order)` total order
    /// (property-tested) — so this only trades wall-clock for cores. The
    /// windows need ideal links whose state no control event can change
    /// under them: runs with a non-empty fault plan or credit flow
    /// control are always sequential.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Selects the link model (see [`crate::congestion`]).
    /// [`CongestionMode::Ideal`] — the default — is virtual cut-through
    /// over ideal FIFO links. [`CongestionMode::Credit`] swaps in
    /// credit-based flow control: finite per-link buffers, head-of-line
    /// blocking, congestion trees. The model is the only thing that
    /// changes: the same driver runs both, so credit runs honour
    /// [`with_faults`], [`with_reprovision`], [`with_cache`] /
    /// [`with_snapshot`], and every observability hook exactly like ideal
    /// runs.
    ///
    /// [`with_faults`]: Simulation::with_faults
    /// [`with_reprovision`]: Simulation::with_reprovision
    /// [`with_cache`]: Simulation::with_cache
    /// [`with_snapshot`]: Simulation::with_snapshot
    pub fn with_congestion(mut self, config: CreditConfig) -> Self {
        self.congestion = config;
        self
    }

    /// Enables mid-run circuit re-provisioning at sync points spaced
    /// `interval_ns` apart: when a reprovisionable link fails (see
    /// [`Fabric::reprovisionable`]), the repair is batched to the next
    /// multiple of `interval_ns` and the batch pays one
    /// [`CircuitSwitch::RECONFIG_LATENCY_NS`](hfast_core::CircuitSwitch::RECONFIG_LATENCY_NS).
    /// A no-op on fabrics without reprovisionable links (fat tree, torus).
    ///
    /// # Panics
    /// If `interval_ns` is zero.
    pub fn with_reprovision(mut self, interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "sync interval must be positive");
        self.reprovision_interval_ns = Some(interval_ns);
        self
    }

    /// Runs the simulation.
    ///
    /// The event loop is fully deterministic: identical inputs produce
    /// identical [`SimOutput`]s regardless of cache reuse, attached
    /// observability, or thread count.
    pub fn run(self, flows: &[Flow]) -> SimOutput {
        let mut overlay = PathCache::new();
        let (base, own) = match (self.cache, self.snapshot) {
            (Some(cache), _) => (None, cache),
            (None, snapshot) => (snapshot, &mut overlay),
        };
        let routes = RouteView::index(base, own, self.fabric, flows, self.obs);
        let (stats, records, reprovisions, perf) = launch(&Setup {
            fabric: self.fabric,
            flows,
            routes: &routes,
            plan: self.faults.map_or(&[], FaultPlan::events),
            retry: self.retry,
            interval: self.reprovision_interval_ns,
            threads: self.threads.unwrap_or_else(engine_threads),
            detailed: self.detailed,
            obs: self.obs,
            trace: self.trace,
            congestion: self.congestion,
        });
        SimOutput {
            stats,
            records,
            reprovisions,
            perf,
        }
    }
}

/// What [`Simulation::run`] hands the driver.
struct Setup<'a> {
    fabric: &'a dyn Fabric,
    flows: &'a [Flow],
    routes: &'a RouteView<'a>,
    plan: &'a [FaultEvent],
    retry: RetryPolicy,
    interval: Option<u64>,
    threads: usize,
    detailed: bool,
    obs: Option<&'a EngineObs>,
    trace: Option<&'a TraceRecorder>,
    congestion: CreditConfig,
}

type Output = (
    RunStats,
    Option<Vec<FlowRecord>>,
    Vec<ReconfigStep>,
    LoopPerf,
);

/// Picks the driver's type parameters from what the run can observe —
/// link-id range, bandwidth and payload uniformity, attached
/// instruments, link model — then builds and runs it. Every combination
/// executes the same [`Driver`] code; the parameters only decide what
/// the compiler can fold away.
fn launch(s: &Setup<'_>) -> Output {
    // Per-link spec table: one virtual call per link, up front.
    let link_count = s.fabric.link_count();
    let mut links: Vec<LinkHot> = Vec::with_capacity(link_count);
    let mut uniform_bw = link_count > 0;
    for id in 0..link_count {
        let spec = s.fabric.link(id);
        let bw_bits = spec.bandwidth.to_bits();
        debug_assert!(bw_bits & DOWN_BIT == 0, "bandwidths are positive");
        uniform_bw &= id == 0 || bw_bits == links[0].bw_bits;
        links.push(LinkHot {
            free_at: 0,
            busy_ns: 0,
            lat: spec.latency_ns,
            bw_bits,
        });
    }
    // Narrow arena cells whenever link ids fit: the route arena is the
    // loop's largest random working set, and halving it is a straight
    // cache-footprint win.
    if link_count < <u16 as ArenaEntry>::MAX_LINKS {
        pick_ser::<u16>(s, links, uniform_bw)
    } else {
        pick_ser::<u32>(s, links, uniform_bw)
    }
}

/// Cheapest viable serialization lookup first: one scalar when every
/// link has the same bandwidth and every flow the same payload, the
/// per-flow memo otherwise.
fn pick_ser<E: ArenaEntry>(s: &Setup<'_>, links: Vec<LinkHot>, uniform_bw: bool) -> Output {
    match s.flows.first() {
        Some(first) if uniform_bw && s.flows.iter().all(|f| f.bytes == first.bytes) => {
            let ser = ScalarSer(serialize(links[0].bw_bits, first.bytes));
            pick_probe::<E, _>(s, links, ser)
        }
        _ => {
            let memo = vec![(u64::MAX, 0); s.flows.len()];
            pick_probe::<E, _>(s, links, MemoSer(s.flows, memo))
        }
    }
}

fn pick_probe<E: ArenaEntry, S: Ser>(s: &Setup<'_>, links: Vec<LinkHot>, ser: S) -> Output {
    match (s.obs, s.trace) {
        (None, None) => pick_model::<E, S, ()>(s, links, ser, ()),
        (obs, trace) => pick_model::<E, S, _>(s, links, ser, Instruments::new(obs, trace)),
    }
}

fn pick_model<E: ArenaEntry, S: Ser, P: Probe>(
    s: &Setup<'_>,
    links: Vec<LinkHot>,
    ser: S,
    probe: P,
) -> Output {
    match s.congestion.mode {
        CongestionMode::Ideal => {
            let d = Driver::<E, S, P, _>::new(s, links, ser, probe, IdealFifo);
            // Lookahead windows replay each link's FIFO off the event
            // loop, so they need links no control event or credit stall
            // can touch mid-batch: ideal model, empty plan.
            if s.threads > 1 && s.plan.is_empty() {
                d.execute(|d| d.run_windows(s.threads))
            } else {
                d.execute(Driver::run)
            }
        }
        CongestionMode::Credit => {
            let model = CreditBuffers::new(s.congestion.credits, links.len(), s.flows.len());
            Driver::<E, S, P, _>::new(s, links, ser, probe, model).execute(Driver::run)
        }
    }
}

/// Queue tag of a (re-)admission: the flow has no position in the fabric
/// yet and its route is resolved when the event fires. Every other tag
/// belongs to the link model.
pub(crate) const ADMIT: u32 = u32::MAX;

/// Run-private per-slot route state. Fresh slots have no bits set.
/// [`STALE_BIT`] / [`NOROUTE_BIT`] mean what they mean in [`PathCache`];
/// `DIRTY` marks a detour resolved while something was down (re-derived
/// after the next repatch, when the primary may be back); `UNSEEN` marks
/// a cache slot none of this run's flows use.
const DIRTY_BIT: u8 = 4;
const UNSEEN_BIT: u8 = 8;

/// A route-arena cell: a link id with the entry's high bit flagging the
/// route's final hop. Lets flow events carry a bare arena index — the loop
/// learns both the link and whether the flow delivers from one load.
///
/// Two widths exist because the arena is the loop's biggest random
/// working set: fabrics with < 2^15 links (every suite benched here) halve
/// their arena-cache footprint with `u16` cells, while bigger fabrics fall
/// back to `u32`. The driver is generic over the cell, so both widths run
/// identical event math.
pub(crate) trait ArenaEntry: Copy + Send + Sync + 'static {
    /// Largest representable link id (the flag claims the top bit).
    const MAX_LINKS: usize;
    fn from_link(link: usize) -> Self;
    fn mark_last(&mut self);
    /// The link id, flag stripped.
    fn link(self) -> usize;
    fn is_last(self) -> bool;
}

macro_rules! arena_entry {
    ($cell:ty, $flag:expr) => {
        impl ArenaEntry for $cell {
            const MAX_LINKS: usize = 1 << $flag;
            #[inline(always)]
            fn from_link(link: usize) -> Self {
                link as $cell
            }
            #[inline(always)]
            fn mark_last(&mut self) {
                *self |= 1 << $flag;
            }
            #[inline(always)]
            fn link(self) -> usize {
                (self & !(1 << $flag)) as usize
            }
            #[inline(always)]
            fn is_last(self) -> bool {
                self & (1 << $flag) != 0
            }
        }
    };
}
arena_entry!(u16, 15);
arena_entry!(u32, 31);

/// Per-link hot state: everything an event touches about its link, packed
/// into 32 bytes so one claim is one cache line.
#[derive(Clone, Copy)]
pub(crate) struct LinkHot {
    free_at: u64,
    pub(crate) busy_ns: u64,
    pub(crate) lat: u64,
    /// The bandwidth's `f64` bits. A bandwidth is never negative, so the
    /// sign bit ([`DOWN_BIT`]) carries the link's down flag: the one
    /// fault-run datum every event must check rides on the line the
    /// claim loads anyway.
    pub(crate) bw_bits: u64,
}

const DOWN_BIT: u64 = 1 << 63;

impl LinkHot {
    #[inline(always)]
    pub(crate) fn is_down(&self) -> bool {
        self.bw_bits & DOWN_BIT != 0
    }

    fn set_down(&mut self, down: bool) {
        self.bw_bits = (self.bw_bits & !DOWN_BIT) | if down { DOWN_BIT } else { 0 };
    }
}

/// The virtual cut-through link claim — the only place a link's FIFO
/// horizon moves. A header arriving at `t` starts crossing when the link
/// frees up and holds it for the message's serialization time. Returns
/// the start time.
#[inline(always)]
fn claim(free_at: &mut u64, t: u64, ser: u64) -> u64 {
    let start = t.max(*free_at);
    *free_at = start.saturating_add(ser);
    start
}

#[inline]
fn serialize(bw_bits: u64, bytes: u64) -> u64 {
    LinkSpec {
        latency_ns: 0,
        bandwidth: f64::from_bits(bw_bits),
    }
    .serialize_ns(bytes)
}

/// How the loop finds an event's serialization time. A type parameter so
/// the cheap representations cost nothing per event: under a scalar the
/// ideal loop body compiles down to the merged pop, one arena load, one
/// link claim, and one push, with no per-flow memory traffic at all.
pub(crate) trait Ser: Sync {
    /// Serialization time of `flow` on a link of bandwidth `bw_bits`,
    /// without touching any memo (callable from parallel workers).
    fn peek(&self, flow: u32, bw_bits: u64) -> u64;

    #[inline(always)]
    fn of(&mut self, flow: u32, bw_bits: u64) -> u64 {
        self.peek(flow, bw_bits)
    }
}

/// Uniform bandwidth and payload: one scalar, zero per-event lookups.
struct ScalarSer(u64);

impl Ser for ScalarSer {
    #[inline(always)]
    fn peek(&self, _: u32, _: u64) -> u64 {
        self.0
    }
}

/// Mixed bandwidths or payloads: a per-flow `(bw_bits, ser)` memo. Links
/// share a handful of bandwidths, so the `bytes / bandwidth` division
/// runs when a flow crosses onto a differently-provisioned link, not per
/// hop.
struct MemoSer<'a>(&'a [Flow], Vec<(u64, u64)>);

impl Ser for MemoSer<'_> {
    #[inline(always)]
    fn peek(&self, flow: u32, bw_bits: u64) -> u64 {
        match self.1[flow as usize] {
            (bw, ser) if bw == bw_bits => ser,
            _ => serialize(bw_bits, self.0[flow as usize].bytes),
        }
    }

    #[inline(always)]
    fn of(&mut self, flow: u32, bw_bits: u64) -> u64 {
        let ser = self.peek(flow, bw_bits);
        self.1[flow as usize] = (bw_bits, ser);
        ser
    }
}

/// What a run reports to the outside while it executes. A type parameter,
/// not a copy of the loop: `()` compiles every hook away, [`Instruments`]
/// serves the attached [`EngineObs`] and [`TraceRecorder`]. Probes are
/// strictly write-only — nothing the driver decides reads one — so an
/// instrumented run returns bit-identical results (property-tested).
///
/// The two per-event hooks, [`hop`](Probe::hop) and
/// [`pending`](Probe::pending), take `&mut self` and never reach a shared
/// sink: a probe keeps what they report in memory of its own and hands it
/// over in [`finish`](Probe::finish).
pub(crate) trait Probe {
    /// The attached counters, for the rare paths that bump one.
    fn obs(&self) -> Option<&EngineObs>;
    /// The attached recorder, for the rare spans with a shape of their
    /// own (`stall`, `reprovision`).
    fn trace(&self) -> Option<&TraceRecorder>;
    /// An instant annotation (fault, kill, retry, sync point) at `t` on
    /// `track`, parented to span `parent` (0 for none).
    fn instant(
        &self,
        track: Track,
        name: &'static str,
        t: u64,
        parent: u64,
        fields: &[(&'static str, u64)],
    );
    /// `flow` occupies `link` for `ser` ns from `start`, having waited
    /// `wait` ns for it.
    fn hop(&mut self, link: usize, flow: u32, wait: u64, start: u64, ser: u64);
    /// Events still pending after the one being processed.
    fn pending(&mut self, events: usize);
    /// The loop is done: hand over everything still held, and the flow
    /// lifecycles read off `records` (built whenever a recorder is
    /// attached, empty otherwise).
    fn finish(&mut self, flows: &[Flow], records: &[FlowRecord]);
}

impl Probe for () {
    #[inline(always)]
    fn obs(&self) -> Option<&EngineObs> {
        None
    }
    #[inline(always)]
    fn trace(&self) -> Option<&TraceRecorder> {
        None
    }
    #[inline(always)]
    fn instant(&self, _: Track, _: &'static str, _: u64, _: u64, _: &[(&'static str, u64)]) {}
    #[inline(always)]
    fn hop(&mut self, _: usize, _: u32, _: u64, _: u64, _: u64) {}
    #[inline(always)]
    fn pending(&mut self, _: usize) {}
    #[inline(always)]
    fn finish(&mut self, _: &[Flow], _: &[FlowRecord]) {}
}

/// The instruments a [`Simulation`] can attach, and the run's per-event
/// telemetry on its way to them.
///
/// A hop costs two plain histogram increments here, plus one 32-byte
/// [`HopRow`] store when a recorder is attached; the shared sinks — the
/// obs histograms' atomics and the recorder's mutex-guarded span list —
/// are written once, at the end. The histograms are order-free, and the
/// recorder sorts its snapshot and tells a `hop` from every other span by
/// name, so neither needs the rows sooner.
struct Instruments<'a> {
    obs: Option<&'a EngineObs>,
    trace: Option<&'a TraceRecorder>,
    /// One row per link crossing, in event order, for the recorder; never
    /// grown without one.
    hops: Vec<HopRow>,
    /// Per-hop queueing delays, for [`EngineObs::queue_wait_ns`].
    wait: HistBuf,
    /// Pending-event counts, for [`EngineObs::queue_occupancy`].
    occupancy: HistBuf,
}

impl<'a> Instruments<'a> {
    fn new(obs: Option<&'a EngineObs>, trace: Option<&'a TraceRecorder>) -> Self {
        Instruments {
            obs,
            trace,
            hops: Vec::new(),
            wait: HistBuf::default(),
            occupancy: HistBuf::default(),
        }
    }
}

impl Probe for Instruments<'_> {
    fn obs(&self) -> Option<&EngineObs> {
        self.obs
    }
    fn trace(&self) -> Option<&TraceRecorder> {
        self.trace
    }
    fn instant(
        &self,
        track: Track,
        name: &'static str,
        t: u64,
        parent: u64,
        fields: &[(&'static str, u64)],
    ) {
        if let Some(tr) = self.trace {
            tr.record_span(track, name, t, 0, 0, parent, fields.to_vec());
        }
    }
    #[inline(always)]
    fn hop(&mut self, link: usize, flow: u32, wait: u64, start: u64, ser: u64) {
        self.wait.record(wait);
        if self.trace.is_some() {
            self.hops.push(HopRow {
                link: link as u32,
                flow,
                wait,
                start,
                ser,
            });
        }
    }
    #[inline(always)]
    fn pending(&mut self, events: usize) {
        self.occupancy.record(events as u64);
    }
    fn finish(&mut self, flows: &[Flow], records: &[FlowRecord]) {
        if let Some(obs) = self.obs {
            self.wait.merge_into(&obs.queue_wait_ns);
            self.occupancy.merge_into(&obs.queue_occupancy);
        }
        if let Some(tr) = self.trace {
            tr.record_engine_block(std::mem::take(&mut self.hops), flow_rows(flows, records));
        }
    }
}

/// The seam between the driver and the fabric's links: what happens when
/// a flow meets a link. The driver owns time, routes, faults, retries,
/// and records, and its shared code does not know which model it runs; a
/// model owns only per-link occupancy (the driver's `model` field) and
/// schedules its own events through the driver's queue (any tag but
/// [`ADMIT`]). Implemented for the driver instantiated with each model's
/// state, so model code reaches the arena, links, queue, and probe through
/// `self`.
pub(crate) trait LinkModel {
    /// True if injecting a flow is the same as firing its first event
    /// with the route's first arena index as the tag. Fault-free seeds
    /// then carry that index directly and never pass through
    /// [`Driver::admit`].
    const ADMIT_IS_EVENT: bool;

    /// `flow` enters the network at `t` on the route starting at arena
    /// index `idx` (non-empty, every link up).
    fn inject(&mut self, t: u64, flow: u32, idx: u32);

    /// An event this model scheduled fires.
    fn event(&mut self, ev: Ev);

    /// `link` just went down at `t` (its [`LinkHot::is_down`] is already
    /// set). Nothing is told about recoveries: a link comes back empty.
    fn link_down(&mut self, link: LinkId, t: u64);
}

/// Ideal FIFO links under virtual cut-through: one event per header
/// arrival (`tag` = arena index of the link reached), no state beyond
/// [`LinkHot`].
pub(crate) struct IdealFifo;

impl TieClass for IdealFifo {
    #[inline(always)]
    fn class(_: u32) -> u8 {
        0
    }
}

impl<E: ArenaEntry, S: Ser, P: Probe> LinkModel for Driver<'_, E, S, P, IdealFifo> {
    const ADMIT_IS_EVENT: bool = true;

    #[inline(always)]
    fn inject(&mut self, t: u64, flow: u32, idx: u32) {
        self.event(Ev { t, flow, tag: idx });
    }

    #[inline(always)]
    fn event(&mut self, ev: Ev) {
        let cell = self.arena[ev.tag as usize];
        let lh = &mut self.links[cell.link()];
        if lh.is_down() {
            // Lazy kill: the header met a dead link.
            return self.kill(ev.t, ev.flow, ev.tag);
        }
        let ser = self.ser.of(ev.flow, lh.bw_bits);
        let start = claim(&mut lh.free_at, ev.t, ser);
        self.cross(ev, cell, start, ser);
    }

    /// Nothing to do: flows in flight discover the outage when their
    /// header reaches the link.
    #[inline(always)]
    fn link_down(&mut self, _: LinkId, _: u64) {}
}

/// The side schedule of control events — fault-plan entries, sync points,
/// repatch completions — and the fabric health they act on.
///
/// Control events never enter the flow queue. At equal timestamps they
/// run before any flow traffic ("state before traffic": a flow admitted
/// at the instant of a failure already sees it), faults first, then a
/// pending repatch, then a pending sync point — the order the class byte
/// on every queue entry used to encode. With an empty plan nothing is
/// ever due and the driver's loop never leaves its flow path.
struct Control<'a> {
    plan: &'a [FaultEvent],
    /// Next unapplied plan entry.
    pos: usize,
    /// The one outstanding sync point or repatch: a failure books a sync
    /// only while none is pending, a sync turns into its repatch, and a
    /// finished repatch books the next sync if circuits failed meanwhile.
    pending: Option<(u64, Pending)>,
    fault: FaultState,
    /// Sync-point spacing; `None` disables mid-run re-provisioning.
    interval: Option<u64>,
    reprovisions: Vec<ReconfigStep>,
    /// The run's distinct route slots with the byte weight of their
    /// flows, for circuit-coverage snapshots around each re-provisioning
    /// round (built at the first sync point).
    slot_weight: Option<Vec<(usize, u64)>>,
}

enum Pending {
    Sync,
    /// The batch of failed circuits being repatched and the circuit
    /// coverage when the batch was taken.
    Repatch(Vec<LinkId>, f64),
}

impl Control<'_> {
    /// When the next control event is due; `u64::MAX` if there is none.
    fn next_time(&self) -> u64 {
        let fault = self.plan.get(self.pos).map_or(u64::MAX, |fe| fe.time_ns);
        self.pending.as_ref().map_or(fault, |&(t, _)| t.min(fault))
    }

    fn has_next(&self) -> bool {
        self.pos < self.plan.len() || self.pending.is_some()
    }
}

/// Each distinct slot of `slots` (one per flow) with the saturating sum of
/// its flows' bytes, ascending by slot. A view slot is one pair, so these
/// are the run's pairs and their byte weights.
fn slot_weights(flows: &[Flow], slots: &[usize]) -> Vec<(usize, u64)> {
    let mut weights: Vec<(usize, u64)> = slots
        .iter()
        .zip(flows)
        .map(|(&s, f)| (s, f.bytes))
        .collect();
    weights.sort_unstable_by_key(|&(slot, _)| slot);
    weights.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.saturating_add(next.1);
        }
        same
    });
    weights
}

/// "No entry" in a [`FaultIndex`] detour chain.
const NIL: u32 = u32::MAX;

/// Which route slots a failure can cut: an inverted index from each link
/// to the slots whose span crosses it, and from each node to the slots
/// whose pair ends at it.
///
/// A run builds it at its first failure, from the spans it has interned,
/// and [`Driver::resolve`] adds every detour it interns afterwards; a
/// fault-free run never builds it. Entries are never removed. A slot
/// whose span moved off a link keeps its old entry there, and a slot can
/// be listed twice, because [`Driver::evict`] re-tests every candidate
/// against the slot's current span and state: an outdated entry costs
/// one test and changes nothing.
///
/// What the build finds is one CSR table keyed by link, then by node, at
/// four bytes an entry. Detours go on per-link chains through one
/// `(slot, next)` array, newest first, so listing one is a push per link.
struct FaultIndex {
    /// Key `k`'s built entries are `slots[off[k]..off[k + 1]]`; link `l`
    /// is key `l`, node `n` is key `links + n`.
    off: Vec<u32>,
    slots: Vec<u32>,
    /// Per link, the newest cell of its chain in `detours` (or [`NIL`]).
    detour_head: Vec<u32>,
    /// `(slot, next cell)` for every detour entry.
    detours: Vec<(u32, u32)>,
}

impl FaultIndex {
    /// An empty index: count every entry's key, then [`allocate`], then
    /// [`place`] every entry.
    ///
    /// [`allocate`]: FaultIndex::allocate
    /// [`place`]: FaultIndex::place
    fn new(links: usize, nodes: usize) -> Self {
        FaultIndex {
            off: vec![0; links + nodes + 1],
            slots: Vec::new(),
            detour_head: vec![NIL; links],
            detours: Vec::new(),
        }
    }

    fn count(&mut self, key: usize) {
        self.off[key] += 1;
    }

    /// Running totals make `off[k]` the end of key `k`; placing each
    /// key's entries downwards leaves it at the key's start.
    fn allocate(&mut self) {
        let mut end = 0;
        for o in &mut self.off {
            end += *o;
            *o = end;
        }
        self.slots = vec![0; end as usize];
    }

    fn place(&mut self, key: usize, slot: u32) {
        self.off[key] -= 1;
        self.slots[self.off[key] as usize] = slot;
    }

    /// Lists `slot` under every link of its new `span`.
    fn add_detour(&mut self, slot: usize, span: &[LinkId]) {
        for &link in span {
            let head = &mut self.detour_head[link];
            self.detours.push((slot as u32, *head));
            *head = (self.detours.len() - 1) as u32;
        }
    }

    /// The slots the build listed under key `key`.
    fn built(&self, key: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (self.off[key] as usize, self.off[key + 1] as usize);
        self.slots[lo..hi].iter().map(|&slot| slot as usize)
    }

    /// Every slot listed under `link`.
    fn on_link(&self, link: LinkId) -> impl Iterator<Item = usize> + '_ {
        let mut cell = self.detour_head[link];
        let detours = std::iter::from_fn(move || {
            let &(slot, next) = self.detours.get(cell as usize)?;
            cell = next;
            Some(slot as usize)
        });
        self.built(link).chain(detours)
    }

    /// Every slot listed under `node`.
    fn at_node(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.built(self.detour_head.len() + node)
    }
}

/// Outcome of one route resolution under the current fault state.
enum Resolution {
    /// A live route (possibly a detour): arena offset and length.
    Route(u32, u32),
    /// The healthy topology has no route for this pair; never retried.
    Unreachable,
    /// Everything is blocked by active faults; worth retrying.
    Blocked,
}

/// The one event loop.
///
/// The driver owns everything every kind of run shares — the merged
/// seed/queue pop, the control schedule, route resolution, retry and
/// abandon, per-flow records, and the stats/obs/trace epilogue — and
/// meets the fabric's links only through [`LinkModel`].
///
/// Setup interns everything the per-event work touches into dense
/// per-run tables: each distinct route slot is flattened once into one
/// link arena of [`ArenaEntry`] cells, per-link specs land in
/// [`LinkHot`] (one virtual [`Fabric::link`] call per link per run
/// instead of per event), and detours found mid-run append to the same
/// arena, so a flow's position is always one arena index.
///
/// Seed admissions are **not** enqueued: they are sorted once into a flat
/// `(start_ns, flow, tag)` array and merged with the calendar queue at
/// pop time, with seeds winning timestamp ties — exactly the order a
/// single queue produces when every seed is pushed first. This keeps the
/// queue's live set at the number of in-flight flows (typically hundreds)
/// instead of the total flow count (tens of thousands), which is the
/// difference between the hot path living in L1 and every queue
/// operation missing to L3.
pub(crate) struct Driver<'a, E, S, P, M> {
    fabric: &'a dyn Fabric,
    flows: &'a [Flow],
    routes: &'a RouteView<'a>,
    retry: RetryPolicy,
    /// Flat route arena: every interned route's cells, concatenated.
    pub(crate) arena: Vec<E>,
    pub(crate) links: Vec<LinkHot>,
    pub(crate) ser: S,
    pub(crate) probe: P,
    pub(crate) model: M,
    pub(crate) q: CalendarQueue<M>,
    /// Admissions as `(start, flow, tag)`, sorted; `seed_pos..` remain.
    seeds: Vec<(u64, u32, u32)>,
    seed_pos: usize,
    events: u64,
    /// Whether the caller reads per-flow records.
    detailed: bool,
    // Per-flow record columns. The last three are only allocated under a
    // non-empty fault plan; without one no flow fails, and they read as
    // all zero.
    ends: Vec<Option<u64>>,
    /// Arena span `(offset, length)` of the route the flow was last
    /// admitted on.
    route: Vec<(u32, u32)>,
    retries: Vec<u32>,
    abandoned: Vec<bool>,
    /// When the flow first failed (kill or blocked admission).
    first_fail: Vec<Option<u64>>,
    // Per-slot route table: arena span and state bits of each view slot.
    slot_span: Vec<(u32, u32)>,
    slot_state: Vec<u8>,
    /// Links whose down bit is set; zero lets admissions skip the
    /// blocked-route scan.
    down_links: usize,
    /// Built at the first failure; `None` for the whole of a fault-free
    /// run.
    index: Option<FaultIndex>,
    ctl: Control<'a>,
    /// Cached [`Control::next_time`].
    ctl_t: u64,
}

impl<'a, E: ArenaEntry, S: Ser, P: Probe, M: TieClass> Driver<'a, E, S, P, M>
where
    Self: LinkModel,
{
    fn new(s: &Setup<'a>, links: Vec<LinkHot>, ser: S, probe: P, model: M) -> Self {
        debug_assert!(links.len() < E::MAX_LINKS, "link ids fit beside the flag");
        let n = s.flows.len();
        let slots = s.routes.slot_count();
        let faulted = !s.plan.is_empty();
        let fault_col = |len| if faulted { len } else { 0 };
        let mut d = Driver {
            fabric: s.fabric,
            flows: s.flows,
            routes: s.routes,
            retry: s.retry,
            arena: Vec::new(),
            links,
            ser,
            probe,
            model,
            q: CalendarQueue::new(),
            seeds: Vec::with_capacity(n),
            seed_pos: 0,
            events: 0,
            detailed: s.detailed,
            ends: vec![None; n],
            route: vec![(0, 0); n],
            retries: vec![0; fault_col(n)],
            abandoned: vec![false; fault_col(n)],
            first_fail: vec![None; fault_col(n)],
            slot_span: vec![(0, 0); slots],
            slot_state: vec![UNSEEN_BIT; slots],
            down_links: 0,
            index: None,
            ctl: Control {
                plan: s.plan,
                pos: 0,
                pending: None,
                fault: FaultState::healthy(s.fabric),
                interval: s.interval,
                reprovisions: Vec::new(),
                slot_weight: None,
            },
            ctl_t: u64::MAX,
        };
        d.ctl_t = d.ctl.next_time();

        // Under a fault plan every admission resolves its route when it
        // fires, against the fabric's health at that instant, so every
        // flow is seeded. Without one the primary route is final:
        // unroutable flows and self-deliveries settle here, and a model
        // whose admission is its first event skips `admit` altogether.
        let direct = Self::ADMIT_IS_EVENT && !faulted;
        for (i, f) in s.flows.iter().enumerate() {
            let slot = s.routes.slots[i];
            if d.slot_state[slot] == UNSEEN_BIT {
                let (cache, local) = s.routes.locate(slot);
                (d.slot_span[slot], d.slot_state[slot]) = match cache.path(local) {
                    Some(p) => (d.intern(p), 0),
                    None => ((0, 0), NOROUTE_BIT),
                };
            }
            let (off, len) = d.slot_span[slot];
            if faulted {
                d.seeds.push((f.start_ns, i as u32, ADMIT));
            } else if d.slot_state[slot] & NOROUTE_BIT != 0 {
                // Unroutable: stays undelivered.
            } else if len == 0 {
                d.ends[i] = Some(f.start_ns); // self-delivery
            } else {
                d.route[i] = (off, len);
                let tag = if direct { off } else { ADMIT };
                d.seeds.push((f.start_ns, i as u32, tag));
            }
        }
        // Seeds were pushed in flow order, so a stable sort by start is
        // (start, flow) order: flow order within a timestamp.
        sort_by_start(&mut d.seeds);
        d
    }

    /// Appends `path` to the route arena, returning its span.
    fn intern(&mut self, path: &[LinkId]) -> (u32, u32) {
        let off = self.arena.len() as u32;
        self.arena.extend(path.iter().map(|&l| E::from_link(l)));
        if let Some(last) = self.arena[off as usize..].last_mut() {
            last.mark_last();
        }
        (off, path.len() as u32)
    }

    /// Runs `body` (one of the loop executors) under the wall clock, then
    /// the shared epilogue: records, flow spans, stats, obs counters.
    fn execute(mut self, body: impl FnOnce(&mut Self)) -> Output {
        let t_loop = std::time::Instant::now();
        body(&mut self);
        let perf = LoopPerf {
            events: self.events,
            loop_ns: t_loop.elapsed().as_nanos() as u64,
        };
        // Records exist only for a caller who reads them: a detailed run,
        // or a recorder that turns them into flow spans.
        let records = (self.detailed || self.probe.trace().is_some()).then(|| {
            (0..self.flows.len())
                .map(|i| FlowRecord {
                    flow: i,
                    start_ns: self.flows[i].start_ns,
                    end_ns: self.ends[i],
                    hops: self.ends[i].map_or(0, |_| self.route[i].1 as usize),
                    retries: self.retries.get(i).copied().unwrap_or(0),
                    abandoned: self.abandoned.get(i).copied().unwrap_or(false),
                })
                .collect::<Vec<_>>()
        });
        self.probe
            .finish(self.flows, records.as_deref().unwrap_or_default());
        let stats = RunStats::from_columns(
            self.flows,
            &self.ends,
            &self.route,
            &self.retries,
            &self.abandoned,
            self.links.iter().map(|l| l.busy_ns).max().unwrap_or(0),
        );
        if let Some(obs) = self.probe.obs() {
            obs.runs.inc();
            obs.flows.add(self.flows.len() as u64);
            obs.events.add(self.events);
            obs.unrouted.add(stats.unrouted as u64);
            obs.heap_peak.set_max(self.q.peak() as u64);
            obs.set_events_per_sec(&perf);
            for f in self.flows {
                obs.flow_bytes.record(f.bytes);
            }
        }
        let records = records.filter(|_| self.detailed);
        (stats, records, self.ctl.reprovisions, perf)
    }

    /// The sequential loop: a three-way merge of the flow queue, the
    /// sorted seed stream, and the control schedule. The queue yields
    /// only while its head is strictly earlier than both other heads, so
    /// at one timestamp control events run first, then seed admissions,
    /// then queued events in push order — the `(time, class, seq)` total
    /// order of a single class-tagged queue, without a class or sequence
    /// number on any entry.
    fn run(&mut self) {
        loop {
            let seed_t = self.seeds.get(self.seed_pos).map_or(u64::MAX, |s| s.0);
            let ev = match self.q.pop_before(seed_t.min(self.ctl_t)) {
                Some(ev) => ev,
                None if self.ctl_t <= seed_t && self.ctl.has_next() => {
                    self.control();
                    continue;
                }
                None if self.seed_pos < self.seeds.len() => {
                    let (t, flow, tag) = self.seeds[self.seed_pos];
                    self.seed_pos += 1;
                    Ev { t, flow, tag }
                }
                // `pop_before` is strict, so events at exactly `u64::MAX`
                // (where saturated timestamps pile up) drain here.
                None => match self.q.pop() {
                    Some(ev) => ev,
                    None => break,
                },
            };
            self.events += 1;
            self.probe
                .pending(self.q.len() + self.seeds.len() - self.seed_pos);
            if ev.tag == ADMIT {
                self.admit(ev.t, ev.flow);
            } else {
                self.event(ev);
            }
        }
    }

    /// (Re-)admits `flow` at `now`: resolves its route against the
    /// fabric's current health and hands it to the link model, or books
    /// a retry if every route is blocked.
    fn admit(&mut self, now: u64, flow: u32) {
        let f = flow as usize;
        match self.resolve(f) {
            Resolution::Route(off, len) => {
                self.route[f] = (off, len);
                if len == 0 {
                    self.ends[f] = Some(now); // self-delivery
                } else {
                    self.inject(now, flow, off);
                }
            }
            // The topology itself has no route; retrying cannot help.
            Resolution::Unreachable => {}
            Resolution::Blocked => self.retry_or_abandon(flow, now),
        }
    }

    /// The current best route for `flow`'s pair: its slot's span while
    /// that is fresh and fully up, otherwise a fresh
    /// [`Fabric::path_avoiding`] search whose result replaces the span.
    fn resolve(&mut self, flow: usize) -> Resolution {
        let slot = self.routes.slots[flow];
        let state = self.slot_state[slot];
        if state & STALE_BIT == 0 {
            if state & NOROUTE_BIT != 0 {
                return Resolution::Unreachable;
            }
            let (off, len) = self.slot_span[slot];
            let span = self.span(slot);
            if self.down_links == 0 || !span.iter().any(|c| self.links[c.link()].is_down()) {
                return Resolution::Route(off, len);
            }
        }
        let f = self.flows[flow];
        let any_down = self.ctl.fault.any_down();
        match self.fabric.path_avoiding(f.src, f.dst, &self.ctl.fault) {
            Some(route) => {
                let (off, len) = self.intern(&route);
                if let Some(index) = &mut self.index {
                    index.add_detour(slot, &route);
                }
                self.slot_span[slot] = (off, len);
                self.slot_state[slot] = if any_down { DIRTY_BIT } else { 0 };
                Resolution::Route(off, len)
            }
            None if any_down => Resolution::Blocked,
            None => {
                // Healthy fabric, still no route: permanently unreachable.
                self.slot_state[slot] = NOROUTE_BIT;
                Resolution::Unreachable
            }
        }
    }

    /// `flow`'s header (or, under credit, the flow itself) met the dead
    /// link at arena index `idx`: the attempt is over.
    #[cold]
    pub(crate) fn kill(&mut self, now: u64, flow: u32, idx: u32) {
        if let Some(obs) = self.probe.obs() {
            obs.flow_kills.inc();
        }
        self.probe.instant(
            Track::Link(self.arena[idx as usize].link()),
            "flow_kill",
            now,
            engine_span_id(u64::from(flow) + 1),
            &[
                ("flow", u64::from(flow)),
                ("hop", u64::from(idx - self.route[flow as usize].0)),
            ],
        );
        self.retry_or_abandon(flow, now);
    }

    /// Books a re-admission for a failed attempt, or abandons the flow
    /// once the policy's attempt budget is spent. Every attempt follows
    /// exactly one admission, so `retries + 1` admissions have failed.
    fn retry_or_abandon(&mut self, flow: u32, now: u64) {
        let f = flow as usize;
        self.first_fail[f].get_or_insert(now);
        let failed = self.retries[f] + 1;
        if failed < self.retry.attempts() {
            self.retries[f] += 1;
            if let Some(obs) = self.probe.obs() {
                obs.retries.inc();
            }
            self.probe.instant(
                Track::Engine,
                "flow_retry",
                now,
                engine_span_id(u64::from(flow) + 1),
                &[("flow", u64::from(flow)), ("attempt", u64::from(failed))],
            );
            let at = now.saturating_add(self.retry.backoff_ns(failed));
            self.q.push(at, flow, ADMIT);
        } else {
            self.abandoned[f] = true;
            if let Some(obs) = self.probe.obs() {
                obs.abandoned_flows.inc();
            }
        }
    }

    /// `flow`'s tail arrived at `end`.
    #[inline(always)]
    pub(crate) fn deliver(&mut self, flow: u32, end: u64) {
        self.ends[flow as usize] = Some(end);
        if let Some(&Some(t0)) = self.first_fail.get(flow as usize) {
            if let Some(obs) = self.probe.obs() {
                obs.reroute_latency_ns.record(end.saturating_sub(t0));
            }
        }
    }

    /// Applies the next control event.
    #[cold]
    fn control(&mut self) {
        self.events += 1;
        let pending_t = self.ctl.pending.as_ref().map_or(u64::MAX, |&(t, _)| t);
        match self.ctl.plan.get(self.ctl.pos) {
            // Faults win timestamp ties against the pending event.
            Some(&fe) if fe.time_ns <= pending_t => {
                self.ctl.pos += 1;
                self.apply_fault(fe);
            }
            _ => match self.ctl.pending.take().expect("a control event is due") {
                (now, Pending::Sync) => self.sync_point(now),
                (now, Pending::Repatch(batch, coverage)) => self.repatch(now, batch, coverage),
            },
        }
        self.ctl_t = self.ctl.next_time();
    }

    /// One fault-plan entry: fold it into the fabric's health, evict the
    /// routes it cuts, tell the link model which links died, and book a
    /// sync point if a circuit can be repatched.
    fn apply_fault(&mut self, fe: FaultEvent) {
        let now = fe.time_ns;
        let incident = self.ctl.fault.apply(self.fabric, fe);
        let failing = fe.action == FaultAction::Fail;
        let (name, id, node, affected) = match (fe.target, failing) {
            (FaultTarget::Link(l), true) => ("link_fail", l, None, vec![l]),
            (FaultTarget::Link(l), false) => ("link_recover", l, None, vec![l]),
            (FaultTarget::Node(n), true) => ("node_fail", n, Some(n), incident),
            (FaultTarget::Node(n), false) => ("node_recover", n, Some(n), incident),
        };
        let evicted = if failing {
            self.evict(&affected, node)
        } else {
            0
        };
        if let Some(obs) = self.probe.obs() {
            obs.cache_evictions.add(evicted as u64);
            if failing {
                obs.faults.inc();
            } else {
                obs.recoveries.inc();
            }
        }
        // Fault instants: link events annotate the link's own track; node
        // events land on the engine track.
        let (track, field) = match node {
            None => (Track::Link(id), "link"),
            Some(_) => (Track::Engine, "node"),
        };
        self.probe
            .instant(track, name, now, 0, &[(field, id as u64)]);
        for l in affected {
            self.sync_link(l, now);
        }
        // A repairable circuit failure books the next sync point (once;
        // later failures join the same batch).
        if let (true, FaultTarget::Link(l)) = (failing, fe.target) {
            if self.fabric.reprovisionable(l) && self.ctl.pending.is_none() {
                self.book_sync(now);
            }
        }
    }

    /// Marks stale every fresh route that crosses one of the `dead` links
    /// or (node faults) has `node` as an endpoint, returning how many
    /// were evicted. Only the slots the [`FaultIndex`] lists under those
    /// components are tested; the first failure of a run builds it.
    fn evict(&mut self, dead: &[LinkId], node: Option<usize>) -> usize {
        #[cfg(test)]
        let scanned = self.evict_scan(dead, node);
        let index = match self.index.take() {
            Some(index) => index,
            None => self.build_index(),
        };
        let on_links = dead.iter().flat_map(|&l| index.on_link(l));
        let at_node = node.into_iter().flat_map(|n| index.at_node(n));
        let mut evicted = 0;
        for slot in on_links.chain(at_node) {
            if self.cut_by(slot, dead, node) {
                self.slot_state[slot] |= STALE_BIT;
                evicted += 1;
            }
        }
        self.index = Some(index);
        #[cfg(test)]
        assert!(
            (evicted, &self.slot_state) == (scanned.0, &scanned.1),
            "index eviction of {dead:?} / {node:?} differs from the full scan"
        );
        evicted
    }

    /// True if `slot` holds a fresh route that crosses one of the `dead`
    /// links or has `node` as an endpoint.
    fn cut_by(&self, slot: usize, dead: &[LinkId], node: Option<usize>) -> bool {
        if self.slot_state[slot] & (STALE_BIT | UNSEEN_BIT) != 0 {
            return false;
        }
        let ends_at = |n: usize| {
            let (src, dst) = self.routes.pair(slot);
            src == n || dst == n
        };
        node.is_some_and(ends_at) || self.span(slot).iter().any(|c| dead.contains(&c.link()))
    }

    /// The index over every slot this run uses.
    #[cold]
    fn build_index(&self) -> FaultIndex {
        let mut index = FaultIndex::new(self.links.len(), self.fabric.nodes());
        self.index_entries(|key, _| index.count(key));
        index.allocate();
        self.index_entries(|key, slot| index.place(key, slot));
        index
    }

    /// Every `(key, slot)` entry of the [`FaultIndex`]: for each slot this
    /// run uses, each link of its span and each end of its pair.
    fn index_entries(&self, mut list: impl FnMut(usize, u32)) {
        let links = self.links.len();
        for slot in 0..self.slot_state.len() {
            if self.slot_state[slot] & UNSEEN_BIT != 0 {
                continue;
            }
            for c in self.span(slot) {
                list(c.link(), slot as u32);
            }
            let (src, dst) = self.routes.pair(slot);
            list(links + src, slot as u32);
            if dst != src {
                list(links + dst, slot as u32);
            }
        }
    }

    /// The full-scan eviction the [`FaultIndex`] replaced, kept as its
    /// oracle: every slot tested, on a copy of the state table. Returns
    /// the evicted count and the table as the scan leaves it.
    #[cfg(test)]
    fn evict_scan(&self, dead: &[LinkId], node: Option<usize>) -> (usize, Vec<u8>) {
        let mut state = self.slot_state.clone();
        let mut evicted = 0;
        for (slot, bits) in state.iter_mut().enumerate() {
            if *bits & (STALE_BIT | UNSEEN_BIT) != 0 {
                continue;
            }
            let (off, len) = self.slot_span[slot];
            let ends_at = |n: usize| {
                let (cache, local) = self.routes.locate(slot);
                let (src, dst) = cache.pairs[local];
                src as usize == n || dst as usize == n
            };
            let touches = node.is_some_and(ends_at)
                || self.arena[off as usize..(off + len) as usize]
                    .iter()
                    .any(|c| dead.contains(&c.link()));
            if touches {
                *bits |= STALE_BIT;
                evicted += 1;
            }
        }
        (evicted, state)
    }

    /// Brings `link`'s down bit in line with the fault state, telling the
    /// link model when it just died.
    fn sync_link(&mut self, link: LinkId, now: u64) {
        let down = !self.ctl.fault.link_up(link);
        if down == self.links[link].is_down() {
            return;
        }
        self.links[link].set_down(down);
        if down {
            self.down_links += 1;
            self.link_down(link, now);
        } else {
            self.down_links -= 1;
        }
    }

    /// A sync point: batch every failed circuit that can be repatched and
    /// start the MEMS reconfiguration.
    fn sync_point(&mut self, now: u64) {
        let batch = self.repairable();
        if batch.is_empty() {
            return; // everything already recovered on its own
        }
        let coverage = self.coverage();
        let circuits = [("failed_circuits", batch.len() as u64)];
        self.probe
            .instant(Track::Reconfig, "sync_point", now, 0, &circuits);
        let done_at = now.saturating_add(hfast_core::CircuitSwitch::RECONFIG_LATENCY_NS);
        self.ctl.pending = Some((done_at, Pending::Repatch(batch, coverage)));
    }

    /// A repatch completes: the batch's circuits are back.
    fn repatch(&mut self, now: u64, batch: Vec<LinkId>, cov_before: f64) {
        for &l in &batch {
            self.ctl.fault.repatch_link(l);
            self.sync_link(l, now);
        }
        // Fault-era detours may now be worse than the repaired primary:
        // force those pairs to re-resolve.
        for state in &mut self.slot_state {
            if *state & DIRTY_BIT != 0 {
                *state |= STALE_BIT;
            }
        }
        let cov_after = self.coverage();
        if let Some(tr) = self.probe.trace() {
            // The batch occupied the crossbar from its sync point until
            // now; span ids continue past the flow id range so both stay
            // unique in one recorder.
            let latency = hfast_core::CircuitSwitch::RECONFIG_LATENCY_NS;
            let round = self.ctl.reprovisions.len() as u64;
            tr.record_span(
                Track::Reconfig,
                "reprovision",
                now.saturating_sub(latency),
                latency,
                engine_span_id(self.flows.len() as u64 + 1 + round),
                0,
                vec![
                    ("circuits", batch.len() as u64),
                    ("coverage_before_permille", (cov_before * 1000.0) as u64),
                    ("coverage_after_permille", (cov_after * 1000.0) as u64),
                ],
            );
        }
        self.ctl
            .reprovisions
            .push(ReconfigStep::repatch(batch.len(), cov_before, cov_after));
        if let Some(obs) = self.probe.obs() {
            obs.reprovisions.inc();
            obs.repatched_links.add(batch.len() as u64);
        }
        // Circuits that failed during the repatch window get their own
        // round.
        if !self.repairable().is_empty() {
            self.book_sync(now);
        }
    }

    /// Byte-weighted share of the run's pairs that have a route right now.
    ///
    /// A pair whose current span and both endpoints are up counts as
    /// covered without a search: that span is a route [`Fabric::path`] or
    /// [`Fabric::path_avoiding`] returned for the pair, and the
    /// `path_avoiding` contract makes the search succeed whenever one of
    /// those is up. Only pairs something cut are searched.
    fn coverage(&mut self) -> f64 {
        let weights = self
            .ctl
            .slot_weight
            .take()
            .unwrap_or_else(|| slot_weights(self.flows, &self.routes.slots));
        // u128 totals: a sum of u64 weights cannot overflow them.
        let (mut covered, mut total) = (0u128, 0u128);
        for &(slot, w) in &weights {
            total += u128::from(w);
            let (src, dst) = self.routes.pair(slot);
            let fault = &self.ctl.fault;
            let up = self.slot_state[slot] & NOROUTE_BIT == 0
                && fault.node_up(src)
                && fault.node_up(dst)
                && !self
                    .span(slot)
                    .iter()
                    .any(|c| self.links[c.link()].is_down());
            #[cfg(test)]
            assert!(
                !up || self.fabric.path_avoiding(src, dst, fault).is_some(),
                "path_avoiding found no route for ({src}, {dst}) while its span is up"
            );
            if up || self.fabric.path_avoiding(src, dst, fault).is_some() {
                covered += u128::from(w);
            }
        }
        self.ctl.slot_weight = Some(weights);
        if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The arena cells of `slot`'s current span.
    #[inline]
    fn span(&self, slot: usize) -> &[E] {
        let (off, len) = self.slot_span[slot];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Failed circuits a repatch can bring back, ascending.
    fn repairable(&self) -> Vec<LinkId> {
        let mut failed = self.ctl.fault.failed_links();
        failed.retain(|&l| self.fabric.reprovisionable(l));
        failed
    }

    /// Books the next sync point — the first multiple of the interval
    /// strictly after `now` — if mid-run re-provisioning is enabled.
    fn book_sync(&mut self, now: u64) {
        if let Some(interval) = self.ctl.interval {
            let at = (now / interval + 1).saturating_mul(interval);
            self.ctl.pending = Some((at, Pending::Sync));
        }
    }
}

/// One parallel worker's output in [`Driver::run_windows`]: the group's
/// link, the link's final `free_at`, and `(start, ser)` per event in
/// drain order.
type GroupResult = (usize, u64, Vec<(u64, u64)>);

impl<E: ArenaEntry, S: Ser, P: Probe> Driver<'_, E, S, P, IdealFifo> {
    /// The header of `ev`'s flow crosses `cell`'s link from `start`, the
    /// claim already made: account the occupancy, report the hop, and
    /// schedule the next arrival or the delivery.
    #[inline(always)]
    fn cross(&mut self, ev: Ev, cell: E, start: u64, ser: u64) {
        let lh = &mut self.links[cell.link()];
        lh.busy_ns = lh.busy_ns.saturating_add(ser);
        // The header clears this link after the fixed latency; the tail
        // follows one serialization time behind.
        let header_out = start.saturating_add(lh.lat);
        self.probe
            .hop(cell.link(), ev.flow, start - ev.t, start, ser);
        if !cell.is_last() {
            self.q.push(header_out, ev.flow, ev.tag + 1);
        } else {
            self.deliver(ev.flow, header_out.saturating_add(ser));
        }
    }

    /// The conservative-parallelism executor for ideal, fault-free runs.
    ///
    /// Events are drained in `(time, insertion)` order into a batch while
    /// each event's timestamp stays below the running lookahead bound
    /// `W = min over drained events of (time + latency(link(event)))`.
    ///
    /// Why every drained batch is safe to execute out of order across
    /// links:
    ///
    /// 1. Every batch event's time is `< W`: events pop in nondecreasing
    ///    time, and for any members `j`, `k`: if `k` drained first, the
    ///    bound including `k` already gated `j`'s admission (`t_j < W ≤
    ///    t_k + lat_k`); if `k` drained after `j`, then `t_j ≤ t_k < t_k
    ///    + lat_k`.
    /// 2. Every successor lands at `start + latency ≥ time + latency ≥
    ///    W`, so no event scheduled *by* the batch can belong *in* the
    ///    batch — the sequential loop would also have processed the
    ///    entire batch before any successor.
    /// 3. Within the batch, only same-link events interact (through the
    ///    link's `free_at`); grouping by link preserves the drain order,
    ///    so each link's FIFO claims replay exactly the sequential order
    ///    — through the same [`claim`] the sequential loop calls.
    /// 4. Successors are pushed during the merge in batch order — the
    ///    same order the sequential loop would have pushed them — and the
    ///    stable queue breaks timestamp ties by push order, so the
    ///    *(time, insertion)* total order, and with it every downstream
    ///    tie-break, is byte-identical.
    ///
    /// (Once timestamps saturate at `u64::MAX` the bound stops advancing
    /// and batches degenerate to one event — still the sequential order.)
    ///
    /// Probe hooks fire at merge time in batch order, so instrumented
    /// streams are also identical across thread counts. Batches smaller
    /// than [`PAR_BATCH_MIN`] execute inline; the fan-out only engages on
    /// bursts (all-to-alls, incasts) where per-link groups carry real
    /// work.
    fn run_windows(&mut self, threads: usize) {
        // Drained events with their arena cells, in pop order.
        let mut batch: Vec<(Ev, E)> = Vec::new();
        // (start, ser) per batch event, filled by the per-link groups.
        let mut rows: Vec<(u64, u64)> = Vec::new();
        // link -> group index for the current batch; reset after each.
        let mut link_group: Vec<u32> = vec![u32::MAX; self.links.len()];
        let mut groups: Vec<Vec<u32>> = Vec::new();

        loop {
            batch.clear();
            let mut bound = u64::MAX;
            loop {
                // Merged head of the seed stream and the calendar queue;
                // seeds win timestamp ties.
                let seed = self.seeds.get(self.seed_pos);
                let seed = seed.map(|&(t, flow, tag)| Ev { t, flow, tag });
                let queued = self.q.peek_time();
                let take_seed = seed.is_some_and(|s| queued.is_none_or(|t| s.t <= t));
                let head = if take_seed { seed.map(|s| s.t) } else { queued };
                match head {
                    Some(t) if batch.is_empty() || t < bound => {}
                    _ => break,
                }
                let ev = if take_seed {
                    self.seed_pos += 1;
                    seed.expect("take_seed implies a seed")
                } else {
                    self.q.pop().expect("peeked event pops")
                };
                let cell = self.arena[ev.tag as usize];
                bound = bound.min(ev.t.saturating_add(self.links[cell.link()].lat));
                batch.push((ev, cell));
            }
            if batch.is_empty() {
                break;
            }
            let k = batch.len();
            self.events += k as u64;

            rows.clear();
            if k < PAR_BATCH_MIN {
                for &(ev, cell) in &batch {
                    let lh = &mut self.links[cell.link()];
                    let ser = self.ser.of(ev.flow, lh.bw_bits);
                    rows.push((claim(&mut lh.free_at, ev.t, ser), ser));
                }
            } else {
                // Group by link, preserving drain order within each group.
                groups.clear();
                for (i, &(_, cell)) in batch.iter().enumerate() {
                    let g = &mut link_group[cell.link()];
                    if *g == u32::MAX {
                        *g = groups.len() as u32;
                        groups.push(Vec::new());
                    }
                    groups[*g as usize].push(i as u32);
                }
                // Each link's FIFO replays independently on a worker.
                // Workers read the serialization memo but never write it
                // (a pure recompute on miss costs the same either way and
                // keeps the fan-out free of shared mutable state).
                let (batch, groups, links, ser) = (&batch, &groups, &self.links, &self.ser);
                let results: Vec<GroupResult> =
                    hfast_par::par_map_range(threads, groups.len(), |gi| {
                        let link = batch[groups[gi][0] as usize].1.link();
                        let lh = links[link];
                        let mut free = lh.free_at;
                        let claims = groups[gi].iter().map(|&bi| {
                            let ev = batch[bi as usize].0;
                            let ser = ser.peek(ev.flow, lh.bw_bits);
                            (claim(&mut free, ev.t, ser), ser)
                        });
                        let out = claims.collect();
                        (link, free, out)
                    });
                rows.resize(k, (0, 0));
                for (group, (link, free, out)) in groups.iter().zip(results) {
                    self.links[link].free_at = free;
                    link_group[link] = u32::MAX;
                    for (&bi, row) in group.iter().zip(out) {
                        rows[bi as usize] = row;
                    }
                }
            }

            // Merge in batch (= sequential) order: busy accounting,
            // delivery times, probe hooks, and successor pushes (whose
            // order is the stable queue's tie-break).
            for (i, (&(ev, cell), &(start, ser))) in batch.iter().zip(&rows).enumerate() {
                // The pending-event count the sequential loop would observe
                // after consuming this event: the still-undrained remainder
                // of the batch plus the unconsumed seed tail plus everything
                // scheduled so far.
                let undrained = k - i - 1 + self.seeds.len() - self.seed_pos;
                self.probe.pending(self.q.len() + undrained);
                self.cross(ev, cell, start, ser);
            }
        }
    }
}

/// Sorts `seeds` by start time, stably, as a least-significant-digit
/// radix sort over the start's bytes. Seeds are pushed in flow order, so
/// the result is `(start, flow)` order. A byte every start shares (the
/// high bytes of any realistic timeline) costs no pass.
fn sort_by_start(seeds: &mut Vec<(u64, u32, u32)>) {
    let (any, all) = seeds
        .iter()
        .fold((0, u64::MAX), |(any, all), s| (any | s.0, all & s.0));
    let mut out = Vec::new();
    for shift in (0..64).step_by(8) {
        if (any ^ all) >> shift & 0xff == 0 {
            continue;
        }
        let digit = |t: u64| (t >> shift) as u8 as usize;
        let mut at = [0usize; 256];
        for s in seeds.iter() {
            at[digit(s.0)] += 1;
        }
        let mut start = 0;
        for a in &mut at {
            (*a, start) = (start, start + *a);
        }
        out.resize(seeds.len(), (0, 0, 0));
        for &s in seeds.iter() {
            out[at[digit(s.0)]] = s;
            at[digit(s.0)] += 1;
        }
        std::mem::swap(seeds, &mut out);
    }
}

/// One row per flow for the recorder's engine lane: a `flow` span, or the
/// terminal instant of a flow that never arrived. Its span id
/// (`engine_span_id(index + 1)`) is what every hop row of the run names
/// as its parent. Self-deliveries cross no link and leave no row.
fn flow_rows(flows: &[Flow], records: &[FlowRecord]) -> Vec<FlowRow> {
    let mut rows = Vec::with_capacity(flows.len());
    for (i, (f, r)) in flows.iter().zip(records).enumerate() {
        let (end, dur) = match r.end_ns {
            Some(end) if end > r.start_ns => (FlowEnd::Delivered, end - r.start_ns),
            Some(_) => continue,
            None if r.abandoned => (FlowEnd::Abandoned, 0),
            None => (FlowEnd::Unrouted, 0),
        };
        rows.push(FlowRow {
            flow: i as u32,
            src: f.src as u32,
            dst: f.dst as u32,
            retries: r.retries,
            bytes: f.bytes,
            start: r.start_ns,
            dur,
            end,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{LinkId, LinkSpec};
    use crate::{FatTreeFabric, HfastFabric, TorusFabric};
    use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
    use hfast_par::{forall, Rng64};
    use hfast_topology::CommGraph;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Two nodes joined by one link each way.
    struct Wire;

    impl Fabric for Wire {
        fn name(&self) -> &str {
            "wire"
        }
        fn nodes(&self) -> usize {
            2
        }
        fn link_count(&self) -> usize {
            2
        }
        fn link(&self, _id: LinkId) -> LinkSpec {
            LinkSpec {
                latency_ns: 100,
                bandwidth: 1.0,
            }
        }
        fn path(&self, src: usize, dst: usize) -> Option<Vec<LinkId>> {
            if src == dst {
                Some(vec![])
            } else {
                Some(vec![src])
            }
        }
        fn incident_links(&self, node: usize) -> Vec<LinkId> {
            vec![node]
        }
    }

    /// [`Wire`] with repatchable circuits that outlive their endpoints: a
    /// node fault takes no link down, so only the endpoint test sees it.
    struct LooseWire;

    impl Fabric for LooseWire {
        fn name(&self) -> &str {
            "loose-wire"
        }
        fn nodes(&self) -> usize {
            2
        }
        fn link_count(&self) -> usize {
            2
        }
        fn link(&self, id: LinkId) -> LinkSpec {
            Wire.link(id)
        }
        fn path(&self, src: usize, dst: usize) -> Option<Vec<LinkId>> {
            Wire.path(src, dst)
        }
        fn reprovisionable(&self, _: LinkId) -> bool {
            true
        }
        fn supports_reprovision(&self) -> bool {
            true
        }
    }

    fn flow(src: usize, dst: usize, bytes: u64, start: u64) -> Flow {
        Flow {
            src,
            dst,
            bytes,
            start_ns: start,
        }
    }

    fn detailed(fabric: &dyn Fabric, flows: &[Flow]) -> (RunStats, Vec<FlowRecord>) {
        let out = Simulation::new(fabric).detailed().run(flows);
        let records = out.records.expect("detailed run");
        (out.stats, records)
    }

    #[test]
    fn single_flow_latency_is_serialization_plus_latency() {
        let (stats, records) = detailed(&Wire, &[flow(0, 1, 1000, 0)]);
        assert_eq!(records[0].end_ns, Some(1100));
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.max_latency_ns, 1100);
    }

    #[test]
    fn fifo_contention_serializes() {
        // Two flows on the same link: the second waits for the first's
        // serialization (not its latency).
        let flows = [flow(0, 1, 1000, 0), flow(0, 1, 1000, 0)];
        let (_, records) = detailed(&Wire, &flows);
        assert_eq!(records[0].end_ns, Some(1100));
        assert_eq!(records[1].end_ns, Some(2100));
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let flows = [flow(0, 1, 1000, 0), flow(1, 0, 1000, 0)];
        let (_, records) = detailed(&Wire, &flows);
        assert_eq!(records[0].end_ns, Some(1100));
        assert_eq!(records[1].end_ns, Some(1100));
    }

    #[test]
    fn self_flow_completes_instantly() {
        let (stats, records) = detailed(&Wire, &[flow(1, 1, 500, 42)]);
        assert_eq!(records[0].end_ns, Some(42));
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn start_times_are_respected() {
        let flows = [flow(0, 1, 1000, 0), flow(0, 1, 1000, 5000)];
        let (_, records) = detailed(&Wire, &flows);
        assert_eq!(records[1].end_ns, Some(6100), "no queueing after a gap");
    }

    #[test]
    fn deterministic_across_runs() {
        let flows: Vec<Flow> = (0..50)
            .map(|i| flow(i % 2, (i + 1) % 2, 100 + i as u64, i as u64 * 3))
            .collect();
        let a = Simulation::new(&Wire).run(&flows);
        let b = Simulation::new(&Wire).run(&flows);
        assert_eq!(a, b);
        assert!(a.records.is_none(), "no records unless detailed()");
    }

    #[test]
    fn thread_counts_are_byte_identical() {
        let flows: Vec<Flow> = (0..200)
            .map(|i| flow(i % 2, (i + 1) % 2, 64 + i as u64, (i as u64 % 5) * 40))
            .collect();
        let seq = Simulation::new(&Wire)
            .detailed()
            .with_threads(1)
            .run(&flows);
        for threads in [2, 8] {
            let par = Simulation::new(&Wire)
                .detailed()
                .with_threads(threads)
                .run(&flows);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn cache_deduplicates_repeated_pairs() {
        let flows: Vec<Flow> = (0..40)
            .map(|i| flow(i % 2, (i + 1) % 2, 64, i as u64))
            .collect();
        let mut cache = PathCache::new();
        let cached = Simulation::new(&Wire)
            .with_cache(&mut cache)
            .detailed()
            .run(&flows);
        assert_eq!(cache.len(), 2, "only two distinct pairs");
        let fresh = Simulation::new(&Wire).detailed().run(&flows);
        assert_eq!(cached, fresh);
    }

    #[test]
    fn cache_reuse_across_runs_is_identical() {
        let flows_a: Vec<Flow> = (0..10).map(|i| flow(0, 1, 100 + i, i)).collect();
        let flows_b: Vec<Flow> = (0..10).map(|i| flow(1, 0, 50 + i, i * 7)).collect();
        let mut cache = PathCache::new();
        let warm_a = Simulation::new(&Wire).with_cache(&mut cache).run(&flows_a);
        let warm_b = Simulation::new(&Wire).with_cache(&mut cache).run(&flows_b);
        assert_eq!(warm_a, Simulation::new(&Wire).run(&flows_a));
        assert_eq!(warm_b, Simulation::new(&Wire).run(&flows_b));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn obs_counts_cache_and_events() {
        let obs = EngineObs::new();
        let flows: Vec<Flow> = (0..10).map(|i| flow(0, 1, 64, i)).collect();
        let out = Simulation::new(&Wire).with_obs(&obs).run(&flows);
        assert_eq!(obs.runs.get(), 1);
        assert_eq!(obs.flows.get(), 10);
        assert_eq!(obs.cache_misses.get(), 1, "one distinct pair");
        assert_eq!(obs.cache_hits.get(), 9);
        assert_eq!(obs.events.get(), 10, "one hop per flow");
        assert_eq!(obs.unrouted.get(), 0);
        assert_eq!(obs.flow_bytes.count(), 10);
        // Nine flows queued behind the first; waits are multiples of the
        // 64-byte serialization time.
        assert_eq!(obs.queue_wait_ns.count(), 10);
        assert_eq!(obs.queue_occupancy.count(), 10, "one sample per event");
        assert!(obs.events_per_sec.get() > 0, "throughput gauge set");
        assert_eq!(out.stats.completed, 10);
    }

    /// A small fabric of each family, HFAST provisioned for a random
    /// graph, or one of the two-node wires, whose routes to a node need
    /// not cross the links that die with it.
    fn small_fabric(rng: &mut Rng64) -> Box<dyn Fabric> {
        match rng.range(0, 5) {
            0 => Box::new(Wire),
            1 => Box::new(LooseWire),
            2 => Box::new(TorusFabric::new((3, 3, 2)).expect("valid shape")),
            3 => Box::new(FatTreeFabric::new(16, 4).expect("valid shape")),
            _ => {
                let mut g = CommGraph::new(12);
                for _ in 0..rng.range(4, 30) {
                    let (a, b) = (rng.range(0, 12), rng.range(0, 12));
                    if a != b {
                        g.add_message(a, b, rng.range_u64(2048, 1 << 20));
                    }
                }
                let prov = PaperLinear.provision(&g, ProvisionConfig::default());
                Box::new(HfastFabric::new(prov))
            }
        }
    }

    fn random_flows(rng: &mut Rng64, nodes: usize) -> Vec<Flow> {
        (0..rng.range(1, 80))
            .map(|_| {
                let start = rng.range_u64(0, 400_000);
                flow(
                    rng.range(0, nodes),
                    rng.range(0, nodes),
                    rng.range_u64(1, 1 << 16),
                    start,
                )
            })
            .collect()
    }

    /// `Driver::evict` checks the index against the full scan it replaced
    /// after every failure of a test build: the evicted count and the
    /// whole slot-state table must agree. This drives that check over
    /// random fabrics, link and node faults with and without recovery,
    /// both link models, HFAST repatching and warm snapshots whose slots
    /// the run never touches. `Driver::coverage` checks the
    /// `path_avoiding` contract it relies on at every sync point of the
    /// same runs.
    #[test]
    fn index_eviction_matches_the_full_scan() {
        let evictions = AtomicU64::new(0);
        forall("index_eviction_matches_the_full_scan", 96, |rng| {
            let fabric = small_fabric(rng);
            let fabric = fabric.as_ref();
            let nodes = fabric.nodes();
            let flows = random_flows(rng, nodes);
            let mut plan = FaultPlan::builder();
            for _ in 0..rng.range(1, 8) {
                let (at, link) = (rng.range_u64(0, 400_000), rng.range(0, fabric.link_count()));
                plan = plan.fail_link(at, link);
                if rng.range(0, 2) == 0 {
                    plan = plan.recover_link(at + rng.range_u64(1, 200_000), link);
                }
            }
            if rng.range(0, 2) == 0 {
                let (at, node) = (rng.range_u64(0, 400_000), rng.range(0, nodes));
                plan = plan
                    .fail_node(at, node)
                    .recover_node(at + rng.range_u64(1, 300_000), node);
            }
            let plan = plan.build(fabric).expect("ids come from the fabric");
            let mut warm = PathCache::new();
            Simulation::new(fabric)
                .with_cache(&mut warm)
                .run(&random_flows(rng, nodes));
            let obs = EngineObs::new();
            let retry = RetryPolicy {
                max_attempts: 3,
                base_backoff_ns: 10_000,
                max_backoff_ns: 50_000,
            };
            let mut sim = Simulation::new(fabric)
                .with_faults(&plan)
                .with_retry(retry)
                .with_obs(&obs);
            if rng.range(0, 2) == 0 {
                sim = sim.with_snapshot(&warm);
            }
            if rng.range(0, 2) == 0 {
                sim = sim.with_reprovision(50_000);
            }
            if rng.range(0, 2) == 0 {
                sim = sim.with_congestion(CreditConfig::credit(rng.range(1, 3) as u32));
            }
            sim.run(&flows);
            evictions.fetch_add(obs.cache_evictions.get(), Ordering::Relaxed);
        });
        assert!(evictions.into_inner() > 0, "the cases evicted something");
    }

    #[test]
    fn radix_seed_sort_equals_the_comparison_sort() {
        forall("radix_seed_sort_equals_the_comparison_sort", 128, |rng| {
            // Key widths from one shared value to every byte in play.
            let mask = [0, 0xff, 0xf_ffff, u64::MAX][rng.range(0, 4)];
            let mut seeds: Vec<(u64, u32, u32)> = (0..rng.range(0, 300))
                .map(|flow| (rng.next_u64() & mask, flow as u32, rng.next_u64() as u32))
                .collect();
            let mut expected = seeds.clone();
            expected.sort_unstable_by_key(|&(t, flow, _)| (t, flow));
            sort_by_start(&mut seeds);
            assert_eq!(seeds, expected);
        });
    }

    #[test]
    fn transient_failure_is_retried_and_delivered() {
        // Link 0 dies before the flow starts and recovers at t = 10 µs;
        // the default policy retries into the recovery window.
        let plan = FaultPlan::builder()
            .fail_link(0, 0)
            .recover_link(10_000, 0)
            .build(&Wire)
            .unwrap();
        let out = Simulation::new(&Wire)
            .with_faults(&plan)
            .detailed()
            .run(&[flow(0, 1, 1000, 5)]);
        let rec = out.records()[0];
        assert!(rec.retries >= 1, "at least one re-admission");
        assert!(!rec.abandoned);
        let end = rec.end_ns.expect("delivered after recovery");
        assert!(end >= 10_000 + 1100, "delivery after the link came back");
        assert_eq!(out.stats.completed, 1);
        assert_eq!(out.stats.total_retries, u64::from(rec.retries));
    }

    #[test]
    fn permanent_failure_abandons_after_budget() {
        let plan = FaultPlan::builder().fail_link(0, 0).build(&Wire).unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ns: 100,
            max_backoff_ns: 1_000,
        };
        let out = Simulation::new(&Wire)
            .with_faults(&plan)
            .with_retry(policy)
            .detailed()
            .run(&[flow(0, 1, 1000, 5), flow(1, 0, 1000, 5)]);
        let dead = out.records()[0];
        assert!(dead.abandoned);
        assert_eq!(dead.end_ns, None);
        assert_eq!(dead.retries, 2, "attempts 2 and 3 were retries");
        let alive = out.records()[1];
        assert_eq!(alive.end_ns, Some(1105), "reverse direction unaffected");
        assert_eq!(out.stats.completed, 1);
        assert_eq!(out.stats.unrouted, 1);
        assert_eq!(out.stats.abandoned, 1);
    }

    #[test]
    fn node_failure_kills_incident_traffic() {
        let plan = FaultPlan::builder().fail_node(0, 0).build(&Wire).unwrap();
        let out = Simulation::new(&Wire)
            .with_faults(&plan)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff_ns: 10,
                max_backoff_ns: 10,
            })
            .detailed()
            .run(&[flow(0, 1, 100, 0), flow(1, 0, 100, 0)]);
        // Node 0 is down: it can neither send (0→1) nor receive (1→0).
        assert!(out.records()[0].abandoned);
        assert!(out.records()[1].abandoned, "a dead node cannot receive");
    }

    #[test]
    fn failed_link_blocks_new_admissions() {
        // The first flow claims the link at t = 0, before the failure at
        // t = 50, and sails through. The second admits at t = 60, finds
        // the link down, and retries into the recovery window.
        let obs = EngineObs::new();
        let plan = FaultPlan::builder()
            .fail_link(50, 0)
            .recover_link(5_000, 0)
            .build(&Wire)
            .unwrap();
        let out = Simulation::new(&Wire)
            .with_faults(&plan)
            .with_obs(&obs)
            .detailed()
            .run(&[flow(0, 1, 1000, 0), flow(0, 1, 1000, 60)]);
        assert_eq!(out.records()[0].end_ns, Some(1100), "first flow launched");
        let second = out.records()[1];
        assert!(second.retries >= 1);
        assert!(second.end_ns.unwrap() > 5_000);
        assert_eq!(obs.retries.get(), u64::from(second.retries));
        assert!(obs.faults.get() == 1 && obs.recoveries.get() == 1);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let flows: Vec<Flow> = (0..30)
            .map(|i| flow(i % 2, (i + 1) % 2, 256 + i as u64, i as u64 * 11))
            .collect();
        let plain = Simulation::new(&Wire).detailed().run(&flows);
        let empty = FaultPlan::default();
        let with_plan = Simulation::new(&Wire)
            .with_faults(&empty)
            .detailed()
            .run(&flows);
        assert_eq!(plain, with_plan);
        assert!(with_plan.reprovisions.is_empty());
    }
}
