//! Engine observability: counters, gauges and histograms for simulator
//! runs.
//!
//! An [`EngineObs`] records only what a run attaches it to
//! (`.with_obs(&obs)`). Everything in it is order-free, so what it reads
//! after a run is the same at every thread count. The per-event stream —
//! one `hop` span per link crossing, fault instants, `stall` and
//! `reprovision` spans — is the attached
//! [`TraceRecorder`](hfast_trace::TraceRecorder)'s.

use hfast_obs::hist::{bucket_index, BUCKETS};
use hfast_obs::{Counter, Gauge, Histogram};

/// A histogram's worth of observations counted in plain memory: what the
/// event loop records into per event, merged into the shared atomic
/// [`Histogram`] once per run.
pub(crate) struct HistBuf {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistBuf {
    fn default() -> Self {
        HistBuf {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistBuf {
    #[inline(always)]
    pub(crate) fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    pub(crate) fn merge_into(&self, hist: &Histogram) {
        hist.merge(&self.counts, self.sum);
    }
}

/// Counters, gauges and histograms for simulator runs.
#[derive(Debug, Clone, Default)]
pub struct EngineObs {
    /// Simulation runs observed.
    pub runs: Counter,
    /// Flows submitted across runs.
    pub flows: Counter,
    /// Scheduler events processed (one per flow-hop arrival).
    pub events: Counter,
    /// Flows that had no route.
    pub unrouted: Counter,
    /// Distinct (src, dst) pairs resolved from the path cache.
    pub cache_hits: Counter,
    /// Distinct (src, dst) pairs that had to be routed.
    pub cache_misses: Counter,
    /// High-water mark of live events in the calendar queue (the name
    /// predates the heap → calendar-queue rewrite and is kept stable for
    /// downstream summary consumers).
    pub heap_peak: Gauge,
    /// Event-loop throughput of the most recent instrumented run, in
    /// events per wall-clock second spent inside the loop proper (0 until
    /// a run completes). An instrumented event is the plain event plus two
    /// array increments and, with a recorder attached, a 32-byte row store
    /// — the histograms and the recorder are written per run, not per
    /// event — so this reads some 20–30 % under the uninstrumented
    /// throughput benched via [`LoopPerf`](crate::engine::LoopPerf), not
    /// several times under.
    pub events_per_sec: Gauge,
    /// Live events in the calendar queue, sampled once per processed
    /// event (merged in when the run ends).
    pub queue_occupancy: Histogram,
    /// Per-hop queueing delay (ns a header waited for a busy link; merged
    /// in when the run ends).
    pub queue_wait_ns: Histogram,
    /// Flow payload sizes.
    pub flow_bytes: Histogram,
    /// Fault-plan events applied (link and node failures).
    pub faults: Counter,
    /// Fault-plan recovery events applied.
    pub recoveries: Counter,
    /// In-flight flows killed by hitting a dead link.
    pub flow_kills: Counter,
    /// Re-admissions scheduled by the retry policy.
    pub retries: Counter,
    /// Flows abandoned after exhausting their retry budget.
    pub abandoned_flows: Counter,
    /// Mid-run circuit re-provisioning rounds (HFAST sync points).
    pub reprovisions: Counter,
    /// Failed circuits repaired across all re-provisioning rounds.
    pub repatched_links: Counter,
    /// Cached routes evicted by targeted fault invalidation.
    pub cache_evictions: Counter,
    /// Delivery delay attributable to faults: delivery time minus the
    /// flow's first kill, for flows that were killed and later delivered.
    pub reroute_latency_ns: Histogram,
}

impl EngineObs {
    /// A fresh instance.
    pub fn new() -> Self {
        EngineObs::default()
    }

    /// The same as [`EngineObs::new`]; `capacity` is ignored. Kept because
    /// `benchmark/src/workloads/replay.rs` calls it.
    pub fn with_timeline_capacity(_capacity: usize) -> Self {
        EngineObs::new()
    }

    /// Sets the throughput gauge from a run's [`LoopPerf`]. Wall-clock
    /// only feeds this gauge — never simulated results — so instrumented
    /// outputs stay bit-identical across machines.
    ///
    /// [`LoopPerf`]: crate::engine::LoopPerf
    #[inline]
    pub(crate) fn set_events_per_sec(&self, perf: &crate::engine::LoopPerf) {
        let eps = perf.events_per_sec();
        if eps > 0.0 {
            self.events_per_sec.set(eps as u64);
        }
    }
}
