//! Engine observability: event counts, path-cache hit/miss, and per-link
//! busy-time timelines.
//!
//! An [`EngineObs`] can be attached to a [`Simulation`](crate::Simulation)
//! explicitly (`.with_obs(&obs)`), or implicitly: when `HFAST_OBS` is on
//! (see [`hfast_obs::enabled`]) every run without an explicit sink records
//! into the process-wide [`global`] instance. Timeline events are stamped
//! with *simulated* time, so an enabled timeline is bit-identical across
//! thread counts and runs — the determinism the benches assert.

use hfast_obs::hist::{bucket_index, BUCKETS};
use hfast_obs::{Counter, Gauge, Histogram, JsonObj, ToJsonl, TraceEvent, Tracer, Val};
use hfast_trace::HopRow;

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

/// Counters, histograms, and the link-occupancy timeline for simulator
/// runs.
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
    /// a run completes). An instrumented event is the plain event plus a
    /// 32-byte row store and two array increments — the timeline, the
    /// histograms and the recorder are written per run, not per event — so
    /// this reads some 20–30 % under the uninstrumented throughput benched
    /// via [`LoopPerf`](crate::engine::LoopPerf), not several times under.
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
    /// Per-link busy intervals in simulated time: one `link_busy` event
    /// per link occupancy, `t_ns` = occupancy start, `dur_ns` =
    /// serialization time, field `link` = link id. Fault runs add
    /// `link_fail` / `link_recover` / `node_fail` / `node_recover` /
    /// `reprovision` events on the same simulated-time axis. A run
    /// appends its occupancies in batches — before each fault event and
    /// when it ends — which leaves the ring, and its eviction count,
    /// exactly as one push per occupancy would.
    pub timeline: Tracer,
}

impl EngineObs {
    /// A fresh instance with the default timeline capacity.
    pub fn new() -> Self {
        EngineObs::default()
    }

    /// A fresh instance retaining at most `capacity` timeline events.
    pub fn with_timeline_capacity(capacity: usize) -> Self {
        EngineObs {
            timeline: Tracer::new(capacity),
            ..EngineObs::default()
        }
    }

    /// Appends `skipped + rows.len()` link occupancies to the
    /// simulated-time timeline under one lock: `rows` are the last of
    /// them, and the `skipped` before went unkept because the ring could
    /// not have retained them (so `skipped > 0` implies `rows` alone fill
    /// it). Only the events the ring keeps are built.
    pub(crate) fn link_busy_rows(&self, skipped: u64, rows: &[HopRow]) {
        self.timeline
            .record_batch(skipped + rows.len() as u64, |i| {
                let r = &rows[(i - skipped) as usize];
                TraceEvent {
                    t_ns: r.start,
                    dur_ns: r.ser,
                    name: "link_busy",
                    fields: vec![("link", Val::U(u64::from(r.link)))],
                }
            });
    }

    /// Records one fault-plan or re-provisioning event on the simulated
    /// timeline (`kind` is e.g. `"link_fail"`, `id` the link or node).
    #[inline]
    pub(crate) fn fault_event(&self, t_ns: u64, kind: &'static str, id: usize) {
        self.timeline
            .record_at(t_ns, 0, kind, vec![("id", Val::U(id as u64))]);
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

    /// One-line JSON summary of the counters and histograms.
    pub fn summary_jsonl(&self) -> String {
        JsonObj::new()
            .str("event", "netsim_summary")
            .u64("runs", self.runs.get())
            .u64("flows", self.flows.get())
            .u64("events", self.events.get())
            .u64("unrouted", self.unrouted.get())
            .u64("cache_hits", self.cache_hits.get())
            .u64("cache_misses", self.cache_misses.get())
            .u64("faults", self.faults.get())
            .u64("recoveries", self.recoveries.get())
            .u64("flow_kills", self.flow_kills.get())
            .u64("retries", self.retries.get())
            .u64("abandoned_flows", self.abandoned_flows.get())
            .u64("reprovisions", self.reprovisions.get())
            .u64("repatched_links", self.repatched_links.get())
            .u64("cache_evictions", self.cache_evictions.get())
            .u64("reroute_p50_ns", self.reroute_latency_ns.quantile(0.5))
            .u64("reroute_p95_ns", self.reroute_latency_ns.quantile(0.95))
            .u64("reroute_p99_ns", self.reroute_latency_ns.quantile(0.99))
            .u64("heap_peak", self.heap_peak.get())
            .u64("queue_wait_p50_ns", self.queue_wait_ns.quantile(0.5))
            .u64("queue_wait_p95_ns", self.queue_wait_ns.quantile(0.95))
            .u64("queue_wait_p99_ns", self.queue_wait_ns.quantile(0.99))
            .u64("flow_bytes_p50", self.flow_bytes.quantile(0.5))
            .u64("flow_bytes_p95", self.flow_bytes.quantile(0.95))
            .u64("flow_bytes_p99", self.flow_bytes.quantile(0.99))
            .u64("timeline_events", self.timeline.len() as u64)
            .u64("timeline_dropped", self.timeline.dropped())
            .u64("events_per_sec", self.events_per_sec.get())
            .u64("queue_occupancy_p50", self.queue_occupancy.quantile(0.5))
            .u64("queue_occupancy_p99", self.queue_occupancy.quantile(0.99))
            .finish()
    }

    /// Exports the summary plus the retained timeline to the `HFAST_OBS`
    /// sink.
    pub fn export(&self) {
        let mut lines = vec![self.summary_jsonl()];
        lines.extend(self.timeline.jsonl_lines());
        hfast_obs::emit_lines(lines);
    }
}

impl ToJsonl for EngineObs {
    fn to_jsonl(&self) -> String {
        self.summary_jsonl()
    }
}

/// The process-wide instance used when `HFAST_OBS` is on and no explicit
/// [`EngineObs`] was attached to the run.
pub fn global() -> &'static EngineObs {
    static GLOBAL: std::sync::OnceLock<EngineObs> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(EngineObs::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_shape() {
        let obs = EngineObs::new();
        obs.runs.inc();
        obs.flow_bytes.record(4096);
        let line = obs.summary_jsonl();
        assert!(line.starts_with(r#"{"event":"netsim_summary","runs":1"#));
        let p50 = obs.flow_bytes.quantile(0.5);
        assert!((4096..=8191).contains(&p50), "interpolated within bucket");
        assert!(line.contains(&format!(r#""flow_bytes_p50":{p50}"#)));
        assert!(line.contains(r#""queue_wait_p99_ns":0"#));
    }

    #[test]
    fn timeline_is_sim_time_stamped() {
        let obs = EngineObs::with_timeline_capacity(2);
        let row = |link, start| HopRow {
            link,
            flow: 0,
            wait: 0,
            start,
            ser: 50,
        };
        obs.link_busy_rows(0, &[row(3, 100)]);
        let evs = obs.timeline.snapshot();
        assert_eq!(evs[0].t_ns, 100);
        assert_eq!(evs[0].dur_ns, 50);
        assert_eq!(evs[0].fields, vec![("link", Val::U(3))]);
    }
}
