//! Aggregate simulation statistics.

use crate::engine::FlowRecord;
use crate::traffic::Flow;

/// Summary of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Flows delivered.
    pub completed: usize,
    /// Flows with no route in the fabric, plus flows abandoned after
    /// exhausting their retry budget under faults.
    pub unrouted: usize,
    /// Flows abandoned by the retry policy (a subset of `unrouted`).
    pub abandoned: usize,
    /// Retry re-admissions across all flows (0 for fault-free runs).
    pub total_retries: u64,
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Time of the last delivery.
    pub makespan_ns: u64,
    /// Median flow latency.
    pub p50_latency_ns: u64,
    /// 95th-percentile flow latency.
    pub p95_latency_ns: u64,
    /// Worst flow latency.
    pub max_latency_ns: u64,
    /// Mean hops per delivered flow.
    pub avg_hops: f64,
    /// Busiest link's busy fraction of the makespan.
    pub max_link_utilization: f64,
    /// Aggregate delivered throughput in bytes/ns.
    pub throughput: f64,
}

impl RunStats {
    pub(crate) fn from_records(
        flows: &[Flow],
        records: &[FlowRecord],
        link_busy_ns: &[u64],
    ) -> RunStats {
        let mut latencies: Vec<u64> = Vec::with_capacity(records.len());
        let mut delivered_bytes = 0u64;
        let mut makespan = 0u64;
        let mut unrouted = 0usize;
        let mut abandoned = 0usize;
        let mut total_retries = 0u64;
        let mut hop_sum = 0usize;
        for r in records {
            total_retries += u64::from(r.retries);
            match r.end_ns {
                Some(end) => {
                    latencies.push(end - r.start_ns);
                    delivered_bytes = delivered_bytes.saturating_add(flows[r.flow].bytes);
                    makespan = makespan.max(end);
                    hop_sum += r.hops;
                }
                None => {
                    unrouted += 1;
                    abandoned += usize::from(r.abandoned);
                }
            }
        }
        latencies.sort_unstable();
        let pick = |p: f64| -> u64 {
            if latencies.is_empty() {
                0
            } else {
                let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
                latencies[idx]
            }
        };
        let completed = latencies.len();
        let max_busy = link_busy_ns.iter().copied().max().unwrap_or(0);
        RunStats {
            completed,
            unrouted,
            abandoned,
            total_retries,
            delivered_bytes,
            makespan_ns: makespan,
            p50_latency_ns: pick(0.5),
            p95_latency_ns: pick(0.95),
            max_latency_ns: latencies.last().copied().unwrap_or(0),
            avg_hops: if completed == 0 {
                0.0
            } else {
                hop_sum as f64 / completed as f64
            },
            max_link_utilization: if makespan == 0 {
                0.0
            } else {
                max_busy as f64 / makespan as f64
            },
            throughput: if makespan == 0 {
                0.0
            } else {
                delivered_bytes as f64 / makespan as f64
            },
        }
    }
}

impl hfast_obs::ToJsonl for RunStats {
    fn to_jsonl(&self) -> String {
        hfast_obs::JsonObj::new()
            .str("event", "run_stats")
            .usize("completed", self.completed)
            .usize("unrouted", self.unrouted)
            .usize("abandoned", self.abandoned)
            .u64("total_retries", self.total_retries)
            .u64("delivered_bytes", self.delivered_bytes)
            .u64("makespan_ns", self.makespan_ns)
            .u64("p50_latency_ns", self.p50_latency_ns)
            .u64("p95_latency_ns", self.p95_latency_ns)
            .u64("max_latency_ns", self.max_latency_ns)
            .f64_p("avg_hops", self.avg_hops, 3)
            .f64_p("max_link_utilization", self.max_link_utilization, 4)
            .f64_p("throughput", self.throughput, 4)
            .finish()
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} flows ({} unrouted), p50 {} ns, p95 {} ns, max {} ns, avg {:.1} hops, {:.3} B/ns",
            self.completed,
            self.unrouted,
            self.p50_latency_ns,
            self.p95_latency_ns,
            self.max_latency_ns,
            self.avg_hops,
            self.throughput
        )
    }
}
