//! Aggregate simulation statistics.

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
    /// The statistics of a run, read straight off the driver's per-flow
    /// columns: `ends` and `route` (arena span; its length is the hop
    /// count) per flow, `retries` and `abandoned` per flow or empty when
    /// no flow can fail, and the busiest link's busy time.
    pub(crate) fn from_columns(
        flows: &[Flow],
        ends: &[Option<u64>],
        route: &[(u32, u32)],
        retries: &[u32],
        abandoned: &[bool],
        max_busy: u64,
    ) -> RunStats {
        let mut latencies: Vec<u64> = Vec::with_capacity(ends.len());
        let mut delivered_bytes = 0u64;
        let mut makespan = 0u64;
        let mut hop_sum = 0usize;
        for ((f, &end), &(_, hops)) in flows.iter().zip(ends).zip(route) {
            if let Some(end) = end {
                latencies.push(end - f.start_ns);
                delivered_bytes = delivered_bytes.saturating_add(f.bytes);
                makespan = makespan.max(end);
                hop_sum += hops as usize;
            }
        }
        let completed = latencies.len();
        let gave_up = abandoned.iter().zip(ends);
        let max_latency = latencies.iter().copied().max().unwrap_or(0);
        let (p50, p95) = p50_p95(&mut latencies);
        RunStats {
            completed,
            unrouted: ends.len() - completed,
            abandoned: gave_up.filter(|&(&a, end)| a && end.is_none()).count(),
            total_retries: retries.iter().map(|&r| u64::from(r)).sum(),
            delivered_bytes,
            makespan_ns: makespan,
            p50_latency_ns: p50,
            p95_latency_ns: p95,
            max_latency_ns: max_latency,
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

/// The median and 95th percentile of `values`, each the element at rank
/// `round((n - 1) · p)` of the ascending order, found by selection rather
/// than a full sort (`values` is left reordered); `(0, 0)` when empty.
fn p50_p95(values: &mut [u64]) -> (u64, u64) {
    if values.is_empty() {
        return (0, 0);
    }
    let rank = |p: f64| ((values.len() as f64 - 1.0) * p).round() as usize;
    let (r50, r95) = (rank(0.5), rank(0.95));
    let (below, &mut p95, _) = values.select_nth_unstable(r95);
    let p50 = if r50 == r95 {
        p95
    } else {
        *below.select_nth_unstable(r50).1
    };
    (p50, p95)
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

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_par::forall;

    /// The percentiles as a full sort reads them.
    fn sorted_p50_p95(values: &[u64]) -> (u64, u64) {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let pick = |p: f64| match sorted.len() {
            0 => 0,
            n => sorted[((n as f64 - 1.0) * p).round() as usize],
        };
        (pick(0.5), pick(0.95))
    }

    #[test]
    fn selection_equals_the_sort() {
        for fixed in [&[][..], &[7], &[4, 4, 4, 4, 4], &[9, 2], &[2, 9]] {
            assert_eq!(
                p50_p95(&mut fixed.to_vec()),
                sorted_p50_p95(fixed),
                "{fixed:?}"
            );
        }
        forall("selection_equals_the_sort", 256, |rng| {
            let len = rng.range(0, 64);
            // Narrow value ranges force ties; wide ones force none.
            let spread = [2, 16, 1 << 40][rng.range(0, 3)];
            let values: Vec<u64> = (0..len).map(|_| rng.next_u64() % spread).collect();
            assert_eq!(
                p50_p95(&mut values.clone()),
                sorted_p50_p95(&values),
                "{values:?}"
            );
        });
    }
}
