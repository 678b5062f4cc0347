//! Network-utilization metrics: FCN utilization and bisection traffic.

use crate::graph::CommGraph;
use crate::tdc::tdc;

/// Fraction of a fully connected network's per-node links an application
/// actually uses: average thresholded TDC divided by `P − 1`.
///
/// This is Table 3's "FCN Utilization (avg.)" column — e.g. Cactus at
/// P = 64 uses ~5/63 ≈ 9 % of the links an FCN provides, while PARATEC uses
/// 100 %.
pub fn fcn_utilization(graph: &CommGraph, cutoff: u64) -> f64 {
    let n = graph.n();
    if n <= 1 {
        return 0.0;
    }
    tdc(graph, cutoff).avg / (n - 1) as f64
}

/// Bytes crossing a bisection of the task set.
///
/// `in_upper(v)` assigns each task to a half; the function returns total
/// bytes on edges whose endpoints land in different halves.
pub(crate) fn bisection_bytes_for(graph: &CommGraph, in_upper: impl Fn(usize) -> bool) -> u64 {
    let n = graph.n();
    let mut total = 0;
    for a in 0..n {
        if in_upper(a) {
            continue;
        }
        for b in 0..n {
            if a != b && in_upper(b) {
                total += graph.edge(a, b).bytes;
            }
        }
    }
    total
}

/// Bisection traffic estimate: the minimum over natural cuts (index halves,
/// even/odd, low-bit blocks). True min-bisection is NP-hard; the natural
/// cuts bound it usefully for the regular decompositions scientific codes
/// use.
pub fn bisection_bytes(graph: &CommGraph) -> u64 {
    let n = graph.n();
    if n < 2 {
        return 0;
    }
    let half = n / 2;
    let cuts: [&dyn Fn(usize) -> bool; 3] =
        [&|v| v >= half, &|v| v % 2 == 1, &|v| (v / 2) % 2 == 1];
    cuts.iter()
        .map(|cut| bisection_bytes_for(graph, cut))
        .min()
        .expect("non-empty cut set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, ring_graph};

    #[test]
    fn fcn_utilization_complete_graph_is_one() {
        let g = complete_graph(16, 4096);
        assert!((fcn_utilization(&g, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fcn_utilization_ring_is_low() {
        let g = ring_graph(64, 4096);
        let u = fcn_utilization(&g, 0);
        assert!((u - 2.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn fcn_utilization_respects_cutoff() {
        let mut g = complete_graph(8, 100);
        g.add_message(0, 1, 1 << 20);
        let full = fcn_utilization(&g, 0);
        let cut = fcn_utilization(&g, 2048);
        assert!((full - 1.0).abs() < 1e-12);
        assert!(cut < 0.1, "only the single big edge survives: {cut}");
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(fcn_utilization(&CommGraph::new(1), 0), 0.0);
        assert_eq!(bisection_bytes(&CommGraph::new(1)), 0);
    }

    #[test]
    fn ring_bisection_is_two_edges() {
        let g = ring_graph(8, 1000);
        // Index-half cut severs exactly 2 ring edges of 1000 bytes each.
        assert_eq!(bisection_bytes(&g), 2000);
    }

    #[test]
    fn custom_cut() {
        let mut g = CommGraph::new(4);
        g.add_message(0, 1, 10);
        g.add_message(2, 3, 10);
        g.add_message(1, 2, 7);
        // Cut {0,1} | {2,3} only crosses the 1-2 edge, counted once.
        let cross = bisection_bytes_for(&g, |v| v >= 2);
        assert_eq!(cross, 7);
    }
}
