//! Topological degree of communication (TDC).
//!
//! The paper's central reduced metric (§1, §4.4): the number of distinct
//! communication partners of each task. Applications whose average TDC is
//! far below P underutilize a fully connected network; the thresholded TDC
//! (disregarding messages below the bandwidth-delay product) determines how
//! many packet-switch ports HFAST must provision per node.

use crate::csr::CsrGraph;
use crate::graph::CommGraph;

/// The cutoff sweep used on the x-axis of the paper's Figures 5-10:
/// 0, 128, 256, 512, 1 KB, … 1 MB.
pub const PAPER_CUTOFFS: [u64; 15] = [
    0,
    128,
    256,
    512,
    1 << 10,
    2 << 10,
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
    1024 << 10,
];

/// The paper's chosen bandwidth-delay-product threshold: 2 KB (§2.4,
/// Table 1 — "the best bandwidth-delay products hover close to 2 KB").
pub const BDP_CUTOFF: u64 = 2048;

/// Reduced degree statistics over all tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdcSummary {
    /// Maximum degree over tasks.
    pub max: usize,
    /// Minimum degree over tasks.
    pub min: usize,
    /// Mean degree.
    pub avg: f64,
    /// Median degree.
    pub median: usize,
}

impl TdcSummary {
    /// Builds a summary from per-task degrees.
    pub(crate) fn from_degrees(mut degrees: Vec<usize>) -> Self {
        assert!(!degrees.is_empty(), "summary of an empty degree list");
        degrees.sort_unstable();
        let n = degrees.len();
        TdcSummary {
            max: degrees[n - 1],
            min: degrees[0],
            avg: degrees.iter().sum::<usize>() as f64 / n as f64,
            median: degrees[n / 2],
        }
    }
}

impl std::fmt::Display for TdcSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "max {} avg {:.1}", self.max, self.avg)
    }
}

/// Per-task thresholded degrees.
pub(crate) fn degrees(graph: &CommGraph, cutoff: u64) -> Vec<usize> {
    (0..graph.n())
        .map(|v| graph.degree_thresholded(v, cutoff))
        .collect()
}

/// TDC summary at a message-size cutoff (`cutoff == 0` for unthresholded).
pub fn tdc(graph: &CommGraph, cutoff: u64) -> TdcSummary {
    TdcSummary::from_degrees(degrees(graph, cutoff))
}

/// The shared sweep kernel: `collect_sizes(v, buf)` fills `buf` with vertex
/// `v`'s incident max-message sizes; the kernel sorts each vertex's sizes
/// once and derives every cutoff's degree from that ordering.
fn sweep_kernel(
    n: usize,
    cutoffs: &[u64],
    mut collect_sizes: impl FnMut(usize, &mut Vec<u64>),
) -> Vec<Vec<usize>> {
    let c = cutoffs.len();
    // Sort cutoffs ascending once, remembering each one's original slot.
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by_key(|&i| cutoffs[i]);
    let mut degs = vec![vec![0usize; n]; c];
    let mut sizes: Vec<u64> = Vec::new();
    // The matrix is cutoff-major but filled vertex-by-vertex (each vertex's
    // sorted sizes feed every cutoff row), so indexed access is the shape.
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        sizes.clear();
        collect_sizes(v, &mut sizes);
        sizes.sort_unstable();
        let d = sizes.len();
        // Ascending cutoffs: advance one pointer past the edges each new
        // cutoff disqualifies. Degree at cutoff = edges with size >= cutoff.
        let mut below = 0usize;
        for &slot in &order {
            let cut = cutoffs[slot];
            while below < d && sizes[below] < cut {
                below += 1;
            }
            degs[slot][v] = d - below;
        }
    }
    degs
}

/// Per-task degrees at every cutoff, in one pass over the adjacency.
///
/// Returns a `cutoffs.len() × n` matrix (`result[c][v]` = thresholded degree
/// of task `v` at `cutoffs[c]`). Each vertex's incident edge sizes are
/// sorted once; the degrees at all cutoffs then fall out of a single merge
/// against the sorted cutoff list — `O(E log d + E + n·C)` total versus the
/// `O(C·E)` of one [`tdc`] rescan per cutoff (`C` cutoffs, max degree `d`).
pub(crate) fn degrees_sweep(csr: &CsrGraph, cutoffs: &[u64]) -> Vec<Vec<usize>> {
    sweep_kernel(csr.n(), cutoffs, |v, buf| {
        buf.extend(csr.neighbors_with_stats(v).map(|(_, e)| e.max_msg));
    })
}

/// TDC summaries over a cutoff sweep — the data behind the (b) panels of
/// Figures 5-10.
///
/// Single-pass: sorts each vertex's incident message sizes once and derives
/// every cutoff's degrees from that ordering (see `degrees_sweep`),
/// reading the graph's rows directly — no CSR snapshot is materialized for
/// a one-shot sweep. Produces values identical to calling [`tdc`] per
/// cutoff.
pub fn tdc_sweep(graph: &CommGraph, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
    let degs = sweep_kernel(graph.n(), cutoffs, |v, buf| {
        buf.extend(graph.neighbors(v).map(|(_, e)| e.max_msg));
    });
    summarize(degs, cutoffs)
}

/// [`tdc_sweep`] over a prebuilt CSR snapshot (cutoff-0 view), for callers
/// that already hold one.
pub fn tdc_sweep_csr(csr: &CsrGraph, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
    summarize(degrees_sweep(csr, cutoffs), cutoffs)
}

fn summarize(degs: Vec<Vec<usize>>, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
    degs.into_iter()
        .zip(cutoffs)
        .map(|(d, &c)| (c, TdcSummary::from_degrees(d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the sweep must match: one [`tdc`] rescan per cutoff.
    fn tdc_sweep_naive(graph: &CommGraph, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
        cutoffs.iter().map(|&c| (c, tdc(graph, c))).collect()
    }

    fn star(n: usize, msg: u64) -> CommGraph {
        let mut g = CommGraph::new(n);
        for i in 1..n {
            g.add_message(0, i, msg);
        }
        g
    }

    #[test]
    fn star_tdc() {
        let g = star(9, 4096);
        let s = tdc(&g, 0);
        assert_eq!(s.max, 8);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 1);
        assert!((s.avg - 16.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_reduces_tdc() {
        let mut g = star(5, 100); // all small messages
        g.add_message(0, 1, 8192); // one big edge
        let uncut = tdc(&g, 0);
        let cut = tdc(&g, BDP_CUTOFF);
        assert_eq!(uncut.max, 4);
        assert_eq!(cut.max, 1);
        assert_eq!(cut.min, 0);
    }

    #[test]
    fn sweep_is_monotone_nonincreasing() {
        let mut g = CommGraph::new(8);
        // Edges with geometrically growing max sizes.
        for i in 1..8usize {
            g.add_message(0, i, 64u64 << i);
        }
        let sweep = tdc_sweep(&g, &PAPER_CUTOFFS);
        for w in sweep.windows(2) {
            assert!(
                w[1].1.max <= w[0].1.max && w[1].1.avg <= w[0].1.avg,
                "TDC must not increase with cutoff"
            );
        }
        // Degrees shrink as the cutoff climbs past each edge size.
        assert_eq!(sweep[0].1.max, 7);
        assert_eq!(sweep.last().unwrap().1.max, 0);
    }

    #[test]
    fn paper_cutoffs_match_figure_axis() {
        assert_eq!(PAPER_CUTOFFS[0], 0);
        assert_eq!(PAPER_CUTOFFS[5], 2048);
        assert_eq!(*PAPER_CUTOFFS.last().unwrap(), 1024 * 1024);
        assert!(PAPER_CUTOFFS.windows(2).all(|w| w[0] < w[1]));
        assert!(PAPER_CUTOFFS.contains(&BDP_CUTOFF));
    }

    #[test]
    fn sweep_matches_naive_per_cutoff() {
        // Mixed sizes including exact cutoff hits, zero-size edges, a
        // self-edge, and isolated vertices.
        let mut g = CommGraph::new(12);
        g.add_message(0, 1, 2048);
        g.add_message(0, 2, 2047);
        g.add_message(1, 2, 1 << 20);
        g.add_message(3, 4, 0);
        g.add_message(5, 5, 4096); // self-traffic: excluded from degrees
        g.add_message(6, 7, 128);
        g.add_message(6, 8, 512);
        g.add_message(6, 9, 64 << 10);
        let fast = tdc_sweep(&g, &PAPER_CUTOFFS);
        let naive = tdc_sweep_naive(&g, &PAPER_CUTOFFS);
        assert_eq!(fast, naive);
    }

    #[test]
    fn sweep_handles_unsorted_and_duplicate_cutoffs() {
        let mut g = CommGraph::new(6);
        g.add_message(0, 1, 1000);
        g.add_message(0, 2, 3000);
        g.add_message(1, 3, 500);
        let cutoffs = [4096u64, 0, 2048, 2048, 1];
        assert_eq!(tdc_sweep(&g, &cutoffs), tdc_sweep_naive(&g, &cutoffs));
    }

    #[test]
    fn degrees_sweep_matrix_shape() {
        let g = star(5, 4096);
        let csr = CsrGraph::from_graph(&g, 0);
        let m = degrees_sweep(&csr, &PAPER_CUTOFFS);
        assert_eq!(m.len(), PAPER_CUTOFFS.len());
        assert!(m.iter().all(|row| row.len() == 5));
        assert_eq!(m[0][0], 4, "hub degree at cutoff 0");
    }

    #[test]
    fn summary_from_degrees() {
        let s = TdcSummary::from_degrees(vec![3, 1, 4, 1, 5]);
        assert_eq!(s.max, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 3);
        assert!((s.avg - 2.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty degree list")]
    fn empty_summary_panics() {
        TdcSummary::from_degrees(vec![]);
    }
}
