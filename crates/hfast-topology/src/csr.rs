//! Thresholded CSR freeze of a communication graph.
//!
//! [`CommGraph`] already stores sorted sparse rows, so reading it needs no
//! conversion. A [`CsrGraph`] is the immutable slice view for code that
//! re-reads the same *thresholded* adjacency many times (clique and anneal
//! clustering, the ICN embedding, a cutoff sweep): the cutoff filter is
//! paid once and neighbour lists come back as plain `&[usize]`.

use crate::graph::{CommGraph, EdgeStat};

/// Immutable CSR adjacency snapshot of a [`CommGraph`] at one cutoff.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<usize>,
    stats: Vec<EdgeStat>,
}

impl CsrGraph {
    /// Freezes the edges with `max_msg >= cutoff` (`cutoff == 0` keeps
    /// every active edge) in one filter-copy pass over the rows, keeping
    /// their ascending peer order.
    pub fn from_graph(graph: &CommGraph, cutoff: u64) -> Self {
        let n = graph.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut stats = Vec::new();
        offsets.push(0);
        for v in 0..n {
            for (u, e) in graph.neighbors_thresholded(v, cutoff) {
                targets.push(u);
                stats.push(*e);
            }
            offsets.push(targets.len());
        }
        CsrGraph {
            n,
            offsets,
            targets,
            stats,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Neighbour list of `v` with edge statistics.
    pub fn neighbors_with_stats(&self, v: usize) -> impl Iterator<Item = (usize, &EdgeStat)> {
        let range = self.offsets[v]..self.offsets[v + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.stats[range].iter())
    }

    /// Total directed adjacency entries (2× undirected edge count).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_row_adjacency() {
        let mut g = CommGraph::new(5);
        g.add_message(0, 1, 100);
        g.add_message(0, 3, 5000);
        g.add_message(2, 4, 3000);
        let csr = CsrGraph::from_graph(&g, 0);
        assert_eq!(csr.n(), 5);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.neighbors(3), &[0]);
        assert_eq!(csr.neighbors(1), &[0]);
        assert_eq!(csr.nnz(), 6);
    }

    #[test]
    fn cutoff_filters_edges() {
        let mut g = CommGraph::new(3);
        g.add_message(0, 1, 100);
        g.add_message(1, 2, 5000);
        let csr = CsrGraph::from_graph(&g, 2048);
        assert_eq!(csr.degree(0), 0);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.neighbors(1), &[2]);
    }

    #[test]
    fn stats_travel_with_edges() {
        let mut g = CommGraph::new(2);
        g.add_message(0, 1, 700);
        let csr = CsrGraph::from_graph(&g, 0);
        let (u, e) = csr.neighbors_with_stats(0).next().unwrap();
        assert_eq!(u, 1);
        assert_eq!(e.bytes, 700);
        assert_eq!(e.max_msg, 700);
    }
}
