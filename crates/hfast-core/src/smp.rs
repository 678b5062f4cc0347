//! SMP-node analysis — the paper's §5 deferred problem, implemented.
//!
//! "While most practical systems will likely use SMP nodes, the analysis
//! would need to consider bandwidth localization algorithms for assigning
//! processes to nodes in addition to the analysis of the interconnection
//! network requirements. … we focus exclusively on single-processor nodes
//! in this paper, and leave the analysis of SMP nodes for future work."
//!
//! This module supplies that missing piece: fold a per-rank communication
//! graph down to a per-node graph under a rank→node assignment (intra-node
//! traffic rides shared memory and leaves the interconnect entirely), score
//! assignments by the interconnect bytes they avoid, and search for good
//! assignments with a greedy pass plus local refinement.

use hfast_topology::CommGraph;

/// A rank→node placement for `ranks_per_node`-way SMP nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpAssignment {
    /// Node index per rank.
    pub node_of: Vec<usize>,
    /// Ranks per node (the SMP width).
    pub ranks_per_node: usize,
    /// Number of nodes.
    pub nodes: usize,
}

impl SmpAssignment {
    /// The natural blocked placement: ranks `0..w` on node 0, `w..2w` on
    /// node 1, … — what a batch scheduler does by default.
    pub fn blocked(ranks: usize, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node >= 1);
        let nodes = ranks.div_ceil(ranks_per_node);
        SmpAssignment {
            node_of: (0..ranks).map(|r| r / ranks_per_node).collect(),
            ranks_per_node,
            nodes,
        }
    }

    /// Round-robin placement: rank `r` on node `r mod nodes` — the
    /// pessimal choice for nearest-neighbour codes, kept as a baseline.
    pub fn round_robin(ranks: usize, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node >= 1);
        let nodes = ranks.div_ceil(ranks_per_node);
        SmpAssignment {
            node_of: (0..ranks).map(|r| r % nodes).collect(),
            ranks_per_node,
            nodes,
        }
    }

    /// Bytes that stay inside shared memory under this placement.
    pub(crate) fn localized_bytes(&self, graph: &CommGraph) -> u64 {
        graph
            .edges()
            .filter(|&(a, b, _)| self.node_of[a] == self.node_of[b])
            .map(|(_, _, e)| e.bytes)
            .sum()
    }

    /// Fraction of total traffic the placement keeps off the interconnect.
    pub fn locality(&self, graph: &CommGraph) -> f64 {
        let total = graph.total_bytes();
        if total == 0 {
            return 1.0;
        }
        self.localized_bytes(graph) as f64 / total as f64
    }

    /// The node-level communication graph: rank traffic folded onto nodes,
    /// intra-node edges dropped. This graph is what HFAST provisioning and
    /// TDC analysis operate on for an SMP machine.
    pub fn fold(&self, graph: &CommGraph) -> CommGraph {
        let cross = graph
            .edges()
            .map(|(a, b, e)| (self.node_of[a], self.node_of[b], *e))
            .filter(|(na, nb, _)| na != nb);
        CommGraph::from_directed(self.nodes, cross)
    }
}

/// Greedy bandwidth localization: grow each node's rank set around the
/// heaviest remaining edges (the "bandwidth localization algorithm" the
/// paper names), then improve with pairwise swap refinement.
pub fn localize(graph: &CommGraph, ranks_per_node: usize, swap_passes: usize) -> SmpAssignment {
    let ranks = graph.n();
    assert!(ranks_per_node >= 1);
    let nodes = ranks.div_ceil(ranks_per_node);

    // Greedy seeding: repeatedly start a node from the heaviest unassigned
    // rank and add the unassigned rank with the most bytes into the set.
    let mut node_of = vec![usize::MAX; ranks];
    let mut order: Vec<usize> = (0..ranks).collect();
    order
        .sort_by_key(|&v| std::cmp::Reverse(graph.neighbors(v).map(|(_, e)| e.bytes).sum::<u64>()));
    let mut node = 0usize;
    for &seed in &order {
        if node_of[seed] != usize::MAX {
            continue;
        }
        let mut members = vec![seed];
        node_of[seed] = node;
        while members.len() < ranks_per_node {
            let mut best: Option<(u64, usize)> = None;
            for &m in &members {
                for (u, e) in graph.neighbors(m) {
                    if node_of[u] == usize::MAX {
                        let gain = e.bytes;
                        if best.is_none_or(|(g, bu)| gain > g || (gain == g && u < bu)) {
                            best = Some((gain, u));
                        }
                    }
                }
            }
            let Some((_, pick)) = best else { break };
            node_of[pick] = node;
            members.push(pick);
        }
        node += 1;
        if node == nodes {
            break;
        }
    }
    // Any stragglers (disconnected ranks) fill remaining slots.
    let mut counts = vec![0usize; nodes];
    for &n in node_of.iter().filter(|&&n| n != usize::MAX) {
        counts[n] += 1;
    }
    for slot in node_of.iter_mut() {
        if *slot == usize::MAX {
            let target = (0..nodes)
                .find(|&n| counts[n] < ranks_per_node)
                .expect("capacity equals rank count");
            *slot = target;
            counts[target] += 1;
        }
    }

    let mut assignment = SmpAssignment {
        node_of,
        ranks_per_node,
        nodes,
    };

    // Pairwise swap refinement: accept any rank swap that localizes more
    // bytes. O(passes · ranks²) — fine at study sizes.
    for _ in 0..swap_passes {
        let mut improved = false;
        for a in 0..ranks {
            for b in (a + 1)..ranks {
                if assignment.node_of[a] == assignment.node_of[b] {
                    continue;
                }
                let before = cut_delta(graph, &assignment, a) + cut_delta(graph, &assignment, b);
                assignment.node_of.swap(a, b);
                let after = cut_delta(graph, &assignment, a) + cut_delta(graph, &assignment, b);
                if after < before {
                    improved = true;
                } else {
                    assignment.node_of.swap(a, b);
                }
            }
        }
        if !improved {
            break;
        }
    }
    assignment
}

/// Interconnect bytes rank `v` contributes under the assignment.
fn cut_delta(graph: &CommGraph, asg: &SmpAssignment, v: usize) -> u64 {
    graph
        .neighbors(v)
        .filter(|(u, _)| asg.node_of[*u] != asg.node_of[v])
        .map(|(_, e)| e.bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::{mesh3d_graph, ring_graph};
    use hfast_topology::tdc;

    /// Every rank on an existing node, no node over its width.
    fn feasible(a: &SmpAssignment) -> bool {
        let mut counts = vec![0usize; a.nodes];
        for &n in &a.node_of {
            if n >= a.nodes {
                return false;
            }
            counts[n] += 1;
        }
        counts.iter().all(|&c| c <= a.ranks_per_node)
    }

    #[test]
    fn blocked_placement_localizes_ring_traffic() {
        let g = ring_graph(16, 1 << 20);
        let blocked = SmpAssignment::blocked(16, 4);
        let rr = SmpAssignment::round_robin(16, 4);
        assert!(feasible(&blocked) && feasible(&rr));
        // Blocked: 3 of 4 ring edges per node internal; RR: none.
        assert!(blocked.locality(&g) > 0.7, "{}", blocked.locality(&g));
        assert_eq!(rr.locality(&g), 0.0);
    }

    #[test]
    fn fold_produces_node_level_graph() {
        let g = ring_graph(16, 1 << 20);
        let blocked = SmpAssignment::blocked(16, 4);
        let folded = blocked.fold(&g);
        assert_eq!(folded.n(), 4);
        // Node-level topology of a blocked ring is a 4-ring.
        let s = tdc(&folded, 0);
        assert_eq!((s.max, s.min), (2, 2));
        // Only boundary edges survive: one per node pair.
        assert_eq!(folded.edge(0, 1).bytes, g.edge(3, 4).bytes);
    }

    #[test]
    fn localize_beats_round_robin_and_matches_blocked_on_rings() {
        let g = ring_graph(32, 1 << 20);
        let found = localize(&g, 4, 4);
        assert!(feasible(&found));
        let blocked = SmpAssignment::blocked(32, 4);
        assert!(
            found.locality(&g) >= blocked.locality(&g) - 1e-9,
            "search must reach the natural optimum: {} vs {}",
            found.locality(&g),
            blocked.locality(&g)
        );
    }

    #[test]
    fn localize_handles_meshes() {
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let found = localize(&g, 8, 3);
        assert!(feasible(&found));
        let rr = SmpAssignment::round_robin(64, 8);
        assert!(found.locality(&g) > rr.locality(&g));
        // Folding shrinks the provisioning problem 8-fold.
        let folded = found.fold(&g);
        assert_eq!(folded.n(), 8);
        assert!(folded.total_bytes() < g.total_bytes());
    }

    #[test]
    fn degenerate_widths() {
        let g = ring_graph(8, 1000);
        // Width 1: nothing localizes; fold is the identity topology.
        let one = localize(&g, 1, 1);
        assert_eq!(one.locality(&g), 0.0);
        assert_eq!(one.fold(&g).edge_count(), g.edge_count());
        // Width ≥ n: everything localizes.
        let all = SmpAssignment::blocked(8, 8);
        assert_eq!(all.locality(&g), 1.0);
        assert_eq!(all.fold(&g).edge_count(), 0);
    }

    #[test]
    fn empty_graph_locality_is_trivially_full() {
        let g = CommGraph::new(4);
        let asg = SmpAssignment::blocked(4, 2);
        assert_eq!(asg.locality(&g), 1.0);
    }
}
