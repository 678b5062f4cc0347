//! Iterative clustering refinement — the paper's §6 optimization direction.
//!
//! "We may also adapt the genetic programming approaches used for optimizing
//! the fixed switch topology of the Flat Neighborhood Networks to optimize
//! the embedding. An even more promising approach is to apply runtime
//! iterative or adaptive approaches that incrementally arrive on an optimal
//! embedding."
//!
//! [`optimize_clusters`] refines an initial clustering by local moves
//! (relocate one node to a neighbouring cluster, or merge two small
//! clusters) under simulated annealing, minimizing the number of switch
//! blocks the provisioning needs. Deterministic for a given seed; the
//! greedy [`crate::clique::cluster_nodes`] result is both the usual seed
//! and the baseline the ablation bench compares against.

use hfast_topology::{CommGraph, CsrGraph};

use crate::provision::ProvisionConfig;

/// SplitMix64 — the crate's one source of seeded randomness: this search
/// and [`crate::seeded_failures`]. It is `hfast_par::Rng64`'s generator,
/// kept here so the crate needs no runtime dependency on `hfast-par`.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)` by modulo (`[0, 1)` for 0).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// Cost of a clustering: total switch blocks, with total ports as a
/// tie-breaker (both are what the §5.3 cost function buys).
fn clustering_cost(
    csr: &CsrGraph,
    clusters: &[Vec<usize>],
    node_cluster: &[usize],
    config: &ProvisionConfig,
) -> (usize, usize) {
    let mut blocks = 0usize;
    let mut ports = 0usize;
    for members in clusters {
        if members.is_empty() {
            continue;
        }
        let mut external = 0usize;
        for &v in members {
            for &u in csr.neighbors(v) {
                if node_cluster[u] != node_cluster[v] {
                    external += 1;
                }
            }
        }
        let b = config.blocks_needed(members.len(), external);
        blocks += b;
        ports += members.len() + external + 2 * (b - 1);
    }
    (blocks, ports)
}

/// Outcome of an optimization run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnealOutcome {
    /// The refined clustering (empty clusters removed).
    pub clusters: Vec<Vec<usize>>,
    /// Blocks needed by the initial clustering.
    pub initial_blocks: usize,
    /// Blocks needed by the refined clustering.
    pub final_blocks: usize,
    /// Local moves accepted.
    pub accepted_moves: usize,
}

/// Refines `initial` clustering for `iterations` proposed moves.
///
/// Every accepted state remains *feasible by construction*: the block-count
/// objective is computed with the same [`ProvisionConfig::blocks_needed`]
/// capacity rule the provisioner uses, so any clustering this returns can
/// be materialized by [`crate::provisioner::Clustered`].
pub fn optimize_clusters(
    graph: &CommGraph,
    config: &ProvisionConfig,
    initial: Vec<Vec<usize>>,
    iterations: usize,
    seed: u64,
) -> AnnealOutcome {
    let csr = CsrGraph::from_graph(graph, config.cutoff);
    let n = csr.n();
    let mut clusters = initial;
    let mut node_cluster = vec![usize::MAX; n];
    for (cid, members) in clusters.iter().enumerate() {
        for &v in members {
            node_cluster[v] = cid;
        }
    }
    assert!(
        node_cluster.iter().all(|&c| c != usize::MAX),
        "initial clustering must cover every node"
    );

    let mut rng = SplitMix64(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let (initial_blocks, _) = clustering_cost(&csr, &clusters, &node_cluster, config);
    let mut current = clustering_cost(&csr, &clusters, &node_cluster, config);
    let mut accepted = 0usize;

    for step in 0..iterations {
        if n < 2 {
            break;
        }
        // Propose: move a random node into the cluster of one of its
        // neighbours (relocations along edges are the moves that can turn
        // inter-cluster ports into free intra-block paths).
        let v = rng.below(n);
        let neighbors = csr.neighbors(v);
        if neighbors.is_empty() {
            continue;
        }
        let target = node_cluster[neighbors[rng.below(neighbors.len())]];
        let source = node_cluster[v];
        if target == source {
            continue;
        }

        // Apply tentatively.
        clusters[source].retain(|&x| x != v);
        clusters[target].push(v);
        node_cluster[v] = target;

        let candidate = clustering_cost(&csr, &clusters, &node_cluster, config);
        // Annealing acceptance: always take improvements; take mild
        // regressions early in the schedule.
        let temperature = 1.0 - (step as f64 / iterations.max(1) as f64);
        let accept = candidate <= current
            || (candidate.0 == current.0
                && candidate.1 <= current.1 + 2
                && rng.chance(0.3 * temperature));
        if accept {
            current = candidate;
            accepted += 1;
        } else {
            // Revert.
            clusters[target].retain(|&x| x != v);
            clusters[source].push(v);
            node_cluster[v] = source;
        }
    }

    clusters.retain(|c| !c.is_empty());
    AnnealOutcome {
        initial_blocks,
        final_blocks: current.0,
        accepted_moves: accepted,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::cluster_nodes;
    use crate::provisioner::{Clustered, Provisioner};
    use hfast_topology::generators::{ring_graph, torus3d_graph};
    use hfast_topology::CommGraph;

    fn singletons(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|v| vec![v]).collect()
    }

    #[test]
    fn refinement_never_regresses() {
        let g = torus3d_graph((4, 4, 2), 1 << 20);
        let config = ProvisionConfig::default();
        let out = optimize_clusters(&g, &config, singletons(32), 2000, 1);
        assert!(out.final_blocks <= out.initial_blocks);
        // The result must be buildable.
        let prov = Clustered::new(out.clusters.clone()).provision(&g, config);
        prov.validate(&g).unwrap();
        assert_eq!(prov.total_blocks(), out.final_blocks);
    }

    #[test]
    fn improves_on_singletons_for_cliques() {
        // Four 4-cliques: singletons need 16 blocks, optimal needs 4.
        let n = 16;
        let mut g = CommGraph::new(n);
        for c in 0..4 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_message(4 * c + i, 4 * c + j, 1 << 20);
                }
            }
        }
        let config = ProvisionConfig::default();
        let out = optimize_clusters(&g, &config, singletons(n), 4000, 7);
        assert_eq!(out.initial_blocks, 16);
        assert!(
            out.final_blocks <= 6,
            "annealing should approach the 4-block optimum: {}",
            out.final_blocks
        );
        assert!(out.accepted_moves > 0);
    }

    #[test]
    fn refining_the_greedy_seed_helps_or_holds() {
        let g = ring_graph(24, 1 << 20);
        let config = ProvisionConfig::default();
        let greedy = cluster_nodes(&g, &config);
        let greedy_blocks = Clustered::new(greedy.clone())
            .provision(&g, config)
            .total_blocks();
        let out = optimize_clusters(&g, &config, greedy, 3000, 3);
        assert!(out.final_blocks <= greedy_blocks);
        Clustered::new(out.clusters)
            .provision(&g, config)
            .validate(&g)
            .unwrap();
    }

    #[test]
    fn deterministic_for_a_seed() {
        let g = torus3d_graph((3, 3, 3), 1 << 20);
        let config = ProvisionConfig::default();
        let a = optimize_clusters(&g, &config, singletons(27), 1000, 99);
        let b = optimize_clusters(&g, &config, singletons(27), 1000, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let g = ring_graph(8, 1 << 20);
        let config = ProvisionConfig::default();
        let out = optimize_clusters(&g, &config, singletons(8), 0, 0);
        assert_eq!(out.initial_blocks, out.final_blocks);
        assert_eq!(out.accepted_moves, 0);
        assert_eq!(out.clusters.len(), 8);
    }
}
