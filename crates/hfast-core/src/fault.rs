//! Fault-tolerance analysis: node failures in fixed meshes versus HFAST.
//!
//! Paper §1: "individual link or node failures in a lower-degree
//! interconnection network are far more disruptive … any failure of a node
//! within a mesh will create a gap in the interconnect topology", whereas a
//! reconfigurable fabric simply re-provisions around the failed component.
//! These routines quantify both sides.

use hfast_topology::generators::torus3d_neighbors;
use hfast_topology::CommGraph;

use crate::anneal::SplitMix64;
use crate::provision::ProvisionConfig;
use crate::provisioner::{Clustered, PaperLinear, Provisioner};

/// Impact of node failures on a fixed 3D-torus interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshFaultReport {
    /// Nodes failed.
    pub failed: usize,
    /// Surviving node pairs with no route at all.
    pub unreachable_pairs: usize,
    /// Mean path dilation over surviving reachable pairs (post/pre hops).
    pub avg_dilation: f64,
    /// Worst path dilation.
    pub max_dilation: f64,
}

/// Impact of node failures on an HFAST fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HfastFaultReport {
    /// Nodes failed.
    pub failed: usize,
    /// Circuits repatched to drop the failed nodes.
    pub circuits_changed: usize,
    /// Whether any *surviving* pair lost its dedicated route.
    pub survivors_degraded: bool,
    /// Switch blocks freed back to the pool.
    pub blocks_freed: usize,
}

/// Draws `k` distinct indices from `0..n` deterministically from `seed`
/// (SplitMix64 over a shrinking candidate pool), returned in ascending
/// order.
///
/// This is the shared sampling primitive behind every seeded fault
/// scenario: the analytic reports here, `hfast-netsim`'s runtime
/// `FaultPlan` schedules, and `paper faults_replay` all pick failed
/// components through it, so "the same seed" means the same components
/// everywhere.
pub fn seeded_failures(k: usize, n: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut picked = Vec::with_capacity(k);
    let mut rng = SplitMix64(seed);
    for _ in 0..k {
        let idx = rng.below(pool.len());
        picked.push(pool.swap_remove(idx));
    }
    picked.sort_unstable();
    picked
}

fn all_pairs_torus_distances(dims: (usize, usize, usize), alive: &[bool]) -> Vec<Vec<usize>> {
    let n = dims.0 * dims.1 * dims.2;
    let mut out = Vec::with_capacity(n);
    for src in 0..n {
        let mut dist = vec![usize::MAX; n];
        if alive[src] {
            let mut q = std::collections::VecDeque::new();
            dist[src] = 0;
            q.push_back(src);
            while let Some(v) = q.pop_front() {
                for u in torus3d_neighbors(dims, v) {
                    if alive[u] && dist[u] == usize::MAX {
                        dist[u] = dist[v] + 1;
                        q.push_back(u);
                    }
                }
            }
        }
        out.push(dist);
    }
    out
}

/// Quantifies failures on a 3D torus by comparing all-pairs hop counts with
/// and without the failed nodes (fault-free minimal routing, i.e. the best
/// any adaptive routing could do).
pub fn torus_fault_impact(dims: (usize, usize, usize), failed: &[usize]) -> MeshFaultReport {
    let n = dims.0 * dims.1 * dims.2;
    let mut alive = vec![true; n];
    for &f in failed {
        assert!(f < n, "failed node out of range");
        alive[f] = false;
    }
    let before = all_pairs_torus_distances(dims, &vec![true; n]);
    let after = all_pairs_torus_distances(dims, &alive);

    let mut unreachable = 0usize;
    let mut dil_sum = 0.0;
    let mut dil_count = 0usize;
    let mut dil_max: f64 = 0.0;
    for a in 0..n {
        if !alive[a] {
            continue;
        }
        for b in (a + 1)..n {
            if !alive[b] {
                continue;
            }
            let d0 = before[a][b];
            let d1 = after[a][b];
            if d1 == usize::MAX {
                unreachable += 1;
            } else if d0 > 0 {
                let dil = d1 as f64 / d0 as f64;
                dil_sum += dil;
                dil_count += 1;
                dil_max = dil_max.max(dil);
            }
        }
    }
    MeshFaultReport {
        failed: failed.len(),
        unreachable_pairs: unreachable,
        avg_dilation: if dil_count == 0 {
            1.0
        } else {
            dil_sum / dil_count as f64
        },
        max_dilation: if dil_count == 0 { 1.0 } else { dil_max },
    }
}

/// Returns `graph` with all edges incident to `failed` nodes removed
/// (indices are preserved so rank identities stay stable).
pub fn remove_nodes(graph: &CommGraph, failed: &[usize]) -> CommGraph {
    let n = graph.n();
    let dead = {
        let mut d = vec![false; n];
        for &f in failed {
            d[f] = true;
        }
        d
    };
    let survivors = graph
        .edges()
        .filter(|&(a, b, _)| !dead[a] && !dead[b])
        .map(|(a, b, e)| (a, b, *e));
    CommGraph::from_directed(n, survivors)
}

/// Quantifies failures on HFAST: re-provision the surviving communication
/// graph and report what changed. Surviving pairs keep dedicated routes —
/// the paper's claim that "when a node fails in an FCN, it can be taken
/// offline without compromising the messaging requirements for the
/// remaining nodes" carries over to HFAST.
pub fn hfast_fault_impact(
    graph: &CommGraph,
    config: ProvisionConfig,
    failed: &[usize],
) -> HfastFaultReport {
    let before = PaperLinear.provision(graph, config);
    let surviving = remove_nodes(graph, failed);
    // Re-provision only the alive nodes: failed nodes are offline, so their
    // blocks return to the pool.
    let dead = {
        let mut d = vec![false; graph.n()];
        for &f in failed {
            d[f] = true;
        }
        d
    };
    let alive_clusters: Vec<Vec<usize>> = (0..graph.n())
        .filter(|&v| !dead[v])
        .map(|v| vec![v])
        .collect();
    let after = Clustered::new(alive_clusters).provision(&surviving, config);

    let changed = before.circuit.circuits_changed(&after.circuit);

    // Check every surviving above-cutoff pair still routes.
    let degraded = surviving
        .edges()
        .any(|(a, b, e)| e.max_msg >= config.cutoff && after.route(a, b).is_none());
    HfastFaultReport {
        failed: failed.len(),
        circuits_changed: changed,
        survivors_degraded: degraded,
        blocks_freed: before.total_blocks().saturating_sub(after.total_blocks()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::{mesh3d_graph, ring_graph};
    use hfast_topology::tdc;

    #[test]
    fn seeded_failures_are_deterministic_and_distinct() {
        let a = seeded_failures(8, 64, 42);
        let b = seeded_failures(8, 64, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup, a, "sorted and distinct");
        assert!(a.iter().all(|&v| v < 64));
        let c = seeded_failures(8, 64, 43);
        assert_ne!(a, c, "different seeds draw different components");
        assert_eq!(seeded_failures(10, 3, 7), vec![0, 1, 2], "k clamps to n");
        assert!(seeded_failures(0, 10, 7).is_empty());
    }

    #[test]
    fn torus_single_failure_routes_around() {
        let report = torus_fault_impact((4, 4, 4), &[21]);
        assert_eq!(report.failed, 1);
        assert_eq!(
            report.unreachable_pairs, 0,
            "a torus routes around one loss"
        );
        assert!(report.avg_dilation >= 1.0);
    }

    #[test]
    fn ring_single_failure_dilates_paths() {
        // A 1x1x8 torus is a ring: neighbours of the failed node must now
        // route the long way around.
        let report = torus_fault_impact((1, 1, 8), &[1]);
        assert_eq!(report.unreachable_pairs, 0);
        assert!(report.max_dilation >= 3.0, "0-2 goes from 2 to 6 hops");
        assert!(report.avg_dilation > 1.0);
    }

    #[test]
    fn torus_no_failures_is_identity() {
        let report = torus_fault_impact((3, 3, 3), &[]);
        assert_eq!(report.unreachable_pairs, 0);
        assert!((report.avg_dilation - 1.0).abs() < 1e-12);
        assert!((report.max_dilation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_ring_partition() {
        // A 1x1xN torus is a ring: two failures partition it.
        let report = torus_fault_impact((1, 1, 8), &[1, 5]);
        assert!(report.unreachable_pairs > 0, "severed ring yields islands");
    }

    #[test]
    fn remove_nodes_preserves_other_edges() {
        let g = ring_graph(6, 4096);
        let cut = remove_nodes(&g, &[2]);
        assert_eq!(cut.degree(2), 0);
        assert_eq!(cut.degree(0), 2);
        assert_eq!(cut.degree(1), 1, "lost its link to node 2");
        assert_eq!(cut.edge(0, 1).bytes, g.edge(0, 1).bytes);
    }

    #[test]
    fn hfast_survivors_keep_routes() {
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let report = hfast_fault_impact(&g, ProvisionConfig::default(), &[13, 37]);
        assert_eq!(report.failed, 2);
        assert!(!report.survivors_degraded);
        assert!(
            report.blocks_freed >= 2,
            "failed nodes' blocks return to pool"
        );
        assert!(report.circuits_changed > 0);
    }

    #[test]
    fn hfast_no_failures_changes_nothing() {
        let g = ring_graph(8, 1 << 20);
        let report = hfast_fault_impact(&g, ProvisionConfig::default(), &[]);
        assert_eq!(report.circuits_changed, 0);
        assert_eq!(report.blocks_freed, 0);
        assert!(!report.survivors_degraded);
    }

    #[test]
    fn contrast_story_holds() {
        // The paper's argument: a fixed low-degree network degrades under
        // failures (here a ring severed into islands) while HFAST simply
        // re-provisions the survivors. Verify both on the same footprint.
        let dims = (1, 1, 16);
        let g = mesh3d_graph(dims, 1 << 20);
        assert!(tdc(&g, 0).max <= 2);
        let fixed = torus_fault_impact(dims, &[2, 9]);
        let hfast = hfast_fault_impact(&g, ProvisionConfig::default(), &[2, 9]);
        assert!(
            fixed.unreachable_pairs > 0,
            "two ring failures partition it"
        );
        assert!(!hfast.survivors_degraded);
        assert!(hfast.blocks_freed >= 2);
    }
}
