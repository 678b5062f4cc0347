//! Workload generation: flows to replay over a fabric.

use hfast_par::Rng64;
use hfast_topology::CommGraph;

/// One message to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Injection time in nanoseconds.
    pub start_ns: u64,
}

/// Expands a communication graph into flows: each active edge above
/// `cutoff` yields one average-size message in each direction, all injected
/// at t = 0 (a bulk-synchronous exchange step, the worst case for
/// contention).
pub fn flows_from_graph(graph: &CommGraph, cutoff: u64) -> Vec<Flow> {
    let mut flows = Vec::new();
    for a in 0..graph.n() {
        for (b, e) in graph.neighbors(a) {
            if b <= a || e.max_msg < cutoff {
                continue;
            }
            // One representative flow per direction at the edge's mean
            // message size.
            let avg = (e.bytes / e.count.max(1)).max(1);
            for &(src, dst) in &[(a, b), (b, a)] {
                flows.push(Flow {
                    src,
                    dst,
                    bytes: avg,
                    start_ns: 0,
                });
            }
        }
    }
    flows
}

/// Uniform value in `[0, bound)` by modulo — the mapping every seeded
/// workload in this crate draws with, so its streams stay pinned
/// (`Rng64::range` maps differently).
pub(crate) fn below(rng: &mut Rng64, bound: u64) -> u64 {
    assert!(bound > 0);
    rng.next_u64() % bound
}

/// Uniform-random traffic: `count` flows of `bytes` each between random
/// distinct node pairs, injected with random jitter in `[0, spread_ns)`.
pub fn uniform_random(
    nodes: usize,
    count: usize,
    bytes: u64,
    spread_ns: u64,
    seed: u64,
) -> Vec<Flow> {
    assert!(nodes >= 2, "need at least two nodes");
    let mut rng = Rng64::new(seed);
    (0..count)
        .map(|_| {
            let src = below(&mut rng, nodes as u64) as usize;
            let mut dst = below(&mut rng, nodes as u64 - 1) as usize;
            if dst >= src {
                dst += 1;
            }
            Flow {
                src,
                dst,
                bytes,
                start_ns: if spread_ns == 0 {
                    0
                } else {
                    below(&mut rng, spread_ns)
                },
            }
        })
        .collect()
}

/// A global transpose (all-to-all personalized exchange): every ordered
/// pair exchanges one block — PARATEC's stage-1 pattern.
pub fn alltoall(nodes: usize, block_bytes: u64) -> Vec<Flow> {
    let mut flows = Vec::with_capacity(nodes * nodes.saturating_sub(1));
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                flows.push(Flow {
                    src,
                    dst,
                    bytes: block_bytes,
                    start_ns: 0,
                });
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::ring_graph;

    #[test]
    fn graph_expansion_is_bidirectional() {
        let g = ring_graph(4, 10_000);
        let flows = flows_from_graph(&g, 0);
        assert_eq!(flows.len(), 8, "4 edges × 2 directions");
        assert!(flows.iter().all(|f| f.bytes == 10_000));
    }

    #[test]
    fn graph_expansion_respects_cutoff() {
        let mut g = ring_graph(4, 10_000);
        g.add_message(0, 2, 100);
        assert_eq!(flows_from_graph(&g, 2048).len(), 8);
        assert_eq!(flows_from_graph(&g, 0).len(), 10);
    }

    #[test]
    fn uniform_random_is_deterministic_and_valid() {
        let a = uniform_random(8, 100, 4096, 1000, 7);
        let b = uniform_random(8, 100, 4096, 1000, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|f| f.src != f.dst && f.src < 8 && f.dst < 8));
        assert!(a.iter().all(|f| f.start_ns < 1000));
        let c = uniform_random(8, 100, 4096, 1000, 8);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn alltoall_covers_all_pairs() {
        let flows = alltoall(5, 32 << 10);
        assert_eq!(flows.len(), 20);
        let mut seen = std::collections::BTreeSet::new();
        for f in &flows {
            assert!(seen.insert((f.src, f.dst)));
        }
    }

    #[test]
    fn below_spreads() {
        let mut rng = Rng64::new(1);
        let vals: Vec<u64> = (0..16).map(|_| below(&mut rng, 4)).collect();
        // All four residues appear in a short run.
        for r in 0..4 {
            assert!(vals.contains(&r), "residue {r} missing from {vals:?}");
        }
    }
}
