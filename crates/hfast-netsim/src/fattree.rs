//! Fat-tree fabric model.
//!
//! An (N/2)-ary switch tree: each leaf switch hosts N/2 nodes, each
//! internal switch aggregates N/2 children. Uplinks are "fat" — their
//! bandwidth scales with the subtree they serve, so the model grants the
//! fat tree its full-bisection ideal and the comparison against HFAST is
//! conservative: what remains is the latency of traversing switch layers,
//! exactly the cost paper §5.3 highlights.

use crate::error::NetsimError;
use crate::fabric::{Fabric, LinkId, LinkSpec};

/// A fat tree over `p` nodes built from `n_ports`-port switches.
#[derive(Debug, Clone)]
pub struct FatTreeFabric {
    p: usize,
    /// Fan-in per switch (N/2).
    arity: usize,
    /// Switch counts per level, level 0 = leaves.
    level_sizes: Vec<usize>,
    /// Link table; see `ids` helpers for the layout.
    links: Vec<LinkSpec>,
    /// First link id of each level's uplink block.
    level_up_base: Vec<usize>,
}

impl FatTreeFabric {
    /// Builds the fabric.
    ///
    /// # Errors
    /// [`NetsimError::EmptyFabric`] for `p == 0`,
    /// [`NetsimError::FatTreeArity`] for switches with fewer than 4 ports
    /// (2 down, 2 up is the minimum that still forms a tree).
    pub fn new(p: usize, n_ports: usize) -> Result<Self, NetsimError> {
        if p == 0 {
            return Err(NetsimError::EmptyFabric { fabric: "fat-tree" });
        }
        if n_ports < 4 {
            return Err(NetsimError::FatTreeArity { n_ports });
        }
        let arity = n_ports / 2;
        let mut level_sizes = vec![p.div_ceil(arity)];
        while *level_sizes.last().expect("non-empty") > 1 {
            let next = level_sizes.last().unwrap().div_ceil(arity);
            level_sizes.push(next);
        }

        // Link layout: [node up ×p][node down ×p] then per level above the
        // leaves: [switch up][switch down] pairs for every switch that has
        // a parent.
        let mut links = Vec::new();
        for _ in 0..p {
            links.push(LinkSpec::DEFAULT); // node up
        }
        for _ in 0..p {
            links.push(LinkSpec::DEFAULT); // node down
        }
        let mut level_up_base = Vec::new();
        for (level, &count) in level_sizes.iter().enumerate() {
            level_up_base.push(links.len());
            if level + 1 == level_sizes.len() {
                break; // root has no parent
            }
            // Fat uplinks: bandwidth proportional to the subtree node count.
            let subtree = arity.pow(level as u32 + 1).min(p);
            let fat = LinkSpec {
                latency_ns: LinkSpec::DEFAULT.latency_ns,
                bandwidth: subtree as f64 * LinkSpec::DEFAULT.bandwidth,
            };
            for _ in 0..count {
                links.push(fat); // up
                links.push(fat); // down
            }
        }
        Ok(FatTreeFabric {
            p,
            arity,
            level_sizes,
            links,
            level_up_base,
        })
    }

    /// Number of switch levels.
    pub(crate) fn levels(&self) -> usize {
        self.level_sizes.len()
    }

    fn node_up(&self, node: usize) -> LinkId {
        node
    }
    fn node_down(&self, node: usize) -> LinkId {
        self.p + node
    }
    fn switch_up(&self, level: usize, idx: usize) -> LinkId {
        self.level_up_base[level] + 2 * idx
    }
    fn switch_down(&self, level: usize, idx: usize) -> LinkId {
        self.level_up_base[level] + 2 * idx + 1
    }
}

impl Fabric for FatTreeFabric {
    fn name(&self) -> &str {
        "fat-tree"
    }

    fn nodes(&self) -> usize {
        self.p
    }

    fn link_count(&self) -> usize {
        self.links.len()
    }

    fn link(&self, id: LinkId) -> LinkSpec {
        self.links[id]
    }

    fn path(&self, src: usize, dst: usize) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(vec![]);
        }
        // Up-over-down: at most `levels` climbs each way plus the two
        // node fibers.
        let mut path = Vec::with_capacity(2 + 2 * self.levels());
        path.push(self.node_up(src));
        let mut s = src / self.arity;
        let mut d = dst / self.arity;
        let mut level = 0;
        // Ascend until both sides sit in the same switch.
        let mut down_stack = Vec::with_capacity(self.levels());
        while s != d {
            path.push(self.switch_up(level, s));
            down_stack.push(self.switch_down(level, d));
            s /= self.arity;
            d /= self.arity;
            level += 1;
        }
        while let Some(l) = down_stack.pop() {
            path.push(l);
        }
        path.push(self.node_down(dst));
        Some(path)
    }

    fn incident_links(&self, node: usize) -> Vec<LinkId> {
        // A node owns exactly its injection and ejection fibers; the tree
        // has a single deterministic route per pair, so there is no detour
        // to offer when an interior link dies (path_avoiding keeps the
        // single-path default).
        vec![self.node_up(node), self.node_down(node)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::traffic::Flow;

    #[test]
    fn bad_shapes_are_rejected() {
        assert_eq!(
            FatTreeFabric::new(0, 8).unwrap_err(),
            NetsimError::EmptyFabric { fabric: "fat-tree" }
        );
        assert_eq!(
            FatTreeFabric::new(16, 3).unwrap_err(),
            NetsimError::FatTreeArity { n_ports: 3 }
        );
    }

    #[test]
    fn incident_links_are_the_node_fibers() {
        let ft = FatTreeFabric::new(16, 8).unwrap();
        assert_eq!(ft.incident_links(3), vec![3, 19]);
    }

    #[test]
    fn level_structure() {
        // 64 nodes, 8-port switches: 16 leaves, 4, 1 → 3 levels.
        let ft = FatTreeFabric::new(64, 8).unwrap();
        assert_eq!(ft.levels(), 3);
        let small = FatTreeFabric::new(4, 8).unwrap();
        assert_eq!(small.levels(), 1);
    }

    #[test]
    fn same_leaf_path_is_short() {
        let ft = FatTreeFabric::new(64, 8).unwrap();
        // Nodes 0 and 1 share leaf switch 0.
        let p = ft.path(0, 1).unwrap();
        assert_eq!(p.len(), 2, "up, down through one switch");
        assert_eq!(ft.switch_hops(0, 1), Some(1));
    }

    #[test]
    fn distant_path_climbs_to_root() {
        let ft = FatTreeFabric::new(64, 8).unwrap();
        let p = ft.path(0, 63).unwrap();
        // up + 2 switch-ups + 2 switch-downs + down = 6 links, 5 switches.
        assert_eq!(p.len(), 6);
        assert_eq!(ft.switch_hops(0, 63), Some(5));
    }

    #[test]
    fn hops_match_paper_layer_formula() {
        // Worst case crosses 2L−1 switches.
        for (p, ports) in [(64usize, 8usize), (256, 8), (128, 16)] {
            let ft = FatTreeFabric::new(p, ports).unwrap();
            let worst = (0..p).map(|d| ft.switch_hops(0, d).unwrap()).max().unwrap();
            assert_eq!(worst, 2 * ft.levels() - 1, "P={p} N={ports}");
        }
    }

    #[test]
    fn paths_are_symmetric_in_length() {
        let ft = FatTreeFabric::new(32, 8).unwrap();
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(ft.path(a, b).unwrap().len(), ft.path(b, a).unwrap().len());
            }
        }
    }

    #[test]
    fn simulation_runs_clean() {
        let ft = FatTreeFabric::new(16, 8).unwrap();
        let flows: Vec<Flow> = (0..16)
            .map(|i| Flow {
                src: i,
                dst: (i + 5) % 16,
                bytes: 4096,
                start_ns: 0,
            })
            .collect();
        let stats = Simulation::new(&ft).run(&flows).stats;
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.unrouted, 0);
        assert!(stats.max_latency_ns > 0);
    }
}
