//! 3D torus fabric with dimension-order routing.

use hfast_topology::generators::{grid_coords, grid_index};

use crate::error::NetsimError;
use crate::fabric::{Fabric, LinkId, LinkSpec};
use crate::faultplan::FaultState;

/// Directions of the six torus links per node.
const DIRS: usize = 6;

/// A 3D torus: every node is also a router with six directed links.
#[derive(Debug, Clone)]
pub struct TorusFabric {
    dims: (usize, usize, usize),
    n: usize,
}

impl TorusFabric {
    /// Builds a torus of the given dimensions.
    ///
    /// # Errors
    /// [`NetsimError::EmptyFabric`] when any dimension is zero.
    pub fn new(dims: (usize, usize, usize)) -> Result<Self, NetsimError> {
        let n = dims.0 * dims.1 * dims.2;
        if n == 0 {
            return Err(NetsimError::EmptyFabric { fabric: "torus" });
        }
        Ok(TorusFabric { dims, n })
    }

    /// Link id for leaving `node` in `dir` (0:+x 1:−x 2:+y 3:−y 4:+z 5:−z).
    fn link_id(&self, node: usize, dir: usize) -> LinkId {
        node * DIRS + dir
    }

    /// The node reached by leaving `node` in `dir`.
    fn neighbor(&self, node: usize, dir: usize) -> usize {
        let (dx, dy, dz) = self.dims;
        let (x, y, z) = grid_coords(self.dims, node);
        let step = |c: usize, extent: usize, forward: bool| {
            if forward {
                (c + 1) % extent
            } else {
                (c + extent - 1) % extent
            }
        };
        let (x, y, z) = match dir {
            0 => (step(x, dx, true), y, z),
            1 => (step(x, dx, false), y, z),
            2 => (x, step(y, dy, true), z),
            3 => (x, step(y, dy, false), z),
            4 => (x, y, step(z, dz, true)),
            5 => (x, y, step(z, dz, false)),
            _ => unreachable!("torus has 6 directions"),
        };
        grid_index(self.dims, x, y, z)
    }
}

impl Fabric for TorusFabric {
    fn name(&self) -> &str {
        "torus"
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn link_count(&self) -> usize {
        self.n * DIRS
    }

    fn link(&self, _id: LinkId) -> LinkSpec {
        LinkSpec::DEFAULT
    }

    fn path(&self, src: usize, dst: usize) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(vec![]);
        }
        let (dx, dy, dz) = self.dims;
        let (mut x, mut y, mut z) = grid_coords(self.dims, src);
        let (tx, ty, tz) = grid_coords(self.dims, dst);
        // Dimension-order routing takes the shorter way around each ring,
        // so ⌊extent/2⌋ hops per axis bounds the route exactly.
        let mut path = Vec::with_capacity(dx / 2 + dy / 2 + dz / 2);

        let walk = |path: &mut Vec<LinkId>,
                    cur: &mut usize,
                    target: usize,
                    extent: usize,
                    plus_dir: usize,
                    make_node: &dyn Fn(usize) -> usize| {
            if extent <= 1 || *cur == target {
                return;
            }
            let fwd = (target + extent - *cur) % extent;
            let bwd = (*cur + extent - target) % extent;
            let go_fwd = fwd <= bwd;
            let hops = fwd.min(bwd);
            for _ in 0..hops {
                let from = make_node(*cur);
                let dir = if go_fwd { plus_dir } else { plus_dir + 1 };
                path.push(self.link_id(from, dir));
                *cur = if go_fwd {
                    (*cur + 1) % extent
                } else {
                    (*cur + extent - 1) % extent
                };
            }
        };

        {
            let (yy, zz) = (y, z);
            walk(&mut path, &mut x, tx, dx, 0, &|c| {
                grid_index(self.dims, c, yy, zz)
            });
        }
        {
            let (xx, zz) = (x, z);
            walk(&mut path, &mut y, ty, dy, 2, &|c| {
                grid_index(self.dims, xx, c, zz)
            });
        }
        {
            let (xx, yy) = (x, y);
            walk(&mut path, &mut z, tz, dz, 4, &|c| {
                grid_index(self.dims, xx, yy, c)
            });
        }
        debug_assert_eq!(grid_index(self.dims, x, y, z), dst);
        Some(path)
    }

    fn switch_hops(&self, src: usize, dst: usize) -> Option<usize> {
        // Every torus link lands in a router.
        self.path(src, dst).map(|p| p.len())
    }

    fn incident_links(&self, node: usize) -> Vec<LinkId> {
        // Every node is a router: its six outgoing links plus the six
        // links its neighbors point back at it (the neighbor in `dir`
        // reaches us via the opposite direction, `dir ^ 1`).
        let mut links = std::collections::BTreeSet::new();
        for dir in 0..DIRS {
            links.insert(self.link_id(node, dir));
            links.insert(self.link_id(self.neighbor(node, dir), dir ^ 1));
        }
        links.into_iter().collect()
    }

    fn path_avoiding(&self, src: usize, dst: usize, state: &FaultState) -> Option<Vec<LinkId>> {
        if !state.node_up(src) || !state.node_up(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![]);
        }
        // Fast path: the dimension-order route still works.
        if let Some(p) = self.path(src, dst) {
            if !state.blocks(&p) {
                return Some(p);
            }
        }
        // Adaptive detour: deterministic BFS over live links and routers
        // (queue order and direction order are fixed, so every run finds
        // the same detour).
        let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; self.n];
        let mut seen = vec![false; self.n];
        seen[src] = true;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            for dir in 0..DIRS {
                let next = self.neighbor(cur, dir);
                let link = self.link_id(cur, dir);
                if next == cur || seen[next] || !state.link_up(link) || !state.node_up(next) {
                    continue;
                }
                seen[next] = true;
                prev[next] = Some((cur, link));
                if next == dst {
                    let mut path = Vec::new();
                    let mut at = dst;
                    while let Some((from, l)) = prev[at] {
                        path.push(l);
                        at = from;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::traffic::Flow;

    #[test]
    fn zero_dimension_is_rejected() {
        assert_eq!(
            TorusFabric::new((4, 0, 4)).unwrap_err(),
            NetsimError::EmptyFabric { fabric: "torus" }
        );
    }

    #[test]
    fn incident_links_cover_both_directions() {
        let t = TorusFabric::new((4, 4, 4)).unwrap();
        let links = t.incident_links(0);
        assert_eq!(links.len(), 12, "6 outgoing + 6 incoming, all distinct");
        // Outgoing +x from node 0 and node 1's −x link back at node 0
        // (link id 1 * DIRS + 1 = 7).
        assert!(links.contains(&0));
        assert!(links.contains(&7));
    }

    #[test]
    fn bfs_detours_around_failed_link() {
        let t = TorusFabric::new((4, 4, 4)).unwrap();
        let mut state = FaultState::healthy(&t);
        let primary = t.path(0, 2).unwrap();
        assert_eq!(
            t.path_avoiding(0, 2, &state),
            Some(primary.clone()),
            "healthy state keeps dimension-order route"
        );
        state.apply(
            &t,
            crate::faultplan::FaultEvent {
                time_ns: 0,
                action: crate::faultplan::FaultAction::Fail,
                target: crate::faultplan::FaultTarget::Link(primary[0]),
            },
        );
        let detour = t.path_avoiding(0, 2, &state).expect("torus has detours");
        assert_ne!(detour, primary);
        assert!(!state.blocks(&detour));
        assert_eq!(detour.len(), 2, "BFS finds an equally short detour");
        // Determinism: ask twice, get the identical route.
        assert_eq!(t.path_avoiding(0, 2, &state), Some(detour));
    }

    #[test]
    fn dead_router_blocks_and_unblocks() {
        let t = TorusFabric::new((4, 1, 1)).unwrap();
        let mut state = FaultState::healthy(&t);
        let fail = crate::faultplan::FaultEvent {
            time_ns: 0,
            action: crate::faultplan::FaultAction::Fail,
            target: crate::faultplan::FaultTarget::Node(1),
        };
        let incident = state.apply(&t, fail);
        assert_eq!(incident, t.incident_links(1));
        // 0 → 2 must now go the long way around through 3.
        let detour = t.path_avoiding(0, 2, &state).expect("ring detour exists");
        assert_eq!(detour.len(), 2);
        assert!(
            t.path_avoiding(0, 1, &state).is_none(),
            "dst itself is down"
        );
        let recover = crate::faultplan::FaultEvent {
            action: crate::faultplan::FaultAction::Recover,
            ..fail
        };
        state.apply(&t, recover);
        assert_eq!(t.path_avoiding(0, 2, &state), t.path(0, 2));
    }

    #[test]
    fn neighbour_path_is_one_link() {
        let t = TorusFabric::new((4, 4, 4)).unwrap();
        let p = t.path(0, 1).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(t.switch_hops(0, 1), Some(1));
    }

    #[test]
    fn wraparound_is_shortest() {
        let t = TorusFabric::new((4, 1, 1)).unwrap();
        // 0 → 3 is one hop backwards around the ring.
        assert_eq!(t.path(0, 3).unwrap().len(), 1);
        assert_eq!(t.path(0, 2).unwrap().len(), 2);
    }

    #[test]
    fn dimension_order_lengths_match_manhattan() {
        let t = TorusFabric::new((4, 4, 4)).unwrap();
        for dst in 0..64 {
            let (x, y, z) = hfast_topology::generators::grid_coords((4, 4, 4), dst);
            // From node 0: wrap-aware distance per axis is min(c, 4−c).
            let manhattan = [x, y, z].iter().map(|&c| c.min(4 - c)).sum::<usize>();
            assert_eq!(t.path(0, dst).unwrap().len(), manhattan, "dst {dst}");
        }
    }

    #[test]
    fn worst_case_hops() {
        let t = TorusFabric::new((4, 4, 4)).unwrap();
        let worst = (0..64).map(|d| t.path(0, d).unwrap().len()).max().unwrap();
        assert_eq!(worst, 6, "diameter of a 4x4x4 torus");
    }

    #[test]
    fn contention_on_shared_ring_links() {
        // All nodes push to node 0 around a ring: inner links shared.
        let t = TorusFabric::new((8, 1, 1)).unwrap();
        let flows: Vec<Flow> = (1..8)
            .map(|s| Flow {
                src: s,
                dst: 0,
                bytes: 100_000,
                start_ns: 0,
            })
            .collect();
        let stats = Simulation::new(&t).run(&flows).stats;
        assert_eq!(stats.completed, 7);
        assert!(
            stats.max_link_utilization > 0.5,
            "the links adjacent to node 0 must saturate: {}",
            stats.max_link_utilization
        );
    }

    #[test]
    fn degenerate_single_node() {
        let t = TorusFabric::new((1, 1, 1)).unwrap();
        assert_eq!(t.path(0, 0).unwrap().len(), 0);
    }
}
