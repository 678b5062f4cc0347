//! HFAST fabric: simulate messages over a provisioned switch configuration.
//!
//! Built from a [`hfast_core::Provisioning`]: node-to-block attachments,
//! intra-cluster chain links, and per-edge circuits become simulator links.
//! Circuit-switch traversals add essentially no latency (§2.1 — propagation
//! only); each packet-switch block traversal costs its processing latency,
//! folded into the latency of the link *entering* the block. Node pairs
//! with no provisioned circuit fall back to the low-bandwidth collective
//! tree network the paper pairs with HFAST (§2.4), modeled as a star at a
//! tenth of the link bandwidth.

use std::collections::{BTreeMap, BTreeSet};

use hfast_core::{ProvisionConfig, Provisioning, ReprovisionOutcome, Strategy, Walk};
use hfast_topology::CommGraph;

use crate::fabric::{Fabric, LinkId, LinkSpec};
use crate::faultplan::FaultState;

/// Circuit propagation latency (no switching decision, §2.1).
const CIRCUIT_NS: u64 = 10;
/// Packet-switch block processing latency (§5.3: "less than 50 ns").
const BLOCK_NS: u64 = 50;
/// Collective-tree bandwidth relative to the main fabric.
const TREE_BW: f64 = 0.1;

/// Which layer of the hybrid fabric a link belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkClass {
    /// Fixed node-to-block fiber runs.
    Fiber,
    /// MEMS-patched chain and edge circuits (reprovisionable).
    Circuit,
    /// The fixed low-bandwidth collective tree.
    Tree,
}

/// How much cached routing state an [`HfastFabric::adapt`] invalidated:
/// everything, or just the listed node pairs (the payoff of an incremental
/// [`Provisioner::reprovision`](hfast_core::Provisioner::reprovision) — a
/// [`PathCache`](crate::engine::PathCache) can evict exactly these pairs
/// instead of flushing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptScope {
    /// The provisioning was rebuilt from scratch; all routes may differ.
    Full,
    /// Only these `(min, max)` pairs' routes may differ.
    Pairs(Vec<(usize, usize)>),
}

/// An HFAST fabric instantiated from a provisioning.
#[derive(Debug, Clone)]
pub struct HfastFabric {
    prov: Provisioning,
    links: Vec<LinkSpec>,
    /// Explicit per-link layer table. Incremental adaptation appends and
    /// orphans circuit links out of positional order, so classification
    /// cannot rely on id ranges.
    classes: Vec<LinkClass>,
    /// node → (uplink into attach block, downlink out to the node).
    node_links: Vec<(LinkId, LinkId)>,
    /// cluster → per lower chain position, (link toward the higher
    /// position, link toward the lower).
    chain_links: Vec<Vec<(LinkId, LinkId)>>,
    /// (a, b) with a < b → (link a→b, link b→a).
    edge_links: BTreeMap<(usize, usize), (LinkId, LinkId)>,
    /// node → (tree uplink, tree downlink) on the collective network.
    tree_links: Vec<(LinkId, LinkId)>,
}

/// Link spec for a hop that enters a packet-switch block.
const fn into_block() -> LinkSpec {
    LinkSpec {
        latency_ns: CIRCUIT_NS + BLOCK_NS,
        bandwidth: 1.0,
    }
}

impl HfastFabric {
    /// Builds the fabric from a provisioning.
    pub fn new(prov: Provisioning) -> Self {
        let mut links = Vec::new();
        let mut classes = Vec::new();
        let mut push = |spec: LinkSpec, class: LinkClass| -> LinkId {
            links.push(spec);
            classes.push(class);
            links.len() - 1
        };
        let out_of_block = LinkSpec {
            latency_ns: CIRCUIT_NS,
            bandwidth: 1.0,
        };
        let tree = LinkSpec {
            latency_ns: CIRCUIT_NS + BLOCK_NS,
            bandwidth: TREE_BW,
        };

        let n = prov.n_nodes();
        let node_links: Vec<(LinkId, LinkId)> = (0..n)
            .map(|_| {
                (
                    push(into_block(), LinkClass::Fiber),
                    push(out_of_block, LinkClass::Fiber),
                )
            })
            .collect();
        let mut circuit_pair = || {
            (
                push(into_block(), LinkClass::Circuit),
                push(into_block(), LinkClass::Circuit),
            )
        };
        let chain_links: Vec<Vec<(LinkId, LinkId)>> = (0..)
            .map_while(|c| prov.chain_len(c))
            .map(|len| (1..len).map(|_| circuit_pair()).collect())
            .collect();
        let edge_links: BTreeMap<_, _> = prov
            .circuit_pairs()
            .map(|pair| (pair, circuit_pair()))
            .collect();
        let tree_links: Vec<(LinkId, LinkId)> = (0..n)
            .map(|_| (push(tree, LinkClass::Tree), push(tree, LinkClass::Tree)))
            .collect();

        HfastFabric {
            prov,
            links,
            classes,
            node_links,
            chain_links,
            edge_links,
            tree_links,
        }
    }

    /// Provisions `graph` with the given [`Strategy`] and builds the
    /// fabric from the result — the netsim-side entry point for the
    /// pluggable provisioner API.
    pub fn provisioned(graph: &CommGraph, config: ProvisionConfig, strategy: Strategy) -> Self {
        HfastFabric::new(strategy.provisioner().provision(graph, config))
    }

    /// The underlying provisioning.
    pub fn provisioning(&self) -> &Provisioning {
        &self.prov
    }

    /// Applies a [`ReprovisionOutcome`] to the live fabric, returning the
    /// [`AdaptScope`] the caller must invalidate in any [`PathCache`].
    ///
    /// A full rebuild replaces every link (the caller clears its cache).
    /// An incremental outcome rewires only the chain and edge circuits of
    /// the clusters its touched pairs name: links for untouched pairs keep
    /// their ids, so their cached routes — and any in-flight flows riding
    /// them — stay valid. Torn-down circuits leave orphaned link slots
    /// (never on any route) rather than renumbering the survivors; the
    /// MEMS crossbar analog is a dark fiber left patched to nothing.
    ///
    /// [`PathCache`]: crate::engine::PathCache
    pub fn adapt(&mut self, outcome: &ReprovisionOutcome) -> AdaptScope {
        if outcome.full_rebuild {
            *self = HfastFabric::new(outcome.provisioning.clone());
            return AdaptScope::Full;
        }
        let new = &outcome.provisioning;
        // Clusters whose chains may have been resized: every endpoint of a
        // touched pair, in both the old and the new clustering.
        let mut clusters = BTreeSet::new();
        for &(a, b) in &outcome.touched_pairs {
            for prov in [&self.prov, new] {
                clusters.extend([a, b].into_iter().filter_map(|v| prov.cluster_of(v)));
            }
        }
        for &c in &clusters {
            let want = new.chain_len(c).map_or(0, |len| len - 1);
            if self.chain_links.len() <= c {
                self.chain_links.resize_with(c + 1, Vec::new);
            }
            // Shrinking orphans the link slots; growing appends fresh ones.
            self.chain_links[c].truncate(want);
            for _ in self.chain_links[c].len()..want {
                let link_pair = (self.push_circuit_link(), self.push_circuit_link());
                self.chain_links[c].push(link_pair);
            }
        }
        for &(a, b) in &outcome.touched_pairs {
            let provisioned = matches!(new.walk(a, b), Walk::Circuit { .. });
            let mapped = self.edge_links.contains_key(&(a, b));
            if provisioned && !mapped {
                let fwd = self.push_circuit_link();
                let back = self.push_circuit_link();
                self.edge_links.insert((a, b), (fwd, back));
            } else if !provisioned && mapped {
                self.edge_links.remove(&(a, b)); // orphan the link slots
            }
        }
        self.prov = new.clone();
        AdaptScope::Pairs(outcome.touched_pairs.clone())
    }

    /// Appends one fresh circuit link and returns its id.
    fn push_circuit_link(&mut self) -> LinkId {
        self.links.push(into_block());
        self.classes.push(LinkClass::Circuit);
        self.links.len() - 1
    }

    /// Which layer of the hybrid fabric a link belongs to: `"fiber"` for
    /// the fixed node-to-block runs, `"circuit"` for MEMS-patched chain
    /// and edge circuits, `"tree"` for the low-bandwidth collective
    /// network. The hotspot analyzer cross-references measured congestion
    /// against these classes.
    ///
    /// # Panics
    /// If `link` is out of range.
    pub fn link_class(&self, link: LinkId) -> &'static str {
        assert!(link < self.links.len(), "link {link} out of range");
        match self.classes[link] {
            LinkClass::Fiber => "fiber",
            LinkClass::Circuit => "circuit",
            LinkClass::Tree => "tree",
        }
    }

    /// Chain links along a [`Walk`] span `(cluster, from, to)`.
    fn chain_walk(&self, (cluster, from, to): (usize, usize, usize), path: &mut Vec<LinkId>) {
        let links = &self.chain_links[cluster];
        if from <= to {
            path.extend(links[from..to].iter().map(|l| l.0));
        } else {
            path.extend(links[to..from].iter().rev().map(|l| l.1));
        }
    }
}

impl Fabric for HfastFabric {
    fn name(&self) -> &str {
        "hfast"
    }

    fn nodes(&self) -> usize {
        self.prov.n_nodes()
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
        let walk = self.prov.walk(src, dst);
        let Some(route) = walk.route() else {
            // Offline endpoints have no path; any other unprovisioned pair
            // rides the collective tree.
            return (walk == Walk::Tree)
                .then(|| vec![self.tree_links[src].0, self.tree_links[dst].1]);
        };
        // One link per crossbar traversal: the node fibers, the chain
        // steps and any edge circuit.
        let mut path = Vec::with_capacity(route.circuit_traversals);
        path.push(self.node_links[src].0);
        match walk {
            Walk::Chain(span) => self.chain_walk(span, &mut path),
            Walk::Circuit {
                src: out,
                pair,
                forward,
                dst: into,
            } => {
                self.chain_walk(out, &mut path);
                let (fwd, back) = self.edge_links[&pair];
                path.push(if forward { fwd } else { back });
                self.chain_walk(into, &mut path);
            }
            Walk::Offline | Walk::Tree => {}
        }
        path.push(self.node_links[dst].1);
        Some(path)
    }

    fn switch_hops(&self, src: usize, dst: usize) -> Option<usize> {
        if src == dst {
            return Some(0);
        }
        let r = self.prov.route(src, dst)?;
        Some(r.switch_hops)
    }

    fn incident_links(&self, node: usize) -> Vec<LinkId> {
        // The node's fibers into its attach block and onto the collective
        // tree; interior chain/edge circuits belong to the switch fabric.
        let (up, down) = self.node_links[node];
        let (tup, tdown) = self.tree_links[node];
        vec![up, down, tup, tdown]
    }

    fn path_avoiding(&self, src: usize, dst: usize, state: &FaultState) -> Option<Vec<LinkId>> {
        if !state.node_up(src) || !state.node_up(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![]);
        }
        // Circuits are point-to-point: the provisioned route either works
        // or the pair drops to the collective tree (§2.4) until the MEMS
        // crossbar repatches the circuit at a synchronization point.
        if let Some(p) = self.path(src, dst) {
            if !state.blocks(&p) {
                return Some(p);
            }
        }
        let fallback = vec![self.tree_links[src].0, self.tree_links[dst].1];
        (!state.blocks(&fallback)).then_some(fallback)
    }

    fn reprovisionable(&self, link: LinkId) -> bool {
        // Chain and edge circuits are MEMS crossbar patches with spare
        // ports to move to; node fibers and the fixed collective tree are
        // physical runs.
        self.classes.get(link) == Some(&LinkClass::Circuit)
    }

    fn supports_reprovision(&self) -> bool {
        !self.tree_links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::fattree::FatTreeFabric;
    use crate::traffic::{self};
    use hfast_core::{GraphDelta, PaperLinear, ProvisionConfig, Provisioner};
    use hfast_topology::generators::{mesh3d_graph, ring_graph};

    fn hfast_for(graph: &hfast_topology::CommGraph) -> HfastFabric {
        HfastFabric::provisioned(graph, ProvisionConfig::default(), Strategy::PaperLinear)
    }

    #[test]
    fn provisioned_pair_path() {
        let g = ring_graph(8, 1 << 20);
        let f = hfast_for(&g);
        // node → own block → (edge circuit into) peer's block → node:
        // 3 links, 2 switch-block hops.
        let p = f.path(0, 1).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(f.switch_hops(0, 1), Some(2));
    }

    #[test]
    fn unprovisioned_pair_rides_the_tree() {
        let g = ring_graph(8, 1 << 20);
        let f = hfast_for(&g);
        // 0 and 4 never talk in a ring: tree fallback, 2 slow links.
        let p = f.path(0, 4).unwrap();
        assert_eq!(p.len(), 2);
        assert!(f.link(p[0]).bandwidth < 0.5);
    }

    #[test]
    fn scattered_replay_beats_fat_tree_latency() {
        // The paper's headline: a provisioned topology traverses a constant
        // number of switch blocks while fat-tree traffic that does not stay
        // within one leaf climbs the layers. A strided (LBMHD-like) pattern
        // never stays leaf-local, so every fat-tree path is deep.
        let n = 64;
        let mut g = hfast_topology::CommGraph::new(n);
        for v in 0..n {
            g.add_message(v, (v + 17) % n, 4096);
        }
        let flows = traffic::flows_from_graph(&g, 2048);
        let hf = hfast_for(&g);
        let ft = FatTreeFabric::new(n, 8).unwrap();
        let hf_stats = Simulation::new(&hf).run(&flows).stats;
        let ft_stats = Simulation::new(&ft).run(&flows).stats;
        assert_eq!(hf_stats.completed, flows.len());
        assert_eq!(ft_stats.completed, flows.len());
        assert!(
            hf_stats.p50_latency_ns < ft_stats.p50_latency_ns,
            "hfast p50 {} vs fat-tree p50 {}",
            hf_stats.p50_latency_ns,
            ft_stats.p50_latency_ns
        );
        assert!(hf_stats.max_latency_ns <= ft_stats.max_latency_ns);
        // Constant 3-link paths for HFAST regardless of scale.
        assert_eq!(hf_stats.avg_hops, 3.0);
    }

    #[test]
    fn leaf_local_traffic_favors_the_fat_tree() {
        // Converse sanity check: a ring embeds into fat-tree leaves, where
        // a single 50 ns switch beats HFAST's two-block path.
        let g = ring_graph(64, 4096);
        let flows = traffic::flows_from_graph(&g, 2048);
        let hf = hfast_for(&g);
        let ft = FatTreeFabric::new(64, 8).unwrap();
        let hf_stats = Simulation::new(&hf).run(&flows).stats;
        let ft_stats = Simulation::new(&ft).run(&flows).stats;
        assert!(hf_stats.p50_latency_ns >= ft_stats.p50_latency_ns);
    }

    #[test]
    fn mesh_app_replay_completes() {
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let f = hfast_for(&g);
        let flows = traffic::flows_from_graph(&g, 2048);
        let stats = Simulation::new(&f).run(&flows).stats;
        assert_eq!(stats.unrouted, 0);
        assert_eq!(stats.completed, flows.len());
    }

    #[test]
    fn chain_nodes_pay_extra_hops() {
        // A star whose hub needs 3 chained blocks: far edges land on
        // distant chain positions.
        let mut g = hfast_topology::CommGraph::new(41);
        for i in 1..41 {
            g.add_message(0, i, 1 << 20);
        }
        let f = hfast_for(&g);
        let worst = (1..41).map(|i| f.path(0, i).unwrap().len()).max().unwrap();
        assert!(worst > 4, "chain traversal adds links: {worst}");
        // All leaves still reachable.
        for i in 1..41 {
            assert!(f.path(i, 0).is_some());
        }
    }

    #[test]
    fn failed_circuit_falls_back_to_tree() {
        let g = ring_graph(8, 1 << 20);
        let f = hfast_for(&g);
        let primary = f.path(0, 1).unwrap();
        let mut state = FaultState::healthy(&f);
        // Kill the middle link (the provisioned circuit, not a node fiber).
        let circuit = primary[1];
        assert!(f.reprovisionable(circuit), "edge circuits are MEMS patches");
        assert!(
            !f.reprovisionable(primary[0]),
            "node fibers are physical runs"
        );
        state.apply(
            &f,
            crate::faultplan::FaultEvent {
                time_ns: 0,
                action: crate::faultplan::FaultAction::Fail,
                target: crate::faultplan::FaultTarget::Link(circuit),
            },
        );
        let fallback = f.path_avoiding(0, 1, &state).expect("tree fallback");
        assert_eq!(fallback.len(), 2);
        assert!(f.link(fallback[0]).bandwidth < 0.5, "tree is slow");
        assert!(!f.reprovisionable(fallback[0]), "tree is fixed");
        assert!(f.supports_reprovision());
    }

    #[test]
    fn link_classes_partition_the_fabric() {
        let g = ring_graph(8, 1 << 20);
        let f = hfast_for(&g);
        let primary = f.path(0, 1).unwrap();
        assert_eq!(f.link_class(primary[0]), "fiber");
        assert_eq!(f.link_class(primary[1]), "circuit");
        assert_eq!(f.link_class(*primary.last().unwrap()), "fiber");
        let tree = f.path(0, 4).unwrap();
        assert_eq!(f.link_class(tree[0]), "tree");
        // Classes agree with reprovisionability: only circuits repatch.
        for l in 0..f.link_count() {
            assert_eq!(f.link_class(l) == "circuit", f.reprovisionable(l));
        }
    }

    #[test]
    fn self_path_is_empty() {
        let g = ring_graph(4, 1 << 20);
        let f = hfast_for(&g);
        assert_eq!(f.path(2, 2).unwrap().len(), 0);
    }

    /// Paths after an incremental [`HfastFabric::adapt`] must agree hop
    /// class by hop class with a fabric built fresh from the adapted
    /// provisioning, and links of untouched pairs must keep their ids.
    #[test]
    fn incremental_adapt_matches_fresh_fabric() {
        let n = 16;
        let before = ring_graph(n, 1 << 20);
        let mut after = before.clone();
        after.add_message(3, 11, 1 << 20); // new chord: circuit appears
        let config = ProvisionConfig::default();

        let mut f = hfast_for(&before);
        let stable = f.path(5, 6).unwrap(); // pair far from the chord
        let prev = f.provisioning().clone();
        let delta = GraphDelta::diff(&before, &after);
        let out = PaperLinear.reprovision(prev, &after, &delta);
        assert!(!out.full_rebuild, "one chord stays incremental");
        let scope = f.adapt(&out);
        match scope {
            AdaptScope::Pairs(ref pairs) => assert!(pairs.contains(&(3, 11))),
            AdaptScope::Full => panic!("incremental outcome must not clear everything"),
        }

        let fresh = HfastFabric::provisioned(&after, config, Strategy::PaperLinear);
        for src in 0..n {
            for dst in 0..n {
                let a = f.path(src, dst).unwrap();
                let b = fresh.path(src, dst).unwrap();
                assert_eq!(a.len(), b.len(), "path shape for ({src},{dst})");
                for (la, lb) in a.iter().zip(&b) {
                    assert_eq!(f.link_class(*la), fresh.link_class(*lb));
                    assert_eq!(f.link(*la), fresh.link(*lb));
                }
            }
        }
        // The untouched pair kept its exact links: cached routes stay valid.
        assert_eq!(f.path(5, 6).unwrap(), stable);
        // The new chord rides a dedicated circuit, not the tree.
        let chord = f.path(3, 11).unwrap();
        assert_eq!(chord.len(), 3);
        assert_eq!(f.link_class(chord[1]), "circuit");
    }

    /// Tearing a circuit back down orphans its links but leaves every
    /// other route untouched and the class table consistent.
    #[test]
    fn incremental_adapt_handles_removal() {
        let n = 16;
        let mut with_chord = ring_graph(n, 1 << 20);
        with_chord.add_message(3, 11, 1 << 20);
        let without = ring_graph(n, 1 << 20);

        let mut f = hfast_for(&with_chord);
        let links_before = f.link_count();
        let prev = f.provisioning().clone();
        let delta = GraphDelta::diff(&with_chord, &without);
        let out = PaperLinear.reprovision(prev, &without, &delta);
        assert!(!out.full_rebuild);
        f.adapt(&out);

        // The chord dropped to the tree; orphaned slots stay allocated.
        let p = f.path(3, 11).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(f.link_class(p[0]), "tree");
        assert!(f.link_count() >= links_before);
        // Every surviving route still resolves and classifies sanely.
        for src in 0..n {
            let p = f.path(src, (src + 1) % n).unwrap();
            assert_eq!(p.len(), 3);
            assert_eq!(f.link_class(p[1]), "circuit");
        }
    }

    #[test]
    fn alltoall_on_hfast_congests_the_tree() {
        // PARATEC-style all-to-all on a ring-provisioned HFAST: most pairs
        // ride the slow tree — the case-iv mismatch the paper warns about.
        let g = ring_graph(16, 1 << 20);
        let f = hfast_for(&g);
        let flows = traffic::alltoall(16, 32 << 10);
        let stats = Simulation::new(&f).run(&flows).stats;
        assert_eq!(stats.completed, flows.len());
        let ft = FatTreeFabric::new(16, 8).unwrap();
        let ft_stats = Simulation::new(&ft).run(&flows).stats;
        assert!(
            stats.max_latency_ns > ft_stats.max_latency_ns,
            "mis-provisioned HFAST must lose on all-to-all: {} vs {}",
            stats.max_latency_ns,
            ft_stats.max_latency_ns
        );
    }
}
