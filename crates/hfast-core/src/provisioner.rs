//! Pluggable provisioning strategies and online incremental re-provisioning.
//!
//! The paper's §5.3 linear-time heuristic is one point in a design space:
//! "Better Algorithms for Hybrid Circuit and Packet Switching in Data
//! Centers" (arXiv 1712.06634) frames circuit provisioning as scheduling the
//! demand matrix onto crossbar configurations, with stable-matching (BFF)
//! and Birkhoff–von-Neumann decomposition as the two algorithm families.
//! This module makes the choice pluggable:
//!
//! * [`Provisioner`] — the strategy trait: `provision` from scratch, plus an
//!   incremental [`Provisioner::reprovision`] fed the comm-graph delta
//!   accumulated since the last synchronization point (default: recompute
//!   from scratch).
//! * [`PaperLinear`] — the paper's §5.3 heuristic (digests pinned since
//!   before the trait existed), with a true O(changed-edges) incremental
//!   path.
//! * [`BffCircuit`] — stable-matching / best-fit-first circuit scheduling:
//!   repeatedly dedicate the heaviest remaining demand pair a shared chain.
//! * [`DemandDecomp`] — BvN-style decomposition: peel maximal matchings off
//!   the demand matrix and merge them into bounded clusters.
//! * [`Clustered`] — an explicit clustering (clique/anneal output) behind
//!   the same trait.

use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;

use hfast_topology::{CommGraph, EdgeStat};

use crate::provision::{build_clustered, EdgeCircuit, FreeIndex, ProvisionConfig, Provisioning};
use crate::switch::{Endpoint, SwitchBlock};

/// Built-in strategy selector, threaded through netsim, bench, and serve.
///
/// The wire/CLI names are the `snake_case` strings from
/// [`Strategy::as_str`]; absent means [`Strategy::PaperLinear`] everywhere,
/// preserving pre-trait behavior byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// The paper's §5.3 linear-time per-node heuristic.
    PaperLinear,
    /// Stable-matching / best-fit-first circuit scheduling (arXiv 1712.06634).
    BffCircuit,
    /// Birkhoff–von-Neumann-style demand-matrix decomposition.
    DemandDecomp,
}

impl Strategy {
    /// Every built-in strategy, in bake-off order.
    pub const ALL: [Strategy; 3] = [
        Strategy::PaperLinear,
        Strategy::BffCircuit,
        Strategy::DemandDecomp,
    ];

    /// Canonical wire/CLI name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Strategy::PaperLinear => "paper_linear",
            Strategy::BffCircuit => "bff_circuit",
            Strategy::DemandDecomp => "demand_decomp",
        }
    }

    /// Instantiates the strategy.
    pub fn provisioner(&self) -> Box<dyn Provisioner> {
        match self {
            Strategy::PaperLinear => Box::new(PaperLinear),
            Strategy::BffCircuit => Box::new(BffCircuit),
            Strategy::DemandDecomp => Box::new(DemandDecomp),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper_linear" => Ok(Strategy::PaperLinear),
            "bff_circuit" => Ok(Strategy::BffCircuit),
            "demand_decomp" => Ok(Strategy::DemandDecomp),
            other => Err(format!(
                "unknown strategy {other:?} (expected paper_linear, bff_circuit, or demand_decomp)"
            )),
        }
    }
}

/// Comm-graph changes accumulated between synchronization points.
///
/// Each entry carries the *post-delta* cumulative [`EdgeStat`] for the pair,
/// so a provisioner can classify the pair's new cutoff status without
/// consulting the full graph. Pairs are normalized `(min, max)`; self-edges
/// are ignored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    changes: BTreeMap<(usize, usize), EdgeStat>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the post-delta statistics for edge `(a, b)`.
    pub fn note(&mut self, a: usize, b: usize, stat: EdgeStat) {
        if a == b {
            return;
        }
        let key = (a.min(b), a.max(b));
        self.changes.insert(key, stat);
    }

    /// The delta between two snapshots of the same node set: every pair
    /// whose statistics differ, annotated with the `after` value.
    pub fn diff(before: &CommGraph, after: &CommGraph) -> Self {
        assert_eq!(before.n(), after.n(), "snapshots must cover the same nodes");
        let mut delta = GraphDelta::new();
        for (a, b, e) in after.edges() {
            if before.edge(a, b) != e {
                delta.note(a, b, *e);
            }
        }
        // Edges active before but inactive after (a fresh observation
        // window dropped them) are changes too.
        for (a, b, _) in before.edges() {
            if !after.edge(a, b).is_active() {
                delta.note(a, b, EdgeStat::default());
            }
        }
        delta
    }

    /// Number of changed pairs.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Iterates `((a, b), post-delta stat)` in pair order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &EdgeStat)> {
        self.changes.iter()
    }
}

/// What an incremental [`Provisioner::reprovision`] call produced.
#[derive(Debug, Clone)]
pub struct ReprovisionOutcome {
    /// The updated provisioning.
    pub provisioning: Provisioning,
    /// Which strategy produced it (its [`Provisioner::name`]).
    pub strategy: &'static str,
    /// Provisioned edges added, removed, or re-patched. Zero means the
    /// delta changed no edge's cutoff status and the layout is untouched.
    pub edges_touched: usize,
    /// The node pairs whose routes may have changed, sorted. Empty on a
    /// full rebuild (every pair may have changed — see
    /// [`full_rebuild`](Self::full_rebuild)).
    pub touched_pairs: Vec<(usize, usize)>,
    /// True when the strategy recomputed from scratch: callers must treat
    /// every cached route as stale.
    pub full_rebuild: bool,
}

/// A provisioning strategy: maps a measured communication graph onto HFAST
/// switch blocks and circuits (see [`Provisioning`]).
///
/// Strategies are stateless; the incremental entry point threads the
/// previous [`Provisioning`] through by value so an in-place update needs no
/// clone of the block pool.
pub trait Provisioner: Send + Sync {
    /// Canonical strategy name (matches [`Strategy::as_str`] for built-ins).
    fn name(&self) -> &'static str;

    /// Provisions `graph` from scratch.
    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning;

    /// Adapts `prev` to `graph` (the post-delta snapshot), given the
    /// [`GraphDelta`] accumulated since `prev` was computed.
    ///
    /// The default recomputes from scratch, which is always correct;
    /// strategies override it when they can do better (see
    /// [`PaperLinear`]'s O(changed-edges) path).
    ///
    /// The matching strategies ([`BffCircuit`], [`DemandDecomp`]) keep the
    /// default on purpose. Their clustering is one greedy pass over the
    /// global weight order, so one changed weight can re-marry a chain of
    /// pairs reaching anywhere in the graph: an exact update is not
    /// O(changed edges), and an approximate one yields a different
    /// provisioning than `provision` on the same graph.
    fn reprovision(
        &self,
        prev: Provisioning,
        graph: &CommGraph,
        delta: &GraphDelta,
    ) -> ReprovisionOutcome {
        let config = prev.config;
        drop(prev);
        ReprovisionOutcome {
            provisioning: self.provision(graph, config),
            strategy: self.name(),
            edges_touched: delta.len(),
            touched_pairs: Vec::new(),
            full_rebuild: true,
        }
    }

    /// Clones the strategy behind the trait object (all built-ins are
    /// zero-sized; [`Clustered`] clones its clustering).
    fn clone_box(&self) -> Box<dyn Provisioner>;
}

impl Clone for Box<dyn Provisioner> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn Provisioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Provisioner({})", self.name())
    }
}

/// The paper's §5.3 linear-time algorithm: one cluster (hence one block
/// chain) per node. Its digests are pinned by `tests/provisioner_goldens.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperLinear;

impl Provisioner for PaperLinear {
    fn name(&self) -> &'static str {
        Strategy::PaperLinear.as_str()
    }

    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        let clusters = (0..graph.n()).map(|v| vec![v]).collect();
        build_clustered(graph, config, clusters)
    }

    /// O(changed-edges) incremental adaptation.
    ///
    /// Under per-node clustering every cluster's chain layout is a pure
    /// function of its sorted incident above-cutoff edge list: the node
    /// always attaches at chain position 0, and the nearest-free-port rule
    /// fills positions in ascending order. So a delta only perturbs the
    /// clusters whose incident edge set changed cutoff status; everything
    /// else is structurally untouched. The rebuild tears down exactly the
    /// affected chains, resizes them, and rewires them and their incident
    /// edges with the from-scratch pass's own chain patcher and port
    /// allocator, in the global sorted order that pass uses — so positions
    /// match scratch by construction, and the
    /// `incremental_reprovision_matches_scratch` property test checks it.
    fn reprovision(
        &self,
        prev: Provisioning,
        graph: &CommGraph,
        delta: &GraphDelta,
    ) -> ReprovisionOutcome {
        let config = prev.config;
        let n = graph.n();
        // The incremental path leans on per-node clustering invariants;
        // anything else (offline nodes, shared chains, size change) falls
        // back to the always-correct scratch rebuild.
        let per_node_shape = prev.n_nodes() == n
            && prev.clusters.len() == n
            && prev.intra_edges().is_empty()
            && prev
                .clusters
                .iter()
                .enumerate()
                .all(|(cid, c)| c.nodes.as_slice() == [cid]);
        if !per_node_shape {
            return Provisioner::reprovision(&ScratchOnly(*self), prev, graph, delta);
        }

        let cutoff = config.cutoff;
        let mut p = prev;
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        let mut removed: Vec<(usize, usize)> = Vec::new();
        let mut unprov_add: Vec<(usize, usize)> = Vec::new();
        let mut unprov_del: Vec<(usize, usize)> = Vec::new();
        for (&pair, stat) in delta.iter() {
            let (a, b) = pair;
            if a >= n || b >= n {
                return Provisioner::reprovision(&ScratchOnly(*self), p, graph, delta);
            }
            let was_above = p.circuit_of(pair).is_some();
            let now_above = stat.is_active() && stat.max_msg >= cutoff;
            if was_above != now_above {
                affected.insert(a);
                affected.insert(b);
                if was_above {
                    removed.push(pair);
                }
            }
            // Keep the unprovisioned (below-cutoff) ledger in sync.
            let in_unprov = p.unprovisioned.binary_search(&pair).is_ok();
            let should_be = stat.is_active() && !now_above;
            if should_be && !in_unprov {
                unprov_add.push(pair);
            } else if !should_be && in_unprov {
                unprov_del.push(pair);
            }
        }
        for pair in unprov_del {
            if let Ok(i) = p.unprovisioned.binary_search(&pair) {
                p.unprovisioned.remove(i);
            }
        }
        for pair in unprov_add {
            if let Err(i) = p.unprovisioned.binary_search(&pair) {
                p.unprovisioned.insert(i, pair);
            }
        }
        if affected.is_empty() {
            return ReprovisionOutcome {
                provisioning: p,
                strategy: self.name(),
                edges_touched: 0,
                touched_pairs: Vec::new(),
                full_rebuild: false,
            };
        }
        // When most of the machine moved, scratch is both simpler and
        // cheaper than surgically rebuilding nearly every chain.
        if affected.len() * 2 > n {
            return Provisioner::reprovision(&ScratchOnly(*self), p, graph, delta);
        }

        // Every above-cutoff edge incident to an affected cluster must be
        // re-patched (its near-side chain position may shift).
        let mut e_fix: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &v in &affected {
            for (u, _) in graph.neighbors_thresholded(v, cutoff) {
                e_fix.insert((v.min(u), v.max(u)));
            }
        }
        // Tear down: every circuit with an endpoint on an affected chain
        // (chain links, the node attachment, and incident edge circuits).
        for &v in &affected {
            for i in 0..p.clusters[v].blocks.len() {
                let bid = p.clusters[v].blocks[i];
                for port in 0..p.blocks[bid].allocated_ports() {
                    let ep = Endpoint::BlockPort { block: bid, port };
                    if p.circuit.peer(ep).is_some() {
                        let _ = p.circuit.disconnect(ep);
                    }
                }
            }
        }

        // Resize the affected chains and rewire them with the scratch
        // pass's own chain patcher; each starts fresh in the free index.
        let mut free = FreeIndex::default();
        let mut spare = std::mem::take(&mut p.spare_blocks);
        for &v in &affected {
            let need = config.blocks_needed(1, graph.degree_thresholded(v, cutoff));
            let chain = &mut p.clusters[v].blocks;
            while chain.len() > need {
                spare.push(chain.pop().expect("len checked"));
            }
            while chain.len() < need {
                chain.push(spare.pop().unwrap_or_else(|| {
                    p.blocks
                        .push(SwitchBlock::new(p.blocks.len(), config.block_ports));
                    p.blocks.len() - 1
                }));
            }
            for &id in chain.iter() {
                p.blocks[id] = SwitchBlock::new(id, config.block_ports);
            }
            free.reset(chain);
            p.patch_chain(v);
        }
        for &id in &spare {
            p.blocks[id] = SwitchBlock::new(id, config.block_ports);
        }
        p.spare_blocks = spare;

        // Re-patch in global sorted order — the same relative order the
        // scratch pass processes each cluster's incident edges in, which is
        // what makes the resulting chain positions identical. An end on an
        // untouched cluster keeps the port and chain position of the
        // circuit it had (an edge new to the ledger has both ends
        // affected); the merge below replaces that circuit's entry.
        let mut patched = Vec::with_capacity(e_fix.len());
        for &(a, b) in &e_fix {
            let kept = p.circuit_of((a, b)).copied();
            let ends = [(0, a), (1, b)].map(|(side, v)| match kept {
                Some(ec) if !affected.contains(&v) => ec.end(side),
                _ => p.allocate_near(&mut free, v),
            });
            p.circuit
                .connect(ends[0].0, ends[1].0)
                .expect("ports free after teardown");
            patched.push(EdgeCircuit::new((a, b), ends));
        }
        p.edge_circuits = merge_ledger(std::mem::take(&mut p.edge_circuits), &removed, patched);

        let mut touched: Vec<(usize, usize)> = e_fix.into_iter().chain(removed).collect();
        touched.sort_unstable();
        touched.dedup();
        ReprovisionOutcome {
            provisioning: p,
            strategy: self.name(),
            edges_touched: touched.len(),
            touched_pairs: touched,
            full_rebuild: false,
        }
    }

    fn clone_box(&self) -> Box<dyn Provisioner> {
        Box::new(*self)
    }
}

/// One merge pass over the sorted circuit ledger `old`: drops the
/// `removed` pairs (sorted, each in `old`) and lets `patched` (sorted)
/// replace the entry for its pair or join the ledger.
fn merge_ledger(
    old: Vec<EdgeCircuit>,
    removed: &[(usize, usize)],
    patched: Vec<EdgeCircuit>,
) -> Vec<EdgeCircuit> {
    let mut merged = Vec::with_capacity(old.len() + patched.len());
    let mut removed = removed.iter().copied().peekable();
    let mut patched = patched.into_iter().peekable();
    for ec in old {
        while let Some(new) = patched.next_if(|new| new.pair < ec.pair) {
            merged.push(new);
        }
        let gone = removed.next_if_eq(&ec.pair()).is_some();
        if let Some(new) = patched.next_if(|new| new.pair == ec.pair) {
            merged.push(new);
        } else if !gone {
            merged.push(ec);
        }
    }
    merged.extend(patched);
    merged
}

/// Adapter that forces the trait's default (from-scratch) `reprovision`
/// while reporting the wrapped strategy's name — used by [`PaperLinear`]'s
/// fallback paths without recursing into its own override.
struct ScratchOnly(PaperLinear);

impl Provisioner for ScratchOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        self.0.provision(graph, config)
    }

    fn clone_box(&self) -> Box<dyn Provisioner> {
        Box::new(ScratchOnly(self.0))
    }
}

/// The above-cutoff demand pairs as `(bytes, a, b)` with `a < b`,
/// heaviest first with the endpoints breaking ties — the order the
/// matching strategies schedule them in. Pairs are distinct, so the order
/// is total and an unstable sort is deterministic.
fn demand_pairs(graph: &CommGraph, cutoff: u64) -> Vec<(u64, usize, usize)> {
    let mut pairs: Vec<_> = graph
        .edges()
        .filter(|(_, _, e)| e.max_msg >= cutoff)
        .map(|(a, b, e)| (e.bytes, a, b))
        .collect();
    pairs.sort_unstable_by_key(|&(w, a, b)| (std::cmp::Reverse(w), a, b));
    pairs
}

/// Stable-matching / best-fit-first circuit scheduling (arXiv 1712.06634's
/// BFF family): sort the above-cutoff demand pairs by weight and greedily
/// marry unmatched endpoints, so each heavy pair shares one chain (its edge
/// becomes an intra-cluster hop, the 2-traversal minimum) instead of
/// spending two external crossbar ports.
///
/// `reprovision` rebuilds from scratch (`full_rebuild = true`): one changed
/// weight can move the pair ahead of it in the global order, unmarry its
/// partners and re-marry theirs in turn, so no update bounded by the delta
/// reproduces what `provision` would build (see
/// [`Provisioner::reprovision`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BffCircuit;

impl Provisioner for BffCircuit {
    fn name(&self) -> &'static str {
        Strategy::BffCircuit.as_str()
    }

    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        let n = graph.n();
        // Heaviest-first, endpoints as deterministic tie-breakers: this is
        // the greedy maximal matching that 2-approximates max-weight
        // matching — the "best fit first" step of the BFF schedule.
        let mut partner = vec![usize::MAX; n];
        for (_, a, b) in demand_pairs(graph, config.cutoff) {
            if partner[a] == usize::MAX && partner[b] == usize::MAX {
                partner[a] = b;
                partner[b] = a;
            }
        }
        let mut clusters: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (v, &p) in partner.iter().enumerate() {
            if p == usize::MAX {
                clusters.push(vec![v]);
            } else if p > v {
                clusters.push(vec![v, p]);
            }
        }
        build_clustered(graph, config, clusters)
    }

    fn clone_box(&self) -> Box<dyn Provisioner> {
        Box::new(*self)
    }
}

/// Birkhoff–von-Neumann-style decomposition: peel maximal matchings
/// (crossbar configurations) off the residual demand matrix, and union the
/// pairs each round matches into clusters bounded by chain capacity. Heavy
/// mutually-communicating groups coalesce onto shared chains; sparse
/// traffic stays per-node.
///
/// `reprovision` rebuilds from scratch (`full_rebuild = true`) for the same
/// reason as [`BffCircuit`]: each round is a greedy matching over the
/// global weight order, and a changed weight can reshape every later
/// match and every cluster the capacity bound then admits.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandDecomp;

/// Matching rounds to peel — each round is one BvN "permutation" term.
const DECOMP_ROUNDS: usize = 3;

impl Provisioner for DemandDecomp {
    fn name(&self) -> &'static str {
        Strategy::DemandDecomp.as_str()
    }

    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        let n = graph.n();
        let cap = (config.block_ports / 4).max(2);
        // Every round walks the residual heaviest first. A round only
        // zeroes the entries it matches and skips zeros, so the order of the
        // non-zero entries, all a round reads, holds for every round.
        let mut residual = demand_pairs(graph, config.cutoff);
        // Union-find over nodes; cluster size capped so a chain stays short.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut size = vec![1usize; n];
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for _ in 0..DECOMP_ROUNDS {
            let mut matched = vec![false; n];
            for entry in residual.iter_mut() {
                let (w, a, b) = *entry;
                if w == 0 || matched[a] || matched[b] {
                    continue;
                }
                matched[a] = true;
                matched[b] = true;
                // This pair rides the round's crossbar configuration:
                // consume its demand and, capacity permitting, fuse the
                // endpoints' clusters.
                entry.0 = 0;
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb && size[ra] + size[rb] <= cap {
                    let (hi, lo) = if size[ra] >= size[rb] {
                        (ra, rb)
                    } else {
                        (rb, ra)
                    };
                    parent[lo] = hi;
                    size[hi] += size[lo];
                }
            }
        }
        let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for v in 0..n {
            let r = find(&mut parent, v);
            members.entry(r).or_default().push(v);
        }
        // Order clusters by smallest member for deterministic ids.
        let mut clusters: Vec<Vec<usize>> = members.into_values().collect();
        clusters.sort_by_key(|c| c[0]);
        build_clustered(graph, config, clusters)
    }

    fn clone_box(&self) -> Box<dyn Provisioner> {
        Box::new(*self)
    }
}

/// An explicit node clustering (e.g. [`crate::clique::cluster_nodes`] or
/// [`crate::anneal::optimize_clusters`] output) behind the [`Provisioner`]
/// trait.
#[derive(Debug, Clone)]
pub struct Clustered {
    clusters: Vec<Vec<usize>>,
}

impl Clustered {
    /// Wraps an explicit clustering. Nodes in no cluster are offline: they
    /// get no attachment, and every pair they are in walks as
    /// [`Walk::Offline`](crate::Walk::Offline).
    pub fn new(clusters: Vec<Vec<usize>>) -> Self {
        Clustered { clusters }
    }
}

impl Provisioner for Clustered {
    fn name(&self) -> &'static str {
        "clustered"
    }

    fn provision(&self, graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        build_clustered(graph, config, self.clusters.clone())
    }

    fn clone_box(&self) -> Box<dyn Provisioner> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::{complete_graph, mesh3d_graph, ring_graph};

    fn cfg() -> ProvisionConfig {
        ProvisionConfig {
            block_ports: 16,
            cutoff: 2048,
        }
    }

    #[test]
    fn strategy_round_trips_names() {
        for s in Strategy::ALL {
            assert_eq!(s.as_str().parse::<Strategy>().unwrap(), s);
            assert_eq!(s.provisioner().name(), s.as_str());
        }
        assert!("fastest_possible".parse::<Strategy>().is_err());
    }

    #[test]
    fn bff_pairs_heavy_partners_onto_shared_chains() {
        // Disjoint heavy pairs: BFF puts each pair on one chain (one block),
        // halving blocks vs per-node and hitting the 2-traversal minimum.
        let n = 8;
        let mut g = CommGraph::new(n);
        for i in 0..n / 2 {
            g.add_message(2 * i, 2 * i + 1, 1 << 20);
        }
        let bff = BffCircuit.provision(&g, cfg());
        let pl = PaperLinear.provision(&g, cfg());
        bff.validate(&g).unwrap();
        assert_eq!(bff.total_blocks(), n / 2);
        assert_eq!(pl.total_blocks(), n);
        let r = bff.route(0, 1).unwrap();
        assert_eq!(r.circuit_traversals, 2);
        assert_eq!(r.switch_hops, 1);
    }

    #[test]
    fn bff_is_deterministic_under_ties() {
        let g = complete_graph(12, 1 << 20);
        let a = BffCircuit.provision(&g, cfg());
        let b = BffCircuit.provision(&g, cfg());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn demand_decomp_coalesces_cliques() {
        // Four 4-cliques of heavy traffic: three matching rounds fuse each
        // clique into one bounded cluster (cap = 16/4 = 4).
        let n = 16;
        let mut g = CommGraph::new(n);
        for c in 0..4 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_message(4 * c + i, 4 * c + j, 1 << 20);
                }
            }
        }
        let dd = DemandDecomp.provision(&g, cfg());
        dd.validate(&g).unwrap();
        let pl = PaperLinear.provision(&g, cfg());
        assert!(
            dd.total_blocks() < pl.total_blocks(),
            "decomposition shares chains: {} vs {}",
            dd.total_blocks(),
            pl.total_blocks()
        );
    }

    #[test]
    fn all_strategies_validate_on_apps_shapes() {
        let graphs = [
            ring_graph(32, 1 << 20),
            mesh3d_graph((4, 4, 2), 300 << 10),
            complete_graph(16, 1 << 20),
        ];
        for g in &graphs {
            for s in Strategy::ALL {
                let p = s.provisioner().provision(g, cfg());
                p.validate(g).unwrap_or_else(|e| panic!("{s}: {e}"));
            }
        }
    }

    #[test]
    fn default_reprovision_recomputes_from_scratch() {
        let mut g = ring_graph(8, 1 << 20);
        let prev = BffCircuit.provision(&g, cfg());
        let mut delta = GraphDelta::new();
        g.add_message(0, 4, 1 << 20);
        delta.note(0, 4, *g.edge(0, 4));
        let out = BffCircuit.reprovision(prev, &g, &delta);
        assert!(out.full_rebuild);
        assert_eq!(out.strategy, "bff_circuit");
        out.provisioning.validate(&g).unwrap();
        assert!(out.provisioning.route(0, 4).is_some());
    }

    #[test]
    fn incremental_noop_when_status_unchanged() {
        let mut g = ring_graph(16, 1 << 20);
        let prev = PaperLinear.provision(&g, cfg());
        let digest = prev.digest();
        // More traffic on an existing circuit: no structural change.
        let mut delta = GraphDelta::new();
        g.add_message(3, 4, 1 << 20);
        delta.note(3, 4, *g.edge(3, 4));
        let out = PaperLinear.reprovision(prev, &g, &delta);
        assert!(!out.full_rebuild);
        assert_eq!(out.edges_touched, 0);
        assert_eq!(out.provisioning.digest(), digest);
    }

    #[test]
    fn incremental_adds_a_circuit() {
        let mut g = ring_graph(16, 1 << 20);
        let prev = PaperLinear.provision(&g, cfg());
        let mut delta = GraphDelta::new();
        g.add_message(2, 9, 1 << 20);
        delta.note(2, 9, *g.edge(2, 9));
        let out = PaperLinear.reprovision(prev, &g, &delta);
        assert!(!out.full_rebuild);
        assert!(out.edges_touched >= 1);
        assert!(out.touched_pairs.contains(&(2, 9)));
        out.provisioning.validate(&g).unwrap();
        // Structurally equivalent to scratch.
        let scratch = PaperLinear.provision(&g, cfg());
        assert_eq!(
            out.provisioning.total_blocks(),
            scratch.total_blocks(),
            "incremental and scratch agree on the pool"
        );
        assert_eq!(
            out.provisioning
                .edge_circuits
                .iter()
                .map(|ec| (ec.pair, ec.pos))
                .collect::<Vec<_>>(),
            scratch
                .edge_circuits
                .iter()
                .map(|ec| (ec.pair, ec.pos))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn incremental_grows_a_chain() {
        // Node 0 takes on enough partners to need more chain blocks.
        let mut g = CommGraph::new(40);
        for i in 1..10 {
            g.add_message(0, i, 1 << 20);
        }
        let prev = PaperLinear.provision(&g, cfg());
        assert_eq!(prev.clusters[0].blocks.len(), 1);
        let mut delta = GraphDelta::new();
        for i in 10..40 {
            g.add_message(0, i, 1 << 20);
            delta.note(0, i, *g.edge(0, i));
        }
        let out = PaperLinear.reprovision(prev, &g, &delta);
        out.provisioning.validate(&g).unwrap();
        let scratch = PaperLinear.provision(&g, cfg());
        assert_eq!(
            out.provisioning.clusters[0].blocks.len(),
            scratch.clusters[0].blocks.len()
        );
        assert_eq!(out.provisioning.total_blocks(), scratch.total_blocks());
    }

    #[test]
    fn incremental_removal_shrinks_back() {
        // A fresh observation window without the chord: the circuit is torn
        // down and the pair (still active, below cutoff) rides the tree.
        let mut g = ring_graph(16, 1 << 20);
        g.add_message(2, 9, 1 << 20);
        let prev = PaperLinear.provision(&g, cfg());
        assert!(prev.circuit_of((2, 9)).is_some());
        // New window: the chord only carries tiny messages now.
        let mut g2 = ring_graph(16, 1 << 20);
        g2.add_message(2, 9, 64);
        let delta = GraphDelta::diff(&g, &g2);
        let out = PaperLinear.reprovision(prev, &g2, &delta);
        assert!(!out.full_rebuild);
        assert!(out.provisioning.circuit_of((2, 9)).is_none());
        assert!(out.provisioning.unprovisioned.contains(&(2, 9)));
        out.provisioning.validate(&g2).unwrap();
        let scratch = PaperLinear.provision(&g2, cfg());
        assert_eq!(out.provisioning.total_blocks(), scratch.total_blocks());
    }

    #[test]
    fn merge_ledger_drops_removed_pairs_and_applies_patches() {
        let entry = |a, b, pos| {
            let port = Endpoint::BlockPort { block: 0, port: 0 };
            EdgeCircuit::new((a, b), [(port, pos), (port, pos)])
        };
        let old = vec![
            entry(0, 1, 0),
            entry(0, 2, 0),
            entry(1, 2, 0),
            entry(2, 3, 0),
        ];
        // (0, 2) is both removed and re-patched: the patch wins, and the
        // removal of (2, 3) after it still applies.
        let patched = vec![entry(0, 2, 1), entry(1, 3, 1), entry(3, 4, 1)];
        let merged = merge_ledger(old, &[(0, 2), (2, 3)], patched);
        let got: Vec<_> = merged.iter().map(|ec| (ec.pair(), ec.pos[0])).collect();
        assert_eq!(
            got,
            [
                ((0, 1), 0),
                ((0, 2), 1),
                ((1, 2), 0),
                ((1, 3), 1),
                ((3, 4), 1)
            ]
        );
    }

    #[test]
    fn delta_diff_catches_all_changes() {
        let mut before = ring_graph(8, 1 << 20);
        before.add_message(0, 4, 4096);
        let mut after = ring_graph(8, 1 << 20);
        after.add_message(1, 5, 4096);
        let delta = GraphDelta::diff(&before, &after);
        let pairs: Vec<_> = delta.iter().map(|(&p, _)| p).collect();
        assert!(pairs.contains(&(0, 4)), "dropped edge noted");
        assert!(pairs.contains(&(1, 5)), "new edge noted");
        assert!(!pairs.contains(&(0, 1)), "unchanged edge not noted");
    }
}
