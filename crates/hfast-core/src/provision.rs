//! HFAST provisioning: assigning packet-switch blocks and circuit-switch
//! patches to realize a measured communication topology.
//!
//! The paper's §5.3 cost analysis uses a deliberately simple linear-time
//! algorithm: every node whose thresholded TDC fits in one switch block gets
//! one block; higher-degree nodes get a tree (here: a chain, the degenerate
//! tree) of blocks. The algorithm "uses potentially twice as many switch
//! ports as an optimal embedding, but … will complete in linear time". The
//! clique-mapping improvement the paper leaves as future work is implemented
//! in [`crate::clique`], producing the same [`Provisioning`] structure with
//! shared blocks.

use std::collections::BTreeMap;

use hfast_topology::CommGraph;

use crate::switch::{CircuitSwitch, Endpoint, SwitchBlock};

/// Provisioning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvisionConfig {
    /// Ports per packet switch block (paper §5: "a homogeneous active switch
    /// block size of 16 ports", leaving 15 for partners after the node
    /// attachment).
    pub block_ports: usize,
    /// Message-size cutoff: edges whose largest message is below this gain
    /// nothing from a circuit and are left to the low-bandwidth collective
    /// network (§2.4's 2 KB bandwidth-delay product).
    pub cutoff: u64,
}

impl Default for ProvisionConfig {
    fn default() -> Self {
        ProvisionConfig {
            block_ports: 16,
            cutoff: crate::bdp::TARGET_BDP_BYTES,
        }
    }
}

impl ProvisionConfig {
    /// Partner capacity of a chain of `b` blocks serving `attachments`
    /// nodes: total ports minus chain-internal links minus attachments.
    pub fn chain_capacity(&self, blocks: usize, attachments: usize) -> isize {
        let total = blocks * self.block_ports;
        let internal = 2 * (blocks.saturating_sub(1));
        total as isize - internal as isize - attachments as isize
    }

    /// Minimum blocks for a cluster with `attachments` nodes and
    /// `external_ports` edge endpoints.
    pub fn blocks_needed(&self, attachments: usize, external_ports: usize) -> usize {
        let k = self.block_ports;
        assert!(k >= 3, "chained blocks need at least 3 ports");
        let mut b = 1;
        while self.chain_capacity(b, attachments) < external_ports as isize {
            b += 1;
        }
        b
    }
}

/// A group of nodes sharing a chain of switch blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Cluster id.
    pub id: usize,
    /// Member nodes.
    pub nodes: Vec<usize>,
    /// Chain of block ids; consecutive blocks are circuit-linked.
    pub blocks: Vec<usize>,
}

/// Where a provisioned edge lands: chain positions of the blocks holding the
/// patched ports on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCircuit {
    /// Chain position (within the lower endpoint's cluster).
    pub a_chain_pos: usize,
    /// Chain position (within the higher endpoint's cluster).
    pub b_chain_pos: usize,
    /// The patched block ports.
    pub ports: (Endpoint, Endpoint),
}

/// Path cost of a message across the provisioned fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Crossings of the circuit-switch crossbar.
    pub circuit_traversals: usize,
    /// Packet switch blocks traversed.
    pub switch_hops: usize,
}

impl Route {
    /// End-to-end switching latency: packet-switch hops only (the passive
    /// circuit switch contributes nothing beyond propagation, §2.1).
    pub fn latency_ns(&self) -> u64 {
        self.switch_hops as u64 * SwitchBlock::HOP_LATENCY_NS
    }
}

/// A complete HFAST provisioning: block pool, circuit patches, and the
/// mapping from the application's communication graph onto them.
#[derive(Debug, Clone)]
pub struct Provisioning {
    /// Parameters used.
    pub config: ProvisionConfig,
    /// Number of compute nodes.
    pub n_nodes: usize,
    /// Node clusters sharing block chains.
    pub clusters: Vec<Cluster>,
    /// Cluster id per node.
    pub node_cluster: Vec<usize>,
    /// The block pool.
    pub blocks: Vec<SwitchBlock>,
    /// The circuit-switch state realizing the topology.
    pub circuit: CircuitSwitch,
    /// Attachment of each node: (block id, chain position).
    pub attach: Vec<(usize, usize)>,
    /// Provisioned inter-cluster edges, keyed `(min, max)`.
    pub edge_circuits: BTreeMap<(usize, usize), EdgeCircuit>,
    /// Edges served inside a shared block chain (no dedicated circuit).
    pub intra_edges: Vec<(usize, usize)>,
    /// Edges below the cutoff, relegated to the low-bandwidth network.
    pub unprovisioned: Vec<(usize, usize)>,
    /// Block-pool slots released by incremental re-provisioning (see
    /// [`crate::provisioner::Provisioner::reprovision`]): the ids stay in
    /// [`blocks`](Self::blocks) so every other id remains stable, but they
    /// hold no ports and are excluded from [`total_blocks`](Self::total_blocks).
    /// Always empty after a from-scratch build.
    pub spare_blocks: Vec<usize>,
}

/// Provisions `graph` with an explicit node clustering — the shared
/// algorithm behind every [`crate::provisioner::Provisioner`] strategy
/// (they differ only in the clustering they feed it).
pub(crate) fn build_clustered(
    graph: &CommGraph,
    config: ProvisionConfig,
    clustering: Vec<Vec<usize>>,
) -> Provisioning {
    let n = graph.n();

    // Validate the clustering assigns each node at most once. Nodes in
    // no cluster are *offline* (failed/absent): they get no attachment
    // and no routes — the mechanism behind fault re-provisioning.
    let mut node_cluster = vec![usize::MAX; n];
    for (cid, members) in clustering.iter().enumerate() {
        for &v in members {
            assert!(v < n, "cluster references node {v} out of range");
            assert_eq!(
                node_cluster[v],
                usize::MAX,
                "node {v} appears in two clusters"
            );
            node_cluster[v] = cid;
        }
    }

    // Classify edges.
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    let mut unprov = Vec::new();
    for (a, b, e) in graph.edges() {
        if node_cluster[a] == usize::MAX || node_cluster[b] == usize::MAX {
            continue; // edges touching offline nodes are ignored
        }
        if e.max_msg < config.cutoff {
            unprov.push((a, b));
        } else if node_cluster[a] == node_cluster[b] {
            intra.push((a, b));
        } else {
            inter.push((a, b));
        }
    }

    // External port demand per cluster.
    let mut external = vec![0usize; clustering.len()];
    for &(a, b) in &inter {
        external[node_cluster[a]] += 1;
        external[node_cluster[b]] += 1;
    }

    // Build block chains per cluster.
    let mut blocks: Vec<SwitchBlock> = Vec::new();
    let mut circuit = CircuitSwitch::new();
    let mut clusters = Vec::with_capacity(clustering.len());
    let mut attach = vec![(usize::MAX, usize::MAX); n];
    for (cid, members) in clustering.into_iter().enumerate() {
        let b = config.blocks_needed(members.len(), external[cid]);
        let first = blocks.len();
        for i in 0..b {
            blocks.push(SwitchBlock::new(first + i, config.block_ports));
        }
        let chain: Vec<usize> = (first..first + b).collect();
        // Chain links consume one port on each adjacent block.
        for w in chain.windows(2) {
            let pa = blocks[w[0]].allocate_port().expect("chain port");
            let pb = blocks[w[1]].allocate_port().expect("chain port");
            circuit
                .connect(
                    Endpoint::BlockPort {
                        block: w[0],
                        port: pa,
                    },
                    Endpoint::BlockPort {
                        block: w[1],
                        port: pb,
                    },
                )
                .expect("fresh ports cannot collide");
        }
        // Attach member nodes, spread across the chain.
        for (i, &v) in members.iter().enumerate() {
            let pos = i * chain.len() / members.len().max(1);
            // The chosen block may be full of chain links in pathological
            // configs; fall back to scanning.
            let pos = (0..chain.len())
                .map(|off| (pos + off) % chain.len())
                .find(|&p| blocks[chain[p]].free_ports() > 0)
                .expect("capacity accounted for attachments");
            let block = chain[pos];
            let port = blocks[block].allocate_port().expect("checked free");
            circuit
                .connect(Endpoint::Node(v), Endpoint::BlockPort { block, port })
                .expect("fresh ports cannot collide");
            attach[v] = (block, pos);
        }
        clusters.push(Cluster {
            id: cid,
            nodes: members,
            blocks: chain,
        });
    }

    // Patch a dedicated circuit per inter-cluster edge, placing each
    // port as close to its node's attachment block as possible.
    let allocate_near =
        |clusters: &[Cluster], blocks: &mut [SwitchBlock], v: usize| -> (usize, usize, usize) {
            let chain = &clusters[node_cluster[v]].blocks;
            let home = attach[v].1;
            // Nearest chain block with a free port; one always exists
            // because blocks_needed() sized the chain for attachments
            // plus every external edge endpoint.
            let pos = (0..chain.len())
                .filter(|&p| blocks[chain[p]].free_ports() > 0)
                .min_by_key(|&p| (p as isize - home as isize).unsigned_abs())
                .expect("capacity accounted for external edges");
            let block = chain[pos];
            let port = blocks[block].allocate_port().expect("checked free");
            (block, port, pos)
        };
    // `collect` gathers the circuits and bulk-builds the map from them,
    // which for input already sorted by `(a, b)` (as `inter` is) costs one
    // pass rather than a tree search per insert.
    let edge_circuits: BTreeMap<_, _> = inter
        .iter()
        .map(|&(a, b)| {
            let (blk_a, port_a, pos_a) = allocate_near(&clusters, &mut blocks, a);
            let (blk_b, port_b, pos_b) = allocate_near(&clusters, &mut blocks, b);
            let ea = Endpoint::BlockPort {
                block: blk_a,
                port: port_a,
            };
            let eb = Endpoint::BlockPort {
                block: blk_b,
                port: port_b,
            };
            circuit.connect(ea, eb).expect("fresh ports cannot collide");
            let ec = EdgeCircuit {
                a_chain_pos: pos_a,
                b_chain_pos: pos_b,
                ports: (ea, eb),
            };
            ((a, b), ec)
        })
        .collect();

    let prov = Provisioning {
        config,
        n_nodes: n,
        clusters,
        node_cluster,
        blocks,
        circuit,
        attach,
        edge_circuits,
        intra_edges: intra,
        unprovisioned: unprov,
        spare_blocks: Vec::new(),
    };
    if hfast_obs::enabled() {
        let obs = crate::obs::provision_obs();
        obs.builds.inc();
        obs.blocks.record(prov.total_blocks() as u64);
        obs.circuits.record(prov.edge_circuits.len() as u64);
    }
    prov
}

impl Provisioning {
    /// Number of packet switch blocks consumed (`N_active` in §5.3).
    ///
    /// Spare slots parked by incremental re-provisioning hold no ports and
    /// do not count.
    pub fn total_blocks(&self) -> usize {
        self.blocks.len() - self.spare_blocks.len()
    }

    /// Order-stable FNV-1a digest of the complete structure: config, pool,
    /// attachments, circuits, and edge ledgers. Two provisionings with the
    /// same digest route identically; the bake-off pins `PaperLinear`
    /// digests against pre-trait goldens with it.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        let ep = |e: &Endpoint| -> u64 {
            match *e {
                Endpoint::Node(v) => (v as u64) << 1,
                Endpoint::BlockPort { block, port } => {
                    ((block as u64) << 17 | port as u64) << 1 | 1
                }
            }
        };
        fold(self.config.block_ports as u64);
        fold(self.config.cutoff);
        fold(self.n_nodes as u64);
        fold(self.total_blocks() as u64);
        for c in &self.clusters {
            fold(c.id as u64);
            fold(c.nodes.len() as u64);
            for &v in &c.nodes {
                fold(v as u64);
            }
            fold(c.blocks.len() as u64);
        }
        for &(block, pos) in &self.attach {
            fold(block as u64);
            fold(pos as u64);
        }
        for b in &self.blocks {
            fold(b.allocated_ports() as u64);
        }
        for (&(a, b), ec) in &self.edge_circuits {
            fold(a as u64);
            fold(b as u64);
            fold(ec.a_chain_pos as u64);
            fold(ec.b_chain_pos as u64);
            fold(ep(&ec.ports.0));
            fold(ep(&ec.ports.1));
        }
        for &(a, b) in &self.intra_edges {
            fold(a as u64);
            fold(b as u64);
        }
        for &(a, b) in &self.unprovisioned {
            fold(a as u64);
            fold(b as u64);
        }
        h
    }

    /// Total packet-switch ports purchased (blocks × ports).
    pub fn total_block_ports(&self) -> usize {
        self.total_blocks() * self.config.block_ports
    }

    /// Circuit-switch ports in use (node attachments + block-side patches).
    pub fn circuit_ports_used(&self) -> usize {
        self.circuit.ports_in_use()
    }

    /// Packet-switch ports per node — the quantity whose linear scaling is
    /// HFAST's selling point against the fat-tree's `1 + 2(L−1)`.
    pub fn block_ports_per_node(&self) -> f64 {
        self.total_block_ports() as f64 / self.n_nodes.max(1) as f64
    }

    /// Route of a provisioned node pair, or `None` if the pair has no
    /// provisioned path (below-cutoff traffic rides the low-bandwidth
    /// network).
    pub fn route(&self, a: usize, b: usize) -> Option<Route> {
        if a == b || a >= self.n_nodes || b >= self.n_nodes {
            return None;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ca = self.node_cluster[lo];
        let cb = self.node_cluster[hi];
        if ca == usize::MAX || cb == usize::MAX {
            return None; // offline endpoint
        }
        if ca == cb {
            // Same chain: up into the fabric, along the chain, back down —
            // but only if the pair is actually connected (intra edge) or
            // simply shares the chain (any pair in a cluster can talk).
            let pa = self.attach[lo].1;
            let pb = self.attach[hi].1;
            let chain_hops = pa.abs_diff(pb);
            return Some(Route {
                circuit_traversals: 2 + chain_hops,
                switch_hops: 1 + chain_hops,
            });
        }
        let ec = self.edge_circuits.get(&(lo, hi))?;
        let da = self.attach[lo].1.abs_diff(ec.a_chain_pos);
        let db = self.attach[hi].1.abs_diff(ec.b_chain_pos);
        Some(Route {
            circuit_traversals: 3 + da + db,
            switch_hops: 2 + da + db,
        })
    }

    /// Worst provisioned route in the fabric.
    pub fn max_route(&self) -> Option<Route> {
        let mut worst: Option<Route> = None;
        let consider = |worst: &mut Option<Route>, r: Route| {
            if worst.is_none_or(|w| r.switch_hops > w.switch_hops) {
                *worst = Some(r);
            }
        };
        for &(a, b) in self.edge_circuits.keys() {
            if let Some(r) = self.route(a, b) {
                consider(&mut worst, r);
            }
        }
        for &(a, b) in &self.intra_edges {
            if let Some(r) = self.route(a, b) {
                consider(&mut worst, r);
            }
        }
        worst
    }

    /// Structural invariants: every above-cutoff edge is served, circuits
    /// are consistent, and no block over-allocates. Used by tests.
    ///
    /// One pass over each structure: `graph.edges()` and
    /// `edge_circuits.keys()` both ascend by `(a, b)`, so the edges that
    /// need a dedicated circuit are matched against the patched ones in a
    /// merge walk. The first edge with none is reported.
    pub fn validate(&self, graph: &CommGraph) -> Result<(), String> {
        if !self.circuit.is_consistent() {
            return Err("circuit pairing inconsistent".into());
        }
        for b in &self.blocks {
            if b.allocated_ports() > b.ports {
                return Err(format!("block {} over-allocated", b.id));
            }
        }
        let mut patched = self.edge_circuits.keys().peekable();
        for (a, b, e) in graph.edges() {
            if e.max_msg < self.config.cutoff {
                continue;
            }
            let (ca, cb) = (self.node_cluster[a], self.node_cluster[b]);
            if ca == usize::MAX || cb == usize::MAX {
                continue; // offline endpoints have no routes by design
            }
            if ca == cb {
                continue; // a shared chain serves every pair on it (see `route`)
            }
            while patched.next_if(|&&pair| pair < (a, b)).is_some() {}
            if patched.next_if_eq(&&(a, b)).is_none() {
                return Err(format!("edge ({a},{b}) above cutoff but unrouted"));
            }
        }
        for (i, &(block, _pos)) in self.attach.iter().enumerate() {
            if self.node_cluster[i] == usize::MAX {
                continue; // offline node: no attachment expected
            }
            match self.circuit.peer(Endpoint::Node(i)) {
                Some(Endpoint::BlockPort { block: bb, .. }) if bb == block => {}
                other => return Err(format!("node {i} attachment wrong: {other:?}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provisioner::{Clustered, PaperLinear, Provisioner};
    use hfast_topology::generators::{complete_graph, mesh3d_graph, ring_graph};

    fn per_node(graph: &CommGraph, config: ProvisionConfig) -> Provisioning {
        PaperLinear.provision(graph, config)
    }

    fn build(graph: &CommGraph, config: ProvisionConfig, c: Vec<Vec<usize>>) -> Provisioning {
        Clustered::new(c).provision(graph, config)
    }

    fn cfg(k: usize) -> ProvisionConfig {
        ProvisionConfig {
            block_ports: k,
            cutoff: 2048,
        }
    }

    #[test]
    fn blocks_needed_formula() {
        let c = cfg(16);
        // One node, up to 15 partners in one block.
        assert_eq!(c.blocks_needed(1, 15), 1);
        assert_eq!(c.blocks_needed(1, 16), 2);
        // Two chained blocks expose 2*16 - 2 - 1 = 29 partner ports.
        assert_eq!(c.blocks_needed(1, 29), 2);
        assert_eq!(c.blocks_needed(1, 30), 3);
        assert_eq!(c.blocks_needed(1, 0), 1);
        // Shared chain with 4 attachments.
        assert_eq!(c.blocks_needed(4, 12), 1);
        assert_eq!(c.blocks_needed(4, 13), 2);
    }

    #[test]
    fn per_node_ring_uses_one_block_each() {
        let g = ring_graph(8, 100_000);
        let p = per_node(&g, cfg(16));
        assert_eq!(p.total_blocks(), 8, "TDC 2 < 15: one block per node");
        p.validate(&g).unwrap();
        let r = p.route(0, 1).unwrap();
        assert_eq!(r.circuit_traversals, 3);
        assert_eq!(r.switch_hops, 2);
        assert_eq!(r.latency_ns(), 100);
    }

    #[test]
    fn mesh_provisioning_matches_paper_cactus_case() {
        // Cactus-like: 4x4x4 mesh, TDC ≤ 6 → N_active = P.
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let p = per_node(&g, ProvisionConfig::default());
        assert_eq!(p.total_blocks(), 64);
        assert!((p.block_ports_per_node() - 16.0).abs() < 1e-12);
        p.validate(&g).unwrap();
    }

    #[test]
    fn high_degree_node_gets_block_tree() {
        // Star with 40 partners: needs ceil per chain capacity with k=16:
        // 1 block: 15, 2 blocks: 29, 3 blocks: 43 ≥ 40.
        let mut g = CommGraph::new(41);
        for i in 1..41 {
            g.add_message(0, i, 1 << 20);
        }
        let p = per_node(&g, cfg(16));
        let hub_cluster = &p.clusters[p.node_cluster[0]];
        assert_eq!(hub_cluster.blocks.len(), 3);
        // Leaves keep a single block.
        assert_eq!(p.clusters[p.node_cluster[1]].blocks.len(), 1);
        assert_eq!(p.total_blocks(), 3 + 40);
        p.validate(&g).unwrap();
        // Worst route crosses the hub's chain.
        let worst = p.max_route().unwrap();
        assert!(worst.switch_hops >= 2);
        assert!(worst.switch_hops <= 2 + 2, "chain adds at most 2 hops here");
    }

    #[test]
    fn below_cutoff_edges_are_not_provisioned() {
        let mut g = ring_graph(6, 100_000);
        g.add_message(0, 3, 64); // latency-bound chord
        let p = per_node(&g, cfg(16));
        assert_eq!(p.unprovisioned, vec![(0, 3)]);
        assert!(p.route(0, 3).is_none());
        assert!(p.route(0, 1).is_some());
        p.validate(&g).unwrap();
    }

    #[test]
    fn clustered_provisioning_shares_blocks() {
        // 4-cliques of big messages: per-node wastes ports, clusters don't.
        let n = 16;
        let mut g = CommGraph::new(n);
        for c in 0..4 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_message(4 * c + i, 4 * c + j, 1 << 20);
                }
            }
        }
        let clustering: Vec<Vec<usize>> = (0..4).map(|c| (4 * c..4 * c + 4).collect()).collect();
        let clustered = build(&g, cfg(16), clustering);
        let per_node = per_node(&g, cfg(16));
        clustered.validate(&g).unwrap();
        per_node.validate(&g).unwrap();
        assert_eq!(clustered.total_blocks(), 4, "one block per clique");
        assert_eq!(per_node.total_blocks(), 16);
        // Intra-cluster routes hit the paper's 2-traversal minimum.
        let r = clustered.route(0, 1).unwrap();
        assert_eq!(r.circuit_traversals, 2);
        assert_eq!(r.switch_hops, 1);
    }

    #[test]
    fn figure1_example_six_nodes_blocks_of_four() {
        // The paper's Figure 1 right panel: 6 nodes, block size 4,
        // nodes {1,2,3} on SB1 and {4,5,6} on SB2 (0-indexed here).
        let mut g = CommGraph::new(6);
        g.add_message(0, 1, 1 << 20); // intra-SB pair
        g.add_message(0, 5, 1 << 20); // crosses both blocks
        let clustering = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let p = build(&g, cfg(4), clustering);
        p.validate(&g).unwrap();
        // node1→node2: through the circuit switch into SB1 and back: 2
        // traversals, 1 active hop.
        let r01 = p.route(0, 1).unwrap();
        assert_eq!(r01.circuit_traversals, 2);
        assert_eq!(r01.switch_hops, 1);
        // node1→node6: SB1 then SB2: 3 traversals, 2 hops (paper §2.3).
        let r05 = p.route(0, 5).unwrap();
        assert_eq!(r05.circuit_traversals, 3);
        assert_eq!(r05.switch_hops, 2);
    }

    #[test]
    fn fully_connected_strains_the_pool() {
        let g = complete_graph(8, 1 << 20);
        let p = per_node(&g, cfg(16));
        p.validate(&g).unwrap();
        // Degree 7 < 15: still one block per node, every port busy.
        assert_eq!(p.total_blocks(), 8);
        let used: usize = p.blocks.iter().map(|b| b.allocated_ports()).sum();
        assert_eq!(used, 8 * (1 + 7));
    }

    #[test]
    fn empty_graph_gets_attachments_only() {
        let g = CommGraph::new(4);
        let p = per_node(&g, cfg(16));
        assert_eq!(p.total_blocks(), 4);
        assert_eq!(p.edge_circuits.len(), 0);
        assert_eq!(p.circuit_ports_used(), 8, "4 node-block patches");
        p.validate(&g).unwrap();
    }

    /// A 12-node ring with two heavy chords, one block per node.
    fn ring_with_chords() -> (CommGraph, Provisioning) {
        let mut g = ring_graph(12, 1 << 20);
        g.add_message(1, 7, 1 << 20);
        g.add_message(4, 10, 1 << 20);
        let p = per_node(&g, cfg(16));
        p.validate(&g).unwrap();
        (g, p)
    }

    #[test]
    fn validate_names_the_first_unrouted_edge_in_graph_order() {
        let (g, mut p) = ring_with_chords();
        for pair in [(5, 6), (4, 10), (1, 7)] {
            assert!(p.edge_circuits.remove(&pair).is_some(), "{pair:?} patched");
        }
        assert_eq!(
            p.validate(&g),
            Err("edge (1,7) above cutoff but unrouted".to_string())
        );
    }

    #[test]
    fn validate_ignores_circuits_for_pairs_the_graph_lacks() {
        let (g, mut p) = ring_with_chords();
        let spare = p.edge_circuits[&(1, 7)];
        p.edge_circuits.insert((0, 5), spare);
        p.edge_circuits.insert((2, 9), spare);
        p.validate(&g).unwrap();
    }

    #[test]
    fn validate_rejects_an_over_allocated_block() {
        let (g, mut p) = ring_with_chords();
        p.blocks[7].ports = 2;
        assert_eq!(p.validate(&g), Err("block 7 over-allocated".to_string()));
    }

    #[test]
    fn validate_rejects_a_node_patched_to_the_wrong_block() {
        let (g, mut p) = ring_with_chords();
        let theirs = p.circuit.disconnect(Endpoint::Node(9)).unwrap();
        p.circuit.disconnect(Endpoint::Node(5)).unwrap();
        p.circuit.connect(Endpoint::Node(5), theirs).unwrap();
        assert_eq!(
            p.validate(&g),
            Err("node 5 attachment wrong: Some(BlockPort { block: 9, port: 0 })".to_string())
        );
        p.circuit.disconnect(Endpoint::Node(5)).unwrap();
        assert_eq!(
            p.validate(&g),
            Err("node 5 attachment wrong: None".to_string())
        );
    }

    #[test]
    fn validate_skips_offline_endpoints() {
        // Node 3 is in no cluster: its heavy edges have no circuit and it
        // has no attachment, and neither is an error.
        let g = ring_graph(8, 1 << 20);
        let online = (0..8).filter(|&v| v != 3).map(|v| vec![v]).collect();
        let p = build(&g, cfg(16), online);
        assert!(p.route(2, 3).is_none() && p.route(3, 4).is_none());
        assert_eq!(p.attach[3], (usize::MAX, usize::MAX));
        p.validate(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn overlapping_clusters_rejected() {
        let g = ring_graph(4, 100_000);
        build(&g, cfg(16), vec![vec![0, 1], vec![1, 2, 3]]);
    }
}
