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

use hfast_topology::CommGraph;

use crate::switch::{pack, unpack, CircuitSwitch, Endpoint, SwitchBlock};

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

/// A group of nodes sharing a chain of switch blocks; its id is its index
/// in `Provisioning::clusters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cluster {
    /// Member nodes.
    pub(crate) nodes: Vec<usize>,
    /// Chain of block ids; consecutive blocks are circuit-linked.
    pub(crate) blocks: Vec<usize>,
}

/// A provisioned edge as the circuit ledger stores it, in 32 bytes: the
/// node pair, where its circuit lands on each side's chain, and the two
/// patched block ports. Side 0 is the lower node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeCircuit {
    /// The node pair, lower node first; the ledger ascends by it.
    pub(crate) pair: [u32; 2],
    /// Chain position, within each side's cluster, of the block holding
    /// that side's patched port.
    pub(crate) pos: [u32; 2],
    /// The patched block ports, [`pack`]ed as the crossbar stores them.
    pub(crate) ports: [u64; 2],
}

/// Narrows a node id or chain position to the ledger's width.
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("node ids and chain positions fit in u32")
}

impl EdgeCircuit {
    /// The circuit for `pair` patched at `ends`, each a port and its chain
    /// position.
    pub(crate) fn new((a, b): (usize, usize), ends: [(Endpoint, usize); 2]) -> Self {
        EdgeCircuit {
            pair: [narrow(a), narrow(b)],
            pos: ends.map(|(_, pos)| narrow(pos)),
            ports: ends.map(|(port, _)| pack(port)),
        }
    }

    /// The node pair, lower node first.
    pub(crate) fn pair(&self) -> (usize, usize) {
        (self.pair[0] as usize, self.pair[1] as usize)
    }

    /// Side `side`'s patched port and its chain position.
    pub(crate) fn end(&self, side: usize) -> (Endpoint, usize) {
        let port = unpack(self.ports[side]).expect("a ledger port is patched");
        (port, self.pos[side] as usize)
    }
}

/// Where the nearest block with a free port lies on either side of every
/// chain position, for one provisioning pass: two union-find forests over
/// chain positions, one searching right and one left, keyed by block id.
///
/// A link points from a position to one nearer the search's end with every
/// block strictly between full, so a search follows links to the first
/// block with a free port and then points the path at it. Blocks only fill
/// within a pass, so a link never goes stale; a block that filled since the
/// last search is linked past when a search reaches it. A chain a pass
/// rebuilds must be [`reset`](Self::reset) first: its blocks may have
/// come from other chains, and their old links name other positions.
#[derive(Debug, Default)]
pub(crate) struct FreeIndex {
    /// Per block: a position at or right of its own; `len` is off the end.
    right: Vec<u32>,
    /// Per block: a mirrored position, `len - 1 - p`, at or right of its
    /// own; `len` is off the left end.
    left: Vec<u32>,
}

impl FreeIndex {
    /// Starts `chain` fresh: every position its own root.
    pub(crate) fn reset(&mut self, chain: &[usize]) {
        let len = chain.len();
        for (p, &block) in chain.iter().enumerate() {
            if block >= self.right.len() {
                self.right.resize(block + 1, 0);
                self.left.resize(block + 1, 0);
            }
            self.right[block] = narrow(p);
            self.left[block] = narrow(len - 1 - p);
        }
    }

    /// The position nearest `home` on `chain` whose block has a free port,
    /// ties to the lower position, or `None` when every block is full.
    fn nearest(&mut self, blocks: &[SwitchBlock], chain: &[usize], home: usize) -> Option<usize> {
        let len = chain.len();
        let right = skip_full(&mut self.right, blocks, chain, |c| c, home);
        let left = skip_full(
            &mut self.left,
            blocks,
            chain,
            |c| len - 1 - c,
            len - 1 - home,
        );
        let right = (right < len).then_some(right);
        let left = (left < len).then(|| len - 1 - left);
        match (left, right) {
            (Some(l), Some(r)) => Some(if home - l <= r - home { l } else { r }),
            (l, r) => l.or(r),
        }
    }
}

/// One direction of a [`FreeIndex`] search from code `from`: code `c`
/// names chain position `pos(c)`, and `chain.len()` is off the end. Returns
/// the first code at or past `from` whose block has a free port, and
/// compresses the path to it.
fn skip_full(
    links: &mut [u32],
    blocks: &[SwitchBlock],
    chain: &[usize],
    pos: impl Fn(usize) -> usize,
    from: usize,
) -> usize {
    let end = chain.len();
    let mut root = from;
    while root < end {
        let block = chain[pos(root)];
        let next = links[block] as usize;
        if next != root {
            root = next;
        } else if blocks[block].free_ports() > 0 {
            break;
        } else {
            links[block] = narrow(root + 1);
            root += 1;
        }
    }
    let mut c = from;
    while c != root {
        c = std::mem::replace(&mut links[chain[pos(c)]], narrow(root)) as usize;
    }
    root
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

/// How a message from one node reaches another across a [`Provisioning`]:
/// the answer of [`Provisioning::walk`], from which both the analytic
/// [`Route`] and a simulated fabric's link path are read.
///
/// A chain span `(cluster, from, to)` walks cluster `cluster`'s block chain
/// from position `from` to position `to`, one circuit per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// An endpoint is offline (in no cluster) or not a node.
    Offline,
    /// Both nodes hang off one chain: the span runs from the source's
    /// attachment to the destination's.
    Chain((usize, usize, usize)),
    /// The pair has a dedicated circuit.
    Circuit {
        /// Along the source's chain, from its attachment to the circuit's
        /// port.
        src: (usize, usize, usize),
        /// The circuit's node pair, lower node first.
        pair: (usize, usize),
        /// True when the source is the pair's lower node.
        forward: bool,
        /// Along the destination's chain, from the circuit's port to its
        /// attachment.
        dst: (usize, usize, usize),
    },
    /// No provisioned path: below-cutoff traffic rides the low-bandwidth
    /// collective network.
    Tree,
}

impl Walk {
    /// The walk's cost, or `None` for an offline or unprovisioned pair.
    pub fn route(&self) -> Option<Route> {
        let hops = |(_, from, to): (usize, usize, usize)| from.abs_diff(to);
        // Up into the first block, across the crossbar once per block
        // boundary, back down to the node.
        let (blocks, chain_hops) = match *self {
            Walk::Chain(span) => (1, hops(span)),
            Walk::Circuit { src, dst, .. } => (2, hops(src) + hops(dst)),
            Walk::Offline | Walk::Tree => return None,
        };
        Some(Route {
            circuit_traversals: blocks + 1 + chain_hops,
            switch_hops: blocks + chain_hops,
        })
    }
}

/// A complete HFAST provisioning: block pool, circuit patches, and the
/// mapping from the application's communication graph onto them.
///
/// The layout is private; callers ask [`walk`](Self::walk) how a pair is
/// served and read the counts and ledgers through the accessors.
#[derive(Debug, Clone)]
pub struct Provisioning {
    /// Parameters used.
    pub(crate) config: ProvisionConfig,
    /// Number of compute nodes.
    n_nodes: usize,
    /// Node clusters sharing block chains.
    pub(crate) clusters: Vec<Cluster>,
    /// Cluster id per node; `usize::MAX` for an offline node.
    node_cluster: Vec<usize>,
    /// The block pool.
    pub(crate) blocks: Vec<SwitchBlock>,
    /// The circuit-switch state realizing the topology.
    pub(crate) circuit: CircuitSwitch,
    /// Attachment of each node: (block id, chain position).
    attach: Vec<(usize, usize)>,
    /// Provisioned inter-cluster edges, strictly ascending by pair.
    pub(crate) edge_circuits: Vec<EdgeCircuit>,
    /// Edges served inside a shared block chain (no dedicated circuit).
    intra_edges: Vec<(usize, usize)>,
    /// Edges below the cutoff, relegated to the low-bandwidth network.
    pub(crate) unprovisioned: Vec<(usize, usize)>,
    /// Block-pool slots released by incremental re-provisioning (see
    /// [`crate::provisioner::Provisioner::reprovision`]): the ids stay in
    /// `blocks` so every other id remains stable, but they hold no ports
    /// and are excluded from [`total_blocks`](Self::total_blocks). Always
    /// empty after a from-scratch build.
    pub(crate) spare_blocks: Vec<usize>,
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

    let mut prov = Provisioning {
        config,
        n_nodes: n,
        clusters: Vec::with_capacity(clustering.len()),
        node_cluster,
        blocks: Vec::new(),
        circuit: CircuitSwitch::new(),
        attach: vec![(usize::MAX, usize::MAX); n],
        edge_circuits: Vec::new(),
        intra_edges: intra,
        unprovisioned: unprov,
        spare_blocks: Vec::new(),
    };
    // Build block chains per cluster.
    let mut free = FreeIndex::default();
    for (cid, nodes) in clustering.into_iter().enumerate() {
        let first = prov.blocks.len();
        let chain = first..first + config.blocks_needed(nodes.len(), external[cid]);
        let fresh = chain
            .clone()
            .map(|id| SwitchBlock::new(id, config.block_ports));
        prov.blocks.extend(fresh);
        prov.clusters.push(Cluster {
            nodes,
            blocks: chain.collect(),
        });
        free.reset(&prov.clusters[cid].blocks);
        prov.patch_chain(cid);
    }
    // Patch a dedicated circuit per inter-cluster edge. `inter` ascends by
    // `(a, b)`, so the ledger comes out sorted.
    prov.edge_circuits = inter
        .iter()
        .map(|&(a, b)| {
            let ends = [a, b].map(|v| prov.allocate_near(&mut free, v));
            prov.circuit
                .connect(ends[0].0, ends[1].0)
                .expect("fresh ports cannot collide");
            EdgeCircuit::new((a, b), ends)
        })
        .collect();
    prov
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x1000_0000_01b3;
/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds `v`'s eight little-endian bytes into FNV-1a state `h`. Xoring a
/// zero byte changes nothing, so the run of high zero bytes collapses into
/// one multiply by `FNV_PRIME^run`: small values cost one or two steps.
fn fnv_word(mut h: u64, v: u64) -> u64 {
    let bytes = 8 - (v.leading_zeros() / 8) as usize;
    for byte in &v.to_le_bytes()[..bytes] {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - bytes])
}

impl Provisioning {
    /// Wires cluster `cid`'s chain of fresh blocks: one circuit between
    /// each pair of consecutive blocks, then each member attached to a
    /// block, spread evenly along the chain.
    pub(crate) fn patch_chain(&mut self, cid: usize) {
        let Cluster {
            nodes,
            blocks: chain,
        } = &self.clusters[cid];
        for w in chain.windows(2) {
            let [ea, eb] = [w[0], w[1]].map(|block| {
                let port = self.blocks[block].allocate_port().expect("chain port");
                Endpoint::BlockPort { block, port }
            });
            self.circuit
                .connect(ea, eb)
                .expect("fresh ports cannot collide");
        }
        for (i, &v) in nodes.iter().enumerate() {
            // The chosen block may be full of chain links in pathological
            // configs; fall back to scanning.
            let start = i * chain.len() / nodes.len();
            let pos = (0..chain.len())
                .map(|off| (start + off) % chain.len())
                .find(|&p| self.blocks[chain[p]].free_ports() > 0)
                .expect("capacity accounted for attachments");
            let block = chain[pos];
            let port = self.blocks[block].allocate_port().expect("checked free");
            self.circuit
                .connect(Endpoint::Node(v), Endpoint::BlockPort { block, port })
                .expect("fresh ports cannot collide");
            self.attach[v] = (block, pos);
        }
    }

    /// Takes a port for one of `v`'s edge circuits on the chain block
    /// nearest its attachment, returning the port and its chain position.
    /// Ties go to the lower position, so a chain fills outward from the
    /// attachment in ascending order. `free` must have been reset for
    /// `v`'s chain in this pass.
    pub(crate) fn allocate_near(&mut self, free: &mut FreeIndex, v: usize) -> (Endpoint, usize) {
        #[cfg(test)]
        let scanned = self.nearest_free_scan(v);
        let chain = &self.clusters[self.node_cluster[v]].blocks;
        // One always exists: blocks_needed() sized the chain for the
        // attachments plus every external edge endpoint.
        let pos = free
            .nearest(&self.blocks, chain, self.attach[v].1)
            .expect("capacity accounted for external edges");
        let block = chain[pos];
        #[cfg(test)]
        assert_eq!(
            (block, pos),
            scanned,
            "the free index and the chain scan disagree for node {v}"
        );
        let port = self.blocks[block].allocate_port().expect("checked free");
        (Endpoint::BlockPort { block, port }, pos)
    }

    /// The block and chain position [`allocate_near`](Self::allocate_near)
    /// must pick, found by scanning `v`'s whole chain: the oracle its
    /// index is checked against in test builds.
    #[cfg(test)]
    fn nearest_free_scan(&self, v: usize) -> (usize, usize) {
        let chain = &self.clusters[self.node_cluster[v]].blocks;
        let home = self.attach[v].1;
        let pos = (0..chain.len())
            .filter(|&p| self.blocks[chain[p]].free_ports() > 0)
            .min_by_key(|&p| p.abs_diff(home))
            .expect("capacity accounted for external edges");
        (chain[pos], pos)
    }

    /// The ledger entry of `pair`, lower node first, if it has a circuit.
    pub(crate) fn circuit_of(&self, (a, b): (usize, usize)) -> Option<&EdgeCircuit> {
        let key = [u32::try_from(a).ok()?, u32::try_from(b).ok()?];
        let i = self
            .edge_circuits
            .binary_search_by_key(&key, |ec| ec.pair)
            .ok()?;
        Some(&self.edge_circuits[i])
    }

    /// Number of compute nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The circuit-switch state realizing the topology.
    pub fn circuit(&self) -> &CircuitSwitch {
        &self.circuit
    }

    /// The cluster node `v` belongs to, or `None` if `v` is offline or not
    /// a node.
    pub fn cluster_of(&self, v: usize) -> Option<usize> {
        self.node_cluster
            .get(v)
            .copied()
            .filter(|&c| c != usize::MAX)
    }

    /// Blocks in `cluster`'s chain, or `None` if there is no such cluster.
    /// Cluster ids run from 0 and every cluster has at least one block.
    pub fn chain_len(&self, cluster: usize) -> Option<usize> {
        self.clusters.get(cluster).map(|c| c.blocks.len())
    }

    /// The node pairs `(a, b)`, `a < b`, that have a dedicated circuit, in
    /// ascending order.
    pub fn circuit_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edge_circuits.iter().map(EdgeCircuit::pair)
    }

    /// Above-cutoff edges served inside a shared chain, with no dedicated
    /// circuit.
    pub fn intra_edges(&self) -> &[(usize, usize)] {
        &self.intra_edges
    }

    /// Active edges below the cutoff, left to the low-bandwidth network,
    /// in ascending order.
    pub fn unprovisioned(&self) -> &[(usize, usize)] {
        &self.unprovisioned
    }

    /// How a message from `src` reaches `dst`: the one routing rule
    /// [`route`](Self::route), [`max_route`](Self::max_route) and a
    /// simulated fabric's paths all read. Any two nodes on one chain
    /// share it; nodes on different chains need a dedicated circuit.
    /// Allocates nothing.
    pub fn walk(&self, src: usize, dst: usize) -> Walk {
        let (Some(cs), Some(cd)) = (self.cluster_of(src), self.cluster_of(dst)) else {
            return Walk::Offline;
        };
        let (home_s, home_d) = (self.attach[src].1, self.attach[dst].1);
        if cs == cd {
            return Walk::Chain((cs, home_s, home_d));
        }
        let forward = src < dst;
        let pair = if forward { (src, dst) } else { (dst, src) };
        let Some(ec) = self.circuit_of(pair) else {
            return Walk::Tree;
        };
        let [pos_lo, pos_hi] = ec.pos.map(|p| p as usize);
        let (port_s, port_d) = if forward {
            (pos_lo, pos_hi)
        } else {
            (pos_hi, pos_lo)
        };
        Walk::Circuit {
            src: (cs, home_s, port_s),
            pair,
            forward,
            dst: (cd, port_d, home_d),
        }
    }

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
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| h = fnv_word(h, v);
        let ep = |packed: u64| -> u64 {
            match unpack(packed).expect("a ledger port is patched") {
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
        for (id, c) in self.clusters.iter().enumerate() {
            fold(id as u64);
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
        for ec in &self.edge_circuits {
            for word in ec.pair.into_iter().chain(ec.pos) {
                fold(word.into());
            }
            for packed in ec.ports {
                fold(ep(packed));
            }
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
    /// network) or is one node.
    pub fn route(&self, a: usize, b: usize) -> Option<Route> {
        if a == b {
            return None;
        }
        self.walk(a, b).route()
    }

    /// Worst provisioned route in the fabric: the most switch hops over
    /// every circuit pair and intra-chain edge (a route's traversals are
    /// always its hops plus one, so no two maxima differ).
    pub fn max_route(&self) -> Option<Route> {
        self.circuit_pairs()
            .chain(self.intra_edges.iter().copied())
            .filter_map(|(a, b)| self.route(a, b))
            .max_by_key(|r| r.switch_hops)
    }

    /// Structural invariants: every above-cutoff edge is served, circuits
    /// are consistent, and no block over-allocates. Tests, the benchmark's
    /// `core.validate_ms` stage and `provision_bakeoff --check` call it.
    ///
    /// One pass over each structure: the circuit ledger must ascend
    /// strictly by `(a, b)` with `a < b` (the first entry that does not is
    /// named), which is what [`walk`](Self::walk)'s binary search relies
    /// on; `graph.edges()` ascends the same way, so the edges that need a
    /// dedicated circuit are matched against the patched ones in a merge
    /// walk. The first edge with none is reported.
    pub fn validate(&self, graph: &CommGraph) -> Result<(), String> {
        if !self.circuit.is_consistent() {
            return Err("circuit pairing inconsistent".into());
        }
        for b in &self.blocks {
            if b.allocated_ports() > b.ports {
                return Err(format!("block {} over-allocated", b.id));
            }
        }
        let mut last: Option<[u32; 2]> = None;
        for (i, ec) in self.edge_circuits.iter().enumerate() {
            let [a, b] = ec.pair;
            if a >= b {
                return Err(format!(
                    "circuit ledger entry {i} ({a},{b}) is not lower node first"
                ));
            }
            if let Some([la, lb]) = last.filter(|&l| l >= ec.pair) {
                return Err(format!(
                    "circuit ledger entry {i} ({a},{b}) does not ascend past ({la},{lb})"
                ));
            }
            last = Some(ec.pair);
        }
        let mut patched = self.circuit_pairs().peekable();
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
            while patched.next_if(|&pair| pair < (a, b)).is_some() {}
            if patched.next_if_eq(&(a, b)).is_none() {
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
    use crate::provisioner::{Clustered, GraphDelta, PaperLinear, Provisioner};
    use hfast_par::{forall, Rng64};
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
            let i = p.edge_circuits.iter().position(|ec| ec.pair() == pair);
            p.edge_circuits.remove(i.expect("patched"));
        }
        assert_eq!(
            p.validate(&g),
            Err("edge (1,7) above cutoff but unrouted".to_string())
        );
    }

    #[test]
    fn validate_ignores_circuits_for_pairs_the_graph_lacks() {
        let (g, mut p) = ring_with_chords();
        let spare = *p.circuit_of((1, 7)).expect("patched");
        for pair in [[0, 5], [2, 9]] {
            let i = p.edge_circuits.partition_point(|ec| ec.pair < pair);
            p.edge_circuits.insert(i, EdgeCircuit { pair, ..spare });
        }
        p.validate(&g).unwrap();
    }

    #[test]
    fn validate_rejects_a_ledger_out_of_order() {
        let (g, mut p) = ring_with_chords();
        let i = p.edge_circuits.iter().position(|ec| ec.pair == [1, 7]);
        let i = i.expect("patched");
        p.edge_circuits.swap(i, i + 1);
        assert_eq!(
            p.validate(&g),
            Err("circuit ledger entry 4 (1,7) does not ascend past (2,3)".to_string())
        );
    }

    #[test]
    fn validate_rejects_a_duplicated_ledger_entry() {
        let (g, mut p) = ring_with_chords();
        let dup = p.edge_circuits[5];
        p.edge_circuits.insert(5, dup);
        assert_eq!(
            p.validate(&g),
            Err("circuit ledger entry 6 (3,4) does not ascend past (3,4)".to_string())
        );
    }

    #[test]
    fn validate_rejects_a_ledger_pair_upper_node_first() {
        let (g, mut p) = ring_with_chords();
        p.edge_circuits[0].pair = [1, 0];
        assert_eq!(
            p.validate(&g),
            Err("circuit ledger entry 0 (1,0) is not lower node first".to_string())
        );
    }

    /// A seeded clustering of `0..n` with up to a quarter of the nodes
    /// offline and the rest in clusters of 1 to 8 members, shuffled.
    fn random_clustering(rng: &mut Rng64, n: usize) -> Vec<Vec<usize>> {
        let mut nodes: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut nodes);
        let mut rest = &nodes[..n - rng.range(0, n / 4 + 1)];
        let mut clusters = Vec::new();
        while !rest.is_empty() {
            let k = rng.range(1, 9).min(rest.len());
            clusters.push(rest[..k].to_vec());
            rest = &rest[k..];
        }
        clusters
    }

    /// A ring on `n` nodes plus `chords`, each `(a, b, message bytes)`.
    fn ring_plus(n: usize, chords: &[(usize, usize, u64)]) -> CommGraph {
        let mut g = ring_graph(n, 1 << 20);
        for &(a, b, bytes) in chords {
            g.add_message(a, b, bytes);
        }
        g
    }

    /// `allocate_near` asserts in test builds that its index picks the
    /// block and position the chain scan picks. These cases drive it
    /// through shared chains crowded by attachments, and through
    /// `PaperLinear` reprovision sequences that grow, shrink and reuse
    /// chains; each result must also validate, and each incremental step
    /// route every pair as a scratch provisioning does.
    #[test]
    fn free_index_picks_what_the_scan_picks() {
        forall("free_index_picks_what_the_scan_picks", 48, |rng| {
            let n = rng.range(8, 64);
            let config = cfg(*rng.pick(&[3, 4, 5, 8, 16]));
            let mut chords = Vec::new();
            for _ in 0..rng.range(0, 3 * n) {
                let (a, b) = (rng.range(0, n), rng.range(0, n));
                if a != b {
                    chords.push((a, b, *rng.pick(&[64, 1 << 20])));
                }
            }
            let g = ring_plus(n, &chords);
            let clustered = build(&g, config, random_clustering(rng, n));
            clustered.validate(&g).unwrap();

            let mut graph = g;
            let mut prov = per_node(&graph, config);
            for _ in 0..4 {
                // A fresh window: some chords turn light or vanish, a hub
                // gains partners.
                for _ in 0..rng.range(0, 4) {
                    if !chords.is_empty() {
                        let i = rng.range(0, chords.len());
                        if rng.bool(0.5) {
                            chords[i].2 = 64;
                        } else {
                            chords.swap_remove(i);
                        }
                    }
                }
                let hub = rng.range(0, n);
                for _ in 0..rng.range(0, 12) {
                    let b = rng.range(0, n);
                    if b != hub {
                        chords.push((hub, b, 1 << 20));
                    }
                }
                let next = ring_plus(n, &chords);
                let delta = GraphDelta::diff(&graph, &next);
                let out = PaperLinear.reprovision(prov, &next, &delta);
                out.provisioning.validate(&next).unwrap();
                let scratch = per_node(&next, config);
                assert!(out.provisioning.circuit_pairs().eq(scratch.circuit_pairs()));
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(out.provisioning.route(a, b), scratch.route(a, b));
                    }
                }
                (graph, prov) = (next, out.provisioning);
            }
        });
    }

    #[test]
    fn zero_run_fold_equals_bytewise_fnv() {
        let bytewise = |mut h: u64, v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        };
        let mut words = vec![0, 1, 0xff, 0x100, u64::MAX];
        for k in 0..64 {
            words.extend([1 << k, (1 << k) - 1]);
        }
        for v in words {
            for h in [FNV_OFFSET, 0, u64::MAX] {
                assert_eq!(fnv_word(h, v), bytewise(h, v), "h {h:#x}, v {v:#x}");
            }
        }
        forall("zero_run_fold_equals_bytewise_fnv", 256, |rng| {
            let h = rng.next_u64();
            // Random widths, so every run length of high zero bytes shows.
            let v = rng.next_u64() >> rng.range(0, 64);
            assert_eq!(fnv_word(h, v), bytewise(h, v), "h {h:#x}, v {v:#x}");
        });
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
