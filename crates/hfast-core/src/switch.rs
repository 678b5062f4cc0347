//! Switch component models: the passive circuit-switch crossbar and the
//! active packet-switch blocks (paper §2.1, §2.3).

/// An endpoint a circuit-switch port can patch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A compute node's network adapter.
    Node(usize),
    /// Port `port` of packet switch block `block`.
    BlockPort {
        /// Switch block id.
        block: usize,
        /// Port index within the block.
        port: usize,
    },
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Node(n) => write!(f, "node{n}"),
            Endpoint::BlockPort { block, port } => write!(f, "SB{block}.{port}"),
        }
    }
}

/// Errors from circuit-switch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SwitchError {
    /// Endpoint already patched to something else.
    EndpointBusy(Endpoint),
    /// Endpoint is not currently patched.
    NotConnected(Endpoint),
    /// A circuit cannot connect an endpoint to itself.
    SelfLoop(Endpoint),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::EndpointBusy(e) => write!(f, "endpoint {e} already patched"),
            SwitchError::NotConnected(e) => write!(f, "endpoint {e} not connected"),
            SwitchError::SelfLoop(e) => write!(f, "cannot patch {e} to itself"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// A passive (layer-1) circuit-switch crossbar: a dynamic patch panel.
///
/// Creates hard circuits between endpoint pairs in response to an external
/// control plane (paper §2.1: "just like an old telephone system operator's
/// patch panel"). It adds no per-message latency beyond propagation, but
/// reconfiguration takes milliseconds, during which no traffic may be in
/// flight on the affected light paths.
///
/// Every port is a slot holding its peer: one per node id and one per
/// `(block, port)`, grown on demand up to the largest id patched, so a
/// lookup, a patch and a teardown are O(1) and a whole-crossbar pass is
/// one walk over the slots. Ids are expected to be dense (node ranks and
/// block-pool indices), since storage follows the largest one; a block id
/// from 2^38 or a port from 2^24 up panics.
#[derive(Debug, Clone, Default)]
pub struct CircuitSwitch {
    /// Peer of `Node(v)` at `nodes[v]`, packed (see [`pack`]).
    nodes: Vec<u64>,
    /// Peer of `BlockPort { block, port }` at `ports[block << port_bits |
    /// port]`, packed: every block spans the same power-of-two run of slots.
    ports: Vec<u64>,
    /// Log2 of the slots per block; widened when a higher port is patched.
    port_bits: u32,
    /// Occupied slots (2× circuits).
    ports_in_use: usize,
}

/// Slot value of an unpatched port.
const FREE: u64 = u64::MAX;
/// Bits of a packed block-port peer that hold the port.
const PACKED_PORT_BITS: u32 = 24;

/// A peer as a slot stores it, independent of the slot layout: nodes even,
/// block ports odd. The provisioning ledger stores its ports this way too.
pub(crate) fn pack(e: Endpoint) -> u64 {
    match e {
        Endpoint::Node(v) => (v as u64) << 1,
        Endpoint::BlockPort { block, port } => {
            ((block as u64) << PACKED_PORT_BITS | port as u64) << 1 | 1
        }
    }
}

/// The endpoint a [`pack`]ed word names, or `None` for an unpatched slot.
pub(crate) fn unpack(slot: u64) -> Option<Endpoint> {
    if slot == FREE {
        return None;
    }
    let id = slot >> 1;
    Some(if slot & 1 == 0 {
        Endpoint::Node(id as usize)
    } else {
        Endpoint::BlockPort {
            block: (id >> PACKED_PORT_BITS) as usize,
            port: (id & ((1 << PACKED_PORT_BITS) - 1)) as usize,
        }
    })
}

impl CircuitSwitch {
    /// MEMS optical switch reconfiguration latency (order of milliseconds,
    /// §2.2); used by simulation and reconfiguration cost accounting.
    pub const RECONFIG_LATENCY_NS: u64 = 3_000_000;

    /// An empty crossbar.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Where `e`'s slot sits, if storage reaches it: `(is_port, index)`
    /// into `ports` or `nodes`.
    fn locate(&self, e: Endpoint) -> Option<(bool, usize)> {
        match e {
            Endpoint::Node(v) => (v < self.nodes.len()).then_some((false, v)),
            Endpoint::BlockPort { block, port } => {
                let reached =
                    port >> self.port_bits == 0 && block < self.ports.len() >> self.port_bits;
                reached.then_some((true, block << self.port_bits | port))
            }
        }
    }

    /// The packed peer in `e`'s slot, if storage reaches it.
    fn slot(&self, e: Endpoint) -> Option<u64> {
        let (is_port, index) = self.locate(e)?;
        Some(if is_port {
            self.ports[index]
        } else {
            self.nodes[index]
        })
    }

    fn slot_mut(&mut self, e: Endpoint) -> Option<&mut u64> {
        let (is_port, index) = self.locate(e)?;
        Some(if is_port {
            &mut self.ports[index]
        } else {
            &mut self.nodes[index]
        })
    }

    /// `e`'s slot, growing storage to reach it.
    fn reach(&mut self, e: Endpoint) -> &mut u64 {
        match e {
            Endpoint::Node(v) => {
                if v >= self.nodes.len() {
                    self.nodes.resize(v + 1, FREE);
                }
            }
            Endpoint::BlockPort { block, port } => {
                assert!(
                    block >> (62 - PACKED_PORT_BITS) == 0 && port >> PACKED_PORT_BITS == 0,
                    "{e} is beyond the crossbar's id range"
                );
                if port >> self.port_bits != 0 {
                    self.widen(port.ilog2() + 1);
                }
                let len = (block + 1) << self.port_bits;
                if len > self.ports.len() {
                    self.ports.resize(len, FREE);
                }
            }
        }
        self.slot_mut(e)
            .expect("storage was just grown to reach it")
    }

    /// Re-lays the block-port slots out with `2^port_bits` per block.
    fn widen(&mut self, port_bits: u32) {
        let old = std::mem::replace(&mut self.port_bits, port_bits);
        let blocks = self.ports.len() >> old;
        let mut ports = vec![FREE; blocks << port_bits];
        for (block, run) in self.ports.chunks_exact(1 << old).enumerate() {
            ports[block << port_bits..][..run.len()].copy_from_slice(run);
        }
        self.ports = ports;
    }

    /// Every occupied slot as `(endpoint, peer)`: nodes ascending, then
    /// `(block, port)` ascending — `Endpoint`'s own order.
    fn slots(&self) -> impl Iterator<Item = (Endpoint, Endpoint)> + '_ {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(v, &peer)| Some((Endpoint::Node(v), unpack(peer)?)));
        let mask = (1 << self.port_bits) - 1;
        let ports = self.ports.iter().enumerate().filter_map(move |(i, &peer)| {
            let (block, port) = (i >> self.port_bits, i & mask);
            Some((Endpoint::BlockPort { block, port }, unpack(peer)?))
        });
        nodes.chain(ports)
    }

    /// Patches a bidirectional circuit between two endpoints.
    pub(crate) fn connect(&mut self, a: Endpoint, b: Endpoint) -> Result<(), SwitchError> {
        if a == b {
            return Err(SwitchError::SelfLoop(a));
        }
        if self.peer(a).is_some() {
            return Err(SwitchError::EndpointBusy(a));
        }
        if self.peer(b).is_some() {
            return Err(SwitchError::EndpointBusy(b));
        }
        *self.reach(a) = pack(b);
        *self.reach(b) = pack(a);
        self.ports_in_use += 2;
        Ok(())
    }

    /// Tears down the circuit at an endpoint, returning its former peer.
    pub(crate) fn disconnect(&mut self, a: Endpoint) -> Result<Endpoint, SwitchError> {
        let b = self.peer(a).ok_or(SwitchError::NotConnected(a))?;
        for e in [a, b] {
            *self.slot_mut(e).expect("a patched endpoint has a slot") = FREE;
        }
        self.ports_in_use -= 2;
        Ok(b)
    }

    /// The endpoint a given endpoint is patched to, if any.
    pub(crate) fn peer(&self, a: Endpoint) -> Option<Endpoint> {
        unpack(self.slot(a)?)
    }

    /// Number of active circuits.
    pub fn circuit_count(&self) -> usize {
        self.ports_in_use / 2
    }

    /// Number of ports in use (2× circuits).
    pub(crate) fn ports_in_use(&self) -> usize {
        self.ports_in_use
    }

    /// Iterates over circuits, each pair reported once as `(lower, higher)`,
    /// ascending by the lower end in [`Endpoint`]'s order (nodes first,
    /// then block ports by block and port).
    pub fn circuits(&self) -> impl Iterator<Item = (Endpoint, Endpoint)> + '_ {
        self.slots().filter(|(a, b)| a < b)
    }

    /// Verifies the symmetric-pairing invariant, and that the port count
    /// matches the occupied slots.
    pub(crate) fn is_consistent(&self) -> bool {
        let mut occupied = 0;
        self.slots().all(|(a, b)| {
            occupied += 1;
            self.slot(b) == Some(pack(a))
        }) && occupied == self.ports_in_use
    }

    /// Circuits present in exactly one of `self` and `other`: the mirrors
    /// that move going from one crossbar state to the other.
    pub fn circuits_changed(&self, other: &CircuitSwitch) -> usize {
        let only_in = |x: &Self, y: &Self| {
            x.circuits()
                .filter(|&(a, b)| y.slot(a) != Some(pack(b)))
                .count()
        };
        only_in(self, other) + only_in(other, self)
    }
}

/// An active (layer-2) packet switch block: a small crossbar that switches
/// individual messages at line rate.
///
/// HFAST treats these as "a flexibly assignable pool of resources" (§2.3) —
/// the provisioning layer allocates whole blocks and decides what each port
/// faces (a node, or another block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SwitchBlock {
    /// Block id within the pool.
    pub id: usize,
    /// Total ports.
    pub ports: usize,
    /// Ports already allocated by provisioning.
    allocated: usize,
}

impl SwitchBlock {
    /// Per-hop latency contributed by a packet switch (≤ 50 ns per §5.3).
    pub(crate) const HOP_LATENCY_NS: u64 = 50;

    /// A fresh block with all ports free.
    pub(crate) fn new(id: usize, ports: usize) -> Self {
        assert!(ports >= 2, "a switch block needs at least 2 ports");
        SwitchBlock {
            id,
            ports,
            allocated: 0,
        }
    }

    /// Ports not yet allocated.
    pub(crate) fn free_ports(&self) -> usize {
        self.ports - self.allocated
    }

    /// Allocates the next free port, returning its index.
    pub(crate) fn allocate_port(&mut self) -> Option<usize> {
        if self.allocated < self.ports {
            let idx = self.allocated;
            self.allocated += 1;
            Some(idx)
        } else {
            None
        }
    }

    /// Number of ports allocated so far.
    pub(crate) fn allocated_ports(&self) -> usize {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: Endpoint = Endpoint::Node(0);
    const N1: Endpoint = Endpoint::Node(1);
    const B0P0: Endpoint = Endpoint::BlockPort { block: 0, port: 0 };

    #[test]
    fn connect_disconnect_cycle() {
        let mut cs = CircuitSwitch::new();
        cs.connect(N0, B0P0).unwrap();
        assert_eq!(cs.peer(N0), Some(B0P0));
        assert_eq!(cs.peer(B0P0), Some(N0));
        assert_eq!(cs.circuit_count(), 1);
        assert!(cs.is_consistent());
        let peer = cs.disconnect(N0).unwrap();
        assert_eq!(peer, B0P0);
        assert_eq!(cs.circuit_count(), 0);
    }

    #[test]
    fn busy_endpoint_rejected() {
        let mut cs = CircuitSwitch::new();
        cs.connect(N0, N1).unwrap();
        assert_eq!(cs.connect(N0, B0P0), Err(SwitchError::EndpointBusy(N0)));
        assert_eq!(cs.connect(B0P0, N1), Err(SwitchError::EndpointBusy(N1)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut cs = CircuitSwitch::new();
        assert_eq!(cs.connect(N0, N0), Err(SwitchError::SelfLoop(N0)));
    }

    #[test]
    fn disconnect_unpatched_rejected() {
        let mut cs = CircuitSwitch::new();
        assert_eq!(cs.disconnect(N0), Err(SwitchError::NotConnected(N0)));
    }

    #[test]
    fn circuits_iterate_once_per_pair() {
        let mut cs = CircuitSwitch::new();
        cs.connect(N0, N1).unwrap();
        cs.connect(Endpoint::Node(2), Endpoint::Node(3)).unwrap();
        let pairs: Vec<_> = cs.circuits().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn is_consistent_catches_a_one_sided_patch_and_a_miscount() {
        let mut cs = CircuitSwitch::new();
        cs.connect(N0, B0P0).unwrap();
        cs.connect(N1, Endpoint::BlockPort { block: 3, port: 5 })
            .unwrap();
        assert!(cs.is_consistent());
        let mut one_sided = cs.clone();
        *one_sided.reach(N0) = pack(N1);
        assert!(!one_sided.is_consistent());
        let mut miscounted = cs;
        miscounted.ports_in_use += 2;
        assert!(!miscounted.is_consistent());
    }

    #[test]
    #[should_panic(expected = "beyond the crossbar's id range")]
    fn port_id_past_the_packed_range_rejected() {
        let mut cs = CircuitSwitch::new();
        let _ = cs.connect(
            N0,
            Endpoint::BlockPort {
                block: 0,
                port: 1 << 24,
            },
        );
    }

    #[test]
    fn block_port_allocation() {
        let mut b = SwitchBlock::new(0, 4);
        assert_eq!(b.free_ports(), 4);
        assert_eq!(b.allocate_port(), Some(0));
        assert_eq!(b.allocate_port(), Some(1));
        assert_eq!(b.allocate_port(), Some(2));
        assert_eq!(b.allocate_port(), Some(3));
        assert_eq!(b.allocate_port(), None);
        assert_eq!(b.free_ports(), 0);
        assert_eq!(b.allocated_ports(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn degenerate_block_rejected() {
        SwitchBlock::new(0, 1);
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(N0.to_string(), "node0");
        assert_eq!(B0P0.to_string(), "SB0.0");
    }
}
