//! The profiler hook and the merged communication profile.

use std::collections::BTreeMap;

use hfast_mpi::{CallKind, CommEvent, CommHook, Scope};
use hfast_topology::{BufferHistogram, CommGraph, EdgeStat};
use std::sync::Mutex;

use crate::hashtable::{CallKey, CallStats, CallTable};

/// Maps a [`CallKind`] to a stable small discriminant for hash keys.
pub(crate) fn kind_index(kind: CallKind) -> u8 {
    match kind {
        CallKind::Send => 0,
        CallKind::Recv => 1,
        CallKind::Isend => 2,
        CallKind::Irecv => 3,
        CallKind::Sendrecv => 4,
        CallKind::Wait => 5,
        CallKind::Waitall => 6,
        CallKind::Waitany => 7,
        CallKind::Test => 8,
        CallKind::Barrier => 9,
        CallKind::Bcast => 10,
        CallKind::Reduce => 11,
        CallKind::Allreduce => 12,
        CallKind::Gather => 13,
        CallKind::Allgather => 14,
        CallKind::Alltoall => 15,
        CallKind::Scatter => 16,
        CallKind::ReduceScatter => 17,
        CallKind::TransportSend => 18,
        CallKind::TransportRecv => 19,
        CallKind::Scan => 20,
        CallKind::Probe => 21,
        CallKind::Iprobe => 22,
    }
}

/// Inverse of [`kind_index`].
pub(crate) const KINDS: [CallKind; 23] = [
    CallKind::Send,
    CallKind::Recv,
    CallKind::Isend,
    CallKind::Irecv,
    CallKind::Sendrecv,
    CallKind::Wait,
    CallKind::Waitall,
    CallKind::Waitany,
    CallKind::Test,
    CallKind::Barrier,
    CallKind::Bcast,
    CallKind::Reduce,
    CallKind::Allreduce,
    CallKind::Gather,
    CallKind::Allgather,
    CallKind::Alltoall,
    CallKind::Scatter,
    CallKind::ReduceScatter,
    CallKind::TransportSend,
    CallKind::TransportRecv,
    CallKind::Scan,
    CallKind::Probe,
    CallKind::Iprobe,
];

/// Sentinel for "no single partner" in hash keys.
const NO_PEER: u32 = u32::MAX;

/// Per-rank profiling state.
struct RankState {
    table: CallTable,
    /// Region name → id (id 0 is the unnamed default region).
    region_names: Vec<String>,
    /// Stack of active region ids; the top is the current region.
    region_stack: Vec<u16>,
    /// Directed PTP volumes per region: `[region][peer]`.
    api_volume: Vec<Vec<EdgeStat>>,
    /// Directed *wire* volumes per region (PTP sends plus collective
    /// transport), for replaying actual flows in a network simulator.
    wire_volume: Vec<Vec<EdgeStat>>,
}

impl RankState {
    fn new(size: usize, capacity: usize) -> Self {
        RankState {
            table: CallTable::new(capacity),
            region_names: vec!["default".to_string()],
            region_stack: vec![0],
            api_volume: vec![vec![EdgeStat::default(); size]],
            wire_volume: vec![vec![EdgeStat::default(); size]],
        }
    }

    fn current_region(&self) -> u16 {
        *self
            .region_stack
            .last()
            .expect("default region always present")
    }

    fn region_id(&mut self, name: &str, size: usize) -> u16 {
        if let Some(idx) = self.region_names.iter().position(|n| n == name) {
            return idx as u16;
        }
        self.region_names.push(name.to_string());
        self.api_volume.push(vec![EdgeStat::default(); size]);
        self.wire_volume.push(vec![EdgeStat::default(); size]);
        (self.region_names.len() - 1) as u16
    }
}

/// The IPM-style profiler: install as the world's
/// [`CommHook`] and extract a [`CommProfile`] after the
/// run.
///
/// Bounded memory footprint per rank, mirroring IPM's "low overhead … fixed
/// memory footprint" design (paper §3.1): one [`CallTable`], which never
/// holds more than its capacity in signatures but allocates only for those
/// a rank records, plus dense `size`-long volume rows per region. Per-event
/// cost is one uncontended mutex acquisition and an O(1) hash-table update;
/// extracting a profile walks the stored signatures, not the bound.
pub struct IpmProfiler {
    size: usize,
    ranks: Vec<Mutex<RankState>>,
}

impl IpmProfiler {
    /// Profiler for a world of `size` ranks with the default table capacity.
    pub fn new(size: usize) -> Self {
        Self::with_capacity(size, CallTable::DEFAULT_CAPACITY)
    }

    /// Profiler with an explicit per-rank hash-table capacity.
    pub(crate) fn with_capacity(size: usize, capacity: usize) -> Self {
        IpmProfiler {
            size,
            ranks: (0..size)
                .map(|_| Mutex::new(RankState::new(size, capacity)))
                .collect(),
        }
    }

    /// Enters a named code region on `rank` (IPM's region feature, used in
    /// the paper to exclude SuperLU's initialization traffic). Regions nest.
    pub fn enter_region(&self, rank: usize, name: &str) {
        let mut st = self.ranks[rank].lock().expect("profiler mutex poisoned");
        let id = st.region_id(name, self.size);
        st.region_stack.push(id);
    }

    /// Exits the innermost named region on `rank`. Exiting the default
    /// region is a no-op.
    pub fn exit_region(&self, rank: usize) {
        let mut st = self.ranks[rank].lock().expect("profiler mutex poisoned");
        if st.region_stack.len() > 1 {
            st.region_stack.pop();
        }
    }

    /// Extracts the merged profile over all regions.
    pub fn profile(&self) -> CommProfile {
        self.extract(None)
    }

    /// Extracts the profile restricted to one named region — the mechanism
    /// behind the paper's "steady state" analysis.
    ///
    /// Returns an empty profile if no rank ever entered the region.
    pub fn region_profile(&self, name: &str) -> CommProfile {
        self.extract(Some(name))
    }

    fn extract(&self, region: Option<&str>) -> CommProfile {
        let mut entries: BTreeMap<(CallKind, u64), CallStats> = BTreeMap::new();
        let mut api = vec![EdgeStat::default(); self.size * self.size];
        let mut wire = vec![EdgeStat::default(); self.size * self.size];
        let mut overflow = 0;
        for (rank, state) in self.ranks.iter().enumerate() {
            let st = state.lock().expect("profiler mutex poisoned");
            let region_id: Option<u16> = match region {
                None => None,
                Some(name) => {
                    match st.region_names.iter().position(|n| n == name) {
                        Some(idx) => Some(idx as u16),
                        None => continue, // this rank never entered the region
                    }
                }
            };
            overflow += st.table.overflow();
            for (key, stats) in st.table.iter() {
                if let Some(rid) = region_id {
                    if key.region != rid {
                        continue;
                    }
                }
                let kind = KINDS[key.kind as usize];
                entries.entry((kind, key.bytes)).or_default().merge(stats);
            }
            for (rid, row) in st.api_volume.iter().enumerate() {
                if let Some(want) = region_id {
                    if rid as u16 != want {
                        continue;
                    }
                }
                for (peer, stat) in row.iter().enumerate() {
                    if stat.is_active() {
                        api[rank * self.size + peer].merge(stat);
                    }
                }
            }
            for (rid, row) in st.wire_volume.iter().enumerate() {
                if let Some(want) = region_id {
                    if rid as u16 != want {
                        continue;
                    }
                }
                for (peer, stat) in row.iter().enumerate() {
                    if stat.is_active() {
                        wire[rank * self.size + peer].merge(stat);
                    }
                }
            }
        }
        CommProfile {
            size: self.size,
            entries: entries
                .into_iter()
                .map(|((kind, bytes), stats)| ProfileEntry { kind, bytes, stats })
                .collect(),
            api_volume: api,
            wire_volume: wire,
            overflow,
        }
    }
}

impl CommHook for IpmProfiler {
    fn on_event(&self, ev: &CommEvent) {
        debug_assert!(ev.rank < self.size, "event from out-of-range rank");
        let mut st = self.ranks[ev.rank].lock().expect("profiler mutex poisoned");
        let region = st.current_region();
        let key = CallKey {
            region,
            kind: kind_index(ev.kind),
            peer: ev.peer.map_or(NO_PEER, |p| p as u32),
            bytes: ev.bytes as u64,
        };
        st.table.record(key, ev.elapsed_ns());
        if let Some(peer) = ev.peer {
            let outbound_ptp = ev.scope == Scope::Api && ev.kind.is_outbound();
            let outbound_wire = ev.kind == CallKind::TransportSend
                || (ev.scope == Scope::Api && ev.kind.is_outbound());
            let r = region as usize;
            if outbound_ptp {
                st.api_volume[r][peer].add_message(ev.bytes as u64);
            }
            if outbound_wire {
                st.wire_volume[r][peer].add_message(ev.bytes as u64);
            }
        }
    }
}

/// One aggregated call signature in a merged profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The API entry point.
    pub kind: CallKind,
    /// Buffer size argument in bytes.
    pub bytes: u64,
    /// Aggregated statistics across all ranks.
    pub stats: CallStats,
}

/// Merged communication profile of a run (or of one region of it).
#[derive(Debug, Clone, PartialEq)]
pub struct CommProfile {
    /// World size.
    pub size: usize,
    /// Aggregated (kind, buffer size) statistics.
    pub entries: Vec<ProfileEntry>,
    /// Directed point-to-point volumes, send-side, row-major `size×size`.
    pub api_volume: Vec<EdgeStat>,
    /// Directed wire volumes (PTP plus collective transport), row-major.
    pub wire_volume: Vec<EdgeStat>,
    /// Observations dropped by full hash tables (0 in a healthy profile).
    pub overflow: u64,
}

impl CommProfile {
    /// Call counts per kind, transport events excluded.
    pub(crate) fn call_counts(&self) -> BTreeMap<CallKind, u64> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            if !e.kind.is_transport() {
                *out.entry(e.kind).or_insert(0) += e.stats.count;
            }
        }
        out
    }

    /// Total API calls (transport excluded).
    pub fn total_calls(&self) -> u64 {
        self.call_counts().values().sum()
    }

    /// The Figure 2 data: percentage of calls per kind, descending.
    pub fn call_mix(&self) -> Vec<(CallKind, f64)> {
        let counts = self.call_counts();
        let total: u64 = counts.values().sum();
        if total == 0 {
            return vec![];
        }
        let mut mix: Vec<(CallKind, f64)> = counts
            .into_iter()
            .map(|(k, c)| (k, 100.0 * c as f64 / total as f64))
            .collect();
        mix.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("percentages are finite"));
        mix
    }

    /// Fraction of calls in the paper's point-to-point bucket (Table 3's
    /// "% PTP calls"), in `[0, 1]`.
    pub fn ptp_call_fraction(&self) -> f64 {
        let counts = self.call_counts();
        let total: u64 = counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let ptp: u64 = counts
            .iter()
            .filter(|(k, _)| k.in_ptp_bucket())
            .map(|(_, c)| c)
            .sum();
        ptp as f64 / total as f64
    }

    /// Fraction of calls that are collectives (Table 3's "% Col. calls").
    pub fn collective_call_fraction(&self) -> f64 {
        let counts = self.call_counts();
        let total: u64 = counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let col: u64 = counts
            .iter()
            .filter(|(k, _)| k.is_collective())
            .map(|(_, c)| c)
            .sum();
        col as f64 / total as f64
    }

    /// Buffer-size histogram over point-to-point *data* calls
    /// (sends/receives; completion calls carry no buffer) — Figure 4.
    pub fn ptp_buffer_histogram(&self) -> BufferHistogram {
        self.entries
            .iter()
            .filter(|e| e.kind.is_ptp_data())
            .map(|e| (e.bytes, e.stats.count))
            .collect()
    }

    /// Buffer-size histogram over collective calls — Figure 3.
    pub fn collective_buffer_histogram(&self) -> BufferHistogram {
        self.entries
            .iter()
            .filter(|e| e.kind.is_collective())
            .map(|e| (e.bytes, e.stats.count))
            .collect()
    }

    /// The undirected point-to-point communication graph (paper §4.4): the
    /// input to all TDC and HFAST provisioning analysis.
    pub fn comm_graph(&self) -> CommGraph {
        CommGraph::from_directed(self.size, self.directed(&self.api_volume))
    }

    /// The undirected *wire* graph including collective transport flows,
    /// for network simulation replay.
    pub fn wire_graph(&self) -> CommGraph {
        CommGraph::from_directed(self.size, self.directed(&self.wire_volume))
    }

    fn directed<'a>(
        &'a self,
        volume: &'a [EdgeStat],
    ) -> impl Iterator<Item = (usize, usize, EdgeStat)> + 'a {
        let n = self.size;
        volume.iter().enumerate().filter_map(move |(idx, stat)| {
            if stat.is_active() {
                Some((idx / n, idx % n, *stat))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_mpi::{Payload, ReduceOp, Tag, World, WorldConfig};
    use std::sync::Arc;

    fn run_profiled<F>(size: usize, f: F) -> (Arc<IpmProfiler>, CommProfile)
    where
        F: Fn(&mut hfast_mpi::Comm, &IpmProfiler) + Sync,
    {
        let prof = Arc::new(IpmProfiler::new(size));
        let hook = prof.clone();
        let p2 = prof.clone();
        World::run_with(WorldConfig::new(size).hook(hook), move |comm| {
            f(comm, &p2);
        })
        .unwrap();
        let profile = prof.profile();
        (prof, profile)
    }

    #[test]
    fn counts_send_recv_pairs() {
        let (_, profile) = run_profiled(2, |comm, _| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), Payload::synthetic(256)).unwrap();
            } else {
                comm.recv(0, Tag(1)).unwrap();
            }
        });
        let counts = profile.call_counts();
        assert_eq!(counts[&CallKind::Send], 1);
        assert_eq!(counts[&CallKind::Recv], 1);
        assert_eq!(profile.total_calls(), 2);
        assert_eq!(profile.overflow, 0);
    }

    #[test]
    fn volume_matrix_is_send_side() {
        let (_, profile) = run_profiled(3, |comm, _| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), Payload::synthetic(1000)).unwrap();
                comm.send(2, Tag(1), Payload::synthetic(500)).unwrap();
            } else {
                comm.recv(0, Tag(1)).unwrap();
            }
        });
        // Directed volume: only 0→1 and 0→2.
        assert_eq!(profile.api_volume[1].bytes, 1000);
        assert_eq!(profile.api_volume[2].bytes, 500);
        assert_eq!(profile.api_volume[3].bytes, 0);
        // Undirected graph symmetrizes.
        let g = profile.comm_graph();
        assert_eq!(g.edge(0, 1).bytes, 1000);
        assert_eq!(g.edge(1, 0).bytes, 1000);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn ptp_and_collective_fractions() {
        let (_, profile) = run_profiled(4, |comm, _| {
            // Per rank: 1 allreduce (collective) + 1 isend + 1 recv + 1 wait
            // (PTP bucket) → 25% collective, 75% PTP.
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let req = comm.isend(right, Tag(2), Payload::synthetic(64)).unwrap();
            comm.recv(left, Tag(2)).unwrap();
            comm.wait(req).unwrap();
            comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)
                .unwrap();
        });
        assert!((profile.ptp_call_fraction() - 0.75).abs() < 1e-12);
        assert!((profile.collective_call_fraction() - 0.25).abs() < 1e-12);
        let mix = profile.call_mix();
        let total: f64 = mix.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histograms_split_ptp_and_collective() {
        let (_, profile) = run_profiled(2, |comm, _| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), Payload::synthetic(300_000)).unwrap();
            } else {
                comm.recv(0, Tag(1)).unwrap();
            }
            comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)
                .unwrap();
        });
        let ptp = profile.ptp_buffer_histogram();
        let col = profile.collective_buffer_histogram();
        assert_eq!(ptp.total(), 2); // one send + one recv
        assert_eq!(ptp.median(), Some(300_000));
        assert_eq!(col.total(), 2); // one allreduce per rank
        assert_eq!(col.median(), Some(8));
    }

    #[test]
    fn collective_transport_absent_from_ptp_graph_present_on_wire() {
        let (_, profile) = run_profiled(4, |comm, _| {
            comm.allreduce(Payload::synthetic(1024), ReduceOp::Sum)
                .unwrap();
        });
        let ptp = profile.comm_graph();
        assert_eq!(ptp.edge_count(), 0, "collectives are not PTP edges");
        let wire = profile.wire_graph();
        assert!(wire.edge_count() > 0, "transport flows appear on the wire");
    }

    #[test]
    fn regions_partition_the_profile() {
        let (prof, merged) = run_profiled(2, |comm, prof| {
            // Init phase: a large transfer, like SuperLU's matrix distribution.
            prof.enter_region(comm.rank(), "init");
            if comm.rank() == 0 {
                comm.send(1, Tag(1), Payload::synthetic(1 << 20)).unwrap();
            } else {
                comm.recv(0, Tag(1)).unwrap();
            }
            prof.exit_region(comm.rank());
            // Steady state: small exchanges.
            prof.enter_region(comm.rank(), "steady");
            for _ in 0..5 {
                if comm.rank() == 0 {
                    comm.send(1, Tag(2), Payload::synthetic(64)).unwrap();
                } else {
                    comm.recv(0, Tag(2)).unwrap();
                }
            }
            prof.exit_region(comm.rank());
        });
        assert_eq!(merged.total_calls(), 12);
        let steady = prof.region_profile("steady");
        assert_eq!(steady.total_calls(), 10);
        assert_eq!(steady.ptp_buffer_histogram().max(), Some(64));
        let init = prof.region_profile("init");
        assert_eq!(init.total_calls(), 2);
        assert_eq!(init.ptp_buffer_histogram().max(), Some(1 << 20));
        // Volumes are also region-scoped.
        assert_eq!(steady.comm_graph().edge(0, 1).bytes, 5 * 64);
        let missing = prof.region_profile("nonexistent");
        assert_eq!(missing.total_calls(), 0);
    }

    #[test]
    fn irecv_records_posted_size() {
        let (_, profile) = run_profiled(2, |comm, _| {
            if comm.rank() == 1 {
                let req = comm
                    .irecv(
                        hfast_mpi::SrcSel::Rank(0),
                        hfast_mpi::TagSel::Tag(Tag(3)),
                        4096,
                    )
                    .unwrap();
                comm.wait(req).unwrap();
            } else {
                comm.send(1, Tag(3), Payload::synthetic(4096)).unwrap();
            }
        });
        let irecv_entry = profile
            .entries
            .iter()
            .find(|e| e.kind == CallKind::Irecv)
            .unwrap();
        assert_eq!(irecv_entry.bytes, 4096);
    }
}
