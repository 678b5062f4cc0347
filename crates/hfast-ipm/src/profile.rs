//! The profiler hook and the merged communication profile.

use std::collections::BTreeMap;

use hfast_mpi::{CallKind, CommEvent, CommHook};
use hfast_topology::{BufferHistogram, CommGraph, EdgeStat};
use std::sync::Mutex;

use crate::hashtable::{CallKey, CallStats, CallTable};

/// Sentinel for "no single partner" in hash keys.
const NO_PEER: u32 = u32::MAX;

/// Per-rank profiling state.
struct RankState {
    table: CallTable,
    /// Region name → id (id 0 is the unnamed default region).
    region_names: Vec<String>,
    /// Stack of active region ids; the top is the current region.
    region_stack: Vec<u16>,
}

impl RankState {
    fn new(capacity: usize) -> Self {
        RankState {
            table: CallTable::new(capacity),
            region_names: vec!["default".to_string()],
            region_stack: vec![0],
        }
    }

    fn current_region(&self) -> u16 {
        *self
            .region_stack
            .last()
            .expect("default region always present")
    }

    fn region_id(&mut self, name: &str) -> u16 {
        if let Some(idx) = self.region_names.iter().position(|n| n == name) {
            return idx as u16;
        }
        self.region_names.push(name.to_string());
        (self.region_names.len() - 1) as u16
    }
}

/// One rank's state behind its mutex, alone on its cache lines.
///
/// Ranks run on different threads (a replay's workers take consecutive
/// ranks), and every event writes its rank's mutex word. Unpadded, the
/// 120-byte slots of neighbouring ranks share a line, so each write by one
/// worker evicts the line another worker is writing: false sharing on
/// every call. 128 bytes covers the adjacent-line prefetch pairs of x86
/// as well as 128-byte lines.
#[repr(align(128))]
struct Slot(Mutex<RankState>);

// Dropping the padding (the wrapper or its `repr`) fails the build here.
const _: () = assert!(std::mem::align_of::<Slot>() >= 128);

impl Slot {
    fn lock(&self) -> std::sync::MutexGuard<'_, RankState> {
        self.0.lock().expect("profiler mutex poisoned")
    }
}

/// The IPM-style profiler: install as the world's
/// [`CommHook`] and extract a [`CommProfile`] after the
/// run.
///
/// Bounded memory footprint per rank, mirroring IPM's "low overhead … fixed
/// memory footprint" design (paper §3.1): one [`CallTable`], which never
/// holds more than its capacity in signatures but allocates only for those
/// a rank records, and nothing else per call. Per-event cost is one
/// uncontended mutex acquisition and an O(1) hash-table update; extracting
/// a profile walks the stored signatures, not the bound, and derives the
/// directed volumes from them, so a signature the table dropped for
/// overflow is missing from the volumes too, as in IPM.
///
/// Each rank's state sits on cache lines of its own (a 128-byte aligned
/// slot), so the mutex stays uncontended in hardware too: ranks profiled
/// on different threads never write one line.
pub struct IpmProfiler {
    size: usize,
    ranks: Vec<Slot>,
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
                .map(|_| Slot(Mutex::new(RankState::new(capacity))))
                .collect(),
        }
    }

    /// Enters a named code region on `rank` (IPM's region feature, used in
    /// the paper to exclude SuperLU's initialization traffic). Regions nest.
    pub fn enter_region(&self, rank: usize, name: &str) {
        let mut st = self.ranks[rank].lock();
        let id = st.region_id(name);
        st.region_stack.push(id);
    }

    /// Exits the innermost named region on `rank`. Exiting the default
    /// region is a no-op.
    pub fn exit_region(&self, rank: usize) {
        let mut st = self.ranks[rank].lock();
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
        let mut api_volume = Vec::new();
        let mut wire_volume = Vec::new();
        let mut overflow = 0;
        // [api, wire] volumes the current rank sent, by peer, and the peers
        // it touched; one row for the whole extract, cleared as it is read.
        let mut sent = vec![[EdgeStat::default(); 2]; self.size];
        let mut peers: Vec<usize> = Vec::new();
        // Consecutive table entries mostly share `(kind, bytes)` (a rank
        // sends one size to many peers), so the current key's statistics
        // are summed here and meet the map once per run of equal keys.
        let mut run: Option<((CallKind, u64), CallStats)> = None;
        for (rank, state) in self.ranks.iter().enumerate() {
            let st = state.lock();
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
                if region_id.is_some_and(|rid| key.region != rid) {
                    continue;
                }
                let kind = CallKind::ALL[usize::from(key.kind)];
                match &mut run {
                    Some((last, sum)) if *last == (kind, key.bytes) => sum.merge(stats),
                    _ => {
                        if let Some((last, sum)) = run.replace(((kind, key.bytes), *stats)) {
                            entries.entry(last).or_default().merge(&sum);
                        }
                    }
                }
                if key.peer != NO_PEER && kind.is_outbound() {
                    let stat = EdgeStat {
                        bytes: key.bytes * stats.count,
                        count: stats.count,
                        max_msg: key.bytes,
                    };
                    let peer = key.peer as usize;
                    let [api, wire] = &mut sent[peer];
                    if !wire.is_active() {
                        peers.push(peer);
                    }
                    if !kind.is_transport() {
                        api.merge(&stat);
                    }
                    wire.merge(&stat);
                }
            }
            peers.sort_unstable();
            for peer in peers.drain(..) {
                let [api, wire] = std::mem::take(&mut sent[peer]);
                if api.is_active() {
                    api_volume.push((rank, peer, api));
                }
                wire_volume.push((rank, peer, wire));
            }
        }
        if let Some((last, sum)) = run {
            entries.entry(last).or_default().merge(&sum);
        }
        CommProfile {
            size: self.size,
            entries: entries
                .into_iter()
                .map(|((kind, bytes), stats)| ProfileEntry { kind, bytes, stats })
                .collect(),
            api_volume,
            wire_volume,
            overflow,
        }
    }
}

impl CommHook for IpmProfiler {
    fn on_event(&self, ev: &CommEvent) {
        debug_assert!(ev.rank < self.size, "event from out-of-range rank");
        let mut st = self.ranks[ev.rank].lock();
        let key = CallKey {
            region: st.current_region(),
            kind: ev.kind.index() as u8,
            peer: ev.peer.map_or(NO_PEER, |p| p as u32),
            bytes: ev.bytes as u64,
        };
        st.table.record(key, ev.elapsed_ns());
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
    /// Directed point-to-point volumes, send-side: one `(src, dst, stat)`
    /// per pair that carried traffic, sorted by `(src, dst)`.
    pub api_volume: Vec<(usize, usize, EdgeStat)>,
    /// Directed wire volumes (PTP plus collective transport), in the same
    /// form.
    pub wire_volume: Vec<(usize, usize, EdgeStat)>,
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
        CommGraph::from_directed(self.size, self.api_volume.iter().copied())
    }

    /// The undirected *wire* graph including collective transport flows,
    /// for network simulation replay.
    pub fn wire_graph(&self) -> CommGraph {
        CommGraph::from_directed(self.size, self.wire_volume.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_mpi::{Payload, ReduceOp, Scope, Tag, World, WorldConfig};
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
        let sent = |bytes| EdgeStat {
            bytes,
            count: 1,
            max_msg: bytes,
        };
        assert_eq!(
            profile.api_volume,
            vec![(0, 1, sent(1000)), (0, 2, sent(500))]
        );
        // Undirected graph symmetrizes.
        let g = profile.comm_graph();
        assert_eq!(g.edge(0, 1).bytes, 1000);
        assert_eq!(g.edge(1, 0).bytes, 1000);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn overflowed_signature_is_missing_from_the_volumes() {
        // Eight signatures fill the smallest table; the ninth is dropped
        // and, as in IPM, counted nowhere but in `overflow`.
        let prof = IpmProfiler::with_capacity(2, 8);
        for bytes in [1, 2, 3, 4, 5, 6, 7, 8, 100] {
            prof.on_event(&CommEvent {
                rank: 0,
                kind: CallKind::Send,
                scope: Scope::Api,
                peer: Some(1),
                bytes,
                tag: Some(Tag(1)),
                t_start_ns: 0,
                t_end_ns: 1,
            });
        }
        let profile = prof.profile();
        assert_eq!(profile.overflow, 1);
        assert_eq!(profile.total_calls(), 8);
        let sent = EdgeStat {
            bytes: 36,
            count: 8,
            max_msg: 8,
        };
        assert_eq!(profile.api_volume, vec![(0, 1, sent)]);
        assert_eq!(profile.wire_volume, profile.api_volume);
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
