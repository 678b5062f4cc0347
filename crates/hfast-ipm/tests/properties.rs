//! Property-based tests for the profiling layer: the fixed-footprint hash
//! table against a reference map, the profile's volumes against the dense
//! per-event rows they replaced, and the trace codec roundtrip.

use std::collections::BTreeMap;

use hfast_ipm::{from_text, to_text, CommProfile, IpmProfiler, ProfileEntry};
use hfast_ipm::{CallKey, CallTable};
use hfast_mpi::{CallKind, CommEvent, CommHook, Scope};
use hfast_par::{forall, Rng64};
use hfast_topology::EdgeStat;

/// (count, total_ns, min_ns, max_ns) — reference accumulator per key.
type RefStats = (u64, u64, u64, u64);
type RefKey = (u16, u8, u32, u64);

fn key(rng: &mut Rng64) -> CallKey {
    CallKey {
        region: rng.range_u64(0, 4) as u16,
        kind: rng.range_u64(0, 20) as u8,
        peer: rng.range_u64(0, 16) as u32,
        bytes: rng.range_u64(0, 4096),
    }
}

#[test]
fn table_matches_reference_map() {
    forall("table_matches_reference_map", 128, |rng| {
        let ops: Vec<(CallKey, u64)> = (0..rng.range(0, 300))
            .map(|_| (key(rng), rng.range_u64(1, 10_000)))
            .collect();
        let mut table = CallTable::new(1024);
        let mut reference: BTreeMap<RefKey, RefStats> = BTreeMap::new();
        for (key, elapsed) in &ops {
            table.record(*key, *elapsed);
            let entry = reference
                .entry((key.region, key.kind, key.peer, key.bytes))
                .or_insert((0, 0, u64::MAX, 0));
            entry.0 += 1;
            entry.1 += elapsed;
            entry.2 = entry.2.min(*elapsed);
            entry.3 = entry.3.max(*elapsed);
        }
        assert_eq!(table.len(), reference.len());
        assert_eq!(table.overflow(), 0, "capacity 1024 never overflows here");
        for (&(region, kind, peer, bytes), &(count, total, min, max)) in &reference {
            let stats = table
                .get(&CallKey {
                    region,
                    kind,
                    peer,
                    bytes,
                })
                .expect("recorded key present");
            assert_eq!(stats.count, count);
            assert_eq!(stats.total_ns, total);
            assert_eq!(stats.min_ns, min);
            assert_eq!(stats.max_ns, max);
        }
        // Iteration covers exactly the reference keys.
        assert_eq!(table.iter().count(), reference.len());
    });
}

#[test]
fn overflow_counts_are_exact() {
    forall("overflow_counts_are_exact", 40, |rng| {
        let extra = rng.range(1, 40);
        let mut table = CallTable::new(8); // rounds to exactly 8 slots
        for i in 0..(8 + extra) {
            table.record(
                CallKey {
                    region: 0,
                    kind: 0,
                    peer: i as u32,
                    bytes: 0,
                },
                1,
            );
        }
        assert_eq!(table.len(), 8);
        assert_eq!(table.overflow(), extra as u64);
    });
}

/// Directed `(src, dst, stat)` volumes, sorted by pair.
type Triples = Vec<(usize, usize, EdgeStat)>;
/// One rank's dense (api, wire) rows for one region.
type Rows = (Vec<EdgeStat>, Vec<EdgeStat>);

/// The per-event volume code the profiler ran before it derived volumes
/// from its call table, kept as the oracle: per rank and region, one dense
/// `size`-long row of directed API volumes and one of wire volumes.
struct DenseRows {
    size: usize,
    /// Per rank: the stack of entered region names (`None` is the default).
    stacks: Vec<Vec<&'static str>>,
    /// (rank, region) → (api row, wire row).
    rows: BTreeMap<(usize, Option<&'static str>), Rows>,
}

impl DenseRows {
    fn new(size: usize) -> Self {
        DenseRows {
            size,
            stacks: vec![Vec::new(); size],
            rows: BTreeMap::new(),
        }
    }

    fn on_event(&mut self, ev: &CommEvent) {
        let Some(peer) = ev.peer else { return };
        let region = self.stacks[ev.rank].last().copied();
        let size = self.size;
        let (api, wire) = self.rows.entry((ev.rank, region)).or_insert_with(|| {
            (
                vec![EdgeStat::default(); size],
                vec![EdgeStat::default(); size],
            )
        });
        let outbound_ptp = ev.scope == Scope::Api && ev.kind.is_outbound();
        let outbound_wire = ev.kind == CallKind::TransportSend || outbound_ptp;
        if outbound_ptp {
            api[peer].add_message(ev.bytes as u64);
        }
        if outbound_wire {
            wire[peer].add_message(ev.bytes as u64);
        }
    }

    /// The (api, wire) triples of every row in `region` (all when `None`).
    fn volumes(&self, region: Option<&str>) -> (Triples, Triples) {
        let n = self.size;
        let mut api = vec![EdgeStat::default(); n * n];
        let mut wire = vec![EdgeStat::default(); n * n];
        for (&(rank, name), (api_row, wire_row)) in &self.rows {
            if region.is_some_and(|want| name != Some(want)) {
                continue;
            }
            for peer in 0..n {
                api[rank * n + peer].merge(&api_row[peer]);
                wire[rank * n + peer].merge(&wire_row[peer]);
            }
        }
        let triples = |cells: Vec<EdgeStat>| {
            cells
                .into_iter()
                .enumerate()
                .filter(|(_, stat)| stat.is_active())
                .map(|(idx, stat)| (idx / n, idx % n, stat))
                .collect()
        };
        (triples(api), triples(wire))
    }
}

const REGIONS: [&str; 3] = ["init", "steady", "halo"];

/// A random event of `rank`: any kind, half of them with no peer, the
/// scope the runtime gives that kind, a few repeating buffer sizes.
fn random_event(rng: &mut Rng64, rank: usize, size: usize) -> CommEvent {
    let kind = *rng.pick(&CallKind::ALL);
    let t_start_ns = rng.range_u64(0, 1_000_000);
    CommEvent {
        rank,
        kind,
        scope: if kind.is_transport() {
            Scope::Transport
        } else {
            Scope::Api
        },
        peer: rng.bool(0.5).then(|| rng.range(0, size)),
        bytes: *rng.pick(&[0, 8, 4096, 65_536, 1 << 20]),
        tag: None,
        t_start_ns,
        t_end_ns: t_start_ns + rng.range_u64(0, 10_000),
    }
}

#[test]
fn volumes_match_dense_per_event_rows() {
    forall("volumes_match_dense_per_event_rows", 128, |rng| {
        let size = rng.range(1, 12);
        let profiler = IpmProfiler::new(size);
        let mut oracle = DenseRows::new(size);
        for _ in 0..rng.range(0, 400) {
            let rank = rng.range(0, size);
            match rng.range(0, 10) {
                0 => {
                    let name = *rng.pick(&REGIONS);
                    profiler.enter_region(rank, name);
                    oracle.stacks[rank].push(name);
                }
                1 => {
                    profiler.exit_region(rank);
                    oracle.stacks[rank].pop();
                }
                _ => {
                    let ev = random_event(rng, rank, size);
                    profiler.on_event(&ev);
                    oracle.on_event(&ev);
                }
            }
        }
        for region in [None, Some("init"), Some("steady"), Some("halo")] {
            let profile = match region {
                None => profiler.profile(),
                Some(name) => profiler.region_profile(name),
            };
            let (api, wire) = oracle.volumes(region);
            assert_eq!(profile.overflow, 0);
            assert_eq!(profile.api_volume, api, "api volumes of {region:?}");
            assert_eq!(profile.wire_volume, wire, "wire volumes of {region:?}");
        }
    });
}

/// Directed volumes over `size` ranks: random pairs, the last draw of a
/// pair kept, sorted by pair, one triple each.
fn random_volume(rng: &mut Rng64, size: usize) -> Triples {
    let mut cells = BTreeMap::new();
    for _ in 0..rng.range(0, 40) {
        let pair = (rng.range(0, size), rng.range(0, size));
        let bytes = rng.range_u64(1, 1 << 24);
        let stat = EdgeStat {
            bytes,
            count: rng.range_u64(1, 100),
            max_msg: bytes,
        };
        cells.insert(pair, stat);
    }
    cells
        .into_iter()
        .map(|((src, dst), stat)| (src, dst, stat))
        .collect()
}

#[test]
fn trace_roundtrip_arbitrary_profiles() {
    const KINDS: [CallKind; 18] = [
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
    ];
    forall("trace_roundtrip_arbitrary_profiles", 128, |rng| {
        let size = rng.range(1, 10);
        // Deduplicate (kind, bytes) pairs: merged profiles have unique keys.
        let mut seen = std::collections::BTreeSet::new();
        let mut profile_entries = vec![];
        for _ in 0..rng.range(0, 40) {
            let kind = KINDS[rng.range(0, KINDS.len())];
            let bytes = rng.range_u64(1, 2 << 20);
            let count = rng.range_u64(1, 1000);
            let ns = rng.range_u64(0, 1_000_000);
            if seen.insert((kind, bytes)) {
                profile_entries.push(ProfileEntry {
                    kind,
                    bytes,
                    stats: hfast_ipm::CallStats {
                        count,
                        total_ns: ns * count,
                        min_ns: ns.min(1),
                        max_ns: ns,
                    },
                });
            }
        }
        let profile = CommProfile {
            size,
            entries: profile_entries,
            api_volume: random_volume(rng, size),
            wire_volume: random_volume(rng, size),
            overflow: 0,
        };
        let text = to_text(&profile);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed, profile);
    });
}

#[test]
fn corrupted_traces_never_panic() {
    forall("corrupted_traces_never_panic", 256, |rng| {
        // Arbitrary text must produce an error or a profile, never a panic.
        let garbage: String = (0..rng.range(0, 200))
            .map(|_| char::from_u32(rng.range_u64(1, 0xD800) as u32).unwrap_or('?'))
            .collect();
        let _ = from_text(&garbage);
    });
}

#[test]
fn truncation_never_panics() {
    forall("truncation_never_panics", 256, |rng| {
        let profile = CommProfile {
            size: 3,
            entries: vec![ProfileEntry {
                kind: CallKind::Isend,
                bytes: 512,
                stats: hfast_ipm::CallStats {
                    count: 4,
                    total_ns: 40,
                    min_ns: 5,
                    max_ns: 20,
                },
            }],
            api_volume: random_volume(rng, 3),
            wire_volume: random_volume(rng, 3),
            overflow: 0,
        };
        let text = to_text(&profile);
        let cut = rng.range(0, 400).min(text.len());
        let _ = from_text(&text[..cut]);
    });
}
