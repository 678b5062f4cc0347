//! Property-based tests for the profiling layer: the fixed-footprint hash
//! table against a reference map, and the trace codec roundtrip.

use std::collections::BTreeMap;

use hfast_ipm::{from_text, to_text, CommProfile, ProfileEntry};
use hfast_ipm::{CallKey, CallTable};
use hfast_mpi::CallKind;
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
        let mut api = vec![EdgeStat::default(); size * size];
        for _ in 0..rng.range(0, 40) {
            let s = rng.range(0, 10);
            let d = rng.range(0, 10);
            if s < size && d < size {
                let bytes = rng.range_u64(1, 1 << 24);
                api[s * size + d] = EdgeStat {
                    bytes,
                    count: rng.range_u64(1, 100),
                    max_msg: bytes,
                };
            }
        }
        let profile = CommProfile {
            size,
            entries: profile_entries,
            api_volume: api.clone(),
            wire_volume: api,
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
            api_volume: vec![EdgeStat::default(); 9],
            wire_volume: vec![EdgeStat::default(); 9],
            overflow: 0,
        };
        let text = to_text(&profile);
        let cut = rng.range(0, 400).min(text.len());
        let _ = from_text(&text[..cut]);
    });
}
