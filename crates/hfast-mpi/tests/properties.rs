//! Property-based tests for the message-passing runtime: payload codecs,
//! reduction semantics, and randomized communication schedules.

use std::collections::HashSet;
use std::sync::Arc;

use hfast_mpi::{Group, Payload, ReduceOp, Tag, World, WorldConfig};
use hfast_par::{forall, Rng64};
use hfast_trace::{export, validate, TraceRecorder};

fn f64s(rng: &mut Rng64, lo: usize, hi: usize, span: f64) -> Vec<f64> {
    (0..rng.range(lo, hi))
        .map(|_| (rng.f64() * 2.0 - 1.0) * span)
        .collect()
}

#[test]
fn f64_payload_roundtrip() {
    forall("f64_payload_roundtrip", 48, |rng| {
        let values = f64s(rng, 0, 64, 1e12);
        let p = Payload::from_f64s(&values);
        assert_eq!(p.len(), values.len() * 8);
        assert_eq!(p.to_f64s().unwrap(), values);
    });
}

#[test]
fn reduce_combine_matches_scalar_fold() {
    forall("reduce_combine_matches_scalar_fold", 48, |rng| {
        let lanes = rng.range(1, 16);
        let a: Vec<f64> = (0..lanes).map(|_| (rng.f64() * 2.0 - 1.0) * 1e6).collect();
        let b: Vec<f64> = (0..lanes).map(|_| (rng.f64() * 2.0 - 1.0) * 1e6).collect();
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            let combined = op
                .combine(&Payload::from_f64s(&a), &Payload::from_f64s(&b))
                .unwrap()
                .to_f64s()
                .unwrap();
            for ((&x, &y), &z) in a.iter().zip(&b).zip(&combined) {
                assert_eq!(op.apply(x, y), z);
            }
        }
    });
}

#[test]
fn allreduce_agrees_with_local_fold() {
    forall("allreduce_agrees_with_local_fold", 24, |rng| {
        let size = rng.range(2, 9);
        let lane_count = rng.range(1, 5);
        let results = World::run(size, move |comm| {
            let mine: Vec<f64> = (0..lane_count)
                .map(|l| (comm.rank() * 31 + l * 7) as f64)
                .collect();
            comm.allreduce(Payload::from_f64s(&mine), ReduceOp::Sum)
                .unwrap()
                .to_f64s()
                .unwrap()
        })
        .unwrap();
        let expected: Vec<f64> = (0..lane_count)
            .map(|l| (0..size).map(|r| (r * 31 + l * 7) as f64).sum())
            .collect();
        for r in results {
            assert_eq!(&r, &expected);
        }
    });
}

#[test]
fn random_exchange_schedule_delivers_everything() {
    forall("random_exchange_schedule_delivers_everything", 24, |rng| {
        let size = rng.range(2, 8);
        // A random schedule, filtered to valid, non-self pairs.
        let sends: Vec<(usize, usize, usize)> = (0..rng.range(1, 24))
            .map(|_| (rng.range(0, 8), rng.range(0, 8), rng.range(1, 4096)))
            .filter(|&(s, d, _)| s < size && d < size && s != d)
            .collect();
        let sends2 = sends.clone();
        let results = World::run(size, move |comm| {
            let me = comm.rank();
            // Post receives for everything addressed to me, in order.
            let mut reqs = vec![];
            for &(s, d, bytes) in &sends2 {
                if d == me {
                    reqs.push((
                        comm.irecv(
                            hfast_mpi::SrcSel::Rank(s),
                            hfast_mpi::TagSel::Tag(Tag(9)),
                            bytes,
                        )
                        .unwrap(),
                        bytes,
                    ));
                }
            }
            for &(s, d, bytes) in &sends2 {
                if s == me {
                    comm.send(d, Tag(9), Payload::synthetic(bytes)).unwrap();
                }
            }
            let mut received = 0usize;
            for (req, _expected) in reqs {
                let (status, _) = comm.wait(req).unwrap();
                received += status.bytes;
            }
            received
        })
        .unwrap();
        let expected_per_rank: Vec<usize> = (0..size)
            .map(|r| {
                sends
                    .iter()
                    .filter(|&&(_, d, _)| d == r)
                    .map(|&(_, _, b)| b)
                    .sum()
            })
            .collect();
        assert_eq!(results, expected_per_rank);
    });
}

#[test]
fn gather_preserves_group_order() {
    forall("gather_preserves_group_order", 24, |rng| {
        let mut members: Vec<usize> = (0..rng.range(2, 6)).map(|_| rng.range(0, 10)).collect();
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            members = vec![0, 9];
        }
        let members2 = members.clone();
        let results = World::run(10, move |comm| {
            if !members2.contains(&comm.rank()) {
                return None;
            }
            let group = Group::new(members2.clone()).unwrap();
            let root = members2[0];
            comm.gather_in(&group, root, Payload::from_f64s(&[comm.rank() as f64]))
                .unwrap()
        })
        .unwrap();
        let at_root = results[members[0]].as_ref().unwrap();
        for (i, payload) in at_root.iter().enumerate() {
            assert_eq!(payload.to_f64s().unwrap()[0] as usize, members[i]);
        }
    });
}

/// A random valid point-to-point schedule: (src, dst, bytes) triples with
/// src != dst, all inside a `size`-rank world.
fn random_schedule(rng: &mut Rng64, size: usize) -> Vec<(usize, usize, usize)> {
    (0..rng.range(1, 24))
        .map(|_| (rng.range(0, 8), rng.range(0, 8), rng.range(1, 4096)))
        .filter(|&(s, d, _)| s < size && d < size && s != d)
        .collect()
}

/// The random-exchange workload: post receives for everything addressed
/// to this rank, send everything this rank originates, wait, and return
/// total bytes received.
fn exchange(comm: &mut hfast_mpi::Comm, sends: &[(usize, usize, usize)]) -> usize {
    let me = comm.rank();
    let mut reqs = vec![];
    for &(s, d, bytes) in sends {
        if d == me {
            reqs.push(
                comm.irecv(
                    hfast_mpi::SrcSel::Rank(s),
                    hfast_mpi::TagSel::Tag(Tag(3)),
                    bytes,
                )
                .unwrap(),
            );
        }
    }
    for &(s, d, bytes) in sends {
        if s == me {
            comm.send(d, Tag(3), Payload::synthetic(bytes)).unwrap();
        }
    }
    reqs.into_iter()
        .map(|req| comm.wait(req).unwrap().0.bytes)
        .sum()
}

#[test]
fn every_recv_span_links_to_its_send() {
    // Satellite: the SpanContext stamped into each message envelope must
    // make every recv-family span a child of the originating send span —
    // no orphans, on any random point-to-point schedule.
    forall("every_recv_span_links_to_its_send", 16, |rng| {
        let size = rng.range(2, 8);
        let sends = random_schedule(rng, size);
        if sends.is_empty() {
            return;
        }
        let rec = Arc::new(TraceRecorder::new());
        let sends2 = sends.clone();
        World::run_with(
            WorldConfig::new(size).trace(Arc::clone(&rec)),
            move |comm| exchange(comm, &sends2),
        )
        .unwrap();

        let spans = rec.snapshot();
        let send_ids: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == "send")
            .map(|s| s.span_id)
            .collect();
        assert_eq!(
            send_ids.len(),
            sends.len(),
            "one span per send, all distinct"
        );
        let mut recv_family = 0usize;
        for s in &spans {
            if s.name == "recv" || s.name == "wait" {
                recv_family += 1;
                assert_ne!(s.parent_id, 0, "{} span has no parent", s.name);
                assert!(
                    send_ids.contains(&s.parent_id),
                    "{} span parent {:#x} is not a recorded send",
                    s.name,
                    s.parent_id
                );
            }
        }
        assert_eq!(recv_family, sends.len(), "one recv-family span per message");

        // The exported document agrees with the raw-span check.
        let stats = validate(&export(&spans)).expect("valid trace-event JSON");
        assert_eq!(stats.orphan_recvs, 0);
        assert_eq!(stats.linked_recvs, recv_family);
        // One track per rank that actually communicated (a silent rank
        // records no spans and so gets no track).
        let active: HashSet<usize> = sends.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        assert_eq!(stats.rank_tracks, active.len());
    });
}

#[test]
fn tracing_never_changes_world_results() {
    // Satellite: an attached TraceRecorder is invisible to the program —
    // the same workload returns identical results with tracing on or off.
    forall("tracing_never_changes_world_results", 12, |rng| {
        let size = rng.range(2, 8);
        let sends = random_schedule(rng, size);
        let sends_plain = sends.clone();
        let plain = World::run(size, move |comm| exchange(comm, &sends_plain)).unwrap();
        let rec = Arc::new(TraceRecorder::new());
        let sends_traced = sends.clone();
        let traced = World::run_with(
            WorldConfig::new(size).trace(Arc::clone(&rec)),
            move |comm| exchange(comm, &sends_traced),
        )
        .unwrap();
        assert_eq!(plain, traced, "tracing changed the program's results");
        assert!(
            rec.len() >= 2 * sends.len(),
            "a send and a recv-family span per message when traced"
        );
    });
}
