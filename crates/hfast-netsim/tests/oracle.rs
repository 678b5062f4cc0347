//! Independent references for the event loop.
//!
//! The goldens in `eventloop.rs` pin what the engine *did*; this file
//! checks that it is *right*. [`naive_cut_through`] is a deliberately
//! simple reimplementation of the ideal link model — a `BinaryHeap` with
//! explicit sequence numbers, one virtual `Fabric::link` call and one
//! float division per event, no arenas, no caches, no seed merging (it
//! used to live in the netsim bench as the "pr5 replica") — and the
//! differential test compares it flow by flow against
//! [`Simulation::run`] on random fabrics and flows. The credit model has no second implementation to diff against, so it is
//! held to the invariants any correct implementation must satisfy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast_netsim::{
    CreditConfig, Fabric, FatTreeFabric, Flow, HfastFabric, Simulation, TorusFabric,
};
use hfast_par::{forall, Rng64};
use hfast_topology::CommGraph;
use hfast_trace::{TraceRecorder, Track};

/// Virtual cut-through over ideal FIFO links, the slow obvious way.
/// Returns each flow's delivery time and the number of events processed.
fn naive_cut_through(fabric: &dyn Fabric, flows: &[Flow]) -> (Vec<Option<u64>>, u64) {
    let paths: Vec<Option<Vec<usize>>> = flows.iter().map(|f| fabric.path(f.src, f.dst)).collect();
    let mut ends: Vec<Option<u64>> = vec![None; flows.len()];
    let mut free_at: Vec<u64> = vec![0; fabric.link_count()];
    // (time, seq, flow, hop): seq makes the order total, seeds first in
    // flow order.
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, f) in flows.iter().enumerate() {
        match &paths[i] {
            Some(p) if p.is_empty() => ends[i] = Some(f.start_ns),
            Some(_) => {
                heap.push(Reverse((f.start_ns, seq, i, 0)));
                seq += 1;
            }
            None => {}
        }
    }
    let mut events = 0u64;
    while let Some(Reverse((t, _, flow, hop))) = heap.pop() {
        events += 1;
        let path = paths[flow].as_ref().expect("queued flows have paths");
        let spec = fabric.link(path[hop]);
        let start = t.max(free_at[path[hop]]);
        let ser = spec.serialize_ns(flows[flow].bytes);
        free_at[path[hop]] = start + ser;
        let header_out = start + spec.latency_ns;
        if hop + 1 < path.len() {
            heap.push(Reverse((header_out, seq, flow, hop + 1)));
            seq += 1;
        } else {
            ends[flow] = Some(header_out + ser);
        }
    }
    (ends, events)
}

/// A small random fabric from one of the three families.
fn small_fabric(rng: &mut Rng64) -> Box<dyn Fabric> {
    match rng.range(0, 3) {
        0 => {
            Box::new(TorusFabric::new((rng.range(2, 5), rng.range(1, 4), rng.range(1, 3))).unwrap())
        }
        1 => Box::new(FatTreeFabric::new(rng.range(4, 33).next_power_of_two(), 4).unwrap()),
        _ => {
            let n = rng.range(4, 17);
            let mut g = CommGraph::new(n);
            for _ in 0..rng.range(1, 40) {
                let (a, b) = (rng.range(0, n), rng.range(0, n));
                if a != b {
                    g.add_message(a, b, rng.range_u64(2048, 1 << 20));
                }
            }
            Box::new(HfastFabric::new(
                PaperLinear.provision(&g, ProvisionConfig::default()),
            ))
        }
    }
}

/// Random flows with heavy timestamp and endpoint collisions.
fn small_flows(rng: &mut Rng64, nodes: usize) -> Vec<Flow> {
    let burst = rng.bool(0.3);
    (0..rng.range(1, 250))
        .map(|_| Flow {
            src: rng.range(0, nodes),
            dst: rng.range(0, nodes),
            bytes: rng.range_u64(1, 1 << 16),
            start_ns: if burst { 0 } else { rng.range_u64(0, 50_000) },
        })
        .collect()
}

#[test]
fn ideal_model_matches_the_naive_reference() {
    forall("oracle_ideal_differential", 64, |rng| {
        let fabric = small_fabric(rng);
        let flows = small_flows(rng, fabric.nodes());
        let (ends, events) = naive_cut_through(fabric.as_ref(), &flows);
        let out = Simulation::new(fabric.as_ref()).detailed().run(&flows);
        assert_eq!(out.perf.events, events, "event count");
        for (r, end) in out.records().iter().zip(&ends) {
            assert_eq!(r.end_ns, *end, "flow {} diverged", r.flow);
        }
    });
}

/// Serialization time every link owes under store-and-forward if each
/// routable flow crosses each link of its route exactly once.
fn owed_busy(fabric: &dyn Fabric, flows: &[Flow]) -> Vec<u64> {
    let mut busy = vec![0u64; fabric.link_count()];
    for f in flows {
        for l in fabric.path(f.src, f.dst).unwrap_or_default() {
            busy[l] += fabric.link(l).serialize_ns(f.bytes);
        }
    }
    busy
}

/// Per-link sum of `hop` span durations: the busy time a run booked.
fn booked_busy(rec: &TraceRecorder, links: usize) -> Vec<u64> {
    let mut busy = vec![0u64; links];
    for s in rec.snapshot().iter().filter(|s| s.name == "hop") {
        match s.track {
            Track::Link(l) => busy[l] += s.dur_ns,
            other => panic!("hop span on {other:?}"),
        }
    }
    busy
}

/// What the credit model must get right on any input, checked on the
/// differential test's inputs. Buffer occupancy is checked from inside:
/// this is a debug build, so the `debug_assert!` at the model's one
/// `enter` site fires on any overflow.
#[test]
fn credit_model_conserves_work_and_drains_acyclic_fabrics() {
    forall("oracle_credit_invariants", 64, |rng| {
        let fabric = small_fabric(rng);
        let flows = small_flows(rng, fabric.nodes());
        let rec = TraceRecorder::new();
        let out = Simulation::new(fabric.as_ref())
            .with_congestion(CreditConfig::credit(rng.range(1, 4) as u32))
            .with_trace(&rec)
            .detailed()
            .run(&flows);
        assert_eq!(out.stats.completed + out.stats.unrouted, flows.len());
        let owed = owed_busy(fabric.as_ref(), &flows);
        let booked = booked_busy(&rec, fabric.link_count());
        // Up*/down* fat trees and HFAST's circuit-plus-tree routes have
        // no cyclic buffer dependency: every routable flow must land, and
        // then every link has served exactly what crossed it. A torus
        // ring can wedge (no escape channel — ROADMAP 4b); the run must
        // still end, with the stuck flows plainly undelivered and no link
        // having served more than it was owed.
        if fabric.name().contains("torus") {
            for (l, (&b, &o)) in booked.iter().zip(&owed).enumerate() {
                assert!(b <= o, "link {l} served {b} ns of {o} owed");
            }
            for r in out.records().iter().filter(|r| r.end_ns.is_none()) {
                assert!(!r.abandoned && r.retries == 0, "stuck, not abandoned");
            }
        } else {
            for (f, r) in flows.iter().zip(out.records()) {
                let routable = fabric.path(f.src, f.dst).is_some();
                assert_eq!(r.end_ns.is_some(), routable, "flow {} wedged", r.flow);
            }
            assert_eq!(booked, owed, "Σ per-link busy = Σ per-hop serialization");
        }
    });
}

/// The pinned wedge: the seeded 4×4×2 torus under two-slot buffers
/// (`golden_credit_torus_seeded`) deadlocks on its wrap-around rings.
/// The run terminates and says so.
#[test]
fn wedged_torus_terminates_with_its_stuck_flows_undelivered() {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let mut rng = Rng64::new(7);
    let flows: Vec<Flow> = (0..300)
        .map(|_| Flow {
            src: rng.range(0, 32),
            dst: rng.range(0, 32),
            bytes: rng.range_u64(1, 1 << 18),
            start_ns: rng.range_u64(0, 500_000),
        })
        .collect();
    let out = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .detailed()
        .run(&flows);
    assert!(out.stats.completed < flows.len(), "this input wedges");
    assert_eq!(out.stats.completed + out.stats.unrouted, flows.len());
    assert_eq!(out.stats.abandoned, 0, "nothing was killed: no faults");
    let ideal = Simulation::new(&torus).run(&flows);
    assert_eq!(ideal.stats.completed, flows.len(), "every flow is routable");
}
