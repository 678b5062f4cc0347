//! Property-based tests for the discrete-event simulator and fabrics.

use std::collections::BTreeMap;

use hfast_core::{
    torus_fault_impact, Clustered, PaperLinear, ProvisionConfig, Provisioner, Strategy,
};
use hfast_netsim::engine::PathCache;
use hfast_netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FatTreeFabric, FaultAction,
    FaultEvent, FaultPlan, FaultState, FaultTarget, Flow, HfastFabric, LinkId, RetryPolicy,
    SharedPathCache, Simulation, TorusFabric,
};
use hfast_par::{forall, Rng64};
use hfast_topology::CommGraph;
use hfast_trace::{export, parse, validate, TraceRecorder, Track};

fn flows(rng: &mut Rng64, n: usize, max: usize) -> Vec<Flow> {
    (0..rng.range(1, max))
        .map(|_| Flow {
            src: rng.range(0, n),
            dst: rng.range(0, n),
            bytes: rng.range_u64(1, 1 << 20),
            start_ns: rng.range_u64(0, 1_000_000),
        })
        .collect()
}

/// A random fabric drawn from the three healthy families.
fn any_fabric(rng: &mut Rng64) -> (Box<dyn Fabric>, usize) {
    match rng.range(0, 3) {
        0 => (
            Box::new(FatTreeFabric::new(24, 8).expect("valid shape")),
            24,
        ),
        1 => (
            Box::new(TorusFabric::new((3, 3, 3)).expect("valid shape")),
            27,
        ),
        _ => {
            let mut g = CommGraph::new(12);
            for _ in 0..rng.range(1, 30) {
                let a = rng.range(0, 12);
                let b = rng.range(0, 12);
                if a != b {
                    g.add_message(a, b, rng.range_u64(2048, 1 << 20));
                }
            }
            let prov = PaperLinear.provision(&g, ProvisionConfig::default());
            (Box::new(HfastFabric::new(prov)), 12)
        }
    }
}

#[test]
fn fat_tree_delivers_everything() {
    forall("fat_tree_delivers_everything", 48, |rng| {
        let fs = flows(rng, 32, 60);
        let fabric = FatTreeFabric::new(32, 8).expect("valid shape");
        let stats = Simulation::new(&fabric).run(&fs).stats;
        assert_eq!(stats.completed, fs.len());
        assert_eq!(stats.unrouted, 0);
        assert_eq!(
            stats.delivered_bytes,
            fs.iter().map(|f| f.bytes).sum::<u64>()
        );
    });
}

#[test]
fn torus_delivers_everything() {
    forall("torus_delivers_everything", 48, |rng| {
        let fs = flows(rng, 27, 60);
        let fabric = TorusFabric::new((3, 3, 3)).expect("valid shape");
        let stats = Simulation::new(&fabric).run(&fs).stats;
        assert_eq!(stats.completed, fs.len());
    });
}

#[test]
fn latency_lower_bound_holds() {
    forall("latency_lower_bound_holds", 48, |rng| {
        // No flow can beat its uncontended cut-through time:
        // sum of link latencies + one serialization on its slowest link.
        let fs = flows(rng, 32, 40);
        let fabric = FatTreeFabric::new(32, 8).expect("valid shape");
        let out = Simulation::new(&fabric).detailed().run(&fs);
        for r in out.records() {
            let f = &fs[r.flow];
            let path = fabric.path(f.src, f.dst).unwrap();
            let min_lat: u64 = path.iter().map(|&l| fabric.link(l).latency_ns).sum();
            let min_ser = path
                .iter()
                .map(|&l| fabric.link(l).serialize_ns(f.bytes))
                .max()
                .unwrap_or(0);
            let end = r.end_ns.expect("delivered");
            assert!(
                end - r.start_ns >= min_lat + min_ser,
                "flow {} beat physics: {} < {} + {}",
                r.flow,
                end - r.start_ns,
                min_lat,
                min_ser
            );
        }
    });
}

#[test]
fn simulation_is_deterministic() {
    forall("simulation_is_deterministic", 48, |rng| {
        let fs = flows(rng, 16, 50);
        let fabric = TorusFabric::new((4, 2, 2)).expect("valid shape");
        let a = Simulation::new(&fabric).run(&fs);
        let b = Simulation::new(&fabric).run(&fs);
        assert_eq!(a, b);
    });
}

#[test]
fn cached_simulation_matches_uncached() {
    // A shared PathCache — cold, then warm across repeated runs — must
    // leave the simulation results bit-identical to the cache-free path.
    forall("cached_simulation_matches_uncached", 48, |rng| {
        let fabric = TorusFabric::new((3, 3, 3)).expect("valid shape");
        let mut cache = PathCache::new();
        for _ in 0..3 {
            let fs = flows(rng, 27, 80);
            let fresh = Simulation::new(&fabric).detailed().run(&fs);
            let warm = Simulation::new(&fabric)
                .with_cache(&mut cache)
                .detailed()
                .run(&fs);
            assert_eq!(fresh, warm);
        }
        assert!(cache.len() <= 27 * 27);
    });
}

#[test]
fn snapshot_simulation_matches_fresh_and_cached() {
    // Satellite: a run reading routes from an immutable shared snapshot —
    // cold, partially warm, or fully warm — must be bit-identical to both
    // the cache-free run and the private-cache run, and must never mutate
    // the snapshot it reads.
    forall("snapshot_simulation_matches_fresh", 48, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let shared = SharedPathCache::new();
        for round in 0..3 {
            let fs = flows(rng, n, 80);
            if round > 0 {
                // Later rounds warm with a subset so the snapshot is only
                // partially covering and the overlay path gets exercised.
                shared.warm(fabric, &fs[..fs.len() / 2]);
            }
            let snap = shared.snapshot();
            let before = snap.len();
            let fresh = Simulation::new(fabric).detailed().run(&fs);
            let via_snap = Simulation::new(fabric)
                .with_snapshot(&snap)
                .detailed()
                .run(&fs);
            let mut cache = PathCache::new();
            let via_cache = Simulation::new(fabric)
                .with_cache(&mut cache)
                .detailed()
                .run(&fs);
            assert_eq!(fresh, via_snap, "snapshot run diverged from fresh");
            assert_eq!(fresh, via_cache, "private-cache run diverged");
            assert_eq!(snap.len(), before, "run mutated the shared snapshot");
        }
    });
}

#[test]
fn warmed_snapshot_serves_all_hits() {
    // After warm() covers a flow set, a snapshot run resolves no new
    // routes: every flow is a cache hit.
    forall("warmed_snapshot_serves_all_hits", 32, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let fs = flows(rng, n, 60);
        let shared = SharedPathCache::new();
        let snap = shared.warm(fabric, &fs);
        let obs = EngineObs::new();
        let out = Simulation::new(fabric)
            .with_snapshot(&snap)
            .with_obs(&obs)
            .run(&fs);
        assert_eq!(obs.cache_hits.get(), fs.len() as u64, "all hits when warm");
        assert_eq!(obs.cache_misses.get(), 0);
        assert_eq!(out.stats, Simulation::new(fabric).run(&fs).stats);
    });
}

#[test]
fn concurrent_snapshot_runs_are_identical() {
    // Many threads simulating through one snapshot concurrently all get
    // the single-threaded answer.
    forall("concurrent_snapshot_runs_are_identical", 16, |rng| {
        let fabric = TorusFabric::new((3, 3, 3)).expect("valid shape");
        let fs = flows(rng, 27, 60);
        let shared = SharedPathCache::new();
        shared.warm(&fabric, &fs[..fs.len() / 2]);
        let snap = shared.snapshot();
        let expected = Simulation::new(&fabric).detailed().run(&fs);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (snap, fabric, fs) = (&snap, &fabric, &fs);
                    scope.spawn(move || {
                        Simulation::new(fabric)
                            .with_snapshot(snap)
                            .detailed()
                            .run(fs)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), expected);
            }
        });
    });
}

#[test]
fn snapshot_fault_run_matches_private_cache() {
    // Under faults the snapshot is cloned into the run's own cache; the
    // replay must still be bit-identical to a fresh private-cache run.
    forall("snapshot_fault_run_matches_private", 24, |rng| {
        let fabric = TorusFabric::new((4, 4, 1)).expect("valid shape");
        let fs = flows(rng, 16, 40);
        let eligible = transit_links(&fabric, &fs);
        if eligible.is_empty() {
            return;
        }
        let seed = rng.range_u64(0, u64::MAX - 1);
        let count = rng.range(1, eligible.len().min(4) + 1);
        let plan = FaultPlan::builder()
            .random_link_failures(seed, count, &eligible, (0, 500_000), Some(200_000))
            .build(&fabric)
            .expect("valid plan");
        let shared = SharedPathCache::new();
        let snap = shared.warm(&fabric, &fs);
        let before = snap.len();
        let bare = Simulation::new(&fabric)
            .with_faults(&plan)
            .detailed()
            .run(&fs);
        let via_snap = Simulation::new(&fabric)
            .with_snapshot(&snap)
            .with_faults(&plan)
            .detailed()
            .run(&fs);
        assert_eq!(bare, via_snap, "snapshot perturbed a fault replay");
        assert_eq!(snap.len(), before, "fault run mutated the snapshot");
    });
}

#[test]
fn attached_observability_never_changes_results() {
    // Satellite: the tracer is strictly read-from. A run with an attached
    // EngineObs must produce bit-identical stats AND records versus a bare
    // run on the same random fabric and flows.
    forall("observability_never_changes_results", 48, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fs = flows(rng, n, 60);
        let bare = Simulation::new(fabric.as_ref()).detailed().run(&fs);
        let obs = EngineObs::new();
        let observed = Simulation::new(fabric.as_ref())
            .with_obs(&obs)
            .detailed()
            .run(&fs);
        assert_eq!(bare, observed, "observability perturbed the simulation");
        // And the observations themselves are coherent with the run.
        assert_eq!(obs.runs.get(), 1);
        assert_eq!(obs.flows.get(), fs.len() as u64);
        assert_eq!(obs.unrouted.get(), bare.stats.unrouted as u64);
        assert_eq!(obs.flow_bytes.count(), fs.len() as u64);
        assert_eq!(
            obs.cache_hits.get() + obs.cache_misses.get(),
            fs.len() as u64,
            "every flow is either a cache hit or a miss"
        );
    });
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    // Satellite: an attached-but-empty FaultPlan must not perturb the
    // simulation in any way — stats AND records bit-identical, on every
    // fabric family, cold and warm cache.
    forall("empty_fault_plan_is_bit_identical", 48, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let fs = flows(rng, n, 60);
        let plan = FaultPlan::builder().build(fabric).expect("empty plan");
        assert!(plan.is_empty());
        let bare = Simulation::new(fabric).detailed().run(&fs);
        let with_plan = Simulation::new(fabric)
            .with_faults(&plan)
            .detailed()
            .run(&fs);
        assert_eq!(bare, with_plan, "empty plan perturbed the simulation");

        let mut cache = PathCache::new();
        let warm_bare = Simulation::new(fabric)
            .with_cache(&mut cache)
            .detailed()
            .run(&fs);
        let mut cache2 = PathCache::new();
        let warm_plan = Simulation::new(fabric)
            .with_cache(&mut cache2)
            .with_faults(&plan)
            .detailed()
            .run(&fs);
        assert_eq!(warm_bare, warm_plan);
        assert_eq!(cache.len(), cache2.len());
    });
}

/// The `Fabric::path_avoiding` contract the engine's coverage snapshot
/// relies on, on all three fabrics: while both endpoints are up, a pair
/// one of whose known routes (from `path` or an earlier `path_avoiding`)
/// is fully up gets a route, and a route it gets is fully up.
#[test]
fn path_avoiding_finds_a_route_while_a_known_one_is_up() {
    forall(
        "path_avoiding_finds_a_route_while_a_known_one_is_up",
        48,
        |rng| {
            let (fabric, n) = any_fabric(rng);
            let fabric = fabric.as_ref();
            let pairs: Vec<(usize, usize)> = (0..24)
                .map(|_| (rng.range(0, n), rng.range(0, n)))
                .collect();
            let mut known: Vec<Vec<Vec<LinkId>>> = pairs
                .iter()
                .map(|&(s, d)| fabric.path(s, d).into_iter().collect())
                .collect();
            let mut state = FaultState::healthy(fabric);
            for _ in 0..16 {
                let target = if rng.range(0, 4) == 0 {
                    FaultTarget::Node(rng.range(0, n))
                } else {
                    FaultTarget::Link(rng.range(0, fabric.link_count()))
                };
                let action = if rng.range(0, 3) == 0 {
                    FaultAction::Recover
                } else {
                    FaultAction::Fail
                };
                let time_ns = 0;
                state.apply(
                    fabric,
                    FaultEvent {
                        time_ns,
                        action,
                        target,
                    },
                );
                if rng.range(0, 4) == 0 {
                    state.repatch_link(rng.range(0, fabric.link_count()));
                }
                for (&(s, d), routes) in pairs.iter().zip(&mut known) {
                    let found = fabric.path_avoiding(s, d, &state);
                    let ends_up = state.node_up(s) && state.node_up(d);
                    if ends_up && routes.iter().any(|r| !state.blocks(r)) {
                        assert!(found.is_some(), "({s}, {d}) lost a route that is up");
                    }
                    if let Some(route) = found {
                        assert!(!state.blocks(&route), "({s}, {d}) got a cut route");
                        routes.push(route);
                    }
                }
            }
        },
    );
}

/// The analytic torus fault model and the simulator's detour routing
/// answer one question twice: with the same routers dead,
/// `hfast_core::torus_fault_impact`'s BFS and `TorusFabric::path_avoiding`
/// must agree on the unreachable surviving pairs and on every pair's
/// dilation over its healthy dimension-order route.
#[test]
fn torus_fault_impact_matches_path_avoiding() {
    const DIMS: [(usize, usize, usize); 8] = [
        (4, 4, 4),
        (1, 1, 8),
        (3, 3, 3),
        (2, 4, 4),
        (5, 3, 2),
        (1, 6, 6),
        (2, 2, 2),
        (8, 1, 1),
    ];
    forall("torus_fault_impact_matches_path_avoiding", 48, |rng| {
        let dims = DIMS[rng.range(0, DIMS.len())];
        let fabric = TorusFabric::new(dims).expect("valid shape");
        let n = fabric.nodes();
        let mut failed: Vec<usize> = (0..rng.range(0, n / 3 + 1))
            .map(|_| rng.range(0, n))
            .collect();
        failed.sort_unstable();
        failed.dedup();
        let mut state = FaultState::healthy(&fabric);
        for &node in &failed {
            state.apply(
                &fabric,
                FaultEvent {
                    time_ns: 0,
                    action: FaultAction::Fail,
                    target: FaultTarget::Node(node),
                },
            );
        }
        let (mut unreachable, mut dil_sum, mut dil_count, mut dil_max) = (0, 0.0, 0, 0.0f64);
        for a in (0..n).filter(|&a| state.node_up(a)) {
            for b in (a + 1..n).filter(|&b| state.node_up(b)) {
                let healthy = fabric.path(a, b).expect("a torus routes every pair");
                match fabric.path_avoiding(a, b, &state) {
                    None => unreachable += 1,
                    Some(detour) => {
                        let dil = detour.len() as f64 / healthy.len() as f64;
                        dil_sum += dil;
                        dil_count += 1;
                        dil_max = dil_max.max(dil);
                    }
                }
            }
        }
        let (avg, max) = if dil_count == 0 {
            (1.0, 1.0)
        } else {
            (dil_sum / f64::from(dil_count), dil_max)
        };
        let report = torus_fault_impact(dims, &failed);
        let at = format!("{dims:?} with routers {failed:?} dead");
        assert_eq!(report.unreachable_pairs, unreachable, "unreachable, {at}");
        assert_eq!(report.max_dilation, max, "max dilation, {at}");
        assert!(
            (report.avg_dilation - avg).abs() < 1e-12,
            "avg dilation {} vs simulated {avg}, {at}",
            report.avg_dilation
        );
    });
}

#[test]
fn fault_replay_is_deterministic() {
    // Satellite: a seeded fault schedule replays bit-identically across
    // repeated same-seed runs, with and without a shared cache.
    forall("fault_replay_is_deterministic", 32, |rng| {
        let fabric = TorusFabric::new((4, 4, 1)).expect("valid shape");
        let fs = flows(rng, 16, 40);
        let eligible = transit_links(&fabric, &fs);
        if eligible.is_empty() {
            return;
        }
        let seed = rng.range_u64(0, u64::MAX - 1);
        let count = rng.range(1, eligible.len().min(4) + 1);
        let plan = FaultPlan::builder()
            .random_link_failures(seed, count, &eligible, (0, 500_000), Some(200_000))
            .build(&fabric)
            .expect("valid plan");
        let run = |cache: Option<&mut PathCache>| {
            let sim = Simulation::new(&fabric).with_faults(&plan).detailed();
            match cache {
                Some(c) => sim.with_cache(c).run(&fs),
                None => sim.run(&fs),
            }
        };
        let a = run(None);
        let b = run(None);
        assert_eq!(a, b, "same seed, same schedule, different output");
        let mut cache = PathCache::new();
        let c = run(Some(&mut cache));
        assert_eq!(a, c, "shared cache perturbed a fault replay");
        // The cache stays safe for a fault-free run afterwards: fault-era
        // entries were re-marked stale, so the healthy baseline is exact.
        let healthy = Simulation::new(&fabric).detailed().run(&fs);
        let after = Simulation::new(&fabric)
            .with_cache(&mut cache)
            .detailed()
            .run(&fs);
        assert_eq!(healthy, after, "fault-era routes leaked into a healthy run");
    });
}

#[test]
fn hfast_routes_every_provisioned_flow() {
    forall("hfast_routes_every_provisioned_flow", 48, |rng| {
        let mut g = CommGraph::new(12);
        for _ in 0..rng.range(1, 40) {
            let a = rng.range(0, 12);
            let b = rng.range(0, 12);
            if a != b {
                g.add_message(a, b, rng.range_u64(2048, 1 << 20));
            }
        }
        let fabric = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
        let fs = traffic::flows_from_graph(&g, 2048);
        let stats = Simulation::new(&fabric).run(&fs).stats;
        assert_eq!(stats.unrouted, 0);
        assert_eq!(stats.completed, fs.len());
    });
}

#[test]
fn delaying_a_flow_never_helps_others_complete_later_overall() {
    forall("delaying_a_flow_never_changes_completion", 48, |rng| {
        // Pushing one flow later cannot change how many flows complete
        // (weak sanity of the FIFO model).
        let fs = flows(rng, 16, 20);
        let delay = rng.range_u64(1, 1_000_000);
        let fabric = FatTreeFabric::new(16, 8).expect("valid shape");
        let base = Simulation::new(&fabric).run(&fs).stats;
        let mut delayed = fs.clone();
        delayed[0].start_ns += delay;
        let after = Simulation::new(&fabric).run(&delayed).stats;
        assert_eq!(after.completed, base.completed);
    });
}

#[test]
fn paths_stay_within_link_table() {
    forall("paths_stay_within_link_table", 48, |rng| {
        let fs = flows(rng, 30, 30);
        for fabric in [
            Box::new(FatTreeFabric::new(30, 8).expect("valid shape")) as Box<dyn Fabric>,
            Box::new(TorusFabric::new((5, 3, 2)).expect("valid shape")) as Box<dyn Fabric>,
        ] {
            for f in &fs {
                if f.src < fabric.nodes() && f.dst < fabric.nodes() {
                    if let Some(path) = fabric.path(f.src, f.dst) {
                        for link in path {
                            assert!(link < fabric.link_count());
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn hfast_fabric_paths_agree_with_provisioning_routes() {
    forall(
        "hfast_fabric_paths_agree_with_provisioning_routes",
        32,
        |rng| {
            // The fabric's link path and the provisioning's analytic route are
            // two readings of one walk: one link per crossbar traversal, and
            // the same switch hops. Every strategy, plus an explicit
            // clustering with offline nodes, shared chains and light edges.
            const N: usize = 14;
            let mut g = CommGraph::new(N);
            for _ in 0..rng.range(1, 60) {
                let a = rng.range(0, N);
                let b = rng.range(0, N);
                if a != b {
                    g.add_message(a, b, rng.range_u64(64, 1 << 21));
                }
            }
            let config = ProvisionConfig {
                block_ports: rng.range(4, 24),
                cutoff: 2048,
            };
            let mut online: Vec<usize> = (0..N).filter(|_| rng.bool(0.8)).collect();
            rng.shuffle(&mut online);
            let mut clusters = Vec::new();
            while !online.is_empty() {
                let take = rng.range(1, 4).min(online.len());
                clusters.push(online.split_off(online.len() - take));
            }
            let mut provisioners: Vec<Box<dyn Provisioner>> =
                Strategy::ALL.iter().map(|s| s.provisioner()).collect();
            provisioners.push(Box::new(Clustered::new(clusters)));
            for provisioner in provisioners {
                let prov = provisioner.provision(&g, config);
                let fabric = HfastFabric::new(prov.clone());
                for a in 0..N {
                    for b in (0..N).filter(|&b| b != a) {
                        let path = fabric.path(a, b);
                        let at = format!("{} pair ({a}, {b})", provisioner.name());
                        match prov.route(a, b) {
                            Some(route) => {
                                let path = path.expect("routed pair has a path");
                                assert_eq!(path.len(), route.circuit_traversals, "{at}");
                                assert_eq!(fabric.switch_hops(a, b), Some(route.switch_hops));
                            }
                            None if prov.cluster_of(a).is_some()
                                && prov.cluster_of(b).is_some() =>
                            {
                                let path = path.expect("tree fallback");
                                assert_eq!(path.len(), 2, "{at}");
                                assert!(path.iter().all(|&l| fabric.link_class(l) == "tree"));
                            }
                            None => assert_eq!(path, None, "{at}: an offline end has no path"),
                        }
                    }
                }
            }
        },
    );
}

#[test]
fn attached_trace_never_changes_results() {
    // Satellite: a TraceRecorder is strictly write-only from the engine's
    // perspective — attaching one must leave both the static and the
    // faulted event loop bit-identical to a bare run.
    forall("attached_trace_never_changes_results", 32, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let fs = flows(rng, n, 60);
        let bare = Simulation::new(fabric).detailed().run(&fs);
        let rec = TraceRecorder::new();
        let traced = Simulation::new(fabric).with_trace(&rec).detailed().run(&fs);
        assert_eq!(bare, traced, "tracing perturbed the static loop");
        assert!(!rec.is_empty() || fs.iter().all(|f| f.src == f.dst));

        // Same invariant through the dynamic (faulted) loop.
        let eligible = transit_links(fabric, &fs);
        if eligible.is_empty() {
            return;
        }
        let seed = rng.range_u64(0, u64::MAX - 1);
        let count = rng.range(1, eligible.len().min(4) + 1);
        let plan = FaultPlan::builder()
            .random_link_failures(seed, count, &eligible, (0, 500_000), Some(200_000))
            .build(fabric)
            .expect("valid plan");
        let bare_f = Simulation::new(fabric)
            .with_faults(&plan)
            .detailed()
            .run(&fs);
        let rec_f = TraceRecorder::new();
        let traced_f = Simulation::new(fabric)
            .with_faults(&plan)
            .with_trace(&rec_f)
            .detailed()
            .run(&fs);
        assert_eq!(bare_f, traced_f, "tracing perturbed the faulted loop");
    });
}

#[test]
fn hop_spans_match_the_closed_form_busy_time() {
    // An oracle that shares no engine code: on a fault-free fabric every
    // flow crosses each link of `fabric.path(src, dst)` once, for that
    // link's serialization time of its payload. So per-link busy time
    // folded from the recorder's `hop` spans is a sum over the flows'
    // paths, and the hop spans are exactly the samples the obs
    // queue-wait histogram took.
    forall("hop_spans_match_the_closed_form_busy_time", 32, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let fs = flows(rng, n, 50);
        let obs = EngineObs::new();
        let rec = TraceRecorder::new();
        Simulation::new(fabric)
            .with_obs(&obs)
            .with_trace(&rec)
            .run(&fs);

        let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
        for f in &fs {
            for l in fabric.path(f.src, f.dst).unwrap_or_default() {
                *expected.entry(l).or_default() += fabric.link(l).serialize_ns(f.bytes);
            }
        }
        let (mut busy, mut hops, mut wait) = (BTreeMap::new(), 0u64, 0u64);
        for s in rec.snapshot() {
            if let (Track::Link(l), "hop") = (s.track, s.name) {
                *busy.entry(l).or_default() += s.dur_ns;
                hops += 1;
                let w = s.fields.iter().find(|(k, _)| *k == "wait");
                wait = wait.wrapping_add(w.expect("a hop carries its wait").1);
            }
        }
        assert_eq!(busy, expected, "hop busy time diverged from the paths");
        assert_eq!(hops, obs.queue_wait_ns.count(), "one wait sample per hop");
        assert_eq!(
            wait,
            obs.queue_wait_ns.sum(),
            "hop waits sum to the histogram's"
        );
    });
}

#[test]
fn exporter_round_trips_through_json_parser() {
    // Satellite: whatever the engine records, the Perfetto exporter's
    // output must parse with the in-repo JSON parser and validate as
    // trace-event JSON, with validate()'s event count agreeing with an
    // independent walk of the parsed traceEvents array.
    forall("exporter_round_trips_through_json_parser", 32, |rng| {
        let (fabric, n) = any_fabric(rng);
        let fabric = fabric.as_ref();
        let fs = flows(rng, n, 50);
        let rec = TraceRecorder::new();
        Simulation::new(fabric).with_trace(&rec).run(&fs);
        let spans = rec.snapshot();
        let doc = export(&spans);
        let parsed = parse(&doc).expect("exporter emitted unparseable JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("document has a traceEvents array");
        let stats = validate(&doc).expect("exporter emitted invalid trace");
        let non_meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) != Some("M"))
            .count();
        assert_eq!(stats.events, non_meta);
        // Every span produced at least its own event; causal edges add
        // flow-arrow pairs on top.
        assert!(stats.events >= spans.len());
    });
}

#[test]
fn fault_plan_never_routes_through_failures() {
    forall("fault_plan_never_routes_through_failures", 32, |rng| {
        let fs = flows(rng, 27, 30);
        let mut dead: Vec<usize> = (0..rng.range(0, 5)).map(|_| rng.range(0, 27)).collect();
        dead.sort_unstable();
        dead.dedup();
        let torus = TorusFabric::new((3, 3, 3)).expect("valid shape");
        let mut builder = FaultPlan::builder();
        for &n in &dead {
            builder = builder.fail_node(0, n);
        }
        let plan = builder.build(&torus).expect("in-range failures");
        let involving_dead = fs
            .iter()
            .filter(|f| dead.contains(&f.src) || dead.contains(&f.dst))
            .count();
        // One attempt, no recoveries: dead endpoints stay dead, matching
        // the static failure sets the old DegradedFabric shim modeled.
        // Route resolution belongs to the driver, so the guarantee holds
        // under either link model.
        for congestion in [CreditConfig::default(), CreditConfig::credit(2)] {
            let stats = Simulation::new(&torus)
                .with_congestion(congestion)
                .with_faults(&plan)
                .with_retry(RetryPolicy {
                    max_attempts: 1,
                    base_backoff_ns: 1,
                    max_backoff_ns: 1,
                })
                .run(&fs)
                .stats;
            assert!(stats.unrouted >= involving_dead.min(fs.len()));
            assert_eq!(stats.completed + stats.unrouted, fs.len());
        }
    });
}

/// A 16-node torus, seeded traffic, and a four-link outage with recovery.
fn credit_outage() -> (TorusFabric, Vec<Flow>, FaultPlan) {
    let torus = TorusFabric::new((4, 4, 1)).expect("valid shape");
    let fs = traffic::uniform_random(16, 400, 8192, 50_000, 3);
    let eligible = transit_links(&torus, &fs);
    let plan = FaultPlan::builder()
        .random_link_failures(11, 4, &eligible, (0, 40_000), Some(100_000))
        .build(&torus)
        .expect("valid plan");
    (torus, fs, plan)
}

/// The route cache belongs to the driver: a credit run fills the caller's
/// `PathCache`, and a second run resolves nothing. (The separate credit
/// loop ignored `with_cache` and kept a private memo.)
#[test]
fn credit_runs_fill_and_reuse_the_callers_cache() {
    let (torus, fs, _) = credit_outage();
    let mut cache = PathCache::new();
    let cold = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .with_cache(&mut cache)
        .detailed()
        .run(&fs);
    let pairs: std::collections::BTreeSet<_> = fs.iter().map(|f| (f.src, f.dst)).collect();
    assert_eq!(cache.len(), pairs.len(), "every distinct pair was cached");
    let obs = EngineObs::new();
    let warm = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .with_cache(&mut cache)
        .with_obs(&obs)
        .detailed()
        .run(&fs);
    assert_eq!(obs.cache_misses.get(), 0, "the warm run resolved nothing");
    assert_eq!(obs.cache_hits.get(), fs.len() as u64);
    assert_eq!(cold, warm);
    let snapshot = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .with_snapshot(&cache)
        .detailed()
        .run(&fs);
    assert_eq!(cold, snapshot);
}

/// Fault handling belongs to the driver, so a credit run under a fault
/// plan retries, accounts for every flow, and replays deterministically.
#[test]
fn faulted_credit_runs_retry_and_stay_deterministic() {
    let torus = TorusFabric::new((4, 4, 1)).expect("valid shape");
    let flows = traffic::uniform_random(16, 400, 8192, 50_000, 3);
    let eligible = transit_links(&torus, &flows);
    let plan = FaultPlan::builder()
        .random_link_failures(11, 3, &eligible, (0, 100_000), Some(200_000))
        .build(&torus)
        .expect("valid plan");
    let run = || {
        Simulation::new(&torus)
            .with_congestion(CreditConfig::credit(2))
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .detailed()
            .run(&flows)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "faulted credit replays are deterministic");
    assert_eq!(
        a.stats.completed + a.stats.unrouted,
        flows.len(),
        "every flow is accounted for"
    );
    assert!(a.stats.total_retries > 0, "the outage must hit something");
}

/// Every per-event observability hook fires under credit flow control,
/// not just the epilogue counters the separate credit loop recorded.
#[test]
fn credit_runs_record_per_event_observability() {
    let (torus, fs, plan) = credit_outage();
    let run = |instruments: Option<(&EngineObs, &TraceRecorder)>| {
        let sim = Simulation::new(&torus)
            .with_congestion(CreditConfig::credit(2))
            .with_faults(&plan)
            .detailed();
        match instruments {
            Some((obs, rec)) => sim.with_obs(obs).with_trace(rec).run(&fs),
            None => sim.run(&fs),
        }
    };
    let obs = EngineObs::new();
    let rec = TraceRecorder::new();
    let out = run(Some((&obs, &rec)));
    assert_eq!(out, run(None), "observability never changes results");
    assert_eq!(obs.faults.get(), 4);
    assert_eq!(obs.recoveries.get(), 4);
    assert!(out.stats.total_retries > 0, "the outage hits live traffic");
    assert_eq!(out.stats.completed + out.stats.unrouted, fs.len());
    assert_eq!(obs.retries.get(), out.stats.total_retries);
    assert!(obs.flow_kills.get() >= obs.retries.get());
    assert!(obs.queue_wait_ns.count() > 0, "one sample per hop");
    assert_eq!(obs.queue_occupancy.count(), obs.events.get() - 8);
    let spans = rec.snapshot();
    let hops = spans.iter().filter(|s| s.name == "hop").count() as u64;
    assert_eq!(hops, obs.queue_wait_ns.count(), "one busy interval per hop");
    assert!(spans.iter().any(|s| s.name == "link_fail"));
}

/// Simulated time saturates at `u64::MAX` instead of overflowing: payloads
/// whose serialization time alone exceeds the clock, and a flow injected
/// one nanosecond before the end of time, run to completion under both
/// link models, in debug and release builds, with every instrument on.
#[test]
fn simulated_time_saturates_instead_of_overflowing() {
    let ft = FatTreeFabric::new(16, 4).expect("valid shape");
    let flow = |src, bytes, start_ns| Flow {
        src,
        dst: 0,
        bytes,
        start_ns,
    };
    let giants: Vec<Flow> = (1..4).map(|src| flow(src, u64::MAX, 0)).collect();
    let late = vec![flow(1, 4096, 0), flow(2, 4096, u64::MAX - 1)];
    for congestion in [CreditConfig::default(), CreditConfig::credit(1)] {
        for threads in [1, 2] {
            let obs = EngineObs::new();
            let rec = TraceRecorder::new();
            let sim = || {
                Simulation::new(&ft)
                    .with_congestion(congestion)
                    .with_threads(threads)
                    .detailed()
            };
            let out = sim().run(&giants);
            assert_eq!(out.stats.completed, 3, "{congestion:?}");
            assert_eq!(out.stats.makespan_ns, u64::MAX, "pinned at the ceiling");
            assert_eq!(out.stats.delivered_bytes, u64::MAX);
            assert_eq!(out, sim().with_obs(&obs).with_trace(&rec).run(&giants));

            let out = sim().run(&late);
            assert_eq!(out.stats.completed, 2, "{congestion:?}");
            assert_eq!(out.records()[1].end_ns, Some(u64::MAX));
            assert!(
                out.records()[0].end_ns < Some(1 << 20),
                "untouched by the ceiling"
            );
            assert_eq!(out, sim().with_obs(&obs).with_trace(&rec).run(&late));
        }
    }
    // Retry backoffs and sync points saturate the same way.
    let torus = TorusFabric::new((4, 1, 1)).expect("valid shape");
    let path = torus.path(0, 2).expect("routable");
    let plan = FaultPlan::builder()
        .fail_link(u64::MAX - 10, path[1])
        .build(&torus)
        .expect("valid plan");
    let stuck = [Flow {
        src: 0,
        dst: 2,
        bytes: 1 << 30,
        start_ns: u64::MAX - 100,
    }];
    for congestion in [CreditConfig::default(), CreditConfig::credit(1)] {
        let out = Simulation::new(&torus)
            .with_congestion(congestion)
            .with_faults(&plan)
            .with_reprovision(1 << 40)
            .run(&stuck);
        assert_eq!(out.stats.completed + out.stats.unrouted, 1);
    }
    // So do the byte weights of the circuit-coverage snapshots around a
    // repatch: giant flows over an HFAST fabric whose first circuit dies.
    let mut g = CommGraph::new(12);
    for i in 0..12 {
        g.add_message(i, (i + 1) % 12, 1 << 20);
        g.add_message(i, (i + 5) % 12, 1 << 19);
    }
    let hfast = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
    let circuit = (0..hfast.link_count())
        .find(|&l| hfast.reprovisionable(l))
        .expect("provisioning dedicated circuits");
    let plan = FaultPlan::builder()
        .fail_link(0, circuit)
        .build(&hfast)
        .expect("valid plan");
    let mut giants = traffic::flows_from_graph(&g, 2048);
    giants.iter_mut().for_each(|f| f.bytes = u64::MAX);
    for congestion in [CreditConfig::default(), CreditConfig::credit(1)] {
        let out = Simulation::new(&hfast)
            .with_congestion(congestion)
            .with_faults(&plan)
            .with_reprovision(1_000)
            .run(&giants);
        assert_eq!(out.reprovisions.len(), 1, "{congestion:?}");
        assert_eq!(out.stats.completed + out.stats.unrouted, giants.len());
    }
}
