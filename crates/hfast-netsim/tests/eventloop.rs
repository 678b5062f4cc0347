//! Event-loop rewrite anchors: golden output digests frozen on the
//! pre-rewrite (`BinaryHeap`) engine, plus thread-count and warm-cache
//! equivalence properties.
//!
//! The golden constants below were produced by the heap-based engine
//! before the calendar-queue rewrite and must never change: any diff in
//! any digest means the rewrite altered simulated results, not just
//! performance. The property tests then pin the new degrees of freedom —
//! `HFAST_THREADS` and route-cache reuse — to the same byte-for-byte
//! output.

use hfast_core::{PaperLinear, ProvisionConfig, Provisioner, Strategy};
use hfast_netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FatTreeFabric, FaultPlan, Flow,
    HfastFabric, PathCache, RetryPolicy, Scenario, ScenarioKind, SimOutput, Simulation,
    TorusFabric,
};
use hfast_par::{forall, Rng64};
use hfast_topology::CommGraph;
use hfast_trace::{TraceRecorder, Track};

/// [`SimOutput::digest`]: two runs with equal digests produced
/// byte-identical results.
fn digest(out: &SimOutput) -> u64 {
    out.digest()
}

fn seeded_flows(seed: u64, n_nodes: usize, count: usize) -> Vec<Flow> {
    let mut rng = Rng64::new(seed);
    (0..count)
        .map(|_| Flow {
            src: rng.range(0, n_nodes),
            dst: rng.range(0, n_nodes),
            bytes: rng.range_u64(1, 1 << 18),
            start_ns: rng.range_u64(0, 500_000),
        })
        .collect()
}

fn hfast_graph() -> (HfastFabric, Vec<Flow>) {
    let mut g = CommGraph::new(16);
    let mut rng = Rng64::new(99);
    for _ in 0..60 {
        let a = rng.range(0, 16);
        let b = rng.range(0, 16);
        if a != b {
            g.add_message(a, b, rng.range_u64(2048, 1 << 20));
        }
    }
    let fabric = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
    let flows = traffic::flows_from_graph(&g, 0);
    (fabric, flows)
}

#[test]
fn golden_torus_seeded() {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let fs = seeded_flows(7, 32, 300);
    let out = Simulation::new(&torus).detailed().run(&fs);
    assert_eq!(digest(&out), 0xabbcd0e7dc7f40df);
}

#[test]
fn golden_fattree_alltoall() {
    let ft = FatTreeFabric::new(32, 8).unwrap();
    let fs = traffic::alltoall(32, 4096);
    let out = Simulation::new(&ft).detailed().run(&fs);
    assert_eq!(digest(&out), 0x77fc692a8b8f1a26);
}

#[test]
fn golden_hfast_graph() {
    let (fabric, flows) = hfast_graph();
    let out = Simulation::new(&fabric).detailed().run(&flows);
    assert_eq!(digest(&out), 0x15f09c765c0e994c);
}

#[test]
fn golden_torus_faulted() {
    let (torus, fs, plan) = faulted_torus();
    let out = Simulation::new(&torus)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .detailed()
        .run(&fs);
    assert_eq!(digest(&out), 0xe3be6145e07f0fef);
}

#[test]
fn golden_hfast_reprovision() {
    let (fabric, flows) = hfast_graph();
    let eligible = transit_links(&fabric, &flows);
    let plan = FaultPlan::builder()
        .random_link_failures(0xBEEF, 3, &eligible, (0, 200_000), None)
        .build(&fabric)
        .unwrap();
    let out = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_reprovision(100_000)
        .detailed()
        .run(&flows);
    // Golden updated when [`ReconfigStep`] gained `strategy` and
    // `edges_touched`: the digest folds in each step's Debug length, so
    // the wider struct shifts it while flow records stay byte-identical
    // (`golden_hfast_graph` pins those separately).
    assert_eq!(digest(&out), 0x2342ee1d8b9b75c8);
}

/// The conservative-parallel executor must be indistinguishable from the
/// sequential loop on arbitrary fabrics and traffic, for every thread
/// count.
#[test]
fn threads_equivalent_on_random_scenarios() {
    forall("eventloop_threads_equivalent", 24, |rng| {
        let nodes = rng.range(4, 48);
        let fabric: Box<dyn Fabric> = if rng.bool(0.5) {
            Box::new(TorusFabric::new((nodes, rng.range(1, 4), 1)).unwrap())
        } else {
            Box::new(FatTreeFabric::new(nodes.next_power_of_two(), 8).unwrap())
        };
        let n = fabric.nodes();
        let flows = seeded_flows(rng.range_u64(0, u64::MAX), n, rng.range(1, 400));
        let d1 = digest(
            &Simulation::new(&*fabric)
                .detailed()
                .with_threads(1)
                .run(&flows),
        );
        for threads in [2, 8] {
            let dt = digest(
                &Simulation::new(&*fabric)
                    .detailed()
                    .with_threads(threads)
                    .run(&flows),
            );
            assert_eq!(d1, dt, "threads={threads} diverged from sequential");
        }
    });
}

/// Fault runs are defined to execute sequentially regardless of the
/// requested thread count: `with_threads` must be a no-op on them.
#[test]
fn threads_are_inert_on_fault_runs() {
    let torus = TorusFabric::new((4, 4, 1)).unwrap();
    let fs = seeded_flows(21, 16, 150);
    let eligible = transit_links(&torus, &fs);
    let plan = FaultPlan::builder()
        .random_link_failures(0xACE, 3, &eligible, (0, 300_000), Some(100_000))
        .build(&torus)
        .unwrap();
    let base = digest(
        &Simulation::new(&torus)
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .detailed()
            .run(&fs),
    );
    for threads in [2, 8] {
        let d = digest(
            &Simulation::new(&torus)
                .with_faults(&plan)
                .with_retry(RetryPolicy::default())
                .with_threads(threads)
                .detailed()
                .run(&fs),
        );
        assert_eq!(base, d);
    }
}

/// `CongestionMode::Ideal` is the default link model: an explicit
/// `.with_congestion(CreditConfig::default())` changes nothing, so every
/// golden digest must reproduce bit-for-bit — including under different
/// thread counts and with faults attached.
#[test]
fn ideal_congestion_mode_reproduces_the_goldens() {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let fs = seeded_flows(7, 32, 300);
    for threads in [1, 8] {
        let out = Simulation::new(&torus)
            .with_congestion(CreditConfig::default())
            .with_threads(threads)
            .detailed()
            .run(&fs);
        assert_eq!(digest(&out), 0xabbcd0e7dc7f40df, "threads={threads}");
    }

    let ft = FatTreeFabric::new(32, 8).unwrap();
    let fs = traffic::alltoall(32, 4096);
    let out = Simulation::new(&ft)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&fs);
    assert_eq!(digest(&out), 0x77fc692a8b8f1a26);

    let (fabric, flows) = hfast_graph();
    let out = Simulation::new(&fabric)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&flows);
    assert_eq!(digest(&out), 0x15f09c765c0e994c);

    let (torus, fs, plan) = faulted_torus();
    let out = Simulation::new(&torus)
        .with_congestion(CreditConfig::default())
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .detailed()
        .run(&fs);
    assert_eq!(digest(&out), 0xe3be6145e07f0fef, "ideal + faults");
}

/// Credit-mode runs are sequential and seeded: any fabric, any
/// traffic, any buffer depth — repeated replays and every thread count
/// produce identical bytes.
#[test]
fn credit_mode_is_deterministic_on_random_scenarios() {
    forall("congestion_credit_determinism", 12, |rng| {
        let nodes = rng.range(4, 32);
        let fabric: Box<dyn Fabric> = if rng.bool(0.5) {
            Box::new(TorusFabric::new((nodes, rng.range(1, 4), 1)).unwrap())
        } else {
            Box::new(FatTreeFabric::new(nodes.next_power_of_two(), 8).unwrap())
        };
        let n = fabric.nodes();
        let flows = seeded_flows(rng.range_u64(0, u64::MAX), n, rng.range(1, 200));
        let credits = rng.range(1, 5) as u32;
        let cfg = CreditConfig::credit(credits);
        let base = digest(
            &Simulation::new(&*fabric)
                .with_congestion(cfg)
                .detailed()
                .run(&flows),
        );
        for threads in [1, 8] {
            let d = digest(
                &Simulation::new(&*fabric)
                    .with_congestion(cfg)
                    .with_threads(threads)
                    .detailed()
                    .run(&flows),
            );
            assert_eq!(base, d, "credits={credits} threads={threads}");
        }
    });
}

/// Warm cache reuse, cold routing, and instrumented runs all produce the
/// same bytes: the route cache and observability are performance and
/// visibility features, never semantic ones.
#[test]
fn warm_cache_and_obs_runs_are_byte_identical() {
    forall("eventloop_warm_cache_identity", 12, |rng| {
        let shape = (rng.range(2, 6), rng.range(2, 6), rng.range(1, 3));
        let torus = TorusFabric::new(shape).unwrap();
        let flows = seeded_flows(rng.range_u64(0, u64::MAX), torus.nodes(), rng.range(1, 300));
        let cold = digest(&Simulation::new(&torus).detailed().run(&flows));
        let mut cache = PathCache::new();
        let first = digest(
            &Simulation::new(&torus)
                .with_cache(&mut cache)
                .detailed()
                .run(&flows),
        );
        let warm = digest(
            &Simulation::new(&torus)
                .with_cache(&mut cache)
                .detailed()
                .run(&flows),
        );
        let obs = EngineObs::new();
        let instrumented = digest(
            &Simulation::new(&torus)
                .with_obs(&obs)
                .detailed()
                .run(&flows),
        );
        assert_eq!(cold, first, "cold vs first cached run");
        assert_eq!(cold, warm, "cold vs warm-cache run");
        assert_eq!(cold, instrumented, "cold vs instrumented run");
        assert!(obs.events.get() > 0 || flows.is_empty());
    });
}

/// 15→1 incast of 64 KiB messages: the scenario that forms a congestion
/// tree under one-slot buffers.
fn incast_flows() -> Vec<Flow> {
    (1..16)
        .map(|src| Flow {
            src,
            dst: 0,
            bytes: 64 << 10,
            start_ns: 0,
        })
        .collect()
}

/// The `golden_torus_faulted` inputs: fabric, flows, and outage plan.
fn faulted_torus() -> (TorusFabric, Vec<Flow>, FaultPlan) {
    let torus = TorusFabric::new((4, 4, 1)).unwrap();
    let fs = seeded_flows(13, 16, 200);
    let eligible = transit_links(&torus, &fs);
    let plan = FaultPlan::builder()
        .random_link_failures(0xFEED, 4, &eligible, (0, 400_000), Some(150_000))
        .build(&torus)
        .unwrap();
    (torus, fs, plan)
}

/// FNV-1a over a recorder's span stream in record order: name, track,
/// start, duration, and every field. Pins what a traced run *emits*, not
/// just what it returns.
fn span_digest(rec: &TraceRecorder) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for s in rec.snapshot() {
        s.name.bytes().for_each(|b| mix(u64::from(b)));
        let (kind, id) = match s.track {
            Track::Link(l) => (1, l as u64),
            Track::Engine => (2, 0),
            Track::Reconfig => (3, 0),
            other => panic!("simulator runs never record on {other:?}"),
        };
        mix(kind);
        mix(id);
        mix(s.t_ns);
        mix(s.dur_ns);
        for (k, v) in &s.fields {
            k.bytes().for_each(|b| mix(u64::from(b)));
            mix(*v);
        }
    }
    h
}

// Credit-mode goldens, frozen on the three-loop engine (the separate
// `run_credit` heap loop) before the loops were merged: the fault-free
// constants must never change.

#[test]
fn golden_credit_torus_seeded() {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let fs = seeded_flows(7, 32, 300);
    let out = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .detailed()
        .run(&fs);
    assert_eq!(digest(&out), 0xf63af328a41b4ddc);
}

#[test]
fn golden_credit_fattree_incast() {
    let ft = FatTreeFabric::new(16, 4).unwrap();
    let rec = TraceRecorder::new();
    let out = Simulation::new(&ft)
        .with_congestion(CreditConfig::credit(1))
        .with_trace(&rec)
        .detailed()
        .run(&incast_flows());
    assert_eq!(digest(&out), 0x519a92b8765df5bf);
    assert_eq!(span_digest(&rec), 0xdaa292f45a292d3d, "span stream");
}

#[test]
fn golden_credit_hfast_graph() {
    let (fabric, flows) = hfast_graph();
    let out = Simulation::new(&fabric)
        .with_congestion(CreditConfig::credit(2))
        .detailed()
        .run(&flows);
    assert_eq!(digest(&out), 0x3d0765d1266a95f8);
}

#[test]
fn golden_credit_torus_faulted() {
    let (torus, fs, plan) = faulted_torus();
    let out = Simulation::new(&torus)
        .with_congestion(CreditConfig::credit(2))
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .detailed()
        .run(&fs);
    // Re-pinned once, when the credit loop's private route resolver was
    // deleted for the driver's shared one (frozen on the three-loop
    // engine this read 0x177eabfcdfd5bc26, and the merged driver still
    // reproduces that value when handed the old per-admission rule).
    // Two rules moved it: a pair's cached route — primary, or the detour
    // resolved while a link was down — is reused for as long as every
    // link on it is up, where the old loop re-ran `path_avoiding` on
    // every admission during an outage and snapped back to the primary
    // the instant nothing was down; and a pair the healthy fabric cannot
    // route is `Unreachable`, never retried. Both are the rules ideal
    // fault runs always had (`golden_torus_faulted`).
    assert_eq!(digest(&out), 0x1d9fcdce41cb81ed);
}

#[test]
fn golden_torus_faulted_span_stream() {
    let (torus, fs, plan) = faulted_torus();
    let rec = TraceRecorder::new();
    let out = Simulation::new(&torus)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .with_trace(&rec)
        .detailed()
        .run(&fs);
    assert_eq!(
        digest(&out),
        0xe3be6145e07f0fef,
        "tracing never moves output"
    );
    assert_eq!(span_digest(&rec), 0xf063deb63b6cc5e9);
}

/// FNV-1a over the two per-event histograms an attached [`EngineObs`]
/// fills: bucket counts, count and sum of `queue_wait_ns`, then of
/// `queue_occupancy`.
fn hist_digest(obs: &EngineObs) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for hist in [&obs.queue_wait_ns, &obs.queue_occupancy] {
        hist.bucket_counts().into_iter().for_each(&mut mix);
        mix(hist.count());
        mix(hist.sum());
    }
    h
}

// Histogram goldens: the constants must never change.

#[test]
fn golden_torus_faulted_obs_stream() {
    let (torus, fs, plan) = faulted_torus();
    // The obs stream is the same whether or not a recorder shares the
    // run.
    for traced in [false, true] {
        let obs = EngineObs::new();
        let rec = TraceRecorder::new();
        let sim = Simulation::new(&torus)
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .with_obs(&obs)
            .detailed();
        let sim = if traced { sim.with_trace(&rec) } else { sim };
        let out = sim.run(&fs);
        assert_eq!(digest(&out), 0xe3be6145e07f0fef, "obs never moves output");
        assert_eq!(hist_digest(&obs), 0x13ccee24c58ae741, "traced={traced}");
        if traced {
            assert_eq!(span_digest(&rec), 0xf063deb63b6cc5e9);
        }
    }
}

#[test]
fn golden_credit_hfast_reprovision_obs_stream() {
    // Credit buffers, two circuits failing under an incast, and the
    // mid-run repatch: every kind of engine event in one run.
    let scenario = Scenario::preset(ScenarioKind::Incast, 32, 5);
    let flows = scenario.generate();
    let hfast = HfastFabric::provisioned(
        &scenario.comm_graph(),
        ProvisionConfig::default(),
        Strategy::PaperLinear,
    );
    let mut outage = FaultPlan::builder();
    for (i, l) in (0..hfast.link_count())
        .filter(|&l| hfast.reprovisionable(l))
        .take(2)
        .enumerate()
    {
        outage = outage.fail_link(10_000 * (i as u64 + 1), l);
    }
    let outage = outage.build(&hfast).unwrap();
    let obs = EngineObs::new();
    let rec = TraceRecorder::new();
    let out = Simulation::new(&hfast)
        .with_congestion(CreditConfig::credit(2))
        .with_faults(&outage)
        .with_reprovision(100_000)
        .with_obs(&obs)
        .with_trace(&rec)
        .detailed()
        .run(&flows);
    assert_eq!(out.stats.completed, flows.len());
    let names: Vec<&str> = rec.snapshot().iter().map(|s| s.name).collect();
    for kind in ["hop", "link_fail", "reprovision"] {
        assert!(names.contains(&kind), "no {kind} span in the recorder");
    }
    assert_eq!(hist_digest(&obs), 0x6bc64aaae858712b);
    assert_eq!(span_digest(&rec), 0xa323f0db59b904d8, "span stream");
}

#[test]
fn golden_fattree_alltoall_obs_stream() {
    // Same-timestamp bursts through the sequential loop and the
    // lookahead windows: one stream, whatever the thread count.
    let ft = FatTreeFabric::new(32, 8).unwrap();
    let fs = traffic::alltoall(32, 4096);
    for threads in [1, 2] {
        let obs = EngineObs::new();
        let out = Simulation::new(&ft)
            .with_threads(threads)
            .with_obs(&obs)
            .detailed()
            .run(&fs);
        assert_eq!(digest(&out), 0x77fc692a8b8f1a26, "threads={threads}");
        assert_eq!(hist_digest(&obs), 0x1f4440facfbb724c, "threads={threads}");
    }
}
