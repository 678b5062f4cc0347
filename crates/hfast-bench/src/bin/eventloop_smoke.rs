//! Thread-count determinism smoke for the event loop: every scenario
//! runs under `HFAST_THREADS=1` and `=8` semantics (via
//! `Simulation::with_threads`, the same resolution path the env variable
//! feeds) and the outputs must be byte-identical. Exits non-zero, naming
//! the scenario and both digests, on any divergence.
//!
//! Scenarios cover every way the one driver runs: the 20k-flow static
//! suite the bench measures (where the conservative-parallel executor
//! actually engages), a bursty all-to-all on the fat tree
//! (same-timestamp event storms), a faulted torus with retries, credit
//! flow control, and credit + faults + mid-run repatching together (all
//! three sequential whatever the thread knob says).

use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::{
    traffic, transit_links, CreditConfig, Fabric, FatTreeFabric, FaultPlan, HfastFabric,
    RetryPolicy, Scenario, ScenarioKind, SimOutput, Simulation, TorusFabric,
};

fn check(name: &str, run: impl Fn(usize) -> SimOutput) {
    let seq = run(1);
    let par = run(8);
    let (d1, d8) = (seq.digest(), par.digest());
    assert_eq!(
        seq, par,
        "{name}: HFAST_THREADS=1 and =8 diverged (digests {d1:#018x} vs {d8:#018x})"
    );
    println!("{name}: threads 1 == 8, digest {d1:#018x}");
}

fn main() {
    let torus = TorusFabric::new((8, 8, 8)).unwrap();
    let many = traffic::uniform_random(512, 20_000, 4096, 1_000_000, 42);
    check("static/20k-flows-512-torus", |threads| {
        Simulation::new(&torus)
            .detailed()
            .with_threads(threads)
            .run(&many)
    });

    let ft = FatTreeFabric::new(32, 8).unwrap();
    let burst = traffic::alltoall(32, 4096);
    check("static/alltoall-fat-tree", |threads| {
        Simulation::new(&ft)
            .detailed()
            .with_threads(threads)
            .run(&burst)
    });

    let small = TorusFabric::new((4, 4, 1)).unwrap();
    let fs = traffic::uniform_random(16, 200, 4096, 400_000, 13);
    let eligible = transit_links(&small, &fs);
    let plan = FaultPlan::builder()
        .random_link_failures(0xFEED, 4, &eligible, (0, 400_000), Some(150_000))
        .build(&small)
        .unwrap();
    check("faulted/torus-retries", |threads| {
        Simulation::new(&small)
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .detailed()
            .with_threads(threads)
            .run(&fs)
    });

    // Credit runs are sequential by construction, so the thread knob
    // must be fully inert on them — on a scenario built to congest.
    let scenario = Scenario::preset(ScenarioKind::Incast, 32, 5);
    let incast = scenario.generate();
    check("credit/incast-fat-tree", |threads| {
        Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .with_threads(threads)
            .run(&incast)
    });

    // Everything at once: credit buffers, two circuits failing under
    // load, and the mid-run repatch that brings them back.
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
    check("credit/faults-reprovision-hfast", |threads| {
        let out = Simulation::new(&hfast)
            .with_congestion(CreditConfig::credit(2))
            .with_faults(&outage)
            .with_reprovision(100_000)
            .detailed()
            .with_threads(threads)
            .run(&incast);
        assert!(
            !out.reprovisions.is_empty(),
            "failed circuits are repatched"
        );
        assert_eq!(out.stats.completed, incast.len(), "every flow lands");
        out
    });

    // And `Ideal` must be byte-identical to a builder that never mentions
    // congestion at all (the golden tests pin the absolute digests; this
    // smoke pins the equivalence on the 20k-flow suite).
    let plain = Simulation::new(&torus).detailed().run(&many).digest();
    let ideal = Simulation::new(&torus)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&many)
        .digest();
    assert_eq!(
        plain, ideal,
        "ideal-mode digest diverged from the plain loop on the 20k suite"
    );
    println!("congestion/ideal-identity-20k: digest {plain:#018x}");

    println!("eventloop smoke: OK");
}
