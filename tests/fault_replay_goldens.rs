//! Pins on the simulator's fault path: what a run under link and node
//! faults evicts, retries, abandons and repatches.
//!
//! `SimOutput::digest` folds only the length of each `ReconfigStep`'s
//! Debug text, so a coverage value that moved would slip past every other
//! golden. The HFAST tables below pin every field of every repatch round,
//! the two coverage fractions as `f64` bits, under ideal links and under
//! credit flow control. The torus pins cover node faults: the detailed
//! digest plus the `EngineObs` counters that count evictions, retries and
//! abandoned flows, and the reroute-latency histogram.

use hfast::core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast::netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FaultPlan, Flow, HfastFabric,
    RetryPolicy, Simulation, TorusFabric,
};
use hfast::topology::CommGraph;

/// One repatch round: `circuits_changed`, `reconfig_time_ns`, `strategy`,
/// `edges_touched`, and the bits of `coverage_before` / `coverage_after`.
type Round = (usize, u64, &'static str, usize, u64, u64);

/// A 32-node graph with three neighbour distances, provisioned onto
/// HFAST; its bulk exchange plus jittered random traffic; and a plan that
/// fails circuits (some for good), node fibers and tree links, so rounds
/// see coverage below one.
fn hfast_case() -> (HfastFabric, Vec<Flow>, FaultPlan) {
    let n = 32;
    let mut g = CommGraph::new(n);
    for i in 0..n {
        g.add_message(i, (i + 1) % n, 1 << 20);
        g.add_message(i, (i + 5) % n, 1 << 19);
        g.add_message(i, (i + 11) % n, 1 << 18);
    }
    let fabric = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
    let mut flows = traffic::flows_from_graph(&g, 2048);
    flows.extend(traffic::uniform_random(n, 600, 1 << 14, 12_000_000, 17));
    let (circuits, fixed): (Vec<_>, Vec<_>) =
        (0..fabric.link_count()).partition(|&l| fabric.reprovisionable(l));
    assert!(circuits.len() >= 8 && fixed.len() >= 8);
    let plan = FaultPlan::builder()
        .random_link_failures(3, 8, &circuits, (0, 9_000_000), Some(4_000_000))
        .random_link_failures(5, 3, &circuits, (500_000, 6_000_000), None)
        .random_link_failures(7, 10, &fixed, (0, 10_000_000), Some(2_000_000))
        .build(&fabric)
        .expect("links come from the fabric");
    (fabric, flows, plan)
}

fn rounds(steps: &[hfast::core::ReconfigStep]) -> Vec<Round> {
    steps
        .iter()
        .map(|s| {
            (
                s.circuits_changed,
                s.reconfig_time_ns,
                s.strategy,
                s.edges_touched,
                s.coverage_before.to_bits(),
                s.coverage_after.to_bits(),
            )
        })
        .collect()
}

fn check_hfast(credit: bool, digest: u64, expected: &[Round]) {
    let (fabric, flows, plan) = hfast_case();
    let sim = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .with_reprovision(500_000)
        .detailed();
    let sim = if credit {
        sim.with_congestion(CreditConfig::credit(2))
    } else {
        sim
    };
    let out = sim.run(&flows);
    let got = rounds(&out.reprovisions);
    assert_eq!(got, expected, "repatch rounds (credit = {credit})");
    assert_eq!(out.digest(), digest, "detailed digest (credit = {credit})");
}

/// The four rounds of [`hfast_case`]; the link model changes when flows
/// land, not which circuits fail or what the fabric can route.
const HFAST_ROUNDS: [Round; 4] = [
    (
        1,
        3_000_000,
        "repatch",
        1,
        4607165025907532712,
        4607166185433698359,
    ),
    (
        4,
        3_000_000,
        "repatch",
        4,
        4607166185433698359,
        4607130240122563321,
    ),
    (
        5,
        3_000_000,
        "repatch",
        5,
        4607069944761949710,
        4607182418800017408,
    ),
    (
        1,
        3_000_000,
        "repatch",
        1,
        4607182418800017408,
        4607182418800017408,
    ),
];

#[test]
fn hfast_repatch_rounds_ideal() {
    check_hfast(false, 0x2eeacae0bd8f8080, &HFAST_ROUNDS);
}

#[test]
fn hfast_repatch_rounds_credit() {
    check_hfast(true, 0x330ff704f200e811, &HFAST_ROUNDS);
}

/// What a torus run under one node outage and twelve link outages pins:
/// the detailed digest, then `cache_evictions`, `retries` and
/// `abandoned_flows`, then the non-empty `reroute_latency_ns` buckets as
/// `(index, count)`.
struct TorusPin {
    digest: u64,
    evictions: u64,
    retries: u64,
    abandoned: u64,
    reroute: &'static [(usize, u64)],
}

fn check_torus(credit: bool, pin: &TorusPin) {
    let fabric = TorusFabric::new((4, 4, 4)).expect("valid shape");
    let flows = traffic::uniform_random(64, 600, 1 << 14, 1_000_000, 11);
    let eligible = transit_links(&fabric, &flows);
    let plan = FaultPlan::builder()
        .random_link_failures(42, 12, &eligible, (0, 800_000), Some(300_000))
        .fail_node(100_000, 21)
        .recover_node(600_000, 21)
        .build(&fabric)
        .expect("valid plan");
    // A short budget, so flows ending at the dead router are abandoned.
    let retry = RetryPolicy {
        max_attempts: 5,
        base_backoff_ns: 20_000,
        max_backoff_ns: 200_000,
    };
    let obs = EngineObs::new();
    let sim = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_retry(retry)
        .with_obs(&obs)
        .detailed();
    let sim = if credit {
        sim.with_congestion(CreditConfig::credit(2))
    } else {
        sim
    };
    let out = sim.run(&flows);
    let reroute: Vec<(usize, u64)> = obs
        .reroute_latency_ns
        .bucket_counts()
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    assert_eq!(
        out.digest(),
        pin.digest,
        "detailed digest (credit = {credit})"
    );
    assert_eq!(obs.cache_evictions.get(), pin.evictions, "cache_evictions");
    assert_eq!(obs.retries.get(), pin.retries, "retries");
    assert_eq!(obs.abandoned_flows.get(), pin.abandoned, "abandoned_flows");
    assert_eq!(reroute, pin.reroute, "reroute_latency_ns buckets");
}

#[test]
fn torus_node_and_link_faults_ideal() {
    check_torus(
        false,
        &TorusPin {
            digest: 0x90120c77bd76409e,
            evictions: 102,
            retries: 40,
            abandoned: 7,
            reroute: &[(17, 1), (18, 2), (19, 1)],
        },
    );
}

#[test]
fn torus_node_and_link_faults_credit() {
    check_torus(
        true,
        &TorusPin {
            digest: 0x630b2df03f50bc68,
            evictions: 102,
            retries: 43,
            abandoned: 7,
            reroute: &[(17, 3), (18, 3), (19, 1)],
        },
    );
}
