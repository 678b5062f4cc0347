//! Integration tests for the runtime fault subsystem: a seeded fault
//! replay must be bit-stable across repeated same-seed runs, and HFAST's
//! mid-run re-provisioning must actually repair failed circuits.

use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast_netsim::engine::PathCache;
use hfast_netsim::{
    traffic, transit_links, CreditConfig, Fabric, FatTreeFabric, FaultPlan, Flow, HfastFabric,
    RetryPolicy, Simulation, TorusFabric,
};
use hfast_topology::CommGraph;

#[test]
fn torus_fault_replay_is_thread_count_invariant() {
    // 64 nodes and 300 flows under link and router outages.
    let fabric = TorusFabric::new((4, 4, 4)).expect("valid shape");
    let flows = traffic::uniform_random(64, 300, 1 << 16, 1_000_000, 7);
    let eligible = transit_links(&fabric, &flows);
    assert!(eligible.len() > 64, "plenty of mid-route links to fail");
    // Twelve seeded link outages plus one router outage covering the whole
    // admission window: flows touching node 9 cannot detour around a dead
    // endpoint, so they exercise the retry/backoff machinery for certain.
    let plan = FaultPlan::builder()
        .random_link_failures(42, 12, &eligible, (0, 2_000_000), Some(500_000))
        .fail_node(0, 9)
        .recover_node(1_200_000, 9)
        .build(&fabric)
        .expect("valid plan");

    let out = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .detailed()
        .run(&flows);
    // Faults with recovery plus retries: everything is eventually
    // delivered (the torus reroutes, and downed links come back).
    assert_eq!(out.stats.completed + out.stats.unrouted, flows.len());
    assert!(
        out.stats.total_retries > 0,
        "a 12-link outage over live traffic must trigger retries"
    );

    // Repeated same-seed runs are bit-identical, cold or warm cache.
    let again = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .detailed()
        .run(&flows);
    assert_eq!(out, again);
    let mut cache = PathCache::new();
    let warm = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default())
        .with_cache(&mut cache)
        .detailed()
        .run(&flows);
    assert_eq!(out, warm);
}

/// A dense 24-node comm graph provisioned onto HFAST, its flows, and a
/// plan failing two provisioned circuits early with no scheduled
/// recovery: only the MEMS repatch at the next sync point can bring
/// traffic back onto dedicated circuits.
fn hfast_with_two_dead_circuits() -> (HfastFabric, Vec<Flow>, FaultPlan) {
    let n = 24;
    let mut g = CommGraph::new(n);
    for i in 0..n {
        g.add_message(i, (i + 1) % n, 1 << 20);
        g.add_message(i, (i + 5) % n, 1 << 19);
    }
    let fabric = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
    assert!(fabric.supports_reprovision());
    let flows = traffic::flows_from_graph(&g, 2048);
    let circuits: Vec<_> = (0..fabric.link_count())
        .filter(|&l| fabric.reprovisionable(l))
        .collect();
    assert!(circuits.len() >= 2, "provisioning dedicated circuits");
    let plan = FaultPlan::builder()
        .fail_link(10_000, circuits[0])
        .fail_link(20_000, circuits[1])
        .build(&fabric)
        .expect("valid plan");
    (fabric, flows, plan)
}

#[test]
fn hfast_reprovision_repairs_failed_circuits() {
    let (fabric, flows, plan) = hfast_with_two_dead_circuits();

    let out = Simulation::new(&fabric)
        .with_faults(&plan)
        .with_reprovision(5_000_000)
        .detailed()
        .run(&flows);
    assert!(
        !out.reprovisions.is_empty(),
        "failed circuits must trigger a re-provisioning round"
    );
    let step = &out.reprovisions[0];
    assert_eq!(step.circuits_changed, 2, "both failed circuits repatched");
    assert!(
        step.coverage_after >= step.coverage_before,
        "repatching cannot lose coverage: {} -> {}",
        step.coverage_before,
        step.coverage_after
    );
    assert!(step.reconfig_time_ns > 0, "MEMS repatch pays its latency");
    // Every provisioned flow still lands: the tree absorbs traffic while
    // circuits are down, and the repatch restores them.
    assert_eq!(out.stats.completed, flows.len());
    assert_eq!(out.stats.unrouted, 0);
}

/// The repatch belongs to the driver, not to a link model: under credit
/// flow control the same plan is repaired the same way. (The separate
/// credit loop ignored `with_reprovision` and never reported a round.)
#[test]
fn credit_runs_repatch_failed_circuits_too() {
    let (fabric, flows, plan) = hfast_with_two_dead_circuits();
    let out = Simulation::new(&fabric)
        .with_congestion(CreditConfig::credit(2))
        .with_faults(&plan)
        .with_reprovision(5_000_000)
        .detailed()
        .run(&flows);
    assert!(!out.reprovisions.is_empty(), "credit mode repatches");
    assert_eq!(out.reprovisions[0].circuits_changed, 2);
    assert_eq!(out.stats.completed, flows.len(), "every flow lands");
}

#[test]
fn fat_tree_cannot_survive_what_hfast_survives() {
    // The acceptance-criteria shape in miniature: under an identical
    // seeded schedule failing *shared* fat-tree uplinks, the single-path
    // fat tree abandons flows, while HFAST (same endpoints, circuit
    // fabric + tree fallback + repatch) delivers strictly more bytes.
    let n = 32;
    let mut g = CommGraph::new(n);
    for i in 0..n {
        g.add_message(i, (i + 9) % n, 1 << 18);
    }
    let flows = traffic::flows_from_graph(&g, 0);

    let ft = FatTreeFabric::new(n, 8).expect("valid shape");
    let ft_eligible = transit_links(&ft, &flows);
    // All failures land at t = 0: fault events sort before flow admissions
    // at equal timestamps, so every crossing flow meets a dead link.
    let ft_plan = FaultPlan::builder()
        .random_link_failures(1234, 6, &ft_eligible, (0, 0), None)
        .build(&ft)
        .expect("valid plan");
    let ft_out = Simulation::new(&ft)
        .with_faults(&ft_plan)
        .with_retry(RetryPolicy::default())
        .run(&flows);

    let hf = HfastFabric::new(PaperLinear.provision(&g, ProvisionConfig::default()));
    let hf_eligible = transit_links(&hf, &flows);
    let hf_plan = FaultPlan::builder()
        .random_link_failures(1234, 6, &hf_eligible, (0, 0), None)
        .build(&hf)
        .expect("valid plan");
    let hf_out = Simulation::new(&hf)
        .with_faults(&hf_plan)
        .with_retry(RetryPolicy::default())
        .with_reprovision(1_000_000)
        .run(&flows);

    assert!(
        ft_out.stats.abandoned > 0,
        "permanent uplink failures must strand single-path flows"
    );
    assert!(
        hf_out.stats.delivered_bytes > ft_out.stats.delivered_bytes,
        "HFAST goodput {} must beat fat-tree {}",
        hf_out.stats.delivered_bytes,
        ft_out.stats.delivered_bytes
    );
    assert_eq!(hf_out.stats.unrouted, 0, "HFAST delivers everything");
}
