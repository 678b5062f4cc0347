//! Quickstart: profile an application, analyze its topology, and provision
//! an HFAST fabric for it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hfast::apps::{profile_app, Cactus};
use hfast::core::{CostComparison, CostModel, PaperLinear, ProvisionConfig, Provisioner};
use hfast::topology::{detect_structure, fcn_utilization, tdc, BDP_CUTOFF};

fn main() {
    // 1. Run the Cactus communication kernel on 64 simulated ranks under
    //    the IPM-style profiler (threads + channels; no MPI needed).
    let outcome = profile_app(&Cactus::default(), 64).expect("profiled run");
    println!(
        "profiled {} at P={}: {} MPI calls in steady state",
        outcome.name,
        outcome.procs,
        outcome.steady.total_calls()
    );

    // 2. Reduce the profile to the communication topology.
    let graph = outcome.steady.comm_graph();
    let summary = tdc(&graph, BDP_CUTOFF);
    println!(
        "topological degree of communication @ 2KB cutoff: max {}, avg {:.1}",
        summary.max, summary.avg
    );
    println!(
        "structure: {}; FCN utilization: {:.0}%",
        detect_structure(&graph, BDP_CUTOFF),
        100.0 * fcn_utilization(&graph, BDP_CUTOFF)
    );

    // 3. Provision an HFAST fabric: circuit switch + packet switch blocks.
    let prov = PaperLinear.provision(&graph, ProvisionConfig::default());
    prov.validate(&graph).expect("every hot edge routed");
    println!(
        "HFAST provisioning: {} switch blocks ({} ports/node), {} circuits",
        prov.total_blocks(),
        prov.block_ports_per_node(),
        prov.circuit().circuit_count()
    );
    let route = prov.route(0, 1).expect("neighbours routed");
    println!(
        "sample route 0→1: {} circuit traversals, {} switch hops ({} ns)",
        route.circuit_traversals,
        route.switch_hops,
        route.latency_ns()
    );

    // 4. Compare cost against a fat tree of the same components.
    let cmp = CostComparison::of(&prov, &CostModel::default());
    println!(
        "cost: HFAST {:.0} vs fat-tree {:.0} (ratio {:.2}) at this small scale",
        cmp.hfast,
        cmp.fat_tree,
        cmp.ratio()
    );
}
