//! Runtime topology adaptation (paper §2.3): start from the default
//! densely-packed 3D-mesh provisioning, observe a running application whose
//! pattern does not match, and re-provision at synchronization points.
//!
//! ```text
//! cargo run --release --example adaptive_reconfiguration
//! ```

use hfast::apps::{profile_app, Gtc, Lbmhd};
use hfast::core::ProvisionConfig;
use hfast::netsim::AdaptiveReplay;
use hfast::topology::generators::{balanced_dims3, mesh3d_graph};

fn main() {
    let procs = 64;
    let config = ProvisionConfig::default();
    let mut replay = AdaptiveReplay::builder(procs, config)
        .initial_graph(&mesh3d_graph(balanced_dims3(procs), config.cutoff))
        .build();
    println!("initial provisioning: densely packed 3D mesh for {procs} nodes\n");

    // Phase 1: LBMHD — scattered 12-partner pattern, nothing like a mesh.
    let lbmhd = profile_app(&Lbmhd::default(), procs).expect("profiled run");
    let observed = lbmhd.steady.comm_graph();
    println!(
        "phase 1 (LBMHD): {:.0}% of hot traffic rides dedicated circuits before adapting",
        100.0 * replay.coverage(&observed)
    );
    let step = replay.adapt(&observed);
    println!(
        "  adapted: {} circuits changed, {:.1} ms of switch reconfiguration, coverage → {:.0}%\n",
        step.circuits_changed,
        step.reconfig_time_ns as f64 / 1e6,
        100.0 * step.coverage_after
    );

    // Phase 2: the job finishes; GTC starts on the same nodes.
    let gtc = profile_app(&Gtc::default(), procs).expect("profiled run");
    let observed = gtc.steady.comm_graph();
    println!(
        "phase 2 (GTC): coverage before adapting {:.0}%",
        100.0 * replay.coverage(&observed)
    );
    let step = replay.adapt(&observed);
    println!(
        "  adapted: {} circuits changed, coverage → {:.0}%",
        step.circuits_changed,
        100.0 * step.coverage_after
    );

    // Phase 3: GTC again — a stable pattern converges to zero changes.
    let step = replay.adapt(&observed);
    println!(
        "phase 3 (GTC steady): {} circuits changed (fixed point reached)",
        step.circuits_changed
    );
}
