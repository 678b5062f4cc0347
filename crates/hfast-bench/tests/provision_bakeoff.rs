//! The provisioner bake-off's soundness as a tier-1 check: on every app
//! cell, every [`Strategy`] yields a provisioning that validates, and a
//! credit-mode replay on it delivers every flow (backpressure never
//! deadlocks a provisioned fabric).

use hfast_apps::all_apps;
use hfast_bench::{cell, PROCS};
use hfast_core::Strategy;
use hfast_netsim::{CreditConfig, Simulation};

/// Buffer slots per link: the bake-off's shallow credit-mode replay.
const CREDITS: u32 = 1;

#[test]
fn every_strategy_validates_and_delivers_every_flow_on_every_cell() {
    let mut failures = Vec::new();
    for app in all_apps() {
        let cell = cell(app.as_ref(), PROCS);
        for strategy in Strategy::ALL {
            let fabric = cell.hfast(strategy);
            if let Err(e) = fabric.provisioning().validate(&cell.graph) {
                failures.push(format!(
                    "{strategy} on {}: invalid provisioning: {e}",
                    cell.name
                ));
                continue;
            }
            let out = Simulation::new(&fabric)
                .with_congestion(CreditConfig::credit(CREDITS))
                .run(&cell.flows);
            if out.stats.completed != cell.flows.len() {
                failures.push(format!(
                    "{strategy} on {}: credit-mode replay delivered {} of {} flows",
                    cell.name,
                    out.stats.completed,
                    cell.flows.len()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
