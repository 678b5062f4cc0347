//! The provisioner bake-off's soundness as a tier-1 check: on every app
//! cell, every [`Strategy`] yields a provisioning that validates, and a
//! credit-mode replay on it delivers every flow (backpressure never
//! deadlocks a provisioned fabric).

use hfast_apps::all_apps;
use hfast_bench::{bakeoff, AppBakeoff};
use hfast_core::Strategy;

#[test]
fn every_strategy_validates_and_delivers_every_flow_on_every_cell() {
    let apps: Vec<AppBakeoff> = all_apps().iter().map(|a| bakeoff(a.as_ref())).collect();
    assert_eq!(apps.len(), 6, "one row per paper app");
    for app in &apps {
        assert_eq!(
            app.rows.len(),
            Strategy::ALL.len(),
            "{}: one cell per strategy",
            app.app
        );
    }
    let failures: Vec<String> = apps.iter().flat_map(AppBakeoff::violations).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
