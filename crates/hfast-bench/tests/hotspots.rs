//! The provisioning argument as a tier-1 check: on every app's traced
//! replay, the hottest HFAST transit link is one of the circuits the
//! provisioner dedicated to the heavy pairs, not the collective tree.

use hfast_bench::hotspots;

#[test]
fn every_apps_hottest_hfast_transit_link_is_a_circuit() {
    let apps = hotspots();
    assert_eq!(apps.len(), 6, "one ranking per paper app");
    let mut failures = Vec::new();
    for app in &apps {
        if app.hfast_transit.links.is_empty() {
            failures.push(format!(
                "{}: no HFAST transit link carried traffic ({} flows)",
                app.app, app.flows
            ));
        }
        failures.extend(app.violation());
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
