//! The provisioning argument as a tier-1 check: on every app's traced
//! replay, HFAST transit links carry traffic and the hottest one is one
//! of the circuits the provisioner dedicated to the heavy pairs, not the
//! collective tree.

use hfast_apps::all_apps;
use hfast_bench::{hotspots, AppHotspots};

#[test]
fn every_apps_hottest_hfast_transit_link_is_a_circuit() {
    let apps: Vec<AppHotspots> = all_apps().iter().map(|a| hotspots(a.as_ref())).collect();
    assert_eq!(apps.len(), 6, "one ranking per paper app");
    let failures: Vec<String> = apps.iter().filter_map(AppHotspots::violation).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
