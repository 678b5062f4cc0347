//! Paper §2.4's isolation claim as a tier-1 check: under credit flow
//! control, HFAST's congestion-tree spread is strictly below the fat
//! tree's on every scenario × strategy cell, the fat tree's incast
//! shows off-root victims, and ideal mode replays byte-identically to
//! the plain loop.

use hfast_bench::lab;
use hfast_core::Strategy;
use hfast_netsim::ScenarioKind;

#[test]
fn hfast_spread_is_below_the_fat_tree_on_every_congestion_lab_cell() {
    let lab = lab();
    assert_eq!(
        lab.rows.len(),
        ScenarioKind::ALL.len(),
        "one row per scenario"
    );
    for row in &lab.rows {
        assert_eq!(
            row.hfast.len(),
            Strategy::ALL.len(),
            "{}: one cell per strategy",
            row.kind
        );
    }
    let violations = lab.violations();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
