//! The one assertion every ledger test makes: the selected rows of
//! `hfast_bench::paper::CLAIMS` hold, and each miss is named with its
//! section, cell, published value, measured value and tolerance.

// Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

use hfast_bench::measure_cells;
use hfast_bench::paper::{check_claims_where, claim_cells, Claim, Verdict};
use hfast_bench::AppRow;

/// Panics naming every row of `verdicts` that misses.
pub fn assert_holds(verdicts: &[Verdict]) {
    assert!(!verdicts.is_empty(), "no ledger row selected");
    let misses: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.holds())
        .map(|v| format!("  {v}"))
        .collect();
    assert!(
        misses.is_empty(),
        "{} of {} claims miss:\n{}",
        misses.len(),
        verdicts.len(),
        misses.join("\n")
    );
}

/// Asserts the rows `keep` selects on `grid`, which holds their cells.
pub fn assert_claims_on(grid: &[AppRow], keep: impl Fn(&Claim) -> bool) {
    assert_holds(&check_claims_where(grid, keep));
}

/// Measures the cells the rows `keep` selects read, asserts those rows,
/// and returns the cells for further shape checks.
pub fn assert_claims(keep: impl Fn(&Claim) -> bool + Copy) -> Vec<AppRow> {
    let grid = measure_cells(&claim_cells(keep));
    assert_claims_on(&grid, keep);
    grid
}
