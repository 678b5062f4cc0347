//! Integration: paper Table 3 at both study sizes, one test per cell.
//!
//! Each test asserts the ledger's Table 3 rows for its cell (TDC at the
//! 2 KB cutoff, call-bucket split, median buffer sizes, FCN utilization)
//! on the `all_apps()` default run, plus the §4 uncut-TDC rows where the
//! paper states them. The published values live only in
//! `hfast_bench::paper::CLAIMS`.

mod common;

use hfast_bench::paper::{Quantity, Stat};

const UNCUT_MAX: Quantity = Quantity::Tdc(Stat::Max, 0);

/// Asserts `app`'s rows of `sections` at `procs` on a profile that did
/// not overflow.
fn cell_in(sections: &[&str], app: &str, procs: usize) {
    let grid = common::assert_claims(|c| {
        sections.contains(&c.section) && c.app == app && c.procs == procs
    });
    for row in &grid {
        assert_eq!(
            row.steady.overflow, 0,
            "{app} P={procs}: profile must not overflow"
        );
    }
}

/// Asserts `app`'s Table 3 rows at `procs`.
fn cell(app: &str, procs: usize) {
    cell_in(&["Table 3"], app, procs);
}

#[test]
fn cactus_64() {
    cell("Cactus", 64);
}

#[test]
fn cactus_256() {
    cell("Cactus", 256);
}

#[test]
fn lbmhd_64() {
    cell("LBMHD", 64);
}

#[test]
fn lbmhd_256() {
    cell("LBMHD", 256);
}

#[test]
fn gtc_64() {
    cell("GTC", 64);
}

#[test]
fn gtc_256() {
    cell("GTC", 256);
}

#[test]
fn gtc_256_unthresholded_max_is_17() {
    common::assert_claims(|c| c.app == "GTC" && c.procs == 256 && c.quantity == UNCUT_MAX);
}

#[test]
fn superlu_64() {
    cell("SuperLU", 64);
}

#[test]
fn superlu_256() {
    cell("SuperLU", 256);
}

#[test]
fn superlu_unthresholded_connectivity_scales_with_p() {
    // Figure 8: connectivity equals P − 1 without thresholding, at both
    // sizes.
    let grid = common::assert_claims(|c| c.app == "SuperLU" && c.quantity == UNCUT_MAX);
    assert_eq!(grid.len(), 2, "rows at P = 64 and 256");
}

#[test]
fn pmemd_64() {
    cell("PMEMD", 64);
}

#[test]
fn pmemd_256() {
    cell("PMEMD", 256);
}

#[test]
fn paratec_64() {
    cell("PARATEC", 64);
}

#[test]
fn paratec_256() {
    // Figure 10: max = min = P − 1 at every cutoff up to 32 KB.
    cell_in(&["Table 3", "Figure 10"], "PARATEC", 256);
}
