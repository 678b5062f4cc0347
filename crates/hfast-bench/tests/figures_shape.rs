//! Integration: shape assertions for the paper's figures — buffer-size
//! CDFs (Figures 3-4) and the thresholding curves (Figures 5-10). The
//! published points of Figures 3, 5, 8 and 10 are rows of the claims
//! ledger (`hfast_bench::paper::CLAIMS`); the tests here assert those rows
//! on the `all_apps()` default runs, and the curves' shape around them.

mod common;

use hfast_apps::{all_apps, profile_app, SuperLu};
use hfast_bench::paper::{Claim, Quantity, Stat};
use hfast_bench::AppRow;
use hfast_topology::{tdc, tdc_sweep, TdcSummary, BDP_CUTOFF, PAPER_CUTOFFS};

/// Whether `c` is the Table 3 row for `app`'s max TDC at the 2 KB cutoff.
fn is_table3_max(c: &Claim, app: &str) -> bool {
    c.section == "Table 3" && c.app == app && c.quantity == Quantity::Tdc(Stat::Max, BDP_CUTOFF)
}

fn sweep(row: &AppRow) -> Vec<(u64, TdcSummary)> {
    tdc_sweep(&row.steady.comm_graph(), &PAPER_CUTOFFS)
}

#[test]
fn figure3_collective_buffers_are_small() {
    // "about 90% of the collective messages are 2 KB or less … almost half
    // of all collective calls use buffers less than 100 bytes."
    common::assert_claims(|c| c.section == "Figure 3");
}

#[test]
fn figure4_ptp_buffers_span_wide_range() {
    // "unlike collectives, point-to-point messaging uses a wide range of
    // buffers, as well as large message sizes."
    let mut large_seen = false;
    for app in all_apps() {
        let out = profile_app(app.as_ref(), 64).expect("profiled run");
        let hist = out.steady.ptp_buffer_histogram();
        if hist.max().unwrap_or(0) >= (100 << 10) {
            large_seen = true;
        }
    }
    assert!(large_seen, "some codes move ≥100 KB point-to-point buffers");
}

#[test]
fn figure5_gtc_curves() {
    // GTC P=256: max drops across the 2 KB cutoff and again above 4 KB;
    // the curves are non-increasing in the cutoff.
    let grid = common::assert_claims(|c| {
        c.app == "GTC" && c.procs == 256 && (c.section == "Figure 5" || is_table3_max(c, "GTC"))
    });
    assert!(sweep(&grid[0]).windows(2).all(|w| w[1].1.max <= w[0].1.max));
}

#[test]
fn figure8_superlu_sqrt_p_scaling() {
    // Thresholded TDC ∝ √P, 2(√P − 1), at 16, 64 and 256; uncut, P − 1.
    let grid = common::assert_claims(|c| {
        c.app == "SuperLU" && (c.section == "Figure 8" || is_table3_max(c, "SuperLU"))
    });
    let p16 = profile_app(&SuperLu::default(), 16).expect("profiled run");
    let mut measured = vec![(16, tdc(&p16.steady.comm_graph(), BDP_CUTOFF).max)];
    measured.extend(grid.iter().map(|row| (row.procs, row.tdc_max)));
    assert_eq!(measured.len(), 3, "P = 16, 64 and 256");
    for (procs, max) in measured {
        let sqrt_p = (procs as f64).sqrt() as usize;
        assert_eq!(max, 2 * (sqrt_p - 1), "P={procs}");
    }
}

#[test]
fn figure10_paratec_insensitive_below_32k() {
    // "Only with a relatively large message size cutoff of 32 KB do we see
    // any reduction in the number of communicating partners."
    let grid = common::assert_claims(|c| c.section == "Figure 10");
    for row in &grid {
        let full = row.procs - 1;
        let sweep = sweep(row);
        for (cutoff, s) in &sweep {
            if *cutoff <= 32 << 10 {
                assert_eq!(
                    s.max, full,
                    "P={}: no reduction at cutoff {cutoff}",
                    row.procs
                );
            }
        }
        let above = sweep
            .iter()
            .find(|(c, _)| *c == 64 << 10)
            .expect("64k in sweep")
            .1;
        assert!(
            above.max < full,
            "P={}: reduction appears above 32 KB",
            row.procs
        );
    }
}

#[test]
fn thresholding_never_increases_tdc_for_any_app() {
    for app in all_apps() {
        let out = profile_app(app.as_ref(), 64).expect("profiled run");
        let g = out.steady.comm_graph();
        let sweep = tdc_sweep(&g, &PAPER_CUTOFFS);
        for w in sweep.windows(2) {
            assert!(
                w[1].1.max <= w[0].1.max && w[1].1.avg <= w[0].1.avg + 1e-12,
                "{}: TDC must be monotone in the cutoff",
                app.name()
            );
        }
    }
}
