//! The paper's Table 3 grid (every app of `all_apps()` at P = 64 and
//! 256), measured once for the whole binary, and every ledger test that
//! reads it: the Table 3 cells here, then [`claims`] (every row of the
//! ledger, and EXPERIMENTS.md's rendered Table 3 block), [`classification`]
//! (the §2.5 and §5.2 verdicts) and [`figures_shape`] (Figures 3-10). The
//! published values live only in `hfast_bench::CLAIMS`; a miss is
//! named with its section, cell, published value, measured value and
//! tolerance.

use std::sync::OnceLock;

use hfast_bench::{check_claims, measure_grid, AppRow, Claim, Quantity, Stat, Verdict, ALL_CODES};

/// The twelve Table 3 cells, measured once.
fn grid() -> &'static [AppRow] {
    static GRID: OnceLock<Vec<AppRow>> = OnceLock::new();
    GRID.get_or_init(measure_grid)
}

/// Every ledger row's verdict on [`grid`], in ledger order, checked once.
fn verdicts() -> &'static [Verdict] {
    static VERDICTS: OnceLock<Vec<Verdict>> = OnceLock::new();
    VERDICTS.get_or_init(|| check_claims(grid()))
}

/// Panics naming every row of `verdicts` that misses.
fn assert_holds<'a>(verdicts: impl IntoIterator<Item = &'a Verdict>) {
    let (mut rows, mut misses) = (0, Vec::new());
    for v in verdicts {
        rows += 1;
        if !v.holds() {
            misses.push(format!("  {v}"));
        }
    }
    assert!(rows > 0, "no ledger row selected");
    assert!(
        misses.is_empty(),
        "{} of {rows} claims miss:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// Asserts the ledger rows `keep` selects and returns the grid cells they
/// read (the row's app at its P, or every app at P for a claim about
/// [`ALL_CODES`]), in grid order.
fn assert_claims(keep: impl Fn(&Claim) -> bool) -> Vec<&'static AppRow> {
    let selected: Vec<&Verdict> = verdicts().iter().filter(|v| keep(v.claim)).collect();
    assert_holds(selected.iter().copied());
    let reads =
        |c: &Claim, row: &AppRow| c.procs == row.procs && (c.app == ALL_CODES || c.app == row.name);
    grid()
        .iter()
        .filter(|row| selected.iter().any(|v| reads(v.claim, row)))
        .collect()
}

const UNCUT_MAX: Quantity = Quantity::Tdc(Stat::Max, 0);

/// Asserts `app`'s rows of `sections` at `procs` on a profile that did
/// not overflow.
fn cell_in(sections: &[&str], app: &str, procs: usize) {
    let grid = assert_claims(|c| sections.contains(&c.section) && c.app == app && c.procs == procs);
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
    assert_claims(|c| c.app == "GTC" && c.procs == 256 && c.quantity == UNCUT_MAX);
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
    let grid = assert_claims(|c| c.app == "SuperLU" && c.quantity == UNCUT_MAX);
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

/// Every row of the ledger holds, and EXPERIMENTS.md's Table 3 block is
/// the one the ledger renders.
mod claims {
    use hfast_bench::table3_markdown;

    use super::*;

    const BEGIN: &str = "<!-- claims:table3 begin -->\n";
    const END: &str = "<!-- claims:table3 end -->";

    #[test]
    fn every_claim_holds() {
        assert_holds(verdicts());
    }

    #[test]
    fn experiments_md_table3_is_the_rendered_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let start = doc.find(BEGIN).expect("begin marker") + BEGIN.len();
        let len = doc[start..].find(END).expect("end marker");
        let rendered = table3_markdown(verdicts());
        assert!(
            doc[start..start + len] == rendered,
            "EXPERIMENTS.md's Table 3 block is stale; paste this between the markers:\n{rendered}"
        );
    }
}

/// The §5.2 per-application analysis: each code lands in the case the
/// paper assigns it, the §2.5 hypothesis checks out, and HFAST can be
/// provisioned for every study code. The verdicts and the count are ledger
/// rows at P = 256.
mod classification {
    use hfast_apps::{profile_app, Cactus, CommKernel, Gtc, Lbmhd, Paratec, Pmemd, SuperLu};
    use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
    use hfast_topology::{detect_structure, StructureClass, BDP_CUTOFF};

    use super::*;

    fn assert_case(app: &str) {
        assert_claims(|c| c.app == app && c.quantity == Quantity::Case);
    }

    fn structure_at_64(app: &dyn CommKernel) -> StructureClass {
        let out = profile_app(app, 64).expect("profiled run");
        detect_structure(&out.steady.comm_graph(), BDP_CUTOFF)
    }

    #[test]
    fn cactus_is_case_i() {
        // "Cactus displays a bounded TDC independent of run size, with a
        // communication topology that isomorphically maps to a regular mesh."
        assert_case("Cactus");
        assert_eq!(
            structure_at_64(&Cactus::new(2)),
            StructureClass::Mesh3D(4, 4, 4)
        );
    }

    #[test]
    fn lbmhd_is_case_ii() {
        // "LBMHD also displays a low degree of connectivity, but … the
        // structure is not isomorphic to a regular mesh."
        assert_case("LBMHD");
        assert_eq!(structure_at_64(&Lbmhd::new(2)), StructureClass::Irregular);
    }

    #[test]
    fn gtc_is_case_iii_at_scale() {
        // "GTC … has a maximum TDC that is quite higher than the average due to
        // important connections that are not isomorphic to a mesh."
        assert_case("GTC");
    }

    #[test]
    fn superlu_is_case_iii() {
        // TDC scales with √P: bounded well below P but above one switch block.
        assert_case("SuperLU");
    }

    #[test]
    fn pmemd_is_case_iii_at_scale() {
        // Max TDC stays at P while the average is bounded — the flagship case
        // for flexibly assignable switch blocks.
        assert_case("PMEMD");
    }

    #[test]
    fn paratec_is_case_iv() {
        // "PARATEC is an example where the HFAST solution is inappropriate."
        assert_case("PARATEC");
    }

    #[test]
    fn hypothesis_summary_holds() {
        // §5.2's conclusion: "only one of the six codes … maps isomorphically
        // to a 3D mesh (case i). Only one … fully utilizes the FCN (case iv).
        // The preponderance of codes can benefit from an adaptive network."
        assert_claims(|c| c.section == "§5.2");
    }

    #[test]
    fn provisioning_handles_every_study_app() {
        // §5's bottom line: HFAST can be provisioned for every code (even
        // case iv, albeit uneconomically).
        let apps: Vec<Box<dyn CommKernel>> = vec![
            Box::new(Cactus::new(2)),
            Box::new(Lbmhd::new(2)),
            Box::new(Gtc::default()),
            Box::new(SuperLu::default()),
            Box::new(Pmemd::new(1)),
            Box::new(Paratec::new(1)),
        ];
        for app in apps {
            let out = profile_app(app.as_ref(), 64).expect("profiled run");
            let g = out.steady.comm_graph();
            let prov = PaperLinear.provision(&g, ProvisionConfig::default());
            prov.validate(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        }
    }
}

/// Shape assertions for the paper's figures: buffer-size CDFs (Figures
/// 3-4) and the thresholding curves (Figures 5-10). The published points
/// of Figures 3, 5, 8 and 10 are ledger rows; the tests assert those rows
/// and the curves' shape around them.
mod figures_shape {
    use hfast_apps::{profile_app, SuperLu};
    use hfast_topology::{tdc, tdc_sweep, TdcSummary, BDP_CUTOFF, PAPER_CUTOFFS};

    use super::*;

    /// Whether `c` is the Table 3 row for `app`'s max TDC at the 2 KB cutoff.
    fn is_table3_max(c: &Claim, app: &str) -> bool {
        c.section == "Table 3" && c.app == app && c.quantity == Quantity::Tdc(Stat::Max, BDP_CUTOFF)
    }

    fn sweep(row: &AppRow) -> Vec<(u64, TdcSummary)> {
        tdc_sweep(&row.steady.comm_graph(), &PAPER_CUTOFFS)
    }

    /// The grid's P = 64 cells: every `all_apps()` default run at 64.
    fn cells_at_64() -> impl Iterator<Item = &'static AppRow> {
        grid().iter().filter(|row| row.procs == 64)
    }

    #[test]
    fn figure3_collective_buffers_are_small() {
        // "about 90% of the collective messages are 2 KB or less … almost half
        // of all collective calls use buffers less than 100 bytes."
        assert_claims(|c| c.section == "Figure 3");
    }

    #[test]
    fn figure4_ptp_buffers_span_wide_range() {
        // "unlike collectives, point-to-point messaging uses a wide range of
        // buffers, as well as large message sizes."
        let large_seen = cells_at_64()
            .any(|row| row.steady.ptp_buffer_histogram().max().unwrap_or(0) >= (100 << 10));
        assert!(large_seen, "some codes move ≥100 KB point-to-point buffers");
    }

    #[test]
    fn figure5_gtc_curves() {
        // GTC P=256: max drops across the 2 KB cutoff and again above 4 KB;
        // the curves are non-increasing in the cutoff.
        let grid = assert_claims(|c| {
            c.app == "GTC" && c.procs == 256 && (c.section == "Figure 5" || is_table3_max(c, "GTC"))
        });
        assert!(sweep(grid[0]).windows(2).all(|w| w[1].1.max <= w[0].1.max));
    }

    #[test]
    fn figure8_superlu_sqrt_p_scaling() {
        // Thresholded TDC ∝ √P, 2(√P − 1), at 16, 64 and 256; uncut, P − 1.
        let grid = assert_claims(|c| {
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
        let grid = assert_claims(|c| c.section == "Figure 10");
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
        for row in cells_at_64() {
            for w in sweep(row).windows(2) {
                assert!(
                    w[1].1.max <= w[0].1.max && w[1].1.avg <= w[0].1.avg + 1e-12,
                    "{}: TDC must be monotone in the cutoff",
                    row.name
                );
            }
        }
    }
}
