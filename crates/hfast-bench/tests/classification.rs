//! Integration: the §5.2 per-application analysis — each code lands in the
//! case the paper assigns it, the §2.5 hypothesis checks out, and HFAST
//! can be provisioned for every study code. The verdicts and the count
//! are rows of the claims ledger (`hfast_bench::paper::CLAIMS`), measured
//! at P = 256 on the `all_apps()` defaults.

mod common;

use std::sync::OnceLock;

use hfast_apps::{profile_app, Cactus, CommKernel, Gtc, Lbmhd, Paratec, Pmemd, SuperLu};
use hfast_bench::paper::{claim_cells, Claim, Quantity};
use hfast_bench::{measure_cells, AppRow};
use hfast_core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast_topology::{detect_structure, StructureClass, BDP_CUTOFF};

fn is_verdict(c: &Claim) -> bool {
    c.section == "§2.5" || c.section == "§5.2"
}

/// The six P = 256 cells every verdict row reads, measured once.
fn grid() -> &'static [AppRow] {
    static GRID: OnceLock<Vec<AppRow>> = OnceLock::new();
    GRID.get_or_init(|| measure_cells(&claim_cells(is_verdict)))
}

fn assert_case(app: &str) {
    common::assert_claims_on(grid(), |c| c.app == app && c.quantity == Quantity::Case);
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
    common::assert_claims_on(grid(), |c| c.section == "§5.2");
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
