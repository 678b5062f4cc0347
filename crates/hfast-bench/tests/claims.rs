//! The claims ledger, asserted: every row of `hfast_bench::paper::CLAIMS`
//! holds on the twelve Table 3 cells (each measured once, on the
//! `all_apps()` defaults), and EXPERIMENTS.md's Table 3 block is the one
//! the ledger renders.

mod common;

use std::sync::OnceLock;

use hfast_bench::paper::{check_claims, measure_grid, table3_markdown, Verdict};

const BEGIN: &str = "<!-- claims:table3 begin -->\n";
const END: &str = "<!-- claims:table3 end -->";

fn verdicts() -> &'static [Verdict] {
    static VERDICTS: OnceLock<Vec<Verdict>> = OnceLock::new();
    VERDICTS.get_or_init(|| check_claims(&measure_grid()))
}

#[test]
fn every_claim_holds() {
    common::assert_holds(verdicts());
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
