//! The causal trace contract as a tier-1 check: GTC at P = 256, world run
//! plus HFAST replay in one recorder, exports a document with one track
//! per rank and per used link, no orphan recv and some linked recvs.

use hfast_bench::capture;

#[test]
fn gtc_capture_satisfies_the_trace_contract() {
    let violations = capture().violations();
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
