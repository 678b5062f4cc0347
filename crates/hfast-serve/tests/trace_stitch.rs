//! End-to-end stitcher check: a live 2-shard fleet capture must render
//! every cross-process request as ONE connected causal tree — the
//! client root span transitively parenting the router child and the
//! shard worker spans, with zero orphans.
//!
//! The heavy lifting runs in `hfast-fleet --capture` (the per-shard
//! `HFAST_TRACE` sink is probed once per process, so the capture needs
//! real subprocesses); this test drives it and then re-validates the
//! stitched document independently.

use std::process::Command;

use hfast_trace::trace_tree;

#[test]
fn two_shard_capture_stitches_into_one_tree_per_request() {
    let dir = std::env::temp_dir().join(format!("hfast-trace-stitch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = Command::new(env!("CARGO_BIN_EXE_hfast-fleet"))
        .arg("--capture")
        .arg(&dir)
        .env_remove("HFAST_TRACE") // the capture sets per-process sinks itself
        .env_remove("HFAST_OBS")
        .output()
        .expect("run hfast-fleet --capture");
    assert!(
        out.status.success(),
        "capture failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Re-validate the stitched document with our own eyes, not just the
    // binary's: every trace id the capture drove must form a single
    // connected tree that spans at least client + router + shard.
    let doc = std::fs::read_to_string(dir.join("fleet.json")).expect("stitched document");
    let mut checked = 0u64;
    for trace_id in 1..=64 {
        let tree = trace_tree(&doc, trace_id).expect("valid document");
        if tree.spans == 0 {
            continue;
        }
        checked += 1;
        assert_eq!(tree.roots, 1, "trace {trace_id}: exactly one root span");
        assert_eq!(tree.orphans, 0, "trace {trace_id}: every parent resolves");
        assert!(
            tree.spans >= 3,
            "trace {trace_id}: {} spans — must cover client, router and shard",
            tree.spans
        );
    }
    assert!(checked >= 4, "capture produced only {checked} traces");

    // The per-process inputs are all present: client, router, 2 shards.
    for name in [
        "client.jsonl",
        "router.jsonl",
        "shard-0.jsonl",
        "shard-1.jsonl",
    ] {
        let path = dir.join(name);
        assert!(path.exists(), "{name} missing from the capture");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
