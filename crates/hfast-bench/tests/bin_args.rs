//! Every hfast-bench bin refuses an argument it does not take: an unknown
//! flag gets the bin's usage line on stderr and exit code 2, before any
//! work starts, instead of a run with defaults that looks like a pass.

use std::process::Command;

/// Each bin with the usage line it prints.
const BINS: [(&str, &str); 7] = [
    (env!("CARGO_BIN_EXE_paper"), "usage: paper <section>"),
    (
        env!("CARGO_BIN_EXE_congestion_lab"),
        "usage: congestion_lab",
    ),
    (env!("CARGO_BIN_EXE_faults_replay"), "usage: faults_replay"),
    (env!("CARGO_BIN_EXE_hotspots"), "usage: hotspots [APP]"),
    (
        env!("CARGO_BIN_EXE_loadgen"),
        "usage: loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--seed S]",
    ),
    (
        env!("CARGO_BIN_EXE_provision_bakeoff"),
        "usage: provision_bakeoff [APP]",
    ),
    (
        env!("CARGO_BIN_EXE_trace_capture"),
        "usage: trace_capture [--trace-out FILE]",
    ),
];

#[test]
fn every_bin_refuses_an_unknown_flag_with_its_usage_and_exit_2() {
    for (exe, usage) in BINS {
        let out = Command::new(exe)
            .arg("--no-such-flag")
            .output()
            .unwrap_or_else(|e| panic!("run {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: stderr {stderr:?}");
        assert!(stderr.contains(usage), "{exe}: stderr {stderr:?}");
        assert!(
            out.stdout.is_empty(),
            "{exe} started work: {:?}",
            out.stdout
        );
    }
}

#[test]
fn loadgen_refuses_a_mistyped_flag_and_a_missing_value() {
    for args in [&["--conections", "8"][..], &["--requests"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("run loadgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr:?}");
    }
}

#[test]
fn app_filter_bins_refuse_a_second_argument() {
    for exe in [
        env!("CARGO_BIN_EXE_hotspots"),
        env!("CARGO_BIN_EXE_provision_bakeoff"),
    ] {
        let out = Command::new(exe)
            .args(["gtc", "extra"])
            .output()
            .unwrap_or_else(|e| panic!("run {exe}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{exe}");
        assert!(out.stdout.is_empty(), "{exe} started work");
    }
}
