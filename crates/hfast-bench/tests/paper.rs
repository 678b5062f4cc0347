//! The `paper` dispatcher: one positional section name, a usage naming
//! every section on a missing or unknown name, every section refusing an
//! argument it does not take (its usage on stderr, exit 2, nothing on
//! stdout, before any work starts, instead of a run with defaults that
//! looks like a pass), and the cheap sections printing their headers.

use std::process::{Command, Output};

const SECTIONS: [&str; 24] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "classify",
    "cost_model",
    "smp",
    "faults",
    "netsim_compare",
    "faults_replay",
    "congestion_lab",
    "hotspots",
    "provision_bakeoff",
    "trace_capture",
    "experiments",
];

/// The sections that take arguments, with their synopsis; every other
/// section takes none.
const SYNOPSES: [(&str, &str); 3] = [
    ("hotspots", " [APP]"),
    ("provision_bakeoff", " [APP]"),
    ("trace_capture", " [--trace-out FILE]"),
];

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("run paper")
}

/// Asserts that `args` were refused with `usage` and exit 2 before any
/// output.
fn assert_refused(args: &[&str], usage: &str) {
    let out = paper(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert_eq!(stderr, format!("{usage}\n"), "{args:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} started work: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn missing_or_unknown_section_prints_usage_and_exits_2() {
    for args in [&[][..], &["nosuch"][..]] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}: usage goes to stderr");
        let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
        let listed: Vec<&str> = usage
            .lines()
            .find_map(|l| l.strip_prefix("sections: "))
            .unwrap_or_else(|| panic!("args {args:?}: no sections line in {usage:?}"))
            .split(' ')
            .collect();
        assert_eq!(listed, SECTIONS, "args {args:?}");
    }
}

#[test]
fn every_section_refuses_an_unknown_flag_with_its_usage_and_exit_2() {
    for section in SECTIONS {
        let synopsis = SYNOPSES
            .iter()
            .find(|(s, _)| *s == section)
            .map_or("", |(_, synopsis)| synopsis);
        assert_refused(
            &[section, "--no-such-flag"],
            &format!("usage: paper {section}{synopsis}"),
        );
    }
}

#[test]
fn app_filter_sections_refuse_a_second_argument() {
    for section in ["hotspots", "provision_bakeoff"] {
        for args in [&["gtc", "extra"][..], &["nosuchapp"][..]] {
            let args: Vec<&str> = [section].into_iter().chain(args.iter().copied()).collect();
            assert_refused(&args, &format!("usage: paper {section} [APP]"));
        }
    }
}

#[test]
fn trace_capture_refuses_a_trace_out_flag_without_a_path() {
    assert_refused(
        &["trace_capture", "--trace-out"],
        "usage: paper trace_capture [--trace-out FILE]",
    );
}

#[test]
fn cheap_sections_print_their_headers() {
    for (section, header) in [
        ("table1", "== Table 1"),
        ("table2", "== Table 2"),
        ("fig1", "== Figure 1"),
    ] {
        let out = paper(&[section]);
        assert!(out.status.success(), "{section}: {:?}", out.status);
        let text = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(
            text.starts_with(header),
            "{section}: expected {header:?}, got {:?}",
            text.lines().next()
        );
    }
}
