//! The `paper` dispatcher: one positional section name, a usage naming
//! every section on a missing or unknown name, and the cheap sections
//! printing their headers.

use std::process::{Command, Output};

const SECTIONS: [&str; 19] = [
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
    "experiments",
];

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("run paper")
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
