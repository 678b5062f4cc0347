//! The library paths, bins and `paper` sections the docs cite exist.
//!
//! Every backticked `hfast_<crate>::<name>` (or `hfast::<crate>::<name>`,
//! the facade's path to it) in README.md, DESIGN.md and EXPERIMENTS.md
//! must name a `pub mod` or a root export of that crate, read from its
//! `lib.rs`; every `--bin X` there must name a bin some package builds;
//! every `paper X` (`paper -- X` on a command line, or a code span
//! starting `paper X`) must name a section of `paper`'s `SECTIONS` table;
//! every example cited (`--example X`, `examples/X.rs`, ``example `X` ``,
//! or a `` * `X` `` bullet of a list introduced by `--example <name>`) must
//! name a file in `examples/`. A failure names the file, the line and the
//! path, bin, section or example.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    &s[..s.find(|c| !is_ident(c)).unwrap_or(s.len())]
}

/// The names a crate root makes public: its `pub mod`s, the names its
/// `pub use`s bring in (the alias when renamed) and the items `lib.rs`
/// itself declares `pub` at the top level.
fn root_names(lib: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut rest = lib;
    while let Some(at) = rest.find("\npub use ") {
        let body = &rest[at + "\npub use ".len()..];
        let end = body.find(';').expect("a pub use ends with ';'");
        let flat = body[..end].replace(['{', '}'], ",");
        for item in flat.split(',').map(str::trim) {
            if item.is_empty() || item.ends_with("::") {
                continue;
            }
            let name = match item.split_once(" as ") {
                Some((_, alias)) => alias.trim(),
                None => item.rsplit("::").next().unwrap_or(item),
            };
            names.insert(name.to_string());
        }
        rest = &body[end..];
    }
    for line in lib.lines() {
        let Some(decl) = line.strip_prefix("pub ") else {
            continue;
        };
        let decl = decl
            .strip_prefix("const ")
            .filter(|d| d.starts_with("fn "))
            .unwrap_or(decl);
        let kinds = [
            "mod ", "fn ", "const ", "static ", "struct ", "enum ", "trait ", "type ",
        ];
        if let Some(name) = kinds.iter().find_map(|k| decl.strip_prefix(k)) {
            names.insert(ident(name).to_string());
        }
    }
    names
}

/// Every `(crate, name)` an inline code span of `line` cites: the crate
/// as `hfast_<c>` or `hfast::<c>`, the name the first segment after it;
/// `hfast_x::{a, b::c}` cites `a` and `b`.
fn cited_paths(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (i, span) in line.split('`').enumerate() {
        if i % 2 == 0 {
            continue;
        }
        for prefix in ["hfast_", "hfast::"] {
            for (at, _) in span.match_indices(prefix) {
                if span[..at].ends_with(is_ident) {
                    continue;
                }
                let after = &span[at + prefix.len()..];
                let krate = ident(after);
                let Some(tail) = after[krate.len()..].strip_prefix("::") else {
                    continue;
                };
                let names: Vec<&str> = match tail.strip_prefix('{') {
                    Some(list) => list[..list.find('}').unwrap_or(list.len())]
                        .split(',')
                        .map(|s| ident(s.trim()))
                        .collect(),
                    None => vec![ident(tail)],
                };
                for name in names.into_iter().filter(|n| !n.is_empty()) {
                    out.push((krate.to_string(), name.to_string()));
                }
            }
        }
    }
    out
}

/// Every `X` in `--bin X` or `--bin=X` on `line`.
fn cited_bins(line: &str) -> Vec<&str> {
    line.match_indices("--bin")
        .filter_map(|(at, _)| {
            let rest = &line[at + "--bin".len()..];
            let rest = rest.strip_prefix([' ', '='])?.trim_start();
            let len = rest
                .find(|c: char| !(is_ident(c) || c == '-'))
                .unwrap_or(rest.len());
            (len > 0).then(|| &rest[..len])
        })
        .collect()
}

/// Every `X` in `paper -- X`, or in a code span starting `paper X`, on
/// `line`.
fn cited_sections(line: &str) -> Vec<&str> {
    let commands = line
        .match_indices("paper -- ")
        .map(|(at, _)| &line[at + "paper -- ".len()..]);
    let spans = line
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.strip_prefix("paper "));
    commands
        .chain(spans)
        .map(ident)
        .filter(|name| !name.is_empty())
        .collect()
}

/// Every `X` in `--example X`, `examples/X.rs` or ``example `X` `` on
/// `line`.
fn cited_examples(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (pattern, end) in [("--example ", ""), ("examples/", ".rs"), ("example `", "`")] {
        for (at, _) in line.match_indices(pattern) {
            let rest = &line[at + pattern.len()..];
            let name = ident(rest);
            if !name.is_empty() && rest[name.len()..].starts_with(end) {
                out.push(name);
            }
        }
    }
    out
}

/// The name a `` * `X` `` bullet leads with.
fn bullet_name(line: &str) -> Option<&str> {
    line.strip_prefix("* `")
        .map(ident)
        .filter(|name| !name.is_empty())
}

/// The section names `paper`'s `SECTIONS` table lists, read from its
/// source.
fn paper_sections(root: &Path) -> BTreeSet<String> {
    let src = fs::read_to_string(root.join("crates/hfast-bench/src/bin/paper.rs"))
        .expect("the paper bin's source");
    let (_, table) = src.split_once("const SECTIONS").expect("a SECTIONS table");
    let table = &table[..table.find("\n];").expect("the table's end")];
    table
        .lines()
        .filter_map(|l| l.trim().strip_prefix("(\""))
        .map(|l| ident(l).to_string())
        .collect()
}

/// The bins of the package at `dir`: `src/bin/*.rs`, `src/main.rs` under
/// the package name, and `[[bin]]` names in its manifest.
fn package_bins(dir: &Path, out: &mut BTreeSet<String>) {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
    let mut in_bin = false;
    let mut package_name = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bin = line == "[[bin]]";
        }
        if let Some(v) = line.strip_prefix("name = ") {
            let v = v.trim_matches('"').to_string();
            if in_bin {
                out.insert(v);
            } else if package_name.is_none() {
                package_name = Some(v);
            }
        }
    }
    if dir.join("src/main.rs").is_file() {
        out.insert(package_name.expect("a package name"));
    }
    if let Ok(entries) = fs::read_dir(dir.join("src/bin")) {
        for path in entries.map(|e| e.expect("readable entry").path()) {
            if path.extension().is_some_and(|x| x == "rs") {
                let stem = path.file_stem().expect("a file stem");
                out.insert(stem.to_string_lossy().into_owned());
            }
        }
    }
}

#[test]
fn every_documented_library_path_is_public() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut cited = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for (krate, name) in cited_paths(line) {
                cited += 1;
                let lib = root.join(format!("crates/hfast-{krate}/src/lib.rs"));
                let Ok(lib) = fs::read_to_string(&lib) else {
                    broken.push(format!("{doc}:{}: no crate hfast-{krate}", n + 1));
                    continue;
                };
                if !root_names(&lib).contains(&name) {
                    broken.push(format!(
                        "{doc}:{}: hfast_{krate}::{name} is neither a pub mod nor a root export",
                        n + 1
                    ));
                }
            }
        }
    }
    assert!(cited >= 10, "the scan found only {cited} cited paths");
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_documented_bin_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = BTreeSet::new();
    package_bins(root, &mut bins);
    package_bins(&root.join("benchmark"), &mut bins);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        package_bins(&krate.expect("readable entry").path(), &mut bins);
    }
    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for bin in cited_bins(line) {
                cited += 1;
                if !bins.contains(bin) {
                    missing.push(format!("{doc}:{}: --bin {bin}", n + 1));
                }
            }
        }
    }
    assert!(cited >= 5, "the scan found only {cited} --bin citations");
    assert!(
        missing.is_empty(),
        "no package builds these bins (known: {bins:?}):\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_documented_paper_section_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sections = paper_sections(root);
    assert!(
        sections.len() >= 20,
        "read only {sections:?} from the SECTIONS table"
    );
    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for section in cited_sections(line) {
                cited += 1;
                if !sections.contains(section) {
                    missing.push(format!("{doc}:{}: paper {section}", n + 1));
                }
            }
        }
    }
    assert!(cited >= 5, "the scan found only {cited} section citations");
    assert!(
        missing.is_empty(),
        "paper has no such sections (known: {sections:?}):\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_documented_example_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples: BTreeSet<String> = fs::read_dir(root.join("examples"))
        .expect("examples/")
        .map(|e| e.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "rs"))
        .map(|path| {
            path.file_stem()
                .expect("a file stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut cited = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable doc");
        // Inside a list introduced by `--example <name>`: its bullets,
        // their indented continuations and blank lines.
        let mut in_list = false;
        for (n, line) in text.lines().enumerate() {
            in_list &= line.is_empty() || line.starts_with("* ") || line.starts_with("  ");
            let mut names = cited_examples(line);
            names.extend(bullet_name(line).filter(|_| in_list));
            in_list |= line.contains("--example <name>");
            for name in names {
                cited += 1;
                if !examples.contains(name) {
                    missing.push(format!("{doc}:{}: example {name}", n + 1));
                }
            }
        }
    }
    assert!(cited >= 5, "the scan found only {cited} example citations");
    assert!(
        missing.is_empty(),
        "examples/ holds no such files (known: {examples:?}):\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scans_read_spans_lists_and_flags() {
    let line = "see `hfast_core::CostModel`, `hfast::netsim::{engine, traffic::Flow}` \
                and hfast_obs::emit outside a span";
    let cited = cited_paths(line);
    let pairs: Vec<(&str, &str)> = cited
        .iter()
        .map(|(k, n)| (k.as_str(), n.as_str()))
        .collect();
    assert_eq!(
        pairs,
        [
            ("core", "CostModel"),
            ("netsim", "engine"),
            ("netsim", "traffic")
        ]
    );
    assert!(cited_paths("`hfast_cost` and `my_hfast_x::y`").is_empty());
    assert_eq!(
        cited_bins("cargo run --bin paper; `--bin=hfast-analyze x`"),
        ["paper", "hfast-analyze"]
    );
    assert_eq!(
        cited_sections("run `paper hotspots GTC`, `--bin paper -- <section>` or `paper`"),
        ["hotspots"]
    );
    assert_eq!(
        cited_sections("cargo run -p hfast-bench --bin paper -- fig5  # `paper smp`"),
        ["fig5", "smp"]
    );
    assert_eq!(
        cited_examples(
            "`cargo run --example quickstart`, examples/smp_placement.rs, \
             (example `windowed_tdc`), `--example <name>` and examples/"
        ),
        ["quickstart", "smp_placement", "windowed_tdc"]
    );
    assert_eq!(
        bullet_name("* `workload_study` — §6"),
        Some("workload_study")
    );
    assert_eq!(bullet_name("  `netsim::AdaptiveReplay`, the driver"), None);
    let lib = "mod a;\npub mod b;\npub use a::{c, d::E as F};\npub use g::H;\n\
               pub fn i() {}\npub const fn j() {}\n    pub fn nested() {}\n";
    let names: Vec<String> = root_names(lib).into_iter().collect();
    assert_eq!(names, ["F", "H", "b", "c", "i", "j"]);
}
