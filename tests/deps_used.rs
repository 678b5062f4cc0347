//! Every `hfast-*` crate a workspace crate depends on is one its source
//! uses.
//!
//! For each `hfast-*` key in the `[dependencies]` section of a
//! `crates/*/Cargo.toml`, the crate's `src/` must name `hfast_<dep>` on a
//! line that is not a comment. A failure names the crate and the
//! dependency. `FROZEN` lists the unused edges that stay because the
//! benchmark's lock file pins them (dropping one rewrites
//! `benchmark/Cargo.lock`); a frozen edge the source uses again fails as
//! stale, so the list only shrinks.

use std::fs;
use std::path::{Path, PathBuf};

/// Unused `(crate, dependency)` edges kept until the benchmark's lock file
/// is next rewritten (ROADMAP 29(a)).
const FROZEN: [(&str, &str); 3] = [
    ("hfast-core", "hfast-obs"),
    ("hfast-core", "hfast-trace"),
    ("hfast-mpi", "hfast-obs"),
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The `hfast-*` keys of `manifest`'s `[dependencies]` section, in both
/// the `hfast-x = { … }` and the `hfast-x.workspace = true` forms.
fn hfast_dependencies(manifest: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && line.starts_with("hfast-") {
            let end = line.find(['=', '.', ' ']).unwrap_or(line.len());
            deps.push(&line[..end]);
        }
    }
    deps
}

/// True if `source` names the crate `ident` (e.g. `hfast_obs`) as a whole
/// word on a line that is not a `//` comment.
fn names_crate(source: &str, ident: &str) -> bool {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .any(|line| {
            line.match_indices(ident).any(|(at, _)| {
                let before = at.checked_sub(1).map(|i| line.as_bytes()[i]);
                let after = line.as_bytes().get(at + ident.len()).copied();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            })
        })
}

#[test]
fn every_hfast_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("readable entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    let (mut unused, mut stale, mut edges) = (Vec::new(), Vec::new(), 0);
    for dir in &crates {
        let krate = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let source: String = files
            .iter()
            .map(|f| fs::read_to_string(f).expect("readable source"))
            .collect::<Vec<_>>()
            .join("\n");
        for dep in hfast_dependencies(&manifest) {
            edges += 1;
            let used = names_crate(&source, &dep.replace('-', "_"));
            match (used, FROZEN.contains(&(krate, dep))) {
                (false, false) => unused.push(format!("{krate} -> {dep}")),
                (true, true) => stale.push(format!("{krate} -> {dep}")),
                _ => {}
            }
        }
    }
    assert!(edges >= 20, "the scan found only {edges} hfast-* edges");
    assert!(
        unused.is_empty(),
        "crates depend on hfast-* crates their src/ never names: {}",
        unused.join(", ")
    );
    assert!(
        stale.is_empty(),
        "FROZEN lists edges that are used again, drop them: {}",
        stale.join(", ")
    );
}

#[test]
fn the_scans_read_dependencies_and_code() {
    let manifest = "[package]\nname = \"hfast-x\"\n\n[dependencies]\n\
                    hfast-obs = { workspace = true }\nhfast-trace.workspace = true\n\
                    other = \"1\"\n\n[dev-dependencies]\nhfast-par = { workspace = true }\n";
    assert_eq!(hfast_dependencies(manifest), ["hfast-obs", "hfast-trace"]);
    assert!(names_crate("use hfast_obs::Counter;", "hfast_obs"));
    assert!(names_crate(
        "    let s = hfast_obs::sink(\"X\");",
        "hfast_obs"
    ));
    assert!(!names_crate("//! see `hfast_obs::Sink`", "hfast_obs"));
    assert!(!names_crate(
        "use hfast_observer::X; use my_hfast_obs::Y;",
        "hfast_obs"
    ));
}
