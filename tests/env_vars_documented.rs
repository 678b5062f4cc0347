//! The `HFAST_*` environment variables the code reads and the ones
//! EXPERIMENTS.md documents are the same set.
//!
//! Collects each string literal that starts with `"HFAST_` under
//! `crates/*/src` and `src/`, and fails, naming the variable and the file
//! that uses it, when EXPERIMENTS.md does not mention that variable as a
//! whole word; and fails, naming the variable, when EXPERIMENTS.md names
//! an `HFAST_*` variable that no such literal reads.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn is_ident(b: u8) -> bool {
    b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'
}

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

/// The `HFAST_*` names in `text` whose preceding byte (`None` at the
/// start) passes `lead`. A bare prefix such as the `HFAST_` of
/// `HFAST_SERVE_*` names no variable and is skipped.
fn hfast_names(text: &str, lead: impl Fn(Option<u8>) -> bool) -> Vec<&str> {
    text.match_indices("HFAST_")
        .filter(|&(at, _)| lead(at.checked_sub(1).map(|i| text.as_bytes()[i])))
        .map(|(at, _)| {
            let len = text[at..].bytes().take_while(|&b| is_ident(b)).count();
            &text[at..at + len]
        })
        .filter(|name| !name.ends_with('_'))
        .collect()
}

/// The `HFAST_*` names that open a string literal in `source`.
fn hfast_literals(source: &str) -> Vec<&str> {
    hfast_names(source, |before| before == Some(b'"'))
}

/// The `HFAST_*` names `doc` mentions as whole words.
fn hfast_mentions(doc: &str) -> Vec<&str> {
    hfast_names(doc, |before| !before.is_some_and(is_ident))
}

/// True if `doc` names `var` as a whole word: `HFAST_OBS` does not count
/// as mentioned by a line that only names `HFAST_OBS_FILE`.
fn mentions(doc: &str, var: &str) -> bool {
    doc.match_indices(var).any(|(at, _)| {
        let before = at.checked_sub(1).map(|i| doc.as_bytes()[i]);
        let after = doc.as_bytes().get(at + var.len()).copied();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// Every `HFAST_*` variable the code reads, mapped to the first file
/// (sorted) that names it.
fn read_variables(root: &Path) -> BTreeMap<String, PathBuf> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("readable entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut vars: BTreeMap<String, PathBuf> = BTreeMap::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("readable source");
        for var in hfast_literals(&source) {
            let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
            vars.entry(var.to_string()).or_insert(rel);
        }
    }
    vars
}

#[test]
fn every_hfast_variable_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let vars = read_variables(root);
    for known in ["HFAST_OBS", "HFAST_THREADS", "HFAST_TRACE"] {
        assert!(
            vars.contains_key(known),
            "the scan missed {known}: {vars:?}"
        );
    }
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let missing: Vec<String> = vars
        .iter()
        .filter(|(var, _)| !mentions(&doc, var))
        .map(|(var, file)| format!("{var} (read in {})", file.display()))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md does not document: {}",
        missing.join(", ")
    );
}

#[test]
fn every_documented_hfast_variable_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let vars = read_variables(root);
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut stale: Vec<&str> = hfast_mentions(&doc)
        .into_iter()
        .filter(|var| !vars.contains_key(*var))
        .collect();
    stale.sort();
    stale.dedup();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md documents variables no code reads: {}",
        stale.join(", ")
    );
}

#[test]
fn the_scan_reads_literals_and_whole_words() {
    let source = r#"env::var("HFAST_OBS"); format!("HFAST_CHECK_SEED={seed}"); "x HFAST_NOT""#;
    assert_eq!(hfast_literals(source), ["HFAST_OBS", "HFAST_CHECK_SEED"]);
    assert!(mentions("set `HFAST_OBS` to a path", "HFAST_OBS"));
    assert!(!mentions("set `HFAST_OBS_FILE`", "HFAST_OBS"));
    assert!(!mentions("XHFAST_OBS", "HFAST_OBS"));
    let doc = "`HFAST_OBS`, XHFAST_NOT, the `HFAST_SERVE_*` family, HFAST_TRACE.";
    assert_eq!(hfast_mentions(doc), ["HFAST_OBS", "HFAST_TRACE"]);
}
