//! Where telemetry output goes: the one parser of the `HFAST_OBS` and
//! `HFAST_TRACE` values and the one writer.
//!
//! Both variables read the same way: unset, empty or `0` is off; `1`,
//! `true` or `stderr` sends output to stderr; anything else is a file path
//! (trimmed). Nothing here writes to stdout — experiment output must stay
//! byte-identical whether telemetry is on or off.

use std::io::Write as _;
use std::path::PathBuf;

/// The destination a switched-on telemetry variable names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sink {
    /// Output goes to stderr.
    Stderr,
    /// Output goes to this file.
    File(PathBuf),
}

/// Parses a telemetry variable's value; `None` means off.
pub(crate) fn parse_sink(value: Option<&str>) -> Option<Sink> {
    match value?.trim() {
        "" | "0" => None,
        "1" | "true" | "stderr" => Some(Sink::Stderr),
        path => Some(Sink::File(PathBuf::from(path))),
    }
}

/// The sink the environment variable `var` names now; `None` when it is
/// off. Read once per world or per daemon, not per event.
pub fn sink(var: &str) -> Option<Sink> {
    parse_sink(std::env::var(var).ok().as_deref())
}

impl Sink {
    /// Writes `text` as is. A file is appended to when `append` (JSON
    /// Lines accumulate across exports) and overwritten otherwise (a trace
    /// is one document). I/O errors are reported on stderr and swallowed:
    /// telemetry must never fail the workload.
    pub fn write(&self, text: &str, append: bool) {
        match self {
            Sink::Stderr => eprint!("{text}"),
            Sink::File(path) => {
                let written = std::fs::OpenOptions::new()
                    .create(true)
                    .write(true)
                    .append(append)
                    .truncate(!append)
                    .open(path)
                    .and_then(|mut f| f.write_all(text.as_bytes()));
                if let Err(e) = written {
                    eprintln!("hfast-obs: cannot write {}: {e}", path.display());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_off_values() {
        assert_eq!(parse_sink(None), None);
        assert_eq!(parse_sink(Some("0")), None);
        assert_eq!(parse_sink(Some("")), None);
        assert_eq!(parse_sink(Some("  ")), None);
    }

    #[test]
    fn parse_stderr_values() {
        assert_eq!(parse_sink(Some("1")), Some(Sink::Stderr));
        assert_eq!(parse_sink(Some("true")), Some(Sink::Stderr));
        assert_eq!(parse_sink(Some("stderr")), Some(Sink::Stderr));
    }

    #[test]
    fn parse_path_values() {
        assert_eq!(
            parse_sink(Some("/tmp/obs.jsonl")),
            Some(Sink::File(PathBuf::from("/tmp/obs.jsonl")))
        );
        assert_eq!(
            parse_sink(Some(" out.jsonl ")),
            Some(Sink::File(PathBuf::from("out.jsonl"))),
            "paths are trimmed"
        );
    }

    #[test]
    fn file_sink_appends_or_overwrites() {
        let path = std::env::temp_dir().join(format!("hfast-obs-sink-{}", std::process::id()));
        let sink = Sink::File(path.clone());
        sink.write("a\n", true);
        sink.write("b\n", true);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        sink.write("doc", false);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "doc");
        let _ = std::fs::remove_file(&path);
    }
}
