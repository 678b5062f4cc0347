//! Where exported records go.
//!
//! The `HFAST_OBS` variable doubles as the sink selector: `1`/`true`/
//! `stderr` send JSON Lines to stderr, any other non-off value is a file
//! path to append to. Exports never write to stdout — experiment output
//! must stay byte-identical whether observability is on or off.

use std::io::Write as _;
use std::path::PathBuf;

use crate::json::ToJsonl;

/// Resolved export destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sink {
    /// Observability is off; exports are dropped.
    Disabled,
    /// JSON Lines to stderr.
    Stderr,
    /// JSON Lines appended to a file.
    File(PathBuf),
}

/// Parses an `HFAST_OBS` value into a [`Sink`] (pure; see [`sink`] for the
/// environment-reading wrapper).
pub(crate) fn parse_sink(value: Option<&str>) -> Sink {
    if !crate::switch_is_on(value) {
        return Sink::Disabled;
    }
    let v = value.unwrap_or_default().trim();
    match v {
        "1" | "true" | "stderr" => Sink::Stderr,
        path => Sink::File(PathBuf::from(path)),
    }
}

/// The process's export destination per the current environment.
pub(crate) fn sink() -> Sink {
    parse_sink(std::env::var("HFAST_OBS").ok().as_deref())
}

/// Writes one line per item to the configured sink. A `Sink::Disabled`
/// sink drops everything; I/O errors are reported on stderr and swallowed
/// (observability must never fail the workload).
pub fn emit_lines<I>(lines: I)
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    match sink() {
        Sink::Disabled => {}
        Sink::Stderr => {
            let stderr = std::io::stderr();
            let mut out = stderr.lock();
            for line in lines {
                let _ = writeln!(out, "{}", line.as_ref());
            }
        }
        Sink::File(path) => {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let mut buf = String::new();
                    for line in lines {
                        buf.push_str(line.as_ref());
                        buf.push('\n');
                    }
                    if let Err(e) = f.write_all(buf.as_bytes()) {
                        eprintln!("hfast-obs: cannot write {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("hfast-obs: cannot open {}: {e}", path.display()),
            }
        }
    }
}

/// Serializes each record via [`ToJsonl`] and writes it to the sink.
pub fn emit<'a, T, I>(records: I)
where
    T: ToJsonl + 'a,
    I: IntoIterator<Item = &'a T>,
{
    emit_lines(records.into_iter().map(ToJsonl::to_jsonl));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_off_values() {
        assert_eq!(parse_sink(None), Sink::Disabled);
        assert_eq!(parse_sink(Some("0")), Sink::Disabled);
        assert_eq!(parse_sink(Some("")), Sink::Disabled);
    }

    #[test]
    fn parse_stderr_values() {
        assert_eq!(parse_sink(Some("1")), Sink::Stderr);
        assert_eq!(parse_sink(Some("true")), Sink::Stderr);
        assert_eq!(parse_sink(Some("stderr")), Sink::Stderr);
    }

    #[test]
    fn parse_path_values() {
        assert_eq!(
            parse_sink(Some("/tmp/obs.jsonl")),
            Sink::File(PathBuf::from("/tmp/obs.jsonl"))
        );
        assert_eq!(
            parse_sink(Some(" out.jsonl ")),
            Sink::File(PathBuf::from("out.jsonl")),
            "paths are trimmed"
        );
    }
}
