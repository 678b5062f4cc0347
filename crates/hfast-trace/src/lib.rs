//! # hfast-trace — causal span tracing across ranks and fabric
//!
//! `hfast-obs` (PR 2) answers *how much* — counters, histograms,
//! aggregate timelines. This crate answers *why a particular flow was
//! slow*: a [`SpanContext`] stamped into every `hfast-mpi` message
//! envelope links each recv/wait span to the send that caused it across
//! rank threads; the `hfast-netsim` engine opens child spans for each
//! flow's lifecycle (per-link hops with queueing delay, fault kills,
//! retries, repatches); `hfast-core::reconfig` sync points emit spans
//! tying circuit changes to the flows they reroute. Everything lands in
//! one [`TraceRecorder`] and pays off twice:
//!
//! * [`export`] — a Chrome trace-event JSON document (open in
//!   Perfetto or `chrome://tracing`) with ranks, links, and the
//!   engine/reconfig control flow as tracks, plus flow arrows on the
//!   causal edges; [`aggregate`] folds the same spans into
//!   flamegraph-style self/total times per call kind.
//! * [`rank_hotspots`], [`congestion_trees`] — per-link congestion
//!   folding (busy/wait totals, peak queue depth, utilization, congestion
//!   trees) behind `paper hotspots` and `paper congestion_lab`.
//!
//! ## The `HFAST_TRACE` switch
//!
//! Mirrors `HFAST_OBS`: off by default, probed once, a relaxed atomic
//! load afterwards — the disabled path at a stamp site is one load and a
//! branch.
//!
//! | `HFAST_TRACE`          | behaviour                                    |
//! |------------------------|----------------------------------------------|
//! | unset, empty, `0`      | disabled (no stamps, no spans, no output)    |
//! | `1`, `true`, `stderr`  | enabled; exports write to stderr             |
//! | anything else          | enabled; treated as a path, JSON written     |
//!
//! ## Determinism
//!
//! Span ids derive from logical clocks — per-rank send counters and the
//! simulator's event sequence — never wall-clock or a global RNG, so two
//! identical runs produce identical traces. Exports never touch stdout:
//! experiment output stays byte-identical across `HFAST_THREADS` settings
//! with tracing on or off.

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod analyzer;
mod flame;
mod json;
mod perfetto;
mod span;

pub use analyzer::{
    congestion_trees, rank_hotspots, utilization_spread, CongestionTree, LinkLoad,
    UtilizationSpread,
};
pub use flame::{aggregate, CallAgg};
pub use json::{parse, JsonValue};
pub use perfetto::{export, validate, TraceStats};
pub use span::{
    engine_span_id, rank_span_id, server_span_id, FlowEnd, FlowRow, HopRow, SpanContext,
    SpanRecord, TraceRecorder, Track,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet probed, 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True if causal tracing is switched on via `HFAST_TRACE`.
///
/// The environment is consulted once per process; afterwards this is a
/// relaxed atomic load, cheap enough for the per-message stamp sites.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = switch_is_on(std::env::var("HFAST_TRACE").ok().as_deref());
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Pure parser behind [`enabled`]: is this `HFAST_TRACE` value "on"?
pub(crate) fn switch_is_on(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
    }
}

/// Writes an exported trace document to the destination `HFAST_TRACE`
/// names: stderr for `1`/`true`/`stderr`, otherwise the value is a file
/// path (overwritten — a trace is one document, not an appendable log).
/// No-op when tracing is disabled. Never writes to stdout.
pub fn write_to_env_sink(document: &str) {
    if !enabled() {
        return;
    }
    match std::env::var("HFAST_TRACE").ok().as_deref().map(str::trim) {
        Some("1") | Some("true") | Some("stderr") => {
            eprint!("{document}");
        }
        Some(path) if !path.is_empty() && path != "0" => {
            if let Err(e) = std::fs::write(path, document) {
                eprintln!("hfast-trace: cannot write {path}: {e}");
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_parsing() {
        assert!(!switch_is_on(None));
        assert!(!switch_is_on(Some("")));
        assert!(!switch_is_on(Some("  ")));
        assert!(!switch_is_on(Some("0")));
        assert!(switch_is_on(Some("1")));
        assert!(switch_is_on(Some("true")));
        assert!(switch_is_on(Some("stderr")));
        assert!(switch_is_on(Some("/tmp/trace.json")));
    }

    #[test]
    fn enabled_is_stable_across_calls() {
        let first = enabled();
        for _ in 0..100 {
            assert_eq!(enabled(), first);
        }
    }

    #[test]
    fn spans_to_perfetto_end_to_end() {
        let rec = TraceRecorder::new();
        let send = rank_span_id(0, 1);
        rec.record_span(Track::Rank(0), "send", 0, 10, send, 0, vec![("bytes", 8)]);
        rec.record_span(
            Track::Rank(1),
            "recv",
            5,
            10,
            rank_span_id(1, 1),
            send,
            vec![("bytes", 8)],
        );
        let doc = export(&rec.snapshot());
        let stats = validate(&doc).unwrap();
        assert_eq!(stats.rank_tracks, 2);
        assert_eq!(stats.orphan_recvs, 0);
    }
}
