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
//! Parsed like `HFAST_OBS`, by `hfast-obs`'s one parser (see [`sink`]):
//! unset, empty or `0` is off; `1`, `true` or `stderr` writes the exported
//! document to stderr; anything else is a file path, overwritten (a trace
//! is one document, not an appendable log). The switch is read once per
//! world or daemon; a run given its own [`TraceRecorder`] exports it
//! itself.
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

/// The `HFAST_TRACE` sink, read from the environment now; `None` when
/// tracing is off. Write an [`export`]ed document to it with
/// [`Sink::write`](hfast_obs::Sink::write) with
/// `append` false: a trace is one document.
pub fn sink() -> Option<hfast_obs::Sink> {
    hfast_obs::sink("HFAST_TRACE")
}

#[cfg(test)]
mod tests {
    use super::*;

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
