//! End-to-end causal trace capture: GTC at P = 256, world run plus fabric
//! replay, exported as one Chrome trace-event / Perfetto JSON document.
//!
//! One [`TraceRecorder`] collects both layers — rank send/recv/wait spans
//! from the MPI runtime (stamped through message envelopes, so every recv
//! links to its originating send) and flow/hop spans from the replay of
//! the measured steady-state traffic on `PaperLinear` HFAST. Span-id
//! spaces are disjoint, so the document is one timeline with ranks,
//! links and the engine as separate tracks. [`Capture::violations`] is
//! the trace contract, asserted by the tier-1 test
//! `tests/trace_capture.rs` and by `paper trace_capture`, which prints
//! the capture.

use std::sync::Arc;

use hfast_apps::{profile_app_with, CommKernel, Gtc};
use hfast_core::Strategy;
use hfast_mpi::WorldConfig;
use hfast_netsim::Simulation;
use hfast_trace::{export, rank_hotspots, validate, SpanRecord, TraceRecorder, TraceStats};

use crate::cell::Cell;

/// Ranks of the traced GTC world run.
pub const PROCS: usize = 256;

/// One capture: the merged spans, their exported document and its
/// validation.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Spans the world run recorded (rank tracks only).
    pub world_spans: usize,
    /// The replayed steady-state traffic.
    pub cell: Cell,
    /// Every span of both layers.
    pub spans: Vec<SpanRecord>,
    /// The exported trace-event JSON document.
    pub doc: String,
    /// The document's validation.
    pub stats: TraceStats,
    /// Links the replay used.
    pub used_links: usize,
}

impl Capture {
    /// Every way the capture breaks the trace contract, one line each.
    pub fn violations(&self) -> Vec<String> {
        let stats = &self.stats;
        let mut out = Vec::new();
        if stats.rank_tracks != PROCS {
            out.push(format!(
                "rank tracks: expected {PROCS}, got {}",
                stats.rank_tracks
            ));
        }
        if stats.link_tracks != self.used_links || self.used_links == 0 {
            out.push(format!(
                "link tracks: expected one per used link ({}), got {}",
                self.used_links, stats.link_tracks
            ));
        }
        if stats.orphan_recvs != 0 {
            out.push(format!(
                "orphan recvs: expected 0, got {}",
                stats.orphan_recvs
            ));
        }
        if stats.linked_recvs == 0 {
            out.push("linked recvs: expected some, got 0".to_string());
        }
        out
    }
}

/// Runs GTC at [`PROCS`] ranks traced, replays its steady-state traffic
/// on `PaperLinear` HFAST into the same recorder, and exports the spans.
pub fn capture() -> Capture {
    let gtc = Gtc::default();
    let rec = Arc::new(TraceRecorder::new());
    let outcome = profile_app_with(&gtc, PROCS, WorldConfig::new(PROCS).trace(Arc::clone(&rec)))
        .expect("GTC world run");
    let world_spans = rec.len();
    let cell = Cell::new(gtc.name(), outcome.steady.comm_graph());
    Simulation::new(&cell.hfast(Strategy::PaperLinear))
        .with_trace(&rec)
        .run(&cell.flows);
    let spans = rec.snapshot();
    let doc = export(&spans);
    let stats = validate(&doc).expect("exporter must emit valid trace-event JSON");
    let used_links = rank_hotspots(&spans).len();
    Capture {
        world_spans,
        cell,
        spans,
        doc,
        stats,
        used_links,
    }
}
