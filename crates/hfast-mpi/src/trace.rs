//! Per-rank causal tracing state behind the `CommHook` boundary.
//!
//! When a world runs with a [`TraceRecorder`] attached (explicitly via
//! [`WorldConfig::trace`](crate::WorldConfig::trace) or automatically when
//! `HFAST_TRACE` is set), each [`Comm`](crate::Comm) owns one [`CommTrace`]:
//! a span-id counter and a Lamport clock, both plain `Cell`s because a
//! `Comm` never leaves its rank thread. Every outgoing envelope is stamped
//! with a [`SpanContext`]; every delivery merges the sender's logical
//! clock and records a span parented to the originating send — which is
//! what lets the Perfetto exporter draw cross-rank message arrows.
//!
//! Span ids derive from `(rank, counter)` ([`rank_span_id`]), never
//! wall-clock or a global RNG: two identical runs allocate identical ids.

use std::cell::Cell;
use std::sync::Arc;

use hfast_trace::{rank_span_id, SpanContext, TraceRecorder, Track};

use crate::Rank;

/// One rank's tracing state: recorder handle, span-id counter, Lamport
/// clock.
pub(crate) struct CommTrace {
    recorder: Arc<TraceRecorder>,
    trace_id: u64,
    rank: Rank,
    counter: Cell<u64>,
    clock: Cell<u64>,
}

impl CommTrace {
    /// Tracing state for `rank`, recording into `recorder`.
    pub(crate) fn new(recorder: Arc<TraceRecorder>, trace_id: u64, rank: Rank) -> Self {
        CommTrace {
            recorder,
            trace_id,
            rank,
            counter: Cell::new(0),
            clock: Cell::new(0),
        }
    }

    fn next_span_id(&self) -> u64 {
        let c = self.counter.get() + 1;
        self.counter.set(c);
        rank_span_id(self.rank, c)
    }

    /// Allocates the stamp for an outgoing message: the local clock ticks
    /// and the new span becomes the causal parent of the matching recv.
    pub(crate) fn send_stamp(&self) -> SpanContext {
        let clock = self.clock.get() + 1;
        self.clock.set(clock);
        SpanContext::root(self.trace_id, self.next_span_id(), clock)
    }

    /// Merges an incoming stamp into the Lamport clock and allocates the
    /// receive-side span id.
    pub(crate) fn recv_merge(&self, stamp: &SpanContext) -> (u64, u64) {
        let clock = self.clock.get().max(stamp.clock) + 1;
        self.clock.set(clock);
        (self.next_span_id(), clock)
    }

    /// Records a span on this rank's track.
    pub(crate) fn record(
        &self,
        name: &'static str,
        t_ns: u64,
        dur_ns: u64,
        span_id: u64,
        parent_id: u64,
        fields: Vec<(&'static str, u64)>,
    ) {
        self.recorder.record_span(
            Track::Rank(self.rank),
            name,
            t_ns,
            dur_ns,
            span_id,
            parent_id,
            fields,
        );
    }
}

impl std::fmt::Debug for CommTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommTrace")
            .field("rank", &self.rank)
            .field("counter", &self.counter.get())
            .field("clock", &self.clock.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_stamps_are_unique_and_ordered() {
        let rec = Arc::new(TraceRecorder::new());
        let t = CommTrace::new(Arc::clone(&rec), 1, 3);
        let a = t.send_stamp();
        let b = t.send_stamp();
        assert_ne!(a.span_id, b.span_id);
        assert!(b.clock > a.clock);
        assert_eq!(a.span_id, rank_span_id(3, 1));
    }

    #[test]
    fn recv_merge_advances_past_sender_clock() {
        let rec = Arc::new(TraceRecorder::new());
        let t = CommTrace::new(Arc::clone(&rec), 1, 0);
        let stamp = SpanContext::root(1, rank_span_id(7, 1), 41);
        let (span_id, clock) = t.recv_merge(&stamp);
        assert_eq!(clock, 42, "max(0, 41) + 1");
        assert_eq!(span_id, rank_span_id(0, 1));
        // A later local send keeps advancing from the merged clock.
        assert_eq!(t.send_stamp().clock, 43);
    }
}
