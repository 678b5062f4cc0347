//! Span records, causal contexts, and the shared recorder.
//!
//! A [`SpanContext`] is the four-word stamp that rides inside an
//! `hfast-mpi` message envelope: trace id, span id, parent span id, and a
//! Lamport logical clock. Every id derives from logical clocks — rank
//! counters on the MPI side, the event-loop sequence on the simulator
//! side — so identical runs produce identical traces regardless of
//! wall-clock or thread scheduling.
//!
//! Spans from different subsystems land in one [`TraceRecorder`] keyed by
//! [`Track`]: rank timelines, per-link timelines, and the engine/reconfig
//! control tracks. The Perfetto exporter turns each track into a thread
//! row; the analyzer folds the link tracks into per-link congestion totals.

use std::sync::Mutex;

/// Bit marking engine-allocated span ids; rank ids never set it.
pub(crate) const ENGINE_SPAN_BASE: u64 = 1 << 63;

/// Bit marking server-allocated span ids (daemon request spans); disjoint
/// from both the engine bit and the rank id range.
pub(crate) const SERVER_SPAN_BASE: u64 = 1 << 62;

/// Span id for the `counter`-th span opened by `rank`.
///
/// Rank ids live in `[(rank+1) << 32, (rank+2) << 32)`; two ranks can
/// never collide and the zero id is reserved for "no parent".
#[inline]
pub fn rank_span_id(rank: usize, counter: u64) -> u64 {
    ((rank as u64 + 1) << 32) | (counter & 0xFFFF_FFFF)
}

/// Span id for the `counter`-th span allocated by the (single-threaded)
/// simulator event loop or reconfig engine. Disjoint from every rank id.
#[inline]
pub fn engine_span_id(counter: u64) -> u64 {
    ENGINE_SPAN_BASE | counter
}

/// Span id for the `counter`-th span allocated by a serving daemon
/// (request / parse / execute spans). Disjoint from engine ids
/// (bit 63 unset) and from rank ids (ranks would need to exceed 2³⁰).
#[inline]
pub fn server_span_id(counter: u64) -> u64 {
    SERVER_SPAN_BASE | (counter & (SERVER_SPAN_BASE - 1))
}

/// The causal stamp carried inside a message envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace this span belongs to (one per world/simulation run).
    pub trace_id: u64,
    /// This span's id (see [`rank_span_id`] / [`engine_span_id`]).
    pub span_id: u64,
    /// Parent span id, 0 for roots.
    pub parent_id: u64,
    /// Lamport clock: send increments, recv takes `max(local, stamp) + 1`.
    pub clock: u64,
}

impl SpanContext {
    /// A root context (no parent) at logical time `clock`.
    pub fn root(trace_id: u64, span_id: u64, clock: u64) -> Self {
        SpanContext {
            trace_id,
            span_id,
            parent_id: 0,
            clock,
        }
    }
}

/// The timeline a span renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// One per MPI rank thread.
    Rank(usize),
    /// One per fabric link (simulator hop spans).
    Link(usize),
    /// The simulator event loop (flow lifecycles, fault instants).
    Engine,
    /// The reconfiguration engine (sync points, repatches).
    Reconfig,
    /// One per serving-daemon connection (request lifecycle spans).
    Server(usize),
}

/// One closed span (or instant, when `dur_ns == 0`) on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Timeline this span belongs to.
    pub track: Track,
    /// Span name (`send`, `recv`, `flow`, `hop`, ...).
    pub name: &'static str,
    /// Start, nanoseconds on the track's clock (MPI: monotonic-per-world
    /// microstep derived from logical clocks; simulator: virtual time).
    pub t_ns: u64,
    /// Duration; 0 marks an instant annotation.
    pub dur_ns: u64,
    /// This span's id (0 allowed for pure annotations).
    pub span_id: u64,
    /// Causal parent's span id, 0 for roots.
    pub parent_id: u64,
    /// Numeric payload fields (kept numeric for determinism and size).
    pub fields: Vec<(&'static str, u64)>,
}

/// One link crossing of a simulator run, as the event loop hands it
/// over: 32 bytes where the [`SpanRecord`] it stands for takes 88 plus a
/// heap-allocated field list. Expands to the `hop` span on
/// `Track::Link(link)` with `t_ns = start`, `dur_ns = ser`, no id of its
/// own, the flow's span as parent, and fields `wait`, `flow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRow {
    /// Link crossed.
    pub link: u32,
    /// Index of the crossing flow in the run's flow list.
    pub flow: u32,
    /// How long the flow waited for the link, ns.
    pub wait: u64,
    /// When it started crossing, simulated ns.
    pub start: u64,
    /// How long it held the link (serialization time), ns.
    pub ser: u64,
}

/// How a simulated flow ended; names the span its [`FlowRow`] expands to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEnd {
    /// Delivered: a `flow` span lasting until the tail arrived.
    Delivered,
    /// Given up by the retry policy: a `flow_abandoned` instant.
    Abandoned,
    /// Never routed (or wedged): a `flow_unrouted` instant.
    Unrouted,
}

/// One flow's lifecycle in a simulator run. Expands to a span on
/// [`Track::Engine`] whose id is `engine_span_id(flow + 1)` — the parent
/// of the flow's [`HopRow`]s — with fields `src`, `dst`, `bytes`,
/// `retries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRow {
    /// Index in the run's flow list.
    pub flow: u32,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Re-admissions the flow needed.
    pub retries: u32,
    /// Payload size.
    pub bytes: u64,
    /// Injection time, simulated ns.
    pub start: u64,
    /// Injection to delivery, ns (0 unless delivered).
    pub dur: u64,
    /// How the flow ended.
    pub end: FlowEnd,
}

impl From<HopRow> for SpanRecord {
    fn from(r: HopRow) -> Self {
        SpanRecord {
            track: Track::Link(r.link as usize),
            name: "hop",
            t_ns: r.start,
            dur_ns: r.ser,
            span_id: 0,
            parent_id: engine_span_id(u64::from(r.flow) + 1),
            fields: vec![("wait", r.wait), ("flow", u64::from(r.flow))],
        }
    }
}

impl From<FlowRow> for SpanRecord {
    fn from(r: FlowRow) -> Self {
        SpanRecord {
            track: Track::Engine,
            name: match r.end {
                FlowEnd::Delivered => "flow",
                FlowEnd::Abandoned => "flow_abandoned",
                FlowEnd::Unrouted => "flow_unrouted",
            },
            t_ns: r.start,
            dur_ns: r.dur,
            span_id: engine_span_id(u64::from(r.flow) + 1),
            parent_id: 0,
            fields: vec![
                ("src", u64::from(r.src)),
                ("dst", u64::from(r.dst)),
                ("bytes", r.bytes),
                ("retries", u64::from(r.retries)),
            ],
        }
    }
}

/// One simulator run's rows, and where in the span list they were
/// handed over.
#[derive(Debug)]
struct EngineBlock {
    /// `spans.len()` at hand-over: the block stands for records appended
    /// right there.
    at: usize,
    hops: Vec<HopRow>,
    flows: Vec<FlowRow>,
}

#[derive(Debug, Default)]
struct Recorded {
    spans: Vec<SpanRecord>,
    /// The engine lane, in hand-over order.
    blocks: Vec<EngineBlock>,
}

impl Recorded {
    /// Spans recorded either way: owned records plus engine rows.
    fn len(&self) -> usize {
        let rows = |b: &EngineBlock| b.hops.len() + b.flows.len();
        self.spans.len() + self.blocks.iter().map(rows).sum::<usize>()
    }
}

/// Thread-safe, unbounded collector of [`SpanRecord`]s for one run.
///
/// Unbounded on purpose: unlike the `hfast-obs` ring (an always-on
/// low-cost monitor), the recorder only exists when a full capture was
/// asked for, and the exporters need every span to reconstruct
/// causality.
///
/// Two ways in. [`record_span`](TraceRecorder::record_span) is a mutex
/// push of one owned record — right for the MPI runtime, the serving
/// daemon and the simulator's rare annotations (faults, kills, retries,
/// stalls, repatches), where a span accompanies a channel send or a whole
/// request. It is far too dear for the simulator's event loop, which
/// closes a span every ~30 ns: that goes through the **engine lane**,
/// [`record_engine_block`](TraceRecorder::record_engine_block), which
/// takes a run's hop and flow rows in one locked hand-over and keeps them
/// as rows. [`len`](TraceRecorder::len) counts rows as the spans they
/// stand for and [`snapshot`](TraceRecorder::snapshot) expands them, so
/// readers cannot tell the two apart.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<Recorded>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.inner.lock().expect("trace recorder poisoned")
    }

    /// Appends one span record.
    pub(crate) fn record(&self, span: SpanRecord) {
        self.lock().spans.push(span);
    }

    /// Appends a span built from parts.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        track: Track,
        name: &'static str,
        t_ns: u64,
        dur_ns: u64,
        span_id: u64,
        parent_id: u64,
        fields: Vec<(&'static str, u64)>,
    ) {
        self.record(SpanRecord {
            track,
            name,
            t_ns,
            dur_ns,
            span_id,
            parent_id,
            fields,
        });
    }

    /// Appends one simulator run's link crossings and flow lifecycles —
    /// equivalent to `record`ing each hop row's
    /// span in order and then each flow row's, at the cost of one lock
    /// and no copy.
    pub fn record_engine_block(&self, hops: Vec<HopRow>, flows: Vec<FlowRow>) {
        let mut inner = self.lock();
        let at = inner.spans.len();
        inner.blocks.push(EngineBlock { at, hops, flows });
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out all spans in a deterministic order: sorted by
    /// `(track, t_ns, span_id, name)`. Recording order depends on thread
    /// interleaving; the sort restores the determinism contract for
    /// exports. The sort is stable and engine rows expand where they were
    /// handed over, so records with equal keys (two hops entering one
    /// link at one instant) keep their recording order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans = {
            let inner = self.lock();
            let mut all = Vec::with_capacity(inner.len());
            let mut from = 0;
            for b in &inner.blocks {
                all.extend_from_slice(&inner.spans[from..b.at]);
                all.extend(b.hops.iter().map(|&r| SpanRecord::from(r)));
                all.extend(b.flows.iter().map(|&r| SpanRecord::from(r)));
                from = b.at;
            }
            all.extend_from_slice(&inner.spans[from..]);
            all
        };
        spans.sort_by(|a, b| {
            (a.track, a.t_ns, a.span_id, a.name).cmp(&(b.track, b.t_ns, b.span_id, b.name))
        });
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_id_spaces_are_disjoint() {
        let rank_ids: Vec<u64> = (0..8).map(|r| rank_span_id(r, 5)).collect();
        for (i, &a) in rank_ids.iter().enumerate() {
            assert_ne!(a, 0);
            assert_eq!(a & ENGINE_SPAN_BASE, 0, "rank ids never set the engine bit");
            for &b in &rank_ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(engine_span_id(5), rank_span_id(0, 5));
        assert_eq!(engine_span_id(7) & ENGINE_SPAN_BASE, ENGINE_SPAN_BASE);
        assert_ne!(server_span_id(5), engine_span_id(5));
        assert_ne!(server_span_id(5), rank_span_id(0, 5));
        assert_eq!(server_span_id(9) & ENGINE_SPAN_BASE, 0);
        assert_eq!(server_span_id(9) & SERVER_SPAN_BASE, SERVER_SPAN_BASE);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let rec = TraceRecorder::new();
        rec.record_span(Track::Link(3), "hop", 10, 5, 2, 1, vec![]);
        rec.record_span(Track::Rank(0), "send", 20, 5, 1, 0, vec![("bytes", 64)]);
        rec.record_span(Track::Rank(0), "send", 5, 5, 3, 0, vec![]);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].t_ns, 5, "rank track first, time-ordered");
        assert_eq!(snap[1].t_ns, 20);
        assert_eq!(snap[2].track, Track::Link(3));
        assert_eq!(rec.snapshot(), snap, "snapshot is reproducible");
    }

    #[test]
    fn engine_blocks_equal_their_expanded_spans() {
        // Small ranges on purpose: hops, annotations and flows collide on
        // (track, t, id, name), so a wrong expansion order shows.
        hfast_par::forall("engine_blocks_equal_expanded_spans", 64, |rng| {
            let (lane, plain) = (TraceRecorder::new(), TraceRecorder::new());
            let ordinary = |rng: &mut hfast_par::Rng64| SpanRecord {
                track: [Track::Link(rng.range(0, 3)), Track::Engine][rng.range(0, 2)],
                name: ["hop", "flow", "stall", "flow_kill"][rng.range(0, 4)],
                t_ns: rng.range_u64(0, 4),
                dur_ns: rng.range_u64(0, 3),
                span_id: [0, engine_span_id(rng.range_u64(1, 4))][rng.range(0, 2)],
                parent_id: rng.range_u64(0, 3),
                fields: vec![("x", rng.range_u64(0, 9))],
            };
            for _ in 0..rng.range(0, 4) {
                for _ in 0..rng.range(0, 4) {
                    let span = ordinary(rng);
                    lane.record(span.clone());
                    plain.record(span);
                }
                let hops: Vec<HopRow> = (0..rng.range(0, 12))
                    .map(|_| HopRow {
                        link: rng.range(0, 3) as u32,
                        flow: rng.range(0, 3) as u32,
                        wait: rng.range_u64(0, 5),
                        start: rng.range_u64(0, 4),
                        ser: rng.range_u64(0, 3),
                    })
                    .collect();
                let flows: Vec<FlowRow> = (0..rng.range(0, 4))
                    .map(|_| FlowRow {
                        flow: rng.range(0, 3) as u32,
                        src: rng.range(0, 8) as u32,
                        dst: rng.range(0, 8) as u32,
                        retries: rng.range(0, 3) as u32,
                        bytes: rng.range_u64(1, 1 << 20),
                        start: rng.range_u64(0, 4),
                        dur: rng.range_u64(0, 3),
                        end: [FlowEnd::Delivered, FlowEnd::Abandoned, FlowEnd::Unrouted]
                            [rng.range(0, 3)],
                    })
                    .collect();
                for &r in &hops {
                    plain.record(r.into());
                }
                for &r in &flows {
                    plain.record(r.into());
                }
                lane.record_engine_block(hops, flows);
                assert_eq!(lane.len(), plain.len());
            }
            let span = ordinary(rng);
            lane.record(span.clone());
            plain.record(span);
            assert_eq!(lane.len(), plain.len());
            assert_eq!(lane.snapshot(), plain.snapshot());
        });
    }

    #[test]
    fn rows_expand_to_the_spans_the_engine_recorded() {
        let hop = SpanRecord::from(HopRow {
            link: 3,
            flow: 7,
            wait: 11,
            start: 100,
            ser: 50,
        });
        assert_eq!(hop.track, Track::Link(3));
        assert_eq!((hop.name, hop.t_ns, hop.dur_ns), ("hop", 100, 50));
        assert_eq!((hop.span_id, hop.parent_id), (0, engine_span_id(8)));
        assert_eq!(hop.fields, vec![("wait", 11), ("flow", 7)]);
        let row = FlowRow {
            flow: 7,
            src: 1,
            dst: 2,
            retries: 4,
            bytes: 4096,
            start: 90,
            dur: 0,
            end: FlowEnd::Abandoned,
        };
        let flow = SpanRecord::from(row);
        assert_eq!(flow.track, Track::Engine);
        assert_eq!(
            (flow.name, flow.t_ns, flow.dur_ns),
            ("flow_abandoned", 90, 0)
        );
        assert_eq!((flow.span_id, flow.parent_id), (engine_span_id(8), 0));
        assert_eq!(
            flow.fields,
            vec![("src", 1), ("dst", 2), ("bytes", 4096), ("retries", 4)]
        );
        let named = |end| SpanRecord::from(FlowRow { end, ..row }).name;
        assert_eq!(named(FlowEnd::Delivered), "flow");
        assert_eq!(named(FlowEnd::Unrouted), "flow_unrouted");
    }
}
