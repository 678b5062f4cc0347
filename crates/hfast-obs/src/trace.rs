//! Bounded ring-buffer span/event tracing.
//!
//! A [`Tracer`] holds the most recent `capacity` events (older ones are
//! dropped and counted, so memory stays bounded on arbitrarily long runs).
//! Timestamps are nanoseconds on a monotonic clock whose epoch is the
//! tracer's creation — or, for subsystems with a logical clock (simulated
//! time, synchronization-point indices), whatever the caller passes to
//! [`Tracer::record_at`], which makes those timelines fully deterministic.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{JsonObj, ToJsonl};

/// A trace field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float.
    F(f64),
    /// String.
    S(String),
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::U(v)
    }
}

impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::U(v as u64)
    }
}

impl From<i64> for Val {
    fn from(v: i64) -> Self {
        Val::I(v)
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::F(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::S(v.to_string())
    }
}

/// One recorded event (instant if `dur_ns == 0`, a span otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Start timestamp, nanoseconds since the tracer's epoch (or the
    /// caller's logical clock).
    pub t_ns: u64,
    /// Duration; 0 for instant events.
    pub dur_ns: u64,
    /// Event name.
    pub name: &'static str,
    /// Event-specific fields.
    pub fields: Vec<(&'static str, Val)>,
}

impl ToJsonl for TraceEvent {
    fn to_jsonl(&self) -> String {
        let mut obj = JsonObj::new()
            .str("event", self.name)
            .u64("t_ns", self.t_ns);
        if self.dur_ns > 0 {
            obj = obj.u64("dur_ns", self.dur_ns);
        }
        for (k, v) in &self.fields {
            obj = match v {
                Val::U(u) => obj.u64(k, *u),
                Val::I(i) => obj.i64(k, *i),
                Val::F(f) => obj.f64(k, *f),
                Val::S(s) => obj.str(k, s),
            };
        }
        obj.finish()
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded, thread-safe event/span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// Default event capacity (overridable via `HFAST_OBS_RING`).
pub const DEFAULT_CAPACITY: usize = 4096;

/// The default ring capacity: [`DEFAULT_CAPACITY`] unless the
/// `HFAST_OBS_RING` environment variable holds a positive integer. Probed
/// once per process.
pub fn default_capacity() -> usize {
    static CAPACITY: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAPACITY.get_or_init(|| {
        parse_ring_override(std::env::var("HFAST_OBS_RING").ok().as_deref())
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

/// Pure parser behind [`default_capacity`]: the override, if valid.
pub fn parse_ring_override(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(default_capacity())
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Nanoseconds since the tracer's epoch (monotonic).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an event at an explicit (logical) timestamp — the
    /// deterministic entry point for subsystems with their own clock.
    pub fn record_at(
        &self,
        t_ns: u64,
        dur_ns: u64,
        name: &'static str,
        fields: Vec<(&'static str, Val)>,
    ) {
        self.push(TraceEvent {
            t_ns,
            dur_ns,
            name,
            fields,
        });
    }

    /// Records an instant event stamped with the monotonic clock.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, Val)>) {
        self.record_at(self.now_ns(), 0, name, fields);
    }

    /// Opens a span; the span records itself (with its wall duration) when
    /// dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            tracer: self,
            name,
            t0: self.now_ns(),
            fields: Vec::new(),
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().expect("tracer poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Appends `n` events under one lock, leaving the ring and
    /// [`dropped`](Tracer::dropped) exactly as `n` single
    /// [`record_at`](Tracer::record_at) calls would. `event(i)` builds the
    /// `i`-th of them and is only asked for the ones the ring can still
    /// hold afterwards — the last `capacity` at most — so a writer that
    /// batched a million events pays for the retained tail, not for a
    /// million evictions.
    pub fn record_batch(&self, n: u64, event: impl FnMut(u64) -> TraceEvent) {
        let keep = n.min(self.capacity as u64);
        let mut ring = self.ring.lock().expect("tracer poisoned");
        // Of what is already there, whatever does not fit beside the new
        // tail goes first; of the batch, everything before that tail was
        // pushed and evicted again.
        let stay = ring.events.len().min(self.capacity - keep as usize);
        let evicted = ring.events.len() - stay;
        ring.events.drain(..evicted);
        ring.dropped += evicted as u64 + (n - keep);
        ring.events.extend((n - keep..n).map(event));
    }

    /// The most events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer poisoned").events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("tracer poisoned").dropped
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("tracer poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the retained events as JSON Lines.
    ///
    /// When the ring evicted anything, a final `trace_truncated` record
    /// reports how many events were dropped and the retaining capacity —
    /// otherwise a full-looking export would silently hide the truncation.
    pub fn jsonl_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.snapshot().iter().map(ToJsonl::to_jsonl).collect();
        let dropped = self.dropped();
        if dropped > 0 {
            lines.push(
                JsonObj::new()
                    .str("event", "trace_truncated")
                    .u64("dropped", dropped)
                    .usize("capacity", self.capacity)
                    .finish(),
            );
        }
        lines
    }
}

impl Clone for Tracer {
    /// Cloning snapshots the retained events (epoch and capacity carry
    /// over).
    fn clone(&self) -> Self {
        let ring = self.ring.lock().expect("tracer poisoned");
        Tracer {
            epoch: self.epoch,
            capacity: self.capacity,
            ring: Mutex::new(Ring {
                events: ring.events.clone(),
                dropped: ring.dropped,
            }),
        }
    }
}

/// An open span; records a [`TraceEvent`] with its duration on drop.
#[must_use = "a span records only when dropped"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    t0: u64,
    fields: Vec<(&'static str, Val)>,
}

impl Span<'_> {
    /// Attaches a field to the span's eventual event.
    pub fn field(&mut self, k: &'static str, v: impl Into<Val>) {
        self.fields.push((k, v.into()));
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let dur = self.tracer.now_ns().saturating_sub(self.t0).max(1);
        self.tracer
            .record_at(self.t0, dur, self.name, std::mem::take(&mut self.fields));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_at_logical_times() {
        let t = Tracer::new(16);
        t.record_at(5, 0, "a", vec![("x", Val::U(1))]);
        t.record_at(9, 2, "b", vec![]);
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[0].t_ns, 5);
        assert_eq!(evs[1].dur_ns, 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::new(3);
        for i in 0..10u64 {
            t.record_at(i, 0, "tick", vec![]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let ts: Vec<u64> = t.snapshot().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![7, 8, 9], "newest survive");
        let lines = t.jsonl_lines();
        assert_eq!(lines.len(), 4, "3 events + 1 truncation record");
        assert_eq!(
            lines[3],
            r#"{"event":"trace_truncated","dropped":7,"capacity":3}"#
        );
    }

    #[test]
    fn batch_append_equals_single_pushes() {
        let ev = |t: u64| TraceEvent {
            t_ns: t,
            dur_ns: 1,
            name: "tick",
            fields: vec![("i", Val::U(t))],
        };
        for capacity in 1..=6usize {
            for existing in 0..=6u64 {
                for n in 0..=6u64 {
                    let (batched, single) = (Tracer::new(capacity), Tracer::new(capacity));
                    for t in [&batched, &single] {
                        (0..existing).for_each(|i| t.record_at(i, 1, "tick", ev(i).fields));
                    }
                    let mut built = 0;
                    batched.record_batch(n, |i| {
                        built += 1;
                        ev(existing + i)
                    });
                    (0..n).for_each(|i| {
                        single.record_at(existing + i, 1, "tick", ev(existing + i).fields)
                    });
                    let case = format!("capacity={capacity} existing={existing} n={n}");
                    assert_eq!(batched.snapshot(), single.snapshot(), "{case}");
                    assert_eq!(batched.dropped(), single.dropped(), "{case}");
                    assert_eq!(
                        built,
                        n.min(capacity as u64),
                        "only the tail is built: {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn untruncated_export_has_no_truncation_record() {
        let t = Tracer::new(8);
        t.record_at(1, 0, "a", vec![]);
        assert_eq!(t.jsonl_lines().len(), 1);
    }

    #[test]
    fn ring_override_parsing() {
        assert_eq!(parse_ring_override(None), None);
        assert_eq!(parse_ring_override(Some("")), None);
        assert_eq!(parse_ring_override(Some("0")), None);
        assert_eq!(parse_ring_override(Some("nope")), None);
        assert_eq!(parse_ring_override(Some(" 128 ")), Some(128));
        // Whatever the environment says, the probed value is stable and
        // positive.
        let cap = default_capacity();
        assert!(cap > 0);
        assert_eq!(default_capacity(), cap);
    }

    #[test]
    fn span_records_duration_and_fields() {
        let t = Tracer::new(8);
        {
            let mut s = t.span("work");
            s.field("items", 42u64);
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "work");
        assert!(evs[0].dur_ns >= 1);
        assert_eq!(evs[0].fields, vec![("items", Val::U(42))]);
    }

    #[test]
    fn jsonl_rendering() {
        let t = Tracer::new(4);
        t.record_at(
            100,
            7,
            "link_busy",
            vec![("link", Val::U(3)), ("frac", Val::F(0.25))],
        );
        let lines = t.jsonl_lines();
        assert_eq!(
            lines[0],
            r#"{"event":"link_busy","t_ns":100,"dur_ns":7,"link":3,"frac":0.25}"#
        );
    }

    #[test]
    fn clone_snapshots() {
        let t = Tracer::new(4);
        t.record_at(1, 0, "a", vec![]);
        let c = t.clone();
        t.record_at(2, 0, "b", vec![]);
        assert_eq!(c.len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn monotonic_clock_advances() {
        let t = Tracer::new(2);
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
