//! Sliding-window time series: rolling SLO metrics in bounded memory.
//!
//! A lifetime [`Histogram`](crate::Histogram) answers "what has this
//! process ever seen"; an SLO monitor needs "what is it seeing *now*".
//! [`SlidingWindow`] is the standard fix: a ring of fixed-duration time
//! buckets, each holding per-lane (per-verb, for the daemon) log₂ latency
//! counts plus ok/busy/error tallies. Advancing the ring reclaims the
//! oldest bucket, so memory is `lanes × buckets × 65` words forever, and a
//! snapshot sums the live buckets into rolling p50/p95/p99, throughput,
//! and error/busy rates over the last `buckets × bucket_ns` nanoseconds.
//!
//! Time is an explicit `now_ns` argument (nanoseconds on any monotonic
//! clock, e.g. elapsed-since-daemon-start), never a hidden wall-clock
//! read — tests drive the ring deterministically, and the caller already
//! has the timestamp it measured the latency with.
//!
//! Recording takes a mutex rather than juggling atomics: the ring must
//! reset a bucket atomically with claiming its sequence number, and every
//! call site (one per served request) sits behind a TCP round-trip that
//! dwarfs an uncontended lock.

use std::sync::Mutex;

use crate::hist::{bucket_index, quantile_from_counts, BUCKETS};

/// How a request finished, for the window's rate lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully.
    Ok,
    /// Shed by admission control (the caller may retry).
    Busy,
    /// Structured error response.
    Error,
}

#[derive(Debug, Clone)]
struct LaneCell {
    count: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    hist: [u64; BUCKETS],
}

impl LaneCell {
    fn zeroed() -> Self {
        LaneCell {
            count: 0,
            ok: 0,
            busy: 0,
            errors: 0,
            hist: [0; BUCKETS],
        }
    }
}

#[derive(Debug)]
struct TimeBucket {
    /// Which ring turn this slot's contents belong to (`now_ns /
    /// bucket_ns`); a slot whose seq has fallen out of the live window is
    /// reset before reuse and ignored by snapshots.
    seq: u64,
    lanes: Vec<LaneCell>,
}

/// Rolling per-lane latency/outcome statistics over the last
/// `buckets × bucket_ns` nanoseconds.
#[derive(Debug)]
pub struct SlidingWindow {
    bucket_ns: u64,
    ring: Mutex<Vec<TimeBucket>>,
}

/// Rolling statistics for one lane, from [`SlidingWindow::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Observations in the window.
    pub count: u64,
    /// Successful responses.
    pub ok: u64,
    /// Busy (load-shed) responses.
    pub busy: u64,
    /// Error responses.
    pub errors: u64,
    /// Rolling interpolated p50 latency, nanoseconds.
    pub p50_ns: u64,
    /// Rolling interpolated p95 latency, nanoseconds.
    pub p95_ns: u64,
    /// Rolling interpolated p99 latency, nanoseconds.
    pub p99_ns: u64,
}

/// One snapshot of every lane plus the window geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Width of the window the stats cover, nanoseconds.
    pub window_ns: u64,
    /// Per-lane rolling stats, in constructor lane order.
    pub lanes: Vec<LaneStats>,
}

impl WindowSnapshot {}

impl SlidingWindow {
    /// A window of `buckets` ring slots of `bucket_ns` each, tracking
    /// `lanes` independent series. Panics on a zero dimension.
    pub fn new(lanes: usize, buckets: usize, bucket_ns: u64) -> Self {
        assert!(lanes > 0 && buckets > 0 && bucket_ns > 0);
        let ring = (0..buckets)
            .map(|_| TimeBucket {
                seq: u64::MAX, // never matches a real turn: starts empty
                lanes: vec![LaneCell::zeroed(); lanes],
            })
            .collect();
        SlidingWindow {
            bucket_ns,
            ring: Mutex::new(ring),
        }
    }

    /// Records one observation at monotonic time `now_ns` into `lane`.
    /// Lanes outside the constructor's range are ignored (serve-path
    /// safety, matching [`ServeObs::record_request`]).
    ///
    /// [`ServeObs::record_request`]: crate::ServeObs::record_request
    pub fn record(&self, now_ns: u64, lane: usize, latency_ns: u64, outcome: Outcome) {
        let turn = now_ns / self.bucket_ns;
        let mut ring = self.ring.lock().expect("window poisoned");
        let slots = ring.len() as u64;
        let slot = &mut ring[(turn % slots) as usize];
        if slot.seq != turn {
            if slot.seq != u64::MAX && slot.seq > turn {
                // A writer with a slightly older timestamp lost the race
                // to a newer turn; fold into the newer bucket rather than
                // resurrect the old one.
            } else {
                for cell in &mut slot.lanes {
                    *cell = LaneCell::zeroed();
                }
                slot.seq = turn;
            }
        }
        let Some(cell) = slot.lanes.get_mut(lane) else {
            return;
        };
        cell.count += 1;
        match outcome {
            Outcome::Ok => cell.ok += 1,
            Outcome::Busy => cell.busy += 1,
            Outcome::Error => cell.errors += 1,
        }
        cell.hist[bucket_index(latency_ns)] += 1;
    }

    /// Rolling stats at monotonic time `now_ns`: sums every ring slot
    /// whose turn is still inside the window ending at `now_ns` and
    /// interpolates quantiles from the summed log₂ counts.
    pub fn snapshot(&self, now_ns: u64) -> WindowSnapshot {
        let turn = now_ns / self.bucket_ns;
        let ring = self.ring.lock().expect("window poisoned");
        let slots = ring.len() as u64;
        let oldest_live = turn.saturating_sub(slots - 1);
        let lanes = ring[0].lanes.len();
        let mut sums: Vec<(LaneStats, [u64; BUCKETS])> =
            vec![(LaneStats::default(), [0; BUCKETS]); lanes];
        for slot in ring.iter() {
            if slot.seq == u64::MAX || slot.seq < oldest_live || slot.seq > turn {
                continue;
            }
            for (lane, cell) in slot.lanes.iter().enumerate() {
                let (stats, hist) = &mut sums[lane];
                stats.count += cell.count;
                stats.ok += cell.ok;
                stats.busy += cell.busy;
                stats.errors += cell.errors;
                for (acc, c) in hist.iter_mut().zip(cell.hist.iter()) {
                    *acc += c;
                }
            }
        }
        let lanes = sums
            .into_iter()
            .map(|(mut stats, hist)| {
                stats.p50_ns = quantile_from_counts(&hist, 0.50);
                stats.p95_ns = quantile_from_counts(&hist, 0.95);
                stats.p99_ns = quantile_from_counts(&hist, 0.99);
                stats
            })
            .collect();
        WindowSnapshot {
            window_ns: slots * self.bucket_ns,
            lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn rolls_old_buckets_out_of_the_window() {
        let w = SlidingWindow::new(1, 4, SEC);
        w.record(0, 0, 100, Outcome::Ok);
        w.record(SEC, 0, 200, Outcome::Ok);
        let snap = w.snapshot(SEC);
        assert_eq!(snap.lanes[0].count, 2);
        assert_eq!(snap.window_ns, 4 * SEC);
        // 5 s later the first two buckets have aged out.
        let snap = w.snapshot(5 * SEC);
        assert_eq!(snap.lanes[0].count, 0, "window fully rolled over");
        // Reusing a slot resets its stale contents first.
        w.record(5 * SEC, 0, 300, Outcome::Ok);
        assert_eq!(w.snapshot(5 * SEC).lanes[0].count, 1);
    }

    #[test]
    fn lanes_are_independent_and_outcomes_tallied() {
        let w = SlidingWindow::new(3, 8, SEC);
        w.record(0, 0, 10, Outcome::Ok);
        w.record(0, 1, 10, Outcome::Busy);
        w.record(0, 1, 10, Outcome::Error);
        w.record(0, 99, 10, Outcome::Ok); // out of range: ignored
        let snap = w.snapshot(0);
        assert_eq!(snap.lanes[0].ok, 1);
        assert_eq!(snap.lanes[1].busy, 1);
        assert_eq!(snap.lanes[1].errors, 1);
        assert_eq!(snap.lanes[2].count, 0);
        assert_eq!(snap.lanes[1].count, 2);
    }

    #[test]
    fn quantiles_match_the_lifetime_estimator_on_one_window() {
        let w = SlidingWindow::new(1, 16, SEC);
        let h = crate::Histogram::new();
        for v in 1..=1000u64 {
            w.record(0, 0, v, Outcome::Ok);
            h.record(v);
        }
        let snap = w.snapshot(0);
        assert_eq!(snap.lanes[0].p50_ns, h.quantile(0.50));
        assert_eq!(snap.lanes[0].p95_ns, h.quantile(0.95));
        assert_eq!(snap.lanes[0].p99_ns, h.quantile(0.99));
    }

    #[test]
    fn rolling_quantile_reflects_only_recent_traffic() {
        let w = SlidingWindow::new(1, 2, SEC);
        for _ in 0..100 {
            w.record(0, 0, 1 << 20, Outcome::Ok); // slow era
        }
        for _ in 0..100 {
            w.record(3 * SEC, 0, 16, Outcome::Ok); // fast era, 3 s later
        }
        let p99 = w.snapshot(3 * SEC).lanes[0].p99_ns;
        assert!(p99 < 1024, "slow era aged out, p99 {p99}");
    }

    #[test]
    fn memory_is_bounded_by_construction() {
        let w = SlidingWindow::new(2, 3, SEC);
        for t in 0..10_000u64 {
            w.record(t * SEC / 10, 0, t, Outcome::Ok);
        }
        // The ring never grows: a snapshot covers at most 3 buckets.
        let snap = w.snapshot(1_000 * SEC / 10);
        assert!(snap.lanes[0].count <= 3 * 10 + 10);
    }
}
