//! Monotonic counters and last/max gauges on relaxed atomics.
//!
//! These are deliberately the cheapest primitives in the crate: a hot loop
//! (the simulator's event pump, a rank thread's send path) can carry one
//! `fetch_add` per event without measurable distortion, and the disabled
//! path skips even that (an instrumentation site branches on an `Option`
//! of its obs struct).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    /// Cloning snapshots the current value (so obs-bearing structs can
    /// stay `Clone`).
    fn clone(&self) -> Self {
        Counter {
            v: AtomicU64::new(self.get()),
        }
    }
}

/// A gauge holding the latest (or the largest) observed value.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub(crate) fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.v.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds one (for level gauges like in-flight request counts).
    #[inline]
    pub(crate) fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero even under racing decrements.
    #[inline]
    pub(crate) fn dec(&self) {
        // fetch_update loops only under contention; a level gauge is
        // touched twice per request, so this is never hot.
        let _ = self
            .v
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

impl Clone for Gauge {
    fn clone(&self) -> Self {
        Gauge {
            v: AtomicU64::new(self.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.clone().get(), 42);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(10);
        g.set_max(5);
        assert_eq!(g.get(), 10, "set_max never lowers");
        g.set_max(99);
        assert_eq!(g.get(), 99);
        g.set(1);
        assert_eq!(g.get(), 1, "set overwrites");
    }

    #[test]
    fn gauge_level_tracking() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0, "dec saturates at zero");
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
