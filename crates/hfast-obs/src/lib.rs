//! # hfast-obs — the measurement layer beneath the measurement-driven design
//!
//! The paper's premise is that interconnects should be provisioned from
//! *measured* communication behaviour (IPM profiles feeding the HFAST
//! provisioner, §2–3). This crate applies the same discipline to our own
//! runtime, simulator and daemon: cheap always-compiled fixed-footprint
//! primitives — [`Counter`], [`Gauge`], log-bucketed [`Histogram`]s and a
//! [`SlidingWindow`] — plus one shared JSON Lines emission path
//! ([`ToJsonl`] / [`emit`]). Event streams (spans, instants, per-link
//! occupancy) are `hfast-trace`'s `TraceRecorder`, not this crate's.
//!
//! ## The `HFAST_OBS` switch
//!
//! Collection is off by default. [`enabled`] reads `HFAST_OBS` once and
//! caches the answer in an atomic, so the disabled path at an
//! instrumentation site is a single relaxed load and a branch:
//!
//! | `HFAST_OBS`            | behaviour                                   |
//! |------------------------|---------------------------------------------|
//! | unset, empty, `0`      | disabled (no collection, no output)         |
//! | `1`, `true`, `stderr`  | enabled; export goes to stderr              |
//! | anything else          | enabled; treated as a path, JSONL appended  |
//!
//! Exported records never touch stdout, so experiment output stays
//! byte-identical with observability on or off (the determinism contract
//! the benches assert across `HFAST_THREADS` settings).
//!
//! ## Determinism
//!
//! Counters and histograms are deterministic for a deterministic workload:
//! they are order-free, so what they read after a run does not depend on
//! how its events interleaved across threads.
//!
//! ```
//! use hfast_obs::{Counter, Histogram, JsonObj};
//!
//! let sends = Counter::new();
//! sends.inc();
//! let sizes = Histogram::new();
//! sizes.record(4096);
//! let line = JsonObj::new()
//!     .str("event", "summary")
//!     .u64("sends", sends.get())
//!     .u64("size_p50", sizes.quantile_bound(0.5))
//!     .finish();
//! assert_eq!(line, r#"{"event":"summary","sends":1,"size_p50":8191}"#);
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod counter;
mod hist;
mod json;
mod serve;
mod sink;
mod window;

pub use counter::{Counter, Gauge};
pub use hist::{bucket_bound, bucket_index, Histogram, BUCKETS};
pub use json::{escape_into, JsonObj, ToJsonl};
pub use serve::ServeObs;
pub use sink::{emit, emit_lines};
pub use window::{LaneStats, Outcome, SlidingWindow, WindowSnapshot};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet probed, 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True if observability collection is switched on via `HFAST_OBS`.
///
/// The environment is consulted once per process; afterwards this is a
/// relaxed atomic load, cheap enough for per-event call sites.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = switch_is_on(std::env::var("HFAST_OBS").ok().as_deref());
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Pure parser behind [`enabled`]: is this `HFAST_OBS` value "on"?
pub(crate) fn switch_is_on(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
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
        assert!(switch_is_on(Some("/tmp/obs.jsonl")));
    }

    #[test]
    fn enabled_is_stable_across_calls() {
        // Whatever the environment says, the cached answer never flips.
        let first = enabled();
        for _ in 0..100 {
            assert_eq!(enabled(), first);
        }
    }
}
