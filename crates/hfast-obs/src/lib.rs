//! # hfast-obs — the measurement layer beneath the measurement-driven design
//!
//! The paper's premise is that interconnects should be provisioned from
//! *measured* communication behaviour (IPM profiles feeding the HFAST
//! provisioner, §2–3). This crate applies the same discipline to our own
//! runtime, simulator and daemon: cheap always-compiled fixed-footprint
//! primitives — [`Counter`], [`Gauge`], log-bucketed [`Histogram`]s and a
//! [`SlidingWindow`] — plus the [`JsonObj`] line builder and the one
//! telemetry [`Sink`]. Event streams (spans, instants, per-link
//! occupancy) are `hfast-trace`'s `TraceRecorder`, not this crate's.
//!
//! ## The `HFAST_OBS` and `HFAST_TRACE` switches
//!
//! Both are off by default and parse the same way, through [`sink`]:
//!
//! | value                  | behaviour                                   |
//! |------------------------|---------------------------------------------|
//! | unset, empty, `0`      | off (no output)                             |
//! | `1`, `true`, `stderr`  | on; output goes to stderr                   |
//! | anything else          | on; a file path (trimmed)                   |
//!
//! `HFAST_OBS` governs one export: the serving daemon's drain summary
//! ([`ServeObs::export`]), appended to the file as JSON Lines.
//! `HFAST_TRACE` is `hfast-trace`'s, whose document overwrites the file.
//! Each is read once per world or daemon, never per event. Output never
//! touches stdout, so experiment output stays byte-identical with
//! telemetry on or off (the determinism contract the benches assert
//! across `HFAST_THREADS` settings).
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
pub use json::{escape_into, JsonObj};
pub use serve::ServeObs;
pub use sink::{sink, Sink};
pub use window::{LaneStats, Outcome, SlidingWindow, WindowSnapshot};

#[cfg(test)]
mod tests {
    use super::sink::parse_sink;

    /// `HFAST_OBS` and `HFAST_TRACE` switch on and off through the one
    /// parser: unset, blank or `0` is off; anything else is on.
    #[test]
    fn switch_parsing() {
        let on = |value| parse_sink(value).is_some();
        assert!(!on(None));
        assert!(!on(Some("")));
        assert!(!on(Some("  ")));
        assert!(!on(Some("0")));
        assert!(on(Some("1")));
        assert!(on(Some("true")));
        assert!(on(Some("stderr")));
        assert!(on(Some("/tmp/obs.jsonl")));
        assert!(on(Some("/tmp/trace.json")));
    }
}
