//! # hfast-par — deterministic parallelism utilities
//!
//! The analysis pipeline behind the paper's tables and figures is a sweep:
//! applications × study sizes × message-size cutoffs, every cell independent
//! of the rest. This crate supplies the parallel substrate that lets the
//! harness fan those cells out across cores while keeping every output
//! **bit-identical** to the sequential run:
//!
//! * `par` — [`par_map`]/[`par_map_with`] built on [`std::thread::scope`]
//!   (zero dependencies). Results are returned in input order, so callers
//!   that print or reduce them observe exactly the sequential order no
//!   matter how the OS schedules the workers. The worker count honours the
//!   `HFAST_THREADS` environment variable (an unparseable value means 1)
//!   and, when it is unset, falls back to the machine's available
//!   parallelism; `HFAST_THREADS=1` is a true sequential path (no threads
//!   spawned at all).
//! * `rng` — a small, seeded PRNG ([`Rng64`],
//!   SplitMix64) used by the synthetic workload generator and the property
//!   tests. Deterministic across platforms and runs.
//! * `check` — a minimal property-test harness ([`forall`]):
//!   seeded random cases, failure reporting with the case index and seed so
//!   a red run can be replayed exactly.

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod check;
mod par;
mod rng;

pub use check::forall;
pub use par::{par_map, par_map_with};
pub use rng::Rng64;
