//! # hfast-bench — the paper's tables and figures
//!
//! One `paper` binary prints every table, figure and extension experiment
//! of the paper by section name (see DESIGN.md's experiment index), the
//! measured reproduction next to the paper's published values where the
//! paper gives numbers. Those values live once, in the claims ledger
//! ([`paper::CLAIMS`]): `paper experiments` prints a PASS/MISS verdict per
//! row and the tier-1 test `tests/paper_table3.rs` asserts every row. Beside it
//! sit the serving load generator ([`loadgen`]), the [`cell`] every
//! traffic replay is built from, and four experiments, each printed by a
//! bin and asserted by a tier-1 test: [`faults`] (`tests/fault_replay.rs`),
//! [`congestion`], [`hotspots`] and [`capture`] (`tests/trace_capture.rs`).
//! Performance is measured by the standalone `benchmark/` package.
//!
//! Run the full reproduction with its ledger verdicts:
//!
//! ```text
//! cargo run --release -p hfast-bench --bin paper -- experiments
//! ```

#![warn(missing_docs)]

pub mod capture;
pub mod cell;
pub mod congestion;
pub mod faults;
pub mod figures;
pub mod hotspots;
pub mod loadgen;
pub mod measure;
pub mod paper;
pub mod render;

pub use loadgen::{LoadConfig, LoadReport};
pub use measure::{measure_app, measure_cells, AppRow};
