//! # hfast-bench — the paper's tables, figures and extension experiments
//!
//! One `paper` binary prints every table, figure and extension experiment
//! of the paper by section name (see DESIGN.md's experiment index), the
//! measured reproduction next to the paper's published values where the
//! paper gives numbers. Those values live once, in the claims ledger
//! ([`CLAIMS`]): `paper experiments` prints a PASS/MISS verdict per
//! row and the tier-1 test `tests/paper_table3.rs` asserts every row.
//! Beside it sit the [`cell()`] every traffic replay is built from and
//! five extension experiments, each a `paper` section and a tier-1 test
//! that call the same check: [`goodput_grid`] (`tests/fault_replay.rs`),
//! [`lab`], [`hotspots()`], [`bakeoff`] and [`capture()`]
//! (`tests/trace_capture.rs`).
//! Performance is measured by the standalone `benchmark/` package.
//!
//! Run the full reproduction with its ledger verdicts:
//!
//! ```text
//! cargo run --release -p hfast-bench --bin paper -- experiments
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod bakeoff;
mod capture;
mod cell;
mod congestion;
mod faults;
mod figures;
mod hotspots;
mod measure;
mod paper;
mod render;

pub use bakeoff::{bakeoff, AppBakeoff, StrategyRow};
pub use capture::{capture, Capture, PROCS as CAPTURE_PROCS};
pub use cell::{cell, Cell, PROCS};
pub use congestion::{lab, CellMetrics, Lab, ScenarioRow, LAB_CREDITS, LAB_NODES, LAB_SEED};
pub use faults::{goodput_grid, GoodputCell, GoodputRow, RATES};
pub use figures::app_figure;
pub use hotspots::{hotspots, AppHotspots, Ranking};
pub use measure::{measure_app, AppRow};
pub use paper::{
    check_claims, measure_grid, published, table3_markdown, Check, Claim, Quantity, Stat, Value,
    Verdict, ALL_CODES, CLAIMS,
};
pub use render::{cdf_line, table3_header, table3_rows};
