//! # hfast-bench — the experiment harness
//!
//! One binary per table and figure of the paper (see DESIGN.md's experiment
//! index), plus micro-benchmarks of the library itself (a dependency-free
//! harness, see [`harness`]). Each binary prints the measured reproduction
//! next to the paper's published values where the paper gives numbers.
//!
//! Run the full reproduction with:
//!
//! ```text
//! cargo run --release -p hfast-bench --bin experiments
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod loadgen;
pub mod measure;
pub mod paper;
pub mod render;

pub use harness::Harness;
pub use loadgen::{LoadConfig, LoadReport};
pub use measure::{measure_app, measure_cells, AppRow};
pub use paper::PAPER_TABLE3;
