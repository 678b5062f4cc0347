//! # hfast-topology — communication-topology analysis
//!
//! Data structures and algorithms for the paper's §4 analysis: undirected
//! weighted communication graphs built from profiled message exchanges, the
//! topological degree of communication (TDC) with and without the
//! bandwidth-delay-product message-size cutoff, cumulative buffer-size
//! distributions, volume-matrix rendering, and detectors for regular
//! topologies (the paper's case-i test: "is the communication graph
//! isomorphic to a mesh?").
//!
//! Everything here is self-contained — the graph structures are implemented
//! from scratch: [`CommGraph`] stores sparse per-task rows sorted by peer
//! (O(P·TDC), the only store), and [`CsrGraph`] freezes one thresholded
//! slice of it for code that re-reads the same adjacency many times.

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod bisection;
mod csr;
mod embedding;
mod fnv;
pub mod generators;
mod graph;
mod histogram;
mod matrix;
mod tdc;

pub use bisection::{bisection_bytes, fcn_utilization};
pub use csr::CsrGraph;
pub use embedding::{detect_structure, StructureClass};
pub use fnv::{Fnv, FNV1A, FNV_OFFSET};
pub use graph::{CommGraph, EdgeStat};
pub use histogram::BufferHistogram;
pub use matrix::render_ascii;
pub use tdc::{tdc, tdc_sweep, tdc_sweep_csr, TdcSummary, BDP_CUTOFF, PAPER_CUTOFFS};
