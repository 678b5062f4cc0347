//! # hfast — Hybrid Flexibly Assignable Switch Topology
//!
//! Facade crate for the HFAST reproduction (Shalf, Kamil, Oliker, Skinner,
//! SC|05): re-exports the whole workspace under one roof so the examples and
//! downstream users can depend on a single crate.
//!
//! * [`mpi`] — threaded message-passing runtime with an MPI-like API.
//! * [`ipm`] — IPM-style low-overhead communication profiling layer.
//! * [`apps`] — communication kernels of the six studied applications.
//! * [`topology`] — communication graphs, TDC analysis, thresholding.
//! * [`core`] — the HFAST architecture: switches, provisioning, cost models.
//! * [`netsim`] — discrete-event simulator for fat-tree/torus/HFAST fabrics.
//! * [`obs`] — zero-dependency observability: counters, histograms,
//!   windows, and the one parser and writer of the `HFAST_OBS` and
//!   `HFAST_TRACE` switches (`HFAST_OBS` exports the daemon's drain
//!   summary).
//! * [`trace`] — causal span tracing across ranks and fabric links, Perfetto
//!   export, and congestion analysis behind the `HFAST_TRACE` switch.

#![warn(missing_docs, unreachable_pub, unnameable_types)]

pub use hfast_apps as apps;
pub use hfast_core as core;
pub use hfast_ipm as ipm;
pub use hfast_mpi as mpi;
pub use hfast_netsim as netsim;
pub use hfast_obs as obs;
pub use hfast_topology as topology;
pub use hfast_trace as trace;
