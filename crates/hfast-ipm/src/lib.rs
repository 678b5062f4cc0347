//! # hfast-ipm — IPM-style communication profiling
//!
//! A reimplementation of the profiling methodology of the paper's §3.1: the
//! Integrated Performance Monitoring (IPM) layer, which interposes on the
//! MPI API boundary (the PMPI name-shifted interface) and accumulates call
//! statistics in a bounded-footprint hash table keyed on each call's unique
//! argument signature — call type, buffer size, partner — plus named code
//! regions so steady-state behaviour can be separated from initialization.
//!
//! [`IpmProfiler`] implements [`hfast_mpi::CommHook`]; install it on a
//! [`World`](hfast_mpi::World) and extract a [`CommProfile`] after the run:
//!
//! ```
//! use std::sync::Arc;
//! use hfast_ipm::IpmProfiler;
//! use hfast_mpi::{World, WorldConfig, Payload, Tag, CommHook};
//!
//! let profiler = Arc::new(IpmProfiler::new(2));
//! World::run_with(
//!     WorldConfig::new(2).hook(profiler.clone() as Arc<dyn CommHook>),
//!     |comm| {
//!         if comm.rank() == 0 {
//!             comm.send(1, Tag(1), Payload::synthetic(4096)).unwrap();
//!         } else {
//!             comm.recv(0, Tag(1)).unwrap();
//!         }
//!     },
//! )
//! .unwrap();
//! let profile = profiler.profile();
//! assert_eq!(profile.total_calls(), 2);
//! let graph = profile.comm_graph();
//! assert_eq!(graph.edge(0, 1).bytes, 4096);
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod hashtable;
mod profile;
mod report;
mod trace;
mod windows;
mod workload;

pub use hashtable::{CallKey, CallStats, CallTable};
pub use profile::{CommProfile, IpmProfiler, ProfileEntry};
pub use report::{format_bytes, render};
pub use trace::{from_text, to_text, TraceError, MAX_PROFILE_SIZE};
pub use windows::WindowedTdcHook;
pub use workload::WorkloadStudy;
