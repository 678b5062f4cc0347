//! # hfast-mpi — a message-passing runtime with an MPI-like API
//!
//! This crate is the *substrate* beneath the HFAST reproduction: a small,
//! self-contained message-passing runtime whose API is the subset of MPI the
//! six application kernels call, and no more: `send`, `recv`, `isend`,
//! `irecv` and `sendrecv`; `wait`, `waitall` and `waitany`; and the
//! collectives `barrier`, `bcast` (whole world or over a [`Group`]),
//! `gather_in` over a group and `allreduce`.
//!
//! A world runs on one of two executors behind the same [`Comm`]:
//!
//! * [`World::run`] / [`World::run_with`] run each rank as an OS thread;
//!   messages travel over unbounded mailbox channels, and calls take wall
//!   time. Tracing and the runtime's own concurrency tests use these.
//! * [`World::replay`] runs the ranks one after another, twice, against a
//!   log of every send, with no thread per rank and no clock. It is exact
//!   for rank programs whose sends depend neither on received bytes, nor
//!   on timing, nor on `ANY_SOURCE` outcomes, as the six kernels' do, and
//!   refuses any other with a typed error naming the rank. Profiling uses
//!   it, at any P.
//!
//! The runtime exposes a PMPI-style
//! observer boundary
//! ([`CommHook`]) that fires one [`CommEvent`] per API call, which is exactly
//! the interposition point the IPM profiling layer of the paper uses — the
//! `hfast-ipm` crate implements a profiler on top of it.
//!
//! ## Payloads
//!
//! Profiling a communication *topology* requires message sizes and partners,
//! not message contents. [`Payload`] therefore has two forms:
//!
//! * [`Payload::Synthetic`] — carries only a length. The six application
//!   kernels use this form so that multi-hundred-rank profiling runs cost
//!   almost nothing.
//! * [`Payload::Data`] — carries real bytes ([`Bytes`]); used by tests
//!   to verify that the runtime actually moves data correctly (collectives
//!   included).
//!
//! ## Quick example
//!
//! ```
//! use hfast_mpi::{World, Payload, Tag};
//!
//! let results = World::run(4, |comm| {
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     let req = comm.isend(right, Tag(7), Payload::synthetic(1024)).unwrap();
//!     let (status, _payload) = comm.recv(left, Tag(7)).unwrap();
//!     comm.wait(req).unwrap();
//!     status.source
//! })
//! .unwrap();
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod bytes;
mod chan;
mod collectives;
mod comm;
mod error;
mod group;
mod hook;
#[cfg(test)]
mod matching_oracle;
mod message;
mod replay;
mod request;
mod runtime;
mod trace;

pub use bytes::Bytes;
pub use comm::{Comm, SrcSel, Status, TagSel};
pub use error::{MpiError, Result};
pub use group::Group;
pub use hook::{CallKind, CommEvent, CommHook, MultiHook, Scope};
pub use message::{Payload, ReduceOp};
pub use request::{RecvHandle, Request};
pub use runtime::{World, WorldConfig};

/// Index of a process in a [`World`] (0-based, dense).
pub type Rank = usize;

/// A message tag. Application tags must leave the top bit clear; the runtime
/// reserves tags with the top bit set for collective transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// Tag namespace reserved for collective-internal transport messages.
    pub(crate) const COLLECTIVE_BASE: u32 = 0x8000_0000;

    /// Returns true if this tag lies in the reserved collective namespace.
    #[inline]
    pub(crate) fn is_collective(self) -> bool {
        self.0 & Self::COLLECTIVE_BASE != 0
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_collective_namespace() {
        assert!(!Tag(0).is_collective());
        assert!(!Tag(0x7fff_ffff).is_collective());
        assert!(Tag(Tag::COLLECTIVE_BASE).is_collective());
        assert!(Tag(Tag::COLLECTIVE_BASE | 42).is_collective());
    }
}
