//! Collective operations, built from point-to-point transport.
//!
//! Each collective is implemented with a standard algorithm (binomial trees,
//! dissemination, a linear gather) over the transport layer, and emits exactly
//! one API-scope [`CommEvent`](crate::CommEvent) per participating rank — the
//! same view IPM gets of a real MPI collective. The transport messages the
//! algorithms generate are emitted as `Transport`-scope events so a network
//! simulator can replay the actual flows.
//!
//! `barrier`, `bcast` and `allreduce` run over the whole world; `bcast_in`
//! and `gather_in` take a [`Group`](crate::Group). Collectives on the same
//! group must be invoked in the same order by all members (the usual MPI
//! requirement).
//!
//! ## Tag discipline
//!
//! Transport messages use tags in the reserved namespace encoding the
//! operation and its internal round: because the runtime's channels preserve
//! per-pair FIFO order and matching is non-overtaking, consecutive
//! same-operation collectives between the same pair match in order without a
//! global sequence number.

mod allreduce;
mod barrier;
mod bcast;
mod gather;
mod reduce;

use crate::Tag;

/// Operation identifiers for transport tag construction. The discriminants
/// are part of every transport tag, so they stay fixed.
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
pub(crate) enum OpId {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Gather = 4,
}

/// Builds a reserved-namespace tag for a collective's internal round.
#[inline]
pub(crate) fn coll_tag(op: OpId, round: u32) -> Tag {
    debug_assert!(round <= 0xFFFF, "collective round overflows tag space");
    Tag(Tag::COLLECTIVE_BASE | ((op as u32) << 16) | (round & 0xFFFF))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_tags_are_reserved_and_distinct() {
        let t1 = coll_tag(OpId::Bcast, 0);
        let t2 = coll_tag(OpId::Bcast, 1);
        let t3 = coll_tag(OpId::Reduce, 0);
        assert!(t1.is_collective());
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        assert_ne!(t2, t3);
    }
}
