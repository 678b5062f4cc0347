//! Barrier synchronization via the dissemination algorithm.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::Result;

impl Comm {
    /// Barrier over the whole world (`MPI_Barrier`).
    pub fn barrier(&mut self) -> Result<()> {
        let group = Group::world(self.size());
        self.barrier_in(&group)
    }

    /// Barrier over a group.
    ///
    /// Dissemination algorithm: ⌈log₂ n⌉ rounds; in round *k* each member
    /// signals the member 2ᵏ ahead and waits for the member 2ᵏ behind. No
    /// member exits before every member has entered.
    pub(crate) fn barrier_in(&mut self, group: &Group) -> Result<()> {
        let t0 = self.now_ns();
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let mut k = 0u32;
        while (1usize << k) < n {
            let dist = 1usize << k;
            let to = group.rank_at((me + dist) % n)?;
            let from = group.rank_at((me + n - dist) % n)?;
            let tag = coll_tag(OpId::Barrier, k);
            self.send_transport(to, tag, Payload::synthetic(0))?;
            self.recv_transport(SrcSel::Rank(from), TagSel::Tag(tag))?;
            k += 1;
        }
        self.emit(CallKind::Barrier, Scope::Api, None, 0, None, t0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Group, World};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes_all_ranks() {
        // Counter must reach `size` before any rank passes the barrier.
        let entered = AtomicUsize::new(0);
        World::run(8, |comm| {
            entered.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(entered.load(Ordering::SeqCst), 8);
        })
        .unwrap();
    }

    #[test]
    fn repeated_barriers() {
        World::run(5, |comm| {
            for _ in 0..20 {
                comm.barrier().unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn subgroup_barrier() {
        let seen = AtomicUsize::new(0);
        World::run(6, |comm| {
            if comm.rank() % 2 == 0 {
                let group = Group::new(vec![0, 2, 4]).unwrap();
                seen.fetch_add(1, Ordering::SeqCst);
                comm.barrier_in(&group).unwrap();
                assert!(seen.load(Ordering::SeqCst) >= 3);
            }
        })
        .unwrap();
    }

    #[test]
    fn single_member_barrier_is_noop() {
        World::run(3, |comm| {
            let group = Group::new(vec![comm.rank()]).unwrap();
            comm.barrier_in(&group).unwrap();
        })
        .unwrap();
    }
}
