//! All-to-one reduction via a binomial tree.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::{Payload, ReduceOp};
use crate::{Rank, Result};

impl Comm {
    /// Reduction over the whole world (`MPI_Reduce`).
    ///
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce(
        &mut self,
        root: Rank,
        payload: Payload,
        op: ReduceOp,
    ) -> Result<Option<Payload>> {
        let group = Group::world(self.size());
        self.reduce_in(&group, root, payload, op)
    }

    /// Reduction over a group to the member with world rank `root`.
    ///
    /// Binomial tree mirror of broadcast: at round *k*, members whose
    /// virtual rank has bit *k* set send their partial result to the member
    /// with that bit cleared, which folds it in.
    pub fn reduce_in(
        &mut self,
        group: &Group,
        root: Rank,
        payload: Payload,
        op: ReduceOp,
    ) -> Result<Option<Payload>> {
        let t0 = self.now_ns();
        let bytes = payload.len();
        let out = self.reduce_impl(group, root, payload, op)?;
        self.emit(CallKind::Reduce, Scope::Api, Some(root), bytes, None, t0);
        Ok(out)
    }

    /// Reduction algorithm without the API-event emission, for reuse inside
    /// composite collectives.
    pub(crate) fn reduce_impl(
        &mut self,
        group: &Group,
        root: Rank,
        payload: Payload,
        op: ReduceOp,
    ) -> Result<Option<Payload>> {
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let root_idx = group.index_of(root)?;
        let vrank = (me + n - root_idx) % n;

        let mut acc = payload;
        let mut mask = 1usize;
        let mut round = 0u32;
        let mut is_root_side = true;
        while mask < n {
            if vrank & mask == 0 {
                // Potential receiver from vrank | mask.
                let child_v = vrank | mask;
                if child_v < n {
                    let child = group.rank_at((child_v + root_idx) % n)?;
                    let env = self.recv_transport(
                        SrcSel::Rank(child),
                        TagSel::Tag(coll_tag(OpId::Reduce, round)),
                    )?;
                    acc = op.combine(&acc, &env.payload)?;
                }
            } else {
                // Send partial to parent and exit the combining phase.
                let parent_v = vrank & !mask;
                let parent = group.rank_at((parent_v + root_idx) % n)?;
                self.send_transport(parent, coll_tag(OpId::Reduce, round), acc.clone())?;
                is_root_side = false;
                break;
            }
            mask <<= 1;
            round += 1;
        }

        if vrank == 0 {
            debug_assert!(is_root_side);
            Ok(Some(acc))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn sum_reduce_to_root0() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let results = World::run(size, |comm| {
                let payload = Payload::from_f64s(&[comm.rank() as f64, 1.0]);
                comm.reduce(0, payload, ReduceOp::Sum).unwrap()
            })
            .unwrap();
            let expected_sum: f64 = (0..size).map(|r| r as f64).sum();
            let root = results[0].as_ref().unwrap().to_f64s().unwrap();
            assert_eq!(root, vec![expected_sum, size as f64]);
            for r in &results[1..] {
                assert!(r.is_none(), "non-root ranks get None");
            }
        }
    }

    #[test]
    fn max_reduce_to_nonzero_root() {
        let results = World::run(7, |comm| {
            let payload = Payload::from_f64s(&[(comm.rank() as f64 * 7.0) % 5.0]);
            comm.reduce(3, payload, ReduceOp::Max).unwrap()
        })
        .unwrap();
        let expected = (0..7)
            .map(|r| (r as f64 * 7.0) % 5.0)
            .fold(f64::MIN, f64::max);
        assert_eq!(
            results[3].as_ref().unwrap().to_f64s().unwrap(),
            vec![expected]
        );
        assert!(results[0].is_none());
    }

    #[test]
    fn synthetic_reduce_preserves_size() {
        let results = World::run(6, |comm| {
            comm.reduce(0, Payload::synthetic(256), ReduceOp::Sum)
                .unwrap()
        })
        .unwrap();
        assert_eq!(results[0], Some(Payload::Synthetic(256)));
    }

    #[test]
    fn reduce_in_subgroup() {
        let results = World::run(8, |comm| {
            if comm.rank() >= 4 {
                let group = Group::new(vec![4, 5, 6, 7]).unwrap();
                let payload = Payload::from_f64s(&[comm.rank() as f64]);
                comm.reduce_in(&group, 6, payload, ReduceOp::Sum).unwrap()
            } else {
                None
            }
        })
        .unwrap();
        assert_eq!(
            results[6].as_ref().unwrap().to_f64s().unwrap(),
            vec![4.0 + 5.0 + 6.0 + 7.0]
        );
        assert!(results[4].is_none() && results[5].is_none() && results[7].is_none());
    }

    #[test]
    fn mismatched_lengths_error() {
        let err = World::run(2, |comm| {
            let payload = if comm.rank() == 0 {
                Payload::synthetic(8)
            } else {
                Payload::synthetic(16)
            };
            comm.reduce(0, payload, ReduceOp::Sum)
        })
        .unwrap();
        assert!(err[0].is_err(), "root detects mismatched reduce lengths");
    }
}
