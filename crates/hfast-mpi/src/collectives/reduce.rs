//! All-to-one reduction via a binomial tree: the first half of
//! [`allreduce`](crate::Comm::allreduce).

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::message::{Payload, ReduceOp};
use crate::Result;

impl Comm {
    /// Reduces every member's payload to the group's first member, without
    /// an API event: `allreduce` counts as one call.
    ///
    /// Binomial tree mirror of broadcast: at round *k*, members whose
    /// group index has bit *k* set send their partial result to the member
    /// with that bit cleared, which folds it in. Returns `Some(result)` on
    /// the first member, `None` elsewhere.
    pub(crate) fn reduce_impl(
        &mut self,
        group: &Group,
        payload: Payload,
        op: ReduceOp,
    ) -> Result<Option<Payload>> {
        let n = group.len();
        let me = group.index_of(self.rank())?;

        let mut acc = payload;
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < n {
            if me & mask == 0 {
                // Potential receiver from me | mask.
                let child_idx = me | mask;
                if child_idx < n {
                    let child = group.rank_at(child_idx)?;
                    let env = self.recv_transport(
                        SrcSel::Rank(child),
                        TagSel::Tag(coll_tag(OpId::Reduce, round)),
                    )?;
                    // A replay's stand-in is the identity: the partial
                    // keeps its own length.
                    if !env.is_stand_in() {
                        acc = op.combine(&acc, &env.payload)?;
                    }
                }
            } else {
                // Send the partial to the parent and leave the tree.
                let parent = group.rank_at(me & !mask)?;
                self.send_transport(parent, coll_tag(OpId::Reduce, round), acc)?;
                return Ok(None);
            }
            mask <<= 1;
            round += 1;
        }
        Ok(Some(acc))
    }
}

/// The reduction tree, driven through `allreduce`: the group's first member
/// is the tree's root.
#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::{MpiError, World, WorldConfig};

    #[test]
    fn sum_reduce_to_root0() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let results = World::run(size, |comm| {
                let payload = Payload::from_f64s(&[comm.rank() as f64, 1.0]);
                comm.allreduce(payload, ReduceOp::Sum).unwrap()
            })
            .unwrap();
            let expected_sum: f64 = (0..size).map(|r| r as f64).sum();
            for r in results {
                assert_eq!(r.to_f64s().unwrap(), vec![expected_sum, size as f64]);
            }
        }
    }

    #[test]
    fn max_reduce_to_nonzero_root() {
        let results = World::run(7, |comm| {
            let group = Group::new(vec![3, 0, 1, 2, 4, 5, 6]).unwrap();
            let payload = Payload::from_f64s(&[(comm.rank() as f64 * 7.0) % 5.0]);
            comm.allreduce_in(&group, payload, ReduceOp::Max).unwrap()
        })
        .unwrap();
        let expected = (0..7)
            .map(|r| (r as f64 * 7.0) % 5.0)
            .fold(f64::MIN, f64::max);
        for r in results {
            assert_eq!(r.to_f64s().unwrap(), vec![expected]);
        }
    }

    #[test]
    fn synthetic_reduce_preserves_size() {
        let results = World::run(6, |comm| {
            comm.allreduce(Payload::synthetic(256), ReduceOp::Sum)
                .unwrap()
        })
        .unwrap();
        assert_eq!(results, vec![Payload::Synthetic(256); 6]);
    }

    #[test]
    fn reduce_in_subgroup() {
        let results = World::run(8, |comm| {
            if comm.rank() >= 4 {
                let group = Group::new(vec![6, 4, 5, 7]).unwrap();
                let payload = Payload::from_f64s(&[comm.rank() as f64]);
                let out = comm.allreduce_in(&group, payload, ReduceOp::Sum);
                Some(out.unwrap().to_f64s().unwrap())
            } else {
                None
            }
        })
        .unwrap();
        for r in &results[4..] {
            assert_eq!(*r, Some(vec![4.0 + 5.0 + 6.0 + 7.0]));
        }
        assert!(results[..4].iter().all(Option::is_none));
    }

    #[test]
    fn mismatched_lengths_error() {
        // The root detects the mismatch and never broadcasts, so the other
        // rank's wait ends at the world's timeout.
        let results = World::run_with(
            WorldConfig::new(2).timeout(Duration::from_millis(200)),
            |comm| {
                let payload = Payload::synthetic(8 * (comm.rank() + 1));
                comm.allreduce(payload, ReduceOp::Sum)
            },
        )
        .unwrap();
        assert!(
            matches!(results[0], Err(MpiError::CollectiveMismatch(_))),
            "root detects mismatched reduce lengths"
        );
    }

    #[test]
    fn mismatched_lengths_error_replayed() {
        // No timeout to wait out: in pass two the root fails to combine
        // and stops short of the broadcast pass one logged for it, and the
        // replay names it at once.
        let t0 = std::time::Instant::now();
        let err = World::replay(WorldConfig::new(2), |comm| {
            let payload = Payload::synthetic(8 * (comm.rank() + 1));
            comm.allreduce(payload, ReduceOp::Sum)
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                MpiError::Diverged {
                    rank: 0,
                    send: 0,
                    ..
                }
            ),
            "{err}"
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
