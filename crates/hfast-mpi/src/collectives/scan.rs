//! Inclusive prefix reduction (`MPI_Scan`).

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::{Payload, ReduceOp};
use crate::Result;

impl Comm {
    /// Inclusive scan over the whole world: rank *i* receives the reduction
    /// of contributions from ranks `0..=i`.
    pub fn scan(&mut self, payload: Payload, op: ReduceOp) -> Result<Payload> {
        let group = Group::world(self.size());
        self.scan_in(&group, payload, op)
    }

    /// Inclusive scan over a group (by group order).
    ///
    /// Hillis-Steele doubling: ⌈log₂ n⌉ rounds; in round *k* each member
    /// sends its running prefix to the member 2ᵏ ahead and folds in the
    /// prefix received from 2ᵏ behind.
    pub fn scan_in(&mut self, group: &Group, payload: Payload, op: ReduceOp) -> Result<Payload> {
        let t0 = self.now_ns();
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let bytes = payload.len();

        let mut acc = payload;
        let mut k = 0u32;
        while (1usize << k) < n {
            let dist = 1usize << k;
            let tag = coll_tag(OpId::Scan, k);
            if me + dist < n {
                let to = group.rank_at(me + dist)?;
                self.send_transport(to, tag, acc.clone())?;
            }
            if me >= dist {
                let from = group.rank_at(me - dist)?;
                let env = self.recv_transport(SrcSel::Rank(from), TagSel::Tag(tag))?;
                // Prefix order: earlier ranks' contribution combines on the
                // left; all supported operators are associative.
                acc = op.combine(&env.payload, &acc)?;
            }
            k += 1;
        }

        self.emit(CallKind::Scan, Scope::Api, None, bytes, None, t0);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn inclusive_sum_scan() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let results = World::run(size, |comm| {
                let p = Payload::from_f64s(&[comm.rank() as f64 + 1.0]);
                comm.scan(p, ReduceOp::Sum).unwrap().to_f64s().unwrap()[0]
            })
            .unwrap();
            for (r, v) in results.iter().enumerate() {
                let expected: f64 = (0..=r).map(|x| x as f64 + 1.0).sum();
                assert_eq!(*v, expected, "rank {r} of {size}");
            }
        }
    }

    #[test]
    fn max_scan_is_running_maximum() {
        let results = World::run(7, |comm| {
            // Non-monotone inputs: 3, 1, 4, 1, 5, 9, 2.
            let vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
            let p = Payload::from_f64s(&[vals[comm.rank()]]);
            comm.scan(p, ReduceOp::Max).unwrap().to_f64s().unwrap()[0]
        })
        .unwrap();
        assert_eq!(results, vec![3.0, 3.0, 4.0, 4.0, 5.0, 9.0, 9.0]);
    }

    #[test]
    fn scan_in_subgroup_uses_group_order() {
        let results = World::run(6, |comm| {
            if comm.rank() % 2 == 0 {
                let group = Group::new(vec![4, 2, 0]).unwrap();
                let p = Payload::from_f64s(&[comm.rank() as f64]);
                Some(
                    comm.scan_in(&group, p, ReduceOp::Sum)
                        .unwrap()
                        .to_f64s()
                        .unwrap()[0],
                )
            } else {
                None
            }
        })
        .unwrap();
        // Group order [4, 2, 0]: prefixes 4, 6, 6.
        assert_eq!(results[4], Some(4.0));
        assert_eq!(results[2], Some(6.0));
        assert_eq!(results[0], Some(6.0));
    }

    #[test]
    fn synthetic_scan_preserves_size() {
        let results = World::run(5, |comm| {
            comm.scan(Payload::synthetic(128), ReduceOp::Sum)
                .unwrap()
                .len()
        })
        .unwrap();
        assert_eq!(results, vec![128; 5]);
    }
}
