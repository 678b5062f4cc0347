//! One-to-all broadcast via a binomial tree.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::{MpiError, Rank, Result};

impl Comm {
    /// Broadcast over the whole world (`MPI_Bcast`).
    ///
    /// The root passes `Some(payload)`; every rank (root included) returns
    /// the broadcast payload.
    pub fn bcast(&mut self, root: Rank, payload: Option<Payload>) -> Result<Payload> {
        let group = Group::world(self.size());
        self.bcast_in(&group, root, payload)
    }

    /// Broadcast over a group from the member with world rank `root`.
    ///
    /// Binomial tree: ⌈log₂ n⌉ levels; the profiled cost per rank is one
    /// `MPI_Bcast` call of the payload size, matching IPM's API-level view.
    pub fn bcast_in(
        &mut self,
        group: &Group,
        root: Rank,
        payload: Option<Payload>,
    ) -> Result<Payload> {
        let t0 = self.now_ns();
        let data = self.bcast_impl(group, root, payload)?;
        let bytes = data.len();
        self.emit(CallKind::Bcast, Scope::Api, Some(root), bytes, None, t0);
        Ok(data)
    }

    /// Broadcast algorithm without the API-event emission, for reuse inside
    /// composite collectives (e.g. allreduce = reduce + bcast counts as one
    /// API call).
    pub(crate) fn bcast_impl(
        &mut self,
        group: &Group,
        root: Rank,
        payload: Option<Payload>,
    ) -> Result<Payload> {
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let root_idx = group.index_of(root)?;
        let vrank = (me + n - root_idx) % n;

        let data = if vrank == 0 {
            payload.ok_or_else(|| {
                MpiError::CollectiveMismatch("bcast root must supply a payload".into())
            })?
        } else {
            // Receive from the parent in the binomial tree: the parent of
            // vrank is vrank with its lowest set bit cleared.
            let mut mask = 1usize;
            let mut received = None;
            let mut round = 0u32;
            while mask < n {
                if vrank & mask != 0 {
                    let parent_v = vrank & !mask;
                    let parent = group.rank_at((parent_v + root_idx) % n)?;
                    let env = self.recv_transport(
                        SrcSel::Rank(parent),
                        TagSel::Tag(coll_tag(OpId::Bcast, round)),
                    )?;
                    received = Some(env.payload);
                    break;
                }
                mask <<= 1;
                round += 1;
            }
            received.expect("non-root vrank has a parent")
        };

        // Forward to children: vrank + mask for each mask below the lowest
        // set bit of vrank (all masks for the root).
        let lowest = if vrank == 0 {
            n.next_power_of_two()
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut mask = 1usize;
        let mut round = 0u32;
        let mut sends: Vec<(Rank, u32)> = Vec::new();
        while mask < n && mask < lowest {
            let child_v = vrank | mask;
            if child_v != vrank && child_v < n {
                let child = group.rank_at((child_v + root_idx) % n)?;
                sends.push((child, round));
            }
            mask <<= 1;
            round += 1;
        }
        // Send deepest-first so far subtrees start receiving early.
        for (child, round) in sends.into_iter().rev() {
            self.send_transport(child, coll_tag(OpId::Bcast, round), data.clone())?;
        }

        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn bcast_from_rank0() {
        let results = World::run(9, |comm| {
            let payload = if comm.rank() == 0 {
                Some(Payload::from_f64s(&[3.25, -1.0]))
            } else {
                None
            };
            let p = comm.bcast(0, payload).unwrap();
            p.to_f64s().unwrap()
        })
        .unwrap();
        for r in results {
            assert_eq!(r, vec![3.25, -1.0]);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        for size in [2usize, 3, 4, 7, 8, 16] {
            let results = World::run(size, move |comm| {
                let root = size - 1;
                let payload = if comm.rank() == root {
                    Some(Payload::from_f64s(&[root as f64]))
                } else {
                    None
                };
                comm.bcast(root, payload).unwrap().to_f64s().unwrap()[0]
            })
            .unwrap();
            for v in results {
                assert_eq!(v, (size - 1) as f64);
            }
        }
    }

    #[test]
    fn bcast_synthetic_preserves_size() {
        let results = World::run(5, |comm| {
            let payload = if comm.rank() == 2 {
                Some(Payload::synthetic(4096))
            } else {
                None
            };
            comm.bcast(2, payload).unwrap().len()
        })
        .unwrap();
        assert_eq!(results, vec![4096; 5]);
    }

    #[test]
    fn bcast_in_subgroup() {
        let results = World::run(6, |comm| {
            if comm.rank() % 2 == 1 {
                let group = Group::new(vec![1, 3, 5]).unwrap();
                let payload = if comm.rank() == 3 {
                    Some(Payload::from_f64s(&[42.0]))
                } else {
                    None
                };
                comm.bcast_in(&group, 3, payload)
                    .unwrap()
                    .to_f64s()
                    .unwrap()[0]
            } else {
                0.0
            }
        })
        .unwrap();
        assert_eq!(results[1], 42.0);
        assert_eq!(results[3], 42.0);
        assert_eq!(results[5], 42.0);
    }

    #[test]
    fn root_without_payload_errors() {
        World::run(1, |comm| {
            let err = comm.bcast(0, None).unwrap_err();
            assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        })
        .unwrap();
    }

    #[test]
    fn consecutive_bcasts_do_not_cross_match() {
        let results = World::run(4, |comm| {
            let mut got = vec![];
            for i in 0..5 {
                let payload = if comm.rank() == 0 {
                    Some(Payload::from_f64s(&[i as f64]))
                } else {
                    None
                };
                got.push(comm.bcast(0, payload).unwrap().to_f64s().unwrap()[0]);
            }
            got
        })
        .unwrap();
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        }
    }
}
