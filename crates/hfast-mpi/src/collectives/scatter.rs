//! One-to-all scatter.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::{MpiError, Rank, Result};

impl Comm {
    /// Scatter over the whole world (`MPI_Scatter`).
    ///
    /// The root passes one payload per rank; each rank returns its block.
    pub fn scatter(&mut self, root: Rank, payloads: Option<Vec<Payload>>) -> Result<Payload> {
        let group = Group::world(self.size());
        self.scatter_in(&group, root, payloads)
    }

    /// Scatter over a group from the member with world rank `root`.
    ///
    /// Linear algorithm: the root sends each member its block directly.
    pub fn scatter_in(
        &mut self,
        group: &Group,
        root: Rank,
        payloads: Option<Vec<Payload>>,
    ) -> Result<Payload> {
        let t0 = self.now_ns();
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let root_idx = group.index_of(root)?;

        let mine = if me == root_idx {
            let mut payloads = payloads.ok_or_else(|| {
                MpiError::CollectiveMismatch("scatter root must supply payloads".into())
            })?;
            if payloads.len() != n {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatter needs one payload per member: got {} for group of {n}",
                    payloads.len()
                )));
            }
            for i in (0..n).rev() {
                if i == me {
                    continue;
                }
                let dest = group.rank_at(i)?;
                let block = payloads[i].clone();
                self.send_transport(dest, coll_tag(OpId::Scatter, 0), block)?;
            }
            payloads.swap_remove(me)
        } else {
            let env =
                self.recv_transport(SrcSel::Rank(root), TagSel::Tag(coll_tag(OpId::Scatter, 0)))?;
            env.payload
        };

        let bytes = mine.len();
        self.emit(CallKind::Scatter, Scope::Api, Some(root), bytes, None, t0);
        Ok(mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn scatter_distributes_blocks() {
        let results = World::run(6, |comm| {
            let payloads = if comm.rank() == 1 {
                Some(
                    (0..6)
                        .map(|i| Payload::from_f64s(&[i as f64 * 11.0]))
                        .collect(),
                )
            } else {
                None
            };
            comm.scatter(1, payloads).unwrap().to_f64s().unwrap()[0]
        })
        .unwrap();
        for (r, v) in results.iter().enumerate() {
            assert_eq!(*v, r as f64 * 11.0);
        }
    }

    #[test]
    fn scatter_wrong_count_errors() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.scatter(0, Some(vec![Payload::synthetic(1); 5])).err()
            } else {
                // Peer would block forever on a root error; don't participate.
                None
            }
        });
        // Rank 1 never receives because root errored before sending; the
        // world surfaces rank 1's timeout or completes with rank 0's error.
        match results {
            Ok(r) => assert!(matches!(r[0], Some(MpiError::CollectiveMismatch(_)))),
            Err(e) => assert!(matches!(
                e,
                MpiError::Timeout { .. } | MpiError::RankPanic { .. }
            )),
        }
    }

    #[test]
    fn scatter_in_subgroup() {
        let results = World::run(4, |comm| {
            if comm.rank() % 2 == 0 {
                let group = Group::new(vec![2, 0]).unwrap();
                let payloads = if comm.rank() == 2 {
                    Some(vec![
                        Payload::from_f64s(&[20.0]),
                        Payload::from_f64s(&[0.0]),
                    ])
                } else {
                    None
                };
                comm.scatter_in(&group, 2, payloads)
                    .unwrap()
                    .to_f64s()
                    .unwrap()[0]
            } else {
                -1.0
            }
        })
        .unwrap();
        assert_eq!(results[2], 20.0);
        assert_eq!(results[0], 0.0);
    }
}
