//! All-to-one gather.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::{Rank, Result};

impl Comm {
    /// Gather over a group to the member with world rank `root`
    /// (`MPI_Gather`).
    ///
    /// Each member contributes `payload`; the root returns contributions in
    /// group order, other members return `None`.
    ///
    /// Linear algorithm (each member sends directly to the root), which is
    /// what common MPI implementations use for `MPI_Gather` and what gives
    /// the root its characteristic high in-degree — the pattern that drives
    /// GTC's gather-heavy profile in the paper.
    pub fn gather_in(
        &mut self,
        group: &Group,
        root: Rank,
        payload: Payload,
    ) -> Result<Option<Vec<Payload>>> {
        let t0 = self.now_ns();
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let root_idx = group.index_of(root)?;
        let bytes = payload.len();

        let out = if me == root_idx {
            let mut parts: Vec<Option<Payload>> = (0..n).map(|_| None).collect();
            parts[me] = Some(payload);
            for (i, slot) in parts.iter_mut().enumerate() {
                if i == me {
                    continue;
                }
                let src = group.rank_at(i)?;
                let env =
                    self.recv_transport(SrcSel::Rank(src), TagSel::Tag(coll_tag(OpId::Gather, 0)))?;
                *slot = Some(env.payload);
            }
            Some(
                parts
                    .into_iter()
                    .map(|p| p.expect("all contributions received"))
                    .collect(),
            )
        } else {
            self.send_transport(root, coll_tag(OpId::Gather, 0), payload)?;
            None
        };

        self.emit(CallKind::Gather, Scope::Api, Some(root), bytes, None, t0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn gather_collects_in_rank_order() {
        let results = World::run(7, |comm| {
            let payload = Payload::from_f64s(&[comm.rank() as f64 * 3.0]);
            comm.gather_in(&Group::world(7), 2, payload).unwrap()
        })
        .unwrap();
        let at_root = results[2].as_ref().unwrap();
        assert_eq!(at_root.len(), 7);
        for (i, p) in at_root.iter().enumerate() {
            assert_eq!(p.to_f64s().unwrap(), vec![i as f64 * 3.0]);
        }
        assert!(results[0].is_none());
    }

    #[test]
    fn gather_in_group_order() {
        let results = World::run(6, |comm| {
            if comm.rank() % 2 == 0 {
                let group = Group::new(vec![4, 0, 2]).unwrap();
                let payload = Payload::from_f64s(&[comm.rank() as f64]);
                comm.gather_in(&group, 4, payload).unwrap()
            } else {
                None
            }
        })
        .unwrap();
        let at_root = results[4].as_ref().unwrap();
        // Group order [4, 0, 2], not world order.
        assert_eq!(at_root[0].to_f64s().unwrap(), vec![4.0]);
        assert_eq!(at_root[1].to_f64s().unwrap(), vec![0.0]);
        assert_eq!(at_root[2].to_f64s().unwrap(), vec![2.0]);
    }

    #[test]
    fn gather_synthetic_sizes() {
        let results = World::run(5, |comm| {
            comm.gather_in(&Group::world(5), 0, Payload::synthetic(100))
                .unwrap()
        })
        .unwrap();
        let at_root = results[0].as_ref().unwrap();
        assert!(at_root.iter().all(|p| p.len() == 100));
    }

    #[test]
    fn single_member_gather() {
        let results = World::run(1, |comm| {
            comm.gather_in(&Group::world(1), 0, Payload::synthetic(9))
                .unwrap()
        })
        .unwrap();
        assert_eq!(results[0].as_ref().unwrap().len(), 1);
    }
}

#[cfg(test)]
mod variable_size_tests {
    use super::*;
    use crate::World;

    /// `MPI_Gatherv` semantics come for free: contributions need not be
    /// equal-sized, and the root sees each rank's true length.
    #[test]
    fn gather_accepts_variable_contributions() {
        let results = World::run(5, |comm| {
            let bytes = 100 * (comm.rank() + 1);
            comm.gather_in(&Group::world(5), 0, Payload::synthetic(bytes))
                .unwrap()
        })
        .unwrap();
        let at_root = results[0].as_ref().unwrap();
        for (i, p) in at_root.iter().enumerate() {
            assert_eq!(p.len(), 100 * (i + 1));
        }
    }
}
