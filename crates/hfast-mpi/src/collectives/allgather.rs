//! All-to-all gather via the ring algorithm.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::Result;

impl Comm {
    /// Allgather over the whole world (`MPI_Allgather`).
    ///
    /// Every rank returns all contributions in rank order.
    pub fn allgather(&mut self, payload: Payload) -> Result<Vec<Payload>> {
        let group = Group::world(self.size());
        self.allgather_in(&group, payload)
    }

    /// Allgather over a group.
    ///
    /// Ring algorithm: n−1 rounds; in round *k* each member forwards the
    /// block it received in round *k−1* to its right neighbour, so every
    /// block travels the full ring using only nearest-neighbour links.
    pub fn allgather_in(&mut self, group: &Group, payload: Payload) -> Result<Vec<Payload>> {
        let t0 = self.now_ns();
        let n = group.len();
        let me = group.index_of(self.rank())?;
        let bytes = payload.len();

        let mut blocks: Vec<Option<Payload>> = (0..n).map(|_| None).collect();
        blocks[me] = Some(payload);
        if n > 1 {
            let right = group.rank_at((me + 1) % n)?;
            let left_idx = (me + n - 1) % n;
            let left = group.rank_at(left_idx)?;
            for k in 0..n - 1 {
                // Block that originated k hops behind us is what we forward.
                let send_block = (me + n - k) % n;
                let recv_block = (me + n - k - 1) % n;
                let to_send = blocks[send_block]
                    .clone()
                    .expect("block received in previous round");
                self.send_transport(right, coll_tag(OpId::Allgather, k as u32), to_send)?;
                let env = self.recv_transport(
                    SrcSel::Rank(left),
                    TagSel::Tag(coll_tag(OpId::Allgather, k as u32)),
                )?;
                blocks[recv_block] = Some(env.payload);
            }
        }

        self.emit(CallKind::Allgather, Scope::Api, None, bytes, None, t0);
        Ok(blocks
            .into_iter()
            .map(|b| b.expect("ring completed all blocks"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn allgather_all_ranks_see_all_blocks() {
        for size in [1usize, 2, 3, 6, 9] {
            let results = World::run(size, |comm| {
                let payload = Payload::from_f64s(&[comm.rank() as f64 + 0.5]);
                comm.allgather(payload).unwrap()
            })
            .unwrap();
            for blocks in results {
                assert_eq!(blocks.len(), size);
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!(b.to_f64s().unwrap(), vec![i as f64 + 0.5]);
                }
            }
        }
    }

    #[test]
    fn allgather_in_subgroup() {
        let results = World::run(6, |comm| {
            if comm.rank() < 3 {
                let group = Group::new(vec![0, 1, 2]).unwrap();
                let p = Payload::from_f64s(&[comm.rank() as f64]);
                Some(comm.allgather_in(&group, p).unwrap())
            } else {
                None
            }
        })
        .unwrap();
        for blocks in results.iter().take(3) {
            let blocks = blocks.as_ref().unwrap();
            let vals: Vec<f64> = blocks.iter().map(|b| b.to_f64s().unwrap()[0]).collect();
            assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allgather_synthetic() {
        let results = World::run(4, |comm| {
            comm.allgather(Payload::synthetic(768)).unwrap().len()
        })
        .unwrap();
        assert_eq!(results, vec![4; 4]);
    }
}

#[cfg(test)]
mod variable_size_tests {
    use crate::{Payload, World};

    /// `MPI_Allgatherv` semantics: the ring forwards whatever each member
    /// contributed, so variable block sizes arrive intact everywhere.
    #[test]
    fn allgather_accepts_variable_contributions() {
        let results = World::run(4, |comm| {
            let bytes = 64 << comm.rank();
            comm.allgather(Payload::synthetic(bytes)).unwrap()
        })
        .unwrap();
        for blocks in results {
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(b.len(), 64 << i);
            }
        }
    }
}
