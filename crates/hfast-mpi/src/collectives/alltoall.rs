//! Personalized all-to-all exchange.

use super::{coll_tag, OpId};
use crate::comm::{Comm, SrcSel, TagSel};
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::Payload;
use crate::{MpiError, Result};

impl Comm {
    /// All-to-all over the whole world (`MPI_Alltoall`).
    ///
    /// `payloads[i]` goes to rank `i`; the result holds the block received
    /// from each rank. This is the global-transpose primitive behind
    /// PARATEC's 3D FFTs in the paper.
    pub fn alltoall(&mut self, payloads: Vec<Payload>) -> Result<Vec<Payload>> {
        let group = Group::world(self.size());
        self.alltoall_in(&group, payloads)
    }

    /// All-to-all over a group; `payloads` are indexed by group position.
    ///
    /// Shifted-pairwise schedule: n−1 rounds, in round *k* each member sends
    /// to the member *k* ahead and receives from the member *k* behind, which
    /// spreads load evenly and avoids hot spots.
    pub fn alltoall_in(&mut self, group: &Group, payloads: Vec<Payload>) -> Result<Vec<Payload>> {
        let t0 = self.now_ns();
        let n = group.len();
        if payloads.len() != n {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall needs one payload per member: got {} for group of {n}",
                payloads.len()
            )));
        }
        let me = group.index_of(self.rank())?;
        // IPM sees the per-destination block size as the buffer argument.
        let block_bytes = payloads.iter().map(Payload::len).max().unwrap_or(0);

        let mut blocks: Vec<Option<Payload>> = (0..n).map(|_| None).collect();
        let mut payloads: Vec<Option<Payload>> = payloads.into_iter().map(Some).collect();
        blocks[me] = payloads[me].take();
        for k in 1..n {
            let to_idx = (me + k) % n;
            let from_idx = (me + n - k) % n;
            let to = group.rank_at(to_idx)?;
            let from = group.rank_at(from_idx)?;
            let outgoing = payloads[to_idx].take().expect("each block sent once");
            self.send_transport(to, coll_tag(OpId::Alltoall, k as u32), outgoing)?;
            let env = self.recv_transport(
                SrcSel::Rank(from),
                TagSel::Tag(coll_tag(OpId::Alltoall, k as u32)),
            )?;
            blocks[from_idx] = Some(env.payload);
        }

        self.emit(CallKind::Alltoall, Scope::Api, None, block_bytes, None, t0);
        Ok(blocks
            .into_iter()
            .map(|b| b.expect("all blocks exchanged"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn alltoall_transposes() {
        for size in [1usize, 2, 3, 5, 8] {
            let results = World::run(size, |comm| {
                // Block for rank j encodes (my_rank, j).
                let payloads: Vec<Payload> = (0..comm.size())
                    .map(|j| Payload::from_f64s(&[comm.rank() as f64, j as f64]))
                    .collect();
                comm.alltoall(payloads).unwrap()
            })
            .unwrap();
            for (i, blocks) in results.iter().enumerate() {
                for (j, b) in blocks.iter().enumerate() {
                    // Rank i's block j came from rank j, addressed to i.
                    assert_eq!(b.to_f64s().unwrap(), vec![j as f64, i as f64]);
                }
            }
        }
    }

    #[test]
    fn alltoall_wrong_block_count_errors() {
        World::run(3, |comm| {
            let err = comm.alltoall(vec![Payload::synthetic(1); 2]).unwrap_err();
            assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        })
        .unwrap();
    }

    #[test]
    fn alltoall_in_subgroup() {
        let results = World::run(5, |comm| {
            if comm.rank() < 3 {
                let group = Group::new(vec![0, 1, 2]).unwrap();
                let payloads: Vec<Payload> = (0..3)
                    .map(|j| Payload::from_f64s(&[(comm.rank() * 10 + j) as f64]))
                    .collect();
                Some(comm.alltoall_in(&group, payloads).unwrap())
            } else {
                None
            }
        })
        .unwrap();
        for (i, blocks) in results.iter().take(3).enumerate() {
            let blocks = blocks.as_ref().unwrap();
            for (j, b) in blocks.iter().enumerate() {
                assert_eq!(b.to_f64s().unwrap(), vec![(j * 10 + i) as f64]);
            }
        }
    }

    #[test]
    fn repeated_alltoalls() {
        let results = World::run(4, |comm| {
            let mut sum = 0.0;
            for round in 0..8 {
                let payloads: Vec<Payload> = (0..4)
                    .map(|_| Payload::from_f64s(&[round as f64]))
                    .collect();
                let got = comm.alltoall(payloads).unwrap();
                sum += got.iter().map(|b| b.to_f64s().unwrap()[0]).sum::<f64>();
            }
            sum
        })
        .unwrap();
        let expected: f64 = (0..8).map(|r| (r * 4) as f64).sum();
        assert_eq!(results, vec![expected; 4]);
    }
}
