//! Reduction followed by scatter of the result blocks.

use crate::comm::Comm;
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::{Payload, ReduceOp};
use crate::{MpiError, Result};

impl Comm {
    /// Reduce-scatter over the whole world (`MPI_Reduce_scatter`).
    ///
    /// Every rank contributes one payload block per rank; block *i* is
    /// reduced across all ranks and delivered to rank *i*.
    pub fn reduce_scatter(&mut self, payloads: Vec<Payload>, op: ReduceOp) -> Result<Payload> {
        let group = Group::world(self.size());
        self.reduce_scatter_in(&group, payloads, op)
    }

    /// Reduce-scatter over a group; blocks are indexed by group position.
    ///
    /// Implemented as reduce-to-first-member of each block followed by the
    /// deliveries, reusing the binomial reduction per block. The API-level
    /// profile is a single `MPI_Reduce_scatter` of the per-block size.
    pub fn reduce_scatter_in(
        &mut self,
        group: &Group,
        payloads: Vec<Payload>,
        op: ReduceOp,
    ) -> Result<Payload> {
        let t0 = self.now_ns();
        let n = group.len();
        if payloads.len() != n {
            return Err(MpiError::CollectiveMismatch(format!(
                "reduce_scatter needs one block per member: got {} for group of {n}",
                payloads.len()
            )));
        }
        let me = group.index_of(self.rank())?;
        let bytes = payloads.get(me).map(Payload::len).unwrap_or(0);

        // Reduce block i to the member at index i: each block's reduction is
        // rooted at its recipient, so the scatter phase is implicit.
        let mut mine: Option<Payload> = None;
        for (i, block) in payloads.into_iter().enumerate() {
            let root = group.rank_at(i)?;
            let reduced = self.reduce_impl(group, root, block, op)?;
            if i == me {
                mine = Some(reduced.expect("member is root of its own block"));
            }
        }

        self.emit(CallKind::ReduceScatter, Scope::Api, None, bytes, None, t0);
        Ok(mine.expect("own block reduced"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn reduce_scatter_sums_blocks() {
        for size in [1usize, 2, 4, 6] {
            let results = World::run(size, |comm| {
                // Block j from rank r holds r + j/1000.
                let payloads: Vec<Payload> = (0..comm.size())
                    .map(|j| Payload::from_f64s(&[comm.rank() as f64 + j as f64 / 1000.0]))
                    .collect();
                comm.reduce_scatter(payloads, ReduceOp::Sum)
                    .unwrap()
                    .to_f64s()
                    .unwrap()[0]
            })
            .unwrap();
            let rank_sum: f64 = (0..size).map(|r| r as f64).sum();
            for (j, v) in results.iter().enumerate() {
                let expected = rank_sum + size as f64 * (j as f64 / 1000.0);
                assert!((v - expected).abs() < 1e-9, "block {j}: {v} vs {expected}");
            }
        }
    }

    #[test]
    fn reduce_scatter_wrong_count_errors() {
        World::run(1, |comm| {
            let err = comm.reduce_scatter(vec![], ReduceOp::Sum).unwrap_err();
            assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        })
        .unwrap();
    }

    #[test]
    fn reduce_scatter_synthetic() {
        let results = World::run(3, |comm| {
            let payloads = vec![Payload::synthetic(512); 3];
            comm.reduce_scatter(payloads, ReduceOp::Max).unwrap().len()
        })
        .unwrap();
        assert_eq!(results, vec![512; 3]);
    }
}
