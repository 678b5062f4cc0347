//! All-to-all reduction.

use crate::comm::Comm;
use crate::group::Group;
use crate::hook::{CallKind, Scope};
use crate::message::{Payload, ReduceOp};
use crate::Result;

impl Comm {
    /// Allreduce over the whole world (`MPI_Allreduce`).
    pub fn allreduce(&mut self, payload: Payload, op: ReduceOp) -> Result<Payload> {
        let group = Group::world(self.size());
        self.allreduce_in(&group, payload, op)
    }

    /// Allreduce over a group: reduce to the first member, then broadcast.
    ///
    /// Reduce+broadcast works for any group size (recursive doubling would
    /// need power-of-two handling) and keeps the transport flows simple to
    /// reason about for replay; both are O(log n) rounds.
    pub(crate) fn allreduce_in(
        &mut self,
        group: &Group,
        payload: Payload,
        op: ReduceOp,
    ) -> Result<Payload> {
        let t0 = self.now_ns();
        let bytes = payload.len();
        let reduced = self.reduce_impl(group, payload, op)?;
        let result = self.bcast_impl(group, group.rank_at(0)?, reduced)?;
        self.emit(CallKind::Allreduce, Scope::Api, None, bytes, None, t0);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn allreduce_sum_all_sizes() {
        for size in [1usize, 2, 4, 5, 7, 12] {
            let results = World::run(size, |comm| {
                let p = Payload::from_f64s(&[comm.rank() as f64, 2.0]);
                comm.allreduce(p, ReduceOp::Sum).unwrap().to_f64s().unwrap()
            })
            .unwrap();
            let sum: f64 = (0..size).map(|r| r as f64).sum();
            for r in results {
                assert_eq!(r, vec![sum, 2.0 * size as f64]);
            }
        }
    }

    #[test]
    fn allreduce_min() {
        let results = World::run(6, |comm| {
            let p = Payload::from_f64s(&[10.0 - comm.rank() as f64]);
            comm.allreduce(p, ReduceOp::Min).unwrap().to_f64s().unwrap()[0]
        })
        .unwrap();
        assert_eq!(results, vec![5.0; 6]);
    }

    #[test]
    fn allreduce_in_subgroup() {
        let results = World::run(8, |comm| {
            let parity = comm.rank() % 2;
            let members: Vec<usize> = (0..8).filter(|r| r % 2 == parity).collect();
            let group = Group::new(members).unwrap();
            let p = Payload::from_f64s(&[comm.rank() as f64]);
            comm.allreduce_in(&group, p, ReduceOp::Sum)
                .unwrap()
                .to_f64s()
                .unwrap()[0]
        })
        .unwrap();
        for (r, v) in results.iter().enumerate() {
            let expected: f64 = (0..8).filter(|x| x % 2 == r % 2).map(|x| x as f64).sum();
            assert_eq!(*v, expected);
        }
    }

    #[test]
    fn allreduce_counts_as_one_collective() {
        use crate::hook::{CommHook, RecordingHook};
        use std::sync::Arc;
        let hook = Arc::new(RecordingHook::new());
        crate::World::run_with(
            crate::WorldConfig::new(4).hook(hook.clone() as Arc<dyn CommHook>),
            |comm| {
                comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)
                    .unwrap();
            },
        )
        .unwrap();
        let events = hook.take();
        let api_events: Vec<_> = events
            .iter()
            .filter(|e| e.scope == crate::Scope::Api)
            .collect();
        // Exactly one Allreduce API event per rank, nothing else at API scope.
        assert_eq!(api_events.len(), 4);
        assert!(api_events.iter().all(|e| e.kind == CallKind::Allreduce));
    }
}
