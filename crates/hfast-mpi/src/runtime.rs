//! World launch: spawns one OS thread per rank and wires up mailboxes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hfast_trace::TraceRecorder;

use crate::chan::unbounded;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::hook::{CommHook, NullHook};
use crate::message::Envelope;
use crate::trace::CommTrace;

/// Configuration for a [`World`] launch.
#[derive(Clone)]
pub struct WorldConfig {
    /// Number of ranks.
    pub size: usize,
    /// How long a blocking operation may stall before the runtime reports a
    /// [`MpiError::Timeout`] instead of deadlocking. A peer that panicked
    /// (and will never send) thereby turns into a diagnosable error.
    /// Threaded worlds only: a replay never waits.
    pub timeout: Duration,
    /// Observer for communication events.
    pub hook: Arc<dyn CommHook>,
    /// Causal span recorder. When set, every rank stamps its outgoing
    /// envelopes and records send/recv spans into it; the caller owns the
    /// recorder and its export. When unset but `HFAST_TRACE` is on, the
    /// world attaches a recorder itself and writes a Perfetto JSON
    /// document to the `HFAST_TRACE` sink at world end. Threaded worlds
    /// only: a replay reads no clock, so it has no spans to record.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl WorldConfig {
    /// Default configuration: given size, 30 s timeout, no observer.
    pub fn new(size: usize) -> Self {
        WorldConfig {
            size,
            timeout: Duration::from_secs(30),
            hook: Arc::new(NullHook),
            trace: None,
        }
    }

    /// Sets the blocking-operation timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Installs an observer hook.
    pub fn hook(mut self, hook: Arc<dyn CommHook>) -> Self {
        self.hook = hook;
        self
    }

    /// Attaches a causal span recorder (the caller exports it).
    pub fn trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }
}

impl std::fmt::Debug for WorldConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldConfig")
            .field("size", &self.size)
            .field("timeout", &self.timeout)
            .finish()
    }
}

/// Entry point to the runtime: runs a closure on each rank, on rank
/// threads ([`World::run_with`]) or replayed ([`World::replay`]).
#[derive(Debug)]
pub struct World;

impl World {
    /// Runs `f` on `size` ranks with default configuration.
    ///
    /// Returns each rank's result, indexed by rank.
    pub fn run<F, R>(size: usize, f: F) -> Result<Vec<R>>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        Self::run_with(WorldConfig::new(size), f)
    }

    /// Runs `f` on each rank under the given configuration.
    ///
    /// Rank 0 runs on the calling thread; ranks 1.. run on scoped threads.
    /// If any rank panics, the world reports [`MpiError::RankPanic`] for the
    /// lowest panicked rank after all ranks have stopped.
    pub fn run_with<F, R>(config: WorldConfig, f: F) -> Result<Vec<R>>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        let size = config.size;
        assert!(size > 0, "world size must be positive");
        let hook = config.hook;
        // Tracing: a caller-supplied recorder wins; otherwise HFAST_TRACE
        // attaches one whose Perfetto export goes to its sink at the end
        // of the world.
        let auto_trace = match config.trace {
            Some(_) => None,
            None => hfast_trace::sink(),
        };
        let trace: Option<Arc<TraceRecorder>> = config
            .trace
            .or_else(|| auto_trace.is_some().then(|| Arc::new(TraceRecorder::new())));
        let rank_trace = |rank: usize| {
            trace
                .as_ref()
                .map(|r| CommTrace::new(Arc::clone(r), 1, rank))
        };
        let mut txs = Vec::with_capacity(size);
        let mut rxs = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded::<Envelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = Arc::new(txs);
        let epoch = Instant::now();
        let f = &f;

        let mut results: Vec<Option<R>> = Vec::with_capacity(size);
        for _ in 0..size {
            results.push(None);
        }
        // (rank, panic message) of every rank that panicked.
        let mut panicked: Vec<(usize, String)> = vec![];

        // Keep rank 0's receiver; hand out the rest.
        let mut rx_iter = rxs.into_iter();
        let rx0 = rx_iter.next().expect("size > 0");

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size.saturating_sub(1));
            for (i, rx) in rx_iter.enumerate() {
                let rank = i + 1;
                let txs = Arc::clone(&txs);
                let hook = Arc::clone(&hook);
                let timeout = config.timeout;
                let rtrace = rank_trace(rank);
                let handle = scope.spawn(move || {
                    let mut comm = Comm::new(rank, size, txs, rx, hook, epoch, timeout, rtrace);
                    f(&mut comm)
                });
                handles.push((rank, handle));
            }

            // Rank 0 on the calling thread.
            let mut comm0 = Comm::new(
                0,
                size,
                Arc::clone(&txs),
                rx0,
                Arc::clone(&hook),
                epoch,
                config.timeout,
                rank_trace(0),
            );
            let r0 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm0)));
            match r0 {
                Ok(v) => results[0] = Some(v),
                Err(payload) => panicked.push((0, panic_message(payload))),
            }
            drop(comm0); // release rank 0's channel endpoints

            for (rank, handle) in handles {
                match handle.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(payload) => panicked.push((rank, panic_message(payload))),
                }
            }
        });

        if let (Some(sink), Some(rec)) = (&auto_trace, &trace) {
            sink.write(&hfast_trace::export(&rec.snapshot()), false);
        }
        if let Some((rank, message)) = panicked.into_iter().min_by_key(|(rank, _)| *rank) {
            return Err(MpiError::RankPanic { rank, message });
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("non-panicked rank produced a result"))
            .collect())
    }
}

/// The text a rank panicked with: the `&str` or `String` payload of
/// `panic!`, or a fixed text for any other payload type.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(message) => (*message).to_string(),
            None => "panic payload is not a string".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{CallKind, RecordingHook, Scope};
    use crate::message::Payload;
    use crate::Tag;

    #[test]
    fn results_indexed_by_rank() {
        let results = World::run(6, |comm| comm.rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn single_rank_world() {
        let results = World::run(1, |comm| (comm.rank(), comm.size())).unwrap();
        assert_eq!(results, vec![(0, 1)]);
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = World::run_with(
            WorldConfig::new(2).timeout(Duration::from_millis(200)),
            |comm| {
                if comm.rank() == 1 {
                    panic!("deliberate test panic");
                }
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            MpiError::RankPanic {
                rank: 1,
                message: "deliberate test panic".to_string()
            }
        );
        assert_eq!(err.to_string(), "rank 1 panicked: deliberate test panic");
    }

    #[test]
    fn timeout_surfaces_instead_of_deadlock() {
        let results = World::run_with(
            WorldConfig::new(2).timeout(Duration::from_millis(100)),
            |comm| {
                if comm.rank() == 0 {
                    // Nobody ever sends this.
                    comm.recv(1, Tag(1)).err()
                } else {
                    None
                }
            },
        )
        .unwrap();
        assert!(matches!(
            results[0],
            Some(MpiError::Timeout { rank: 0, .. })
        ));
    }

    #[test]
    fn hook_sees_api_events() {
        let hook = Arc::new(RecordingHook::new());
        World::run_with(
            WorldConfig::new(2).hook(hook.clone() as Arc<dyn CommHook>),
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, Tag(5), Payload::synthetic(100)).unwrap();
                } else {
                    comm.recv(0, Tag(5)).unwrap();
                }
            },
        )
        .unwrap();
        let events = hook.take();
        assert_eq!(events.len(), 2);
        let send = events.iter().find(|e| e.kind == CallKind::Send).unwrap();
        assert_eq!(send.rank, 0);
        assert_eq!(send.peer, Some(1));
        assert_eq!(send.bytes, 100);
        assert_eq!(send.scope, Scope::Api);
        let recv = events.iter().find(|e| e.kind == CallKind::Recv).unwrap();
        assert_eq!(recv.rank, 1);
        assert_eq!(recv.peer, Some(0));
        assert_eq!(recv.bytes, 100);
    }

    #[test]
    fn moderate_scale_all_ranks_communicate() {
        // 64 ranks, ring exchange — smoke test for the threaded launch path.
        let results = World::run(64, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let req = comm.isend(right, Tag(1), Payload::synthetic(8)).unwrap();
            let (status, _) = comm.recv(left, Tag(1)).unwrap();
            comm.wait(req).unwrap();
            status.source
        })
        .unwrap();
        assert_eq!(results.len(), 64);
        for (r, src) in results.iter().enumerate() {
            assert_eq!(*src, (r + 63) % 64);
        }
    }
}
