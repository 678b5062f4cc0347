//! The PMPI-style observer boundary.
//!
//! Every API call on a [`Comm`](crate::Comm) emits exactly one [`CommEvent`]
//! to the world's [`CommHook`]. This is the same interposition point the IPM
//! profiling layer of the paper uses (the MPI name-shifted profiling
//! interface): the profiler sees call kind, buffer size, partner, and timing,
//! without the runtime knowing anything about profiling.

use crate::{Rank, Tag};

/// Which API entry point produced an event.
///
/// The variants are IPM's call vocabulary for the six SC'05 study
/// applications (see paper Figure 2) plus the transport-level sends the
/// collectives are built from. The runtime emits only the kinds its API
/// has; the others (`Test`, `Reduce`, `Allgather`, `Alltoall`, `Scatter`,
/// `ReduceScatter`, `Scan`, `Probe`, `Iprobe`) stay because profiles and
/// traces name calls by these kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CallKind {
    /// Blocking standard-mode send.
    Send,
    /// Blocking receive.
    Recv,
    /// Nonblocking send.
    Isend,
    /// Nonblocking receive.
    Irecv,
    /// Combined send+receive.
    Sendrecv,
    /// Completion of a single request.
    Wait,
    /// Completion of a set of requests.
    Waitall,
    /// Completion of any one request out of a set.
    Waitany,
    /// Nonblocking completion probe.
    Test,
    /// Barrier synchronization.
    Barrier,
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
    /// All-to-all reduction.
    Allreduce,
    /// All-to-one gather.
    Gather,
    /// All-to-all gather.
    Allgather,
    /// Personalized all-to-all exchange.
    Alltoall,
    /// One-to-all scatter.
    Scatter,
    /// Reduction followed by scatter.
    ReduceScatter,
    /// Inclusive prefix reduction.
    Scan,
    /// Blocking message probe.
    Probe,
    /// Nonblocking message probe.
    Iprobe,
    /// Transport-level send inside a collective algorithm.
    TransportSend,
    /// Transport-level receive inside a collective algorithm.
    TransportRecv,
}

impl CallKind {
    /// Every variant, in declaration order (so `ALL[k.index()] == k`).
    pub const ALL: [CallKind; 23] = [
        CallKind::Send,
        CallKind::Recv,
        CallKind::Isend,
        CallKind::Irecv,
        CallKind::Sendrecv,
        CallKind::Wait,
        CallKind::Waitall,
        CallKind::Waitany,
        CallKind::Test,
        CallKind::Barrier,
        CallKind::Bcast,
        CallKind::Reduce,
        CallKind::Allreduce,
        CallKind::Gather,
        CallKind::Allgather,
        CallKind::Alltoall,
        CallKind::Scatter,
        CallKind::ReduceScatter,
        CallKind::Scan,
        CallKind::Probe,
        CallKind::Iprobe,
        CallKind::TransportSend,
        CallKind::TransportRecv,
    ];

    /// Dense index of this variant (for per-kind counter tables and
    /// profile hash keys).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// MPI-style display name (e.g. `MPI_Isend`).
    pub fn mpi_name(self) -> &'static str {
        match self {
            CallKind::Send => "MPI_Send",
            CallKind::Recv => "MPI_Recv",
            CallKind::Isend => "MPI_Isend",
            CallKind::Irecv => "MPI_Irecv",
            CallKind::Sendrecv => "MPI_Sendrecv",
            CallKind::Wait => "MPI_Wait",
            CallKind::Waitall => "MPI_Waitall",
            CallKind::Waitany => "MPI_Waitany",
            CallKind::Test => "MPI_Test",
            CallKind::Barrier => "MPI_Barrier",
            CallKind::Bcast => "MPI_Bcast",
            CallKind::Reduce => "MPI_Reduce",
            CallKind::Allreduce => "MPI_Allreduce",
            CallKind::Gather => "MPI_Gather",
            CallKind::Allgather => "MPI_Allgather",
            CallKind::Alltoall => "MPI_Alltoall",
            CallKind::Scatter => "MPI_Scatter",
            CallKind::ReduceScatter => "MPI_Reduce_scatter",
            CallKind::Scan => "MPI_Scan",
            CallKind::Probe => "MPI_Probe",
            CallKind::Iprobe => "MPI_Iprobe",
            CallKind::TransportSend => "transport::send",
            CallKind::TransportRecv => "transport::recv",
        }
    }

    /// True for collective operations (the paper's "Col." bucket in Table 3).
    #[inline]
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            CallKind::Barrier
                | CallKind::Bcast
                | CallKind::Reduce
                | CallKind::Allreduce
                | CallKind::Gather
                | CallKind::Allgather
                | CallKind::Alltoall
                | CallKind::Scatter
                | CallKind::ReduceScatter
                | CallKind::Scan
        )
    }

    /// True for point-to-point *data* calls (sends/receives, not completions).
    #[inline]
    pub fn is_ptp_data(self) -> bool {
        matches!(
            self,
            CallKind::Send
                | CallKind::Recv
                | CallKind::Isend
                | CallKind::Irecv
                | CallKind::Sendrecv
        )
    }

    /// True for the calls the paper counts in the point-to-point bucket:
    /// everything that is neither a collective nor transport-internal.
    ///
    /// (Figure 2 shows Wait/Waitall slices inside each code's call mix and
    /// Table 3's `% PTP calls` + `% Col. calls` sum to 100, so completions
    /// belong to the PTP bucket.)
    #[inline]
    pub fn in_ptp_bucket(self) -> bool {
        !self.is_collective() && !self.is_transport()
    }

    /// True for transport-internal events generated by collective algorithms.
    #[inline]
    pub fn is_transport(self) -> bool {
        matches!(self, CallKind::TransportSend | CallKind::TransportRecv)
    }

    /// True if the event's `bytes` field reflects outbound traffic
    /// (used when building directed volumes from send-side calls only, so
    /// that each message is counted exactly once).
    #[inline]
    pub fn is_outbound(self) -> bool {
        matches!(
            self,
            CallKind::Send | CallKind::Isend | CallKind::Sendrecv | CallKind::TransportSend
        )
    }
}

impl std::fmt::Display for CallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mpi_name())
    }
}

/// Whether an event crossed the public API boundary or is internal transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// An application-issued call (what IPM profiles).
    Api,
    /// A message generated inside a collective algorithm (what a network
    /// simulator replays).
    Transport,
}

/// One observed communication call.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEvent {
    /// The rank that issued the call.
    pub rank: Rank,
    /// Which API entry point.
    pub kind: CallKind,
    /// API versus transport boundary.
    pub scope: Scope,
    /// Peer rank: destination for sends, (matched) source for receives,
    /// root for rooted collectives, `None` otherwise.
    pub peer: Option<Rank>,
    /// Buffer size in bytes as passed to the call (0 for completions and
    /// barriers).
    pub bytes: usize,
    /// Message tag where applicable.
    pub tag: Option<Tag>,
    /// Call entry time, nanoseconds since world start.
    pub t_start_ns: u64,
    /// Call exit time, nanoseconds since world start.
    pub t_end_ns: u64,
}

impl CommEvent {
    /// Wall-clock duration of the call in nanoseconds.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// Observer of communication events.
///
/// Implementations must be cheap and thread-safe: every rank thread calls
/// `on_event` inline with its communication.
pub trait CommHook: Send + Sync {
    /// Called once per API (and transport) call, after the call completes.
    fn on_event(&self, event: &CommEvent);
}

/// A hook that discards all events.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NullHook;

impl CommHook for NullHook {
    #[inline]
    fn on_event(&self, _event: &CommEvent) {}
}

/// A hook that records every event, for the runtime's own tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct RecordingHook {
    events: std::sync::Mutex<Vec<CommEvent>>,
}

#[cfg(test)]
impl RecordingHook {
    /// Creates an empty recorder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded events, sorted by start time.
    pub(crate) fn take(&self) -> Vec<CommEvent> {
        let mut evs = std::mem::take(&mut *self.events.lock().expect("recording hook poisoned"));
        evs.sort_by_key(|e| (e.t_start_ns, e.rank));
        evs
    }

    /// Number of events recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.events.lock().expect("recording hook poisoned").len()
    }

    /// True if nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl CommHook for RecordingHook {
    fn on_event(&self, event: &CommEvent) {
        self.events
            .lock()
            .expect("recording hook poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_api_calls() {
        // Every non-transport kind is either collective or PTP-bucket.
        let kinds = [
            CallKind::Send,
            CallKind::Recv,
            CallKind::Isend,
            CallKind::Irecv,
            CallKind::Sendrecv,
            CallKind::Wait,
            CallKind::Waitall,
            CallKind::Waitany,
            CallKind::Test,
            CallKind::Barrier,
            CallKind::Bcast,
            CallKind::Reduce,
            CallKind::Allreduce,
            CallKind::Gather,
            CallKind::Allgather,
            CallKind::Alltoall,
            CallKind::Scatter,
            CallKind::ReduceScatter,
            CallKind::Scan,
            CallKind::Probe,
            CallKind::Iprobe,
        ];
        for k in kinds {
            assert!(
                k.is_collective() ^ k.in_ptp_bucket(),
                "{k} must be in exactly one bucket"
            );
        }
    }

    #[test]
    fn completions_are_ptp_but_not_data() {
        assert!(CallKind::Wait.in_ptp_bucket());
        assert!(!CallKind::Wait.is_ptp_data());
        assert!(CallKind::Isend.is_ptp_data());
    }

    #[test]
    fn transport_is_excluded_from_both_buckets() {
        assert!(!CallKind::TransportSend.in_ptp_bucket());
        assert!(!CallKind::TransportSend.is_collective());
        assert!(CallKind::TransportSend.is_transport());
    }

    #[test]
    fn mpi_names_match_convention() {
        assert_eq!(CallKind::Isend.mpi_name(), "MPI_Isend");
        assert_eq!(CallKind::ReduceScatter.mpi_name(), "MPI_Reduce_scatter");
    }

    #[test]
    fn recording_hook_collects_and_sorts() {
        let hook = RecordingHook::new();
        let ev = |t, kind| CommEvent {
            rank: 0,
            kind,
            scope: Scope::Api,
            peer: None,
            bytes: 0,
            tag: None,
            t_start_ns: t,
            t_end_ns: t + 1,
        };
        hook.on_event(&ev(50, CallKind::Barrier));
        hook.on_event(&ev(10, CallKind::Send));
        assert_eq!(hook.len(), 2);
        let evs = hook.take();
        assert_eq!(evs[0].kind, CallKind::Send);
        assert_eq!(evs[1].kind, CallKind::Barrier);
        assert!(hook.is_empty());
    }

    #[test]
    fn elapsed_saturates() {
        let ev = CommEvent {
            rank: 0,
            kind: CallKind::Send,
            scope: Scope::Api,
            peer: Some(1),
            bytes: 8,
            tag: Some(Tag(1)),
            t_start_ns: 100,
            t_end_ns: 40,
        };
        assert_eq!(ev.elapsed_ns(), 0);
    }
}

/// Fans events out to several hooks (e.g. the IPM profiler plus a
/// time-windowed TDC monitor in one run).
pub struct MultiHook {
    hooks: Vec<std::sync::Arc<dyn CommHook>>,
}

impl MultiHook {
    /// Combines the given hooks; events are delivered in order.
    pub fn new(hooks: Vec<std::sync::Arc<dyn CommHook>>) -> Self {
        MultiHook { hooks }
    }
}

impl CommHook for MultiHook {
    fn on_event(&self, event: &CommEvent) {
        for hook in &self.hooks {
            hook.on_event(event);
        }
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn multi_hook_fans_out() {
        let a = Arc::new(RecordingHook::new());
        let b = Arc::new(RecordingHook::new());
        let multi = MultiHook::new(vec![a.clone(), b.clone()]);
        multi.on_event(&CommEvent {
            rank: 0,
            kind: CallKind::Send,
            scope: Scope::Api,
            peer: Some(1),
            bytes: 8,
            tag: None,
            t_start_ns: 0,
            t_end_ns: 1,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
