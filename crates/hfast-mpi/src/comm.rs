//! The per-rank communicator: point-to-point operations and completion calls.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chan::{recv_wait, Receiver, RecvTimeoutError, Sender};
use crate::error::{MpiError, Result};
use crate::hook::{CallKind, CommEvent, CommHook, Scope};
use crate::message::{Envelope, Payload, Stamp};
use crate::replay::Replayer;
use crate::request::{Matcher, RecvHandle, Request};
use crate::trace::CommTrace;
use crate::{Rank, Tag};

/// Source selector for receives (`MPI_ANY_SOURCE` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match a message from any rank.
    Any,
    /// Match only messages from the given rank.
    Rank(Rank),
}

/// Tag selector for receives (`MPI_ANY_TAG` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any application tag; the reserved collective tags are the
    /// runtime's internal traffic and never match.
    Any,
    /// Match only the given tag.
    Tag(Tag),
}

impl TagSel {
    /// True if the selector accepts the given tag.
    #[inline]
    pub(crate) fn accepts(self, tag: Tag) -> bool {
        match self {
            TagSel::Any => !tag.is_collective(),
            TagSel::Tag(t) => t == tag,
        }
    }
}

/// Completion information for a receive or send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// For receives: the matched source. For sends: the destination.
    pub source: Rank,
    /// The message tag.
    pub tag: Tag,
    /// Message size in bytes.
    pub bytes: usize,
}

/// A rank's handle onto the world: all communication happens through this.
///
/// One `Comm` exists per rank; it is not `Sync` and is handed to the
/// rank's closure by [`World::run`](crate::World::run) or
/// [`World::replay`](crate::World::replay).
pub struct Comm {
    rank: Rank,
    size: usize,
    link: Link,
    /// Posted receives and unexpected messages.
    matcher: Matcher,
    hook: Arc<dyn CommHook>,
    /// Causal tracing state, present only when a recorder is attached.
    trace: Option<CommTrace>,
}

/// How a rank's envelopes travel: the executor's half of a [`Comm`].
enum Link {
    /// Rank threads ([`World::run`](crate::World::run)): every rank's
    /// mailbox sender, this rank's receiver, the world's clock and the
    /// wait's timeout.
    Threads {
        txs: Arc<Vec<Sender<Envelope>>>,
        rx: Receiver<Envelope>,
        epoch: Instant,
        timeout: Duration,
    },
    /// The replay executor ([`World::replay`](crate::World::replay)):
    /// sends and receives go through the log, and no clock is read.
    Replay(Replayer),
}

impl Comm {
    #[allow(clippy::too_many_arguments)] // internal plumbing constructor
    pub(crate) fn new(
        rank: Rank,
        size: usize,
        txs: Arc<Vec<Sender<Envelope>>>,
        rx: Receiver<Envelope>,
        hook: Arc<dyn CommHook>,
        epoch: Instant,
        timeout: Duration,
        trace: Option<CommTrace>,
    ) -> Self {
        Comm {
            rank,
            size,
            link: Link::Threads {
                txs,
                rx,
                epoch,
                timeout,
            },
            matcher: Matcher::default(),
            hook,
            trace,
        }
    }

    /// A rank of a replayed world, on a replay worker's replayer and
    /// matcher, both readied for it first: whatever the worker's previous
    /// rank left in them is not this rank's.
    pub(crate) fn replaying(
        rank: Rank,
        size: usize,
        (mut replayer, mut matcher): (Replayer, Matcher),
        hook: Arc<dyn CommHook>,
    ) -> Self {
        replayer.start(rank);
        matcher.clear();
        Comm {
            rank,
            size,
            link: Link::Replay(replayer),
            matcher,
            hook,
            trace: None,
        }
    }

    /// The replayer and matcher back once the rank has run, for the
    /// worker's next rank.
    pub(crate) fn into_replay(self) -> (Replayer, Matcher) {
        match self.link {
            Link::Replay(replayer) => (replayer, self.matcher),
            Link::Threads { .. } => unreachable!("only a replayed rank has a replayer"),
        }
    }

    /// This process's rank, `0..size`.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Nanoseconds since world start; always 0 in a replay, which reads
    /// no clock.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        match &self.link {
            Link::Threads { epoch, .. } => epoch.elapsed().as_nanos() as u64,
            Link::Replay(_) => 0,
        }
    }

    fn check_rank(&self, r: Rank) -> Result<()> {
        if r >= self.size {
            Err(MpiError::InvalidRank {
                rank: r,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    fn check_tag(&self, tag: Tag) -> Result<()> {
        if tag.is_collective() {
            Err(MpiError::ReservedTag(tag.0))
        } else {
            Ok(())
        }
    }

    pub(crate) fn emit(
        &self,
        kind: CallKind,
        scope: Scope,
        peer: Option<Rank>,
        bytes: usize,
        tag: Option<Tag>,
        t_start_ns: u64,
    ) {
        let ev = CommEvent {
            rank: self.rank,
            kind,
            scope,
            peer,
            bytes,
            tag,
            t_start_ns,
            t_end_ns: self.now_ns(),
        };
        self.hook.on_event(&ev);
    }

    // ------------------------------------------------------------------
    // raw transport (no hook events, no tag restrictions)
    // ------------------------------------------------------------------

    /// Sends an envelope; when tracing is on, stamps it with a fresh
    /// [`SpanContext`](hfast_trace::SpanContext) and returns the stamped
    /// span id (0 otherwise) so the caller can record the send span.
    pub(crate) fn send_raw(&mut self, dest: Rank, tag: Tag, payload: Payload) -> Result<u64> {
        self.check_rank(dest)?;
        let txs = match &mut self.link {
            Link::Threads { txs, .. } => txs,
            Link::Replay(replayer) => {
                return replayer.send(self.rank, dest, tag, payload).map(|()| 0)
            }
        };
        let stamp = self.trace.as_ref().map(|t| t.send_stamp());
        let span_id = stamp.as_ref().map_or(0, |s| s.span_id);
        txs[dest]
            .send(Envelope {
                src: self.rank,
                tag,
                payload,
                stamp: stamp.map(Stamp::Span),
            })
            .map_err(|_| MpiError::Disconnected {
                rank: self.rank,
                peer: dest,
            })?;
        Ok(span_id)
    }

    /// Records the send-side span closing now, if tracing is on.
    fn trace_send(&self, name: &'static str, t0: u64, span_id: u64, dest: Rank, bytes: usize) {
        if let Some(t) = &self.trace {
            let dur = self.now_ns().saturating_sub(t0).max(1);
            t.record(
                name,
                t0,
                dur,
                span_id,
                0,
                vec![("dst", dest as u64), ("bytes", bytes as u64)],
            );
        }
    }

    /// Records the receive-side span for a delivered envelope, parented to
    /// the originating send span and merging its Lamport clock.
    fn trace_recv(&self, name: &'static str, t0: u64, env: &Envelope) {
        if let Some(t) = &self.trace {
            if let Some(Stamp::Span(stamp)) = &env.stamp {
                let (span_id, clock) = t.recv_merge(stamp);
                let dur = self.now_ns().saturating_sub(t0).max(1);
                t.record(
                    name,
                    t0,
                    dur,
                    span_id,
                    stamp.span_id,
                    vec![
                        ("src", env.src as u64),
                        ("bytes", env.payload.len() as u64),
                        ("clock", clock),
                    ],
                );
            }
        }
    }

    /// Hands the matcher one more envelope while the receive `handle` is
    /// unmatched: the next off the mailbox under threads (blocking for it),
    /// or the replay's next for that receive's selectors. `alone` is false
    /// when the rank waits for any of a set of receives (`waitany`).
    fn pump_one(
        &mut self,
        handle: RecvHandle,
        alone: bool,
        waiting_for: &dyn Fn() -> String,
    ) -> Result<()> {
        let env = match &mut self.link {
            Link::Threads { rx, timeout, .. } => match recv_wait(rx, *timeout) {
                Ok(env) => env,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(MpiError::Timeout {
                        rank: self.rank,
                        waiting_for: waiting_for(),
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(MpiError::Disconnected {
                        rank: self.rank,
                        peer: self.rank,
                    })
                }
            },
            Link::Replay(replayer) => {
                let (src, tag) = self
                    .matcher
                    .describe(handle)
                    .ok_or(MpiError::StaleRequest)?;
                replayer.pull(self.rank, src, tag, alone)?
            }
        };
        self.matcher.arrive(env);
        Ok(())
    }

    /// Blocking matched receive at the transport layer: posted like an
    /// `irecv`, so receives posted earlier keep their priority, and
    /// withdrawn if the wait fails.
    pub(crate) fn recv_raw(&mut self, src: SrcSel, tag: TagSel) -> Result<Envelope> {
        let handle = self.matcher.post(src, tag);
        let me = self.rank;
        let waiting = move || format!("recv(src={src:?}, tag={tag:?}) on rank {me}");
        loop {
            if let Some(env) = self.matcher.take(handle) {
                return Ok(env);
            }
            if let Err(e) = self.pump_one(handle, true, &waiting) {
                self.matcher.cancel(handle);
                return Err(e);
            }
        }
    }

    /// Transport-scope send used by collective algorithms: emits a
    /// `TransportSend` event so network simulators can replay actual flows.
    pub(crate) fn send_transport(&mut self, dest: Rank, tag: Tag, payload: Payload) -> Result<()> {
        let t0 = self.now_ns();
        let bytes = payload.len();
        let span_id = self.send_raw(dest, tag, payload)?;
        self.emit(
            CallKind::TransportSend,
            Scope::Transport,
            Some(dest),
            bytes,
            Some(tag),
            t0,
        );
        self.trace_send("send", t0, span_id, dest, bytes);
        Ok(())
    }

    /// Transport-scope receive used by collective algorithms.
    pub(crate) fn recv_transport(&mut self, src: SrcSel, tag: TagSel) -> Result<Envelope> {
        let t0 = self.now_ns();
        let env = self.recv_raw(src, tag)?;
        self.emit(
            CallKind::TransportRecv,
            Scope::Transport,
            Some(env.src),
            env.payload.len(),
            Some(env.tag),
            t0,
        );
        self.trace_recv("recv", t0, &env);
        Ok(env)
    }

    // ------------------------------------------------------------------
    // public point-to-point API
    // ------------------------------------------------------------------

    /// Blocking standard-mode send (`MPI_Send`).
    pub fn send(&mut self, dest: Rank, tag: Tag, payload: Payload) -> Result<()> {
        self.check_tag(tag)?;
        let t0 = self.now_ns();
        let bytes = payload.len();
        let span_id = self.send_raw(dest, tag, payload)?;
        self.emit(CallKind::Send, Scope::Api, Some(dest), bytes, Some(tag), t0);
        self.trace_send("send", t0, span_id, dest, bytes);
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`). Returns the matched status and payload.
    pub fn recv(&mut self, src: Rank, tag: Tag) -> Result<(Status, Payload)> {
        self.check_tag(tag)?;
        self.check_rank(src)?;
        self.recv_sel(SrcSel::Rank(src), TagSel::Tag(tag))
    }

    /// Blocking receive with wildcard selectors.
    pub(crate) fn recv_sel(&mut self, src: SrcSel, tag: TagSel) -> Result<(Status, Payload)> {
        if let TagSel::Tag(t) = tag {
            self.check_tag(t)?;
        }
        let t0 = self.now_ns();
        let env = self.recv_raw(src, tag)?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        self.emit(
            CallKind::Recv,
            Scope::Api,
            Some(env.src),
            env.payload.len(),
            Some(env.tag),
            t0,
        );
        self.trace_recv("recv", t0, &env);
        Ok((status, env.payload))
    }

    /// Nonblocking send (`MPI_Isend`).
    ///
    /// The runtime buffers without bound, so the send completes locally; the
    /// returned request exists so the usual `isend → wait` call pattern (and
    /// its profile signature) matches real applications.
    pub fn isend(&mut self, dest: Rank, tag: Tag, payload: Payload) -> Result<Request> {
        self.check_tag(tag)?;
        let t0 = self.now_ns();
        let bytes = payload.len();
        let span_id = self.send_raw(dest, tag, payload)?;
        self.emit(
            CallKind::Isend,
            Scope::Api,
            Some(dest),
            bytes,
            Some(tag),
            t0,
        );
        self.trace_send("send", t0, span_id, dest, bytes);
        Ok(Request::Send(Status {
            source: dest,
            tag,
            bytes,
        }))
    }

    /// Nonblocking receive (`MPI_Irecv`).
    ///
    /// `expected_bytes` is the posted buffer size — it is what the profiling
    /// layer records for this call, mirroring how IPM sees the buffer-size
    /// argument of the real `MPI_Irecv`.
    pub fn irecv(&mut self, src: SrcSel, tag: TagSel, expected_bytes: usize) -> Result<Request> {
        if let TagSel::Tag(t) = tag {
            self.check_tag(t)?;
        }
        if let SrcSel::Rank(r) = src {
            self.check_rank(r)?;
        }
        let t0 = self.now_ns();
        let handle = self.matcher.post(src, tag);
        let peer = match src {
            SrcSel::Rank(r) => Some(r),
            SrcSel::Any => None,
        };
        let tag_opt = match tag {
            TagSel::Tag(t) => Some(t),
            TagSel::Any => None,
        };
        self.emit(
            CallKind::Irecv,
            Scope::Api,
            peer,
            expected_bytes,
            tag_opt,
            t0,
        );
        Ok(Request::Recv(handle))
    }

    /// Combined send and receive (`MPI_Sendrecv`).
    pub fn sendrecv(
        &mut self,
        dest: Rank,
        send_tag: Tag,
        payload: Payload,
        src: Rank,
        recv_tag: Tag,
    ) -> Result<(Status, Payload)> {
        self.check_tag(send_tag)?;
        self.check_tag(recv_tag)?;
        self.check_rank(src)?;
        let t0 = self.now_ns();
        let bytes = payload.len();
        let span_id = self.send_raw(dest, send_tag, payload)?;
        self.trace_send("send", t0, span_id, dest, bytes);
        let env = self.recv_raw(SrcSel::Rank(src), TagSel::Tag(recv_tag))?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        self.emit(
            CallKind::Sendrecv,
            Scope::Api,
            Some(dest),
            bytes,
            Some(send_tag),
            t0,
        );
        self.trace_recv("recv", t0, &env);
        Ok((status, env.payload))
    }

    // ------------------------------------------------------------------
    // completion calls
    // ------------------------------------------------------------------

    fn resolve_recv(&mut self, handle: RecvHandle) -> Result<Envelope> {
        loop {
            if let Some(env) = self.matcher.take(handle) {
                return Ok(env);
            }
            let Some(desc) = self.matcher.describe(handle) else {
                return Err(MpiError::StaleRequest);
            };
            let me = self.rank;
            let waiting = move || format!("wait(irecv {desc:?}) on rank {me}");
            // Nothing matched yet: pump the wire.
            self.pump_one(handle, true, &waiting)?;
        }
    }

    /// Completes one request (`MPI_Wait`). For receives, returns the payload.
    pub fn wait(&mut self, request: Request) -> Result<(Status, Option<Payload>)> {
        let t0 = self.now_ns();
        let out = match request {
            Request::Send(status) => (status, None),
            Request::Recv(handle) => {
                let env = self.resolve_recv(handle)?;
                self.trace_recv("wait", t0, &env);
                (
                    Status {
                        source: env.src,
                        tag: env.tag,
                        bytes: env.payload.len(),
                    },
                    Some(env.payload),
                )
            }
        };
        self.emit(CallKind::Wait, Scope::Api, None, 0, None, t0);
        Ok(out)
    }

    /// Completes all requests (`MPI_Waitall`).
    pub fn waitall(&mut self, requests: Vec<Request>) -> Result<Vec<(Status, Option<Payload>)>> {
        let t0 = self.now_ns();
        let mut out = Vec::with_capacity(requests.len());
        for req in requests {
            match req {
                Request::Send(status) => out.push((status, None)),
                Request::Recv(handle) => {
                    let env = self.resolve_recv(handle)?;
                    self.trace_recv("wait", t0, &env);
                    out.push((
                        Status {
                            source: env.src,
                            tag: env.tag,
                            bytes: env.payload.len(),
                        },
                        Some(env.payload),
                    ));
                }
            }
        }
        self.emit(CallKind::Waitall, Scope::Api, None, 0, None, t0);
        Ok(out)
    }

    /// Completes any one request (`MPI_Waitany`).
    ///
    /// Removes and returns the completed request's index in `requests`
    /// together with its status/payload. Remaining requests stay pending.
    pub fn waitany(
        &mut self,
        requests: &mut Vec<Request>,
    ) -> Result<(usize, Status, Option<Payload>)> {
        assert!(!requests.is_empty(), "waitany on an empty request set");
        let t0 = self.now_ns();
        loop {
            // Send requests are complete by construction; also check matched
            // receives, unless none is matched (then no `take` can succeed,
            // and a long receive list costs no lookups).
            let mut ready: Option<(usize, Option<Envelope>)> = None;
            let any_matched = self.matcher.any_matched();
            for (i, req) in requests.iter().enumerate() {
                match req {
                    Request::Send(_) => {
                        ready = Some((i, None));
                        break;
                    }
                    Request::Recv(h) if any_matched => {
                        if let Some(env) = self.matcher.take(*h) {
                            ready = Some((i, Some(env)));
                            break;
                        }
                    }
                    Request::Recv(_) => {}
                }
            }
            if let Some((i, env)) = ready {
                let out = match (requests.remove(i), env) {
                    (Request::Send(status), _) => (i, status, None),
                    (Request::Recv(_), env) => {
                        let env = env.expect("taken above");
                        self.trace_recv("wait", t0, &env);
                        (
                            i,
                            Status {
                                source: env.src,
                                tag: env.tag,
                                bytes: env.payload.len(),
                            },
                            Some(env.payload),
                        )
                    }
                };
                self.emit(CallKind::Waitany, Scope::Api, None, 0, None, t0);
                return Ok(out);
            }
            let me = self.rank;
            let n = requests.len();
            let waiting = move || format!("waitany over {n} requests on rank {me}");
            // Every receive in the set is unmatched here; the first one
            // steers the replay's pull.
            let first = requests
                .iter()
                .find_map(|r| match r {
                    Request::Recv(h) => Some(*h),
                    Request::Send(_) => None,
                })
                .expect("a set with no receive completes at once");
            self.pump_one(first, false, &waiting)?;
        }
    }

    /// Number of posted-but-uncompleted receives (diagnostics).
    pub fn outstanding_recvs(&self) -> usize {
        self.matcher.outstanding()
    }

    /// Number of unexpected (arrived, unmatched) messages (diagnostics).
    pub fn unexpected_depth(&self) -> usize {
        self.matcher.unexpected_depth()
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("unexpected", &self.matcher.unexpected_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{World, WorldConfig};

    #[test]
    fn selector_accepts() {
        assert!(TagSel::Any.accepts(Tag(1)));
        assert!(!TagSel::Any.accepts(Tag(Tag::COLLECTIVE_BASE | 1)));
        assert!(TagSel::Tag(Tag(1)).accepts(Tag(1)));
        assert!(!TagSel::Tag(Tag(1)).accepts(Tag(2)));
    }

    #[test]
    fn ring_exchange_with_data() {
        let results = World::run(4, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let data = Payload::from_f64s(&[comm.rank() as f64]);
            comm.send(right, Tag(1), data).unwrap();
            let (_status, payload) = comm.recv(left, Tag(1)).unwrap();
            payload.to_f64s().unwrap()[0] as usize
        })
        .unwrap();
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn nonblocking_exchange() {
        let results = World::run(8, |comm| {
            let partner = comm.rank() ^ 1;
            let rreq = comm
                .irecv(SrcSel::Rank(partner), TagSel::Tag(Tag(9)), 16)
                .unwrap();
            let sreq = comm
                .isend(
                    partner,
                    Tag(9),
                    Payload::from_f64s(&[comm.rank() as f64 * 2.0]),
                )
                .unwrap();
            let (_, payload) = comm.wait(rreq).unwrap();
            comm.wait(sreq).unwrap();
            payload.unwrap().to_f64s().unwrap()[0]
        })
        .unwrap();
        for (r, v) in results.iter().enumerate() {
            assert_eq!(*v, (r ^ 1) as f64 * 2.0);
        }
    }

    #[test]
    fn sendrecv_shift() {
        let results = World::run(5, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let (status, _p) = comm
                .sendrecv(right, Tag(2), Payload::synthetic(128 << 10), left, Tag(2))
                .unwrap();
            (status.source, status.bytes)
        })
        .unwrap();
        for (r, (src, bytes)) in results.iter().enumerate() {
            assert_eq!(*src, (r + 4) % 5);
            assert_eq!(*bytes, 128 << 10);
        }
    }

    #[test]
    fn waitany_returns_as_messages_arrive() {
        let results = World::run(3, |comm| match comm.rank() {
            0 => {
                // Two receives from distinct peers, completed in arrival order.
                let mut reqs = vec![
                    comm.irecv(SrcSel::Rank(1), TagSel::Tag(Tag(5)), 8).unwrap(),
                    comm.irecv(SrcSel::Rank(2), TagSel::Tag(Tag(5)), 8).unwrap(),
                ];
                let mut sources = vec![];
                while !reqs.is_empty() {
                    let (_, status, _) = comm.waitany(&mut reqs).unwrap();
                    sources.push(status.source);
                }
                sources.sort_unstable();
                sources
            }
            r => {
                comm.send(0, Tag(5), Payload::synthetic(8)).unwrap();
                vec![r]
            }
        })
        .unwrap();
        assert_eq!(results[0], vec![1, 2]);
    }

    #[test]
    fn any_source_recv() {
        let results = World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut total = 0;
                for _ in 0..3 {
                    let (status, _) = comm.recv_sel(SrcSel::Any, TagSel::Tag(Tag(3))).unwrap();
                    total += status.source;
                }
                total
            } else {
                comm.send(0, Tag(3), Payload::synthetic(4)).unwrap();
                0
            }
        })
        .unwrap();
        assert_eq!(results[0], 1 + 2 + 3);
    }

    #[test]
    fn message_order_preserved_per_pair() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, Tag(7), Payload::from_f64s(&[i as f64]))
                        .unwrap();
                }
                vec![]
            } else {
                let mut got = vec![];
                for _ in 0..10 {
                    let (_, p) = comm.recv(0, Tag(7)).unwrap();
                    got.push(p.to_f64s().unwrap()[0] as u32);
                }
                got
            }
        })
        .unwrap();
        assert_eq!(results[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn unexpected_messages_are_buffered() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), Payload::synthetic(1)).unwrap();
                comm.send(1, Tag(2), Payload::synthetic(2)).unwrap();
                0
            } else {
                // Receive in reverse tag order: tag-1 message is buffered.
                let (s2, _) = comm.recv(0, Tag(2)).unwrap();
                let (s1, _) = comm.recv(0, Tag(1)).unwrap();
                assert_eq!(s2.bytes, 2);
                assert_eq!(s1.bytes, 1);
                comm.unexpected_depth()
            }
        })
        .unwrap();
        assert_eq!(results[1], 0, "all buffered messages consumed");
    }

    #[test]
    fn invalid_rank_rejected() {
        World::run(2, |comm| {
            let err = comm.send(5, Tag(1), Payload::synthetic(1)).unwrap_err();
            assert!(matches!(err, MpiError::InvalidRank { rank: 5, size: 2 }));
        })
        .unwrap();
    }

    #[test]
    fn reserved_tag_rejected() {
        World::run(1, |comm| {
            let err = comm
                .send(0, Tag(Tag::COLLECTIVE_BASE | 1), Payload::synthetic(1))
                .unwrap_err();
            assert!(matches!(err, MpiError::ReservedTag(_)));
        })
        .unwrap();
    }

    #[test]
    fn any_tag_receive_leaves_collective_traffic_alone() {
        // Rank 1's ANY_TAG receive is posted before the barrier, so rank 0's
        // barrier token must pass it by and complete the barrier; only the
        // application message after it may land there.
        let results = World::run_with(
            WorldConfig::new(2).timeout(Duration::from_secs(3)),
            |comm| -> Result<u32> {
                if comm.rank() == 0 {
                    comm.barrier()?;
                    comm.send(1, Tag(6), Payload::synthetic(48))?;
                    return Ok(0);
                }
                let req = comm.irecv(SrcSel::Rank(0), TagSel::Any, 48)?;
                comm.barrier()?;
                Ok(comm.wait(req)?.0.tag.0)
            },
        )
        .unwrap();
        assert_eq!(results, vec![Ok(0), Ok(6)]);
    }

    #[test]
    fn self_send_works() {
        let results = World::run(1, |comm| {
            comm.send(0, Tag(1), Payload::synthetic(64)).unwrap();
            let (s, _) = comm.recv(0, Tag(1)).unwrap();
            s.bytes
        })
        .unwrap();
        assert_eq!(results, vec![64]);
    }
}
