//! The replay executor: a world's ranks run one after another against a
//! log of every send, instead of one OS thread each.
//!
//! [`World::replay`] runs in two passes.
//!
//! * **Pass one** runs the ranks alone in ascending order with no hook.
//!   Each rank appends its sends to one [`Log`]. A receive is served from
//!   the sends already logged for it (every lower rank's, complete by
//!   then, and the rank's own), or else from a stand-in: a zero-byte
//!   synthetic envelope marked [`Stamp::StandIn`], which a reduction takes
//!   as its identity.
//! * **Pass two** reruns every rank against the complete log with the
//!   configured hook attached. Each receive is served from the log, per
//!   source in send order, so the ranks are independent and run on
//!   scoped workers in any order. A rank whose sends differ from its
//!   pass-one log is refused with [`MpiError::Diverged`], a receive the
//!   log cannot match with [`MpiError::Unmatched`], and ranks whose
//!   receives wait on one another in a cycle, which threads would wait out
//!   until their timeout, with [`MpiError::Deadlock`]: each at once,
//!   naming the rank.
//!
//! The replay is exact for rank programs whose sends depend neither on
//! received bytes, nor on timing, nor on which source an `ANY_SOURCE`
//! receive matched: pass one then logs each rank's real send stream, and
//! pass two hands every receive what a threaded run would (the matching
//! rules are the [`Matcher`](crate::request::Matcher)'s, and an
//! `ANY_SOURCE` receive is offered the lowest source first). Replayed calls
//! take no time: nothing reads a clock, so every event has
//! `t_start_ns == t_end_ns == 0`. The world's `timeout` and `trace` are
//! not used: nothing waits, and there is no wall-clock order to trace.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::comm::{Comm, SrcSel, TagSel};
use crate::error::{MpiError, Result};
use crate::hook::{CommHook, NullHook};
use crate::message::{Envelope, Payload, Stamp};
use crate::request::RankMap;
use crate::runtime::{panic_message, World, WorldConfig};
use crate::{Rank, Tag};

impl World {
    /// Runs `f` on each rank under the given configuration without rank
    /// threads, in the two passes the module docs describe.
    ///
    /// Returns each rank's pass-two result, indexed by rank, or the error
    /// of the lowest rank that failed: [`MpiError::RankPanic`] (pass one
    /// stops at the first panic), [`MpiError::Diverged`] or
    /// [`MpiError::Unmatched`]; failing those, [`MpiError::Deadlock`] if
    /// ranks wait on one another in a cycle. `f` runs twice per rank, so
    /// any effect it has outside its [`Comm`] happens twice.
    pub fn replay<F, R>(config: WorldConfig, f: F) -> Result<Vec<R>>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        let size = config.size;
        assert!(size > 0, "world size must be positive");
        let quiet: Arc<dyn CommHook> = Arc::new(NullHook);
        let mut log = Log::new(size);
        for rank in 0..size {
            let replayer = Replayer::record(log, rank);
            let mut comm = Comm::replaying(rank, size, replayer, Arc::clone(&quiet));
            let ran = catch_unwind(AssertUnwindSafe(|| drop(f(&mut comm))));
            log = comm.into_replayer().into_log();
            if let Err(payload) = ran {
                let message = panic_message(payload);
                return Err(MpiError::RankPanic { rank, message });
            }
        }

        let log = Arc::new(log);
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let rank = next.fetch_add(1, Ordering::Relaxed);
                if rank >= size {
                    return done;
                }
                let replayer = Replayer::check(Arc::clone(&log));
                let mut comm = Comm::replaying(rank, size, replayer, Arc::clone(&config.hook));
                let out = match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                    Ok(value) => comm
                        .into_replayer()
                        .finish(rank)
                        .map(|waits| (value, waits)),
                    Err(payload) => Err(MpiError::RankPanic {
                        rank,
                        message: panic_message(payload),
                    }),
                };
                done.push((rank, out));
            }
        };
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers.min(size))
                .map(|_| scope.spawn(worker))
                .collect();
            let mut done = worker();
            for helper in helpers {
                done.extend(helper.join().expect("a worker catches its ranks' panics"));
            }
            done
        });
        done.sort_unstable_by_key(|&(rank, _)| rank);
        let mut results = Vec::with_capacity(size);
        let mut waits = Vec::with_capacity(size);
        for (_, out) in done {
            let (value, rank_waits) = out?;
            results.push(value);
            waits.push(rank_waits);
        }
        log.first_deadlock(&waits).map_or(Ok(results), Err)
    }
}

/// One logged send.
#[derive(Debug, PartialEq)]
struct Sent {
    dst: u32,
    tag: Tag,
    payload: Payload,
}

/// What a rank sent, as an error text reads it.
fn describe(sent: Option<&Sent>) -> String {
    match sent {
        Some(Sent { dst, tag, payload }) => {
            let form = match payload {
                Payload::Synthetic(_) => "synthetic".to_string(),
                Payload::Data(bytes) => {
                    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                    });
                    format!("data, FNV {fnv:016x}")
                }
            };
            format!("{} B ({form}) to rank {dst} with tag {tag}", payload.len())
        }
        None => "no send".to_string(),
    }
}

/// Every send of a world, and for each rank the sends addressed to it.
///
/// Pass one appends; pass two only reads. A send costs one [`Sent`] and
/// one `u32` inbox entry, and nothing is sized P per rank.
#[derive(Debug)]
pub(crate) struct Log {
    /// Every send, rank by rank, each rank's in send order.
    sends: Vec<Sent>,
    /// Rank `r`'s sends start at `sends[starts[r]]`; one entry per rank
    /// that has started.
    starts: Vec<usize>,
    /// Per rank, the indices into `sends` addressed to it, ascending: by
    /// source, and within one source in send order.
    inbox: Vec<Vec<u32>>,
}

impl Log {
    fn new(size: usize) -> Self {
        Log {
            sends: Vec::new(),
            starts: Vec::with_capacity(size),
            inbox: vec![Vec::new(); size],
        }
    }

    fn push(&mut self, dst: Rank, tag: Tag, payload: Payload) {
        let index = u32::try_from(self.sends.len()).expect("a replay logs under 2^32 sends");
        self.inbox[dst].push(index);
        self.sends.push(Sent {
            dst: dst as u32,
            tag,
            payload,
        });
    }

    /// Where `rank`'s sends lie in `sends`; `None` before it has started.
    fn range(&self, rank: Rank) -> Option<Range<usize>> {
        let start = *self.starts.get(rank)?;
        let end = self.starts.get(rank + 1).copied();
        Some(start..end.unwrap_or(self.sends.len()))
    }

    /// The rank that made send `index`.
    fn source_of(&self, index: u32) -> Rank {
        self.starts
            .partition_point(|&start| start <= index as usize)
            - 1
    }

    /// The next unread send from `src` in `me`'s inbox, advancing `next`.
    fn next_from(&self, next: &mut RankMap<usize>, me: Rank, src: Rank) -> Option<u32> {
        let range = self.range(src)?;
        let inbox = &self.inbox[me];
        let pos = next
            .entry(src)
            .or_insert_with(|| inbox.partition_point(|&i| (i as usize) < range.start));
        let &index = inbox.get(*pos).filter(|&&i| (i as usize) < range.end)?;
        *pos += 1;
        Some(index)
    }

    /// The next unread send from the lowest source that has one.
    fn next_from_any(&self, next: &mut RankMap<usize>, me: Rank) -> Option<(Rank, u32)> {
        let inbox = &self.inbox[me];
        let mut pos = 0;
        while let Some(&index) = inbox.get(pos) {
            let src = self.source_of(index);
            if let Some(index) = self.next_from(next, me, src) {
                return Some((src, index));
            }
            let end = self.range(src).expect("a source has started").end;
            pos = inbox.partition_point(|&i| (i as usize) < end);
        }
        None
    }

    /// The lowest rank left waiting when every rank runs as far as its
    /// pass-two `waits` allow ([`MpiError::Deadlock`]), or `None` if every
    /// rank can finish: then some order of the threaded world's events
    /// delivers each receive the send the replay gave it.
    ///
    /// Sends never block, so a rank makes every send before its next wait,
    /// and a wait is met once its source has made the send it needs. Sweeps
    /// alternate direction, so a chain of waits running down or up the
    /// ranks is resolved by the next sweep.
    fn first_deadlock(&self, waits: &[Vec<Wait>]) -> Option<MpiError> {
        let size = waits.len();
        // Per rank: the sends it can have made, and its next unmet wait.
        let mut made = vec![0u32; size];
        let mut next = vec![0usize; size];
        let mut ascending = true;
        loop {
            let mut moved = false;
            for i in 0..size {
                let rank = if ascending { i } else { size - 1 - i };
                let (start, had) = (next[rank], made[rank]);
                while let Some(wait) = waits[rank].get(next[rank]) {
                    made[rank] = made[rank].max(wait.before);
                    if made[wait.src as usize] < wait.need {
                        break;
                    }
                    next[rank] += 1;
                }
                if next[rank] == waits[rank].len() {
                    made[rank] = self.range(rank).expect("every rank ran").len() as u32;
                }
                moved |= next[rank] != start || made[rank] != had;
            }
            if !moved {
                break;
            }
            ascending = !ascending;
        }
        let rank = (0..size).find(|&r| next[r] < waits[r].len())?;
        let src = waits[rank][next[rank]].src as Rank;
        Some(MpiError::Deadlock { rank, src })
    }
}

/// A pass-two rank blocked after `before` sends until `src` had made
/// `need` sends (its last being the one the receive got).
#[derive(Debug, Clone, Copy)]
struct Wait {
    before: u32,
    src: u32,
    need: u32,
}

/// Which pass a rank runs in.
#[derive(Debug)]
enum Pass {
    /// Pass one: the rank appends to the log it holds while it runs.
    Record(Log),
    /// Pass two: the complete log, shared by every worker.
    Check(Arc<Log>),
}

/// One rank's transport under [`World::replay`]: its sends go to (pass
/// one) or are checked against (pass two) the log, and its receives are
/// served from it.
#[derive(Debug)]
pub(crate) struct Replayer {
    pass: Pass,
    /// Per source, the position in this rank's inbox of its next unread
    /// send.
    next: RankMap<usize>,
    /// Sends made so far.
    sent: usize,
    /// Pass two's waits on a single receive (not `waitany`'s, nor an
    /// `ANY_SOURCE` receive's, which other sends could have met).
    waits: Vec<Wait>,
    /// The first refusal, which the world reports.
    fault: Option<MpiError>,
}

impl Replayer {
    /// Pass one for `rank`, which starts its sends at the log's end.
    fn record(mut log: Log, rank: Rank) -> Self {
        debug_assert_eq!(log.starts.len(), rank, "ranks record in order");
        log.starts.push(log.sends.len());
        Self::new(Pass::Record(log))
    }

    /// Pass two, against the complete log.
    fn check(log: Arc<Log>) -> Self {
        Self::new(Pass::Check(log))
    }

    fn new(pass: Pass) -> Self {
        Replayer {
            pass,
            next: RankMap::default(),
            sent: 0,
            waits: Vec::new(),
            fault: None,
        }
    }

    fn log(&self) -> &Log {
        match &self.pass {
            Pass::Record(log) => log,
            Pass::Check(log) => log,
        }
    }

    /// The pass-one log back, once its rank has run.
    fn into_log(self) -> Log {
        match self.pass {
            Pass::Record(log) => log,
            Pass::Check(_) => unreachable!("only pass one owns the log"),
        }
    }

    /// Pass two's verdict on a rank that returned: its first refusal, or
    /// [`MpiError::Diverged`] if it stopped short of its pass-one sends;
    /// else its waits.
    fn finish(self, me: Rank) -> Result<Vec<Wait>> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let log = self.log();
        let mine = log.range(me).expect("pass one ran every rank");
        match log.sends[mine].get(self.sent) {
            None => Ok(self.waits),
            missing => Err(MpiError::Diverged {
                rank: me,
                send: self.sent,
                pass_one: describe(missing),
                pass_two: describe(None),
            }),
        }
    }

    /// Records the first refusal and returns it.
    fn refuse(&mut self, fault: MpiError) -> MpiError {
        self.fault.get_or_insert(fault).clone()
    }

    /// `me` sends: pass one logs the send, pass two checks it against the
    /// log.
    pub(crate) fn send(&mut self, me: Rank, dst: Rank, tag: Tag, payload: Payload) -> Result<()> {
        let send = self.sent;
        self.sent += 1;
        let log = match &mut self.pass {
            Pass::Record(log) => {
                log.push(dst, tag, payload);
                return Ok(());
            }
            Pass::Check(log) => log,
        };
        let mine = log.range(me).expect("pass one ran every rank");
        let made = Sent {
            dst: dst as u32,
            tag,
            payload,
        };
        let logged = log.sends[mine].get(send);
        if logged == Some(&made) {
            return Ok(());
        }
        let fault = MpiError::Diverged {
            rank: me,
            send,
            pass_one: describe(logged),
            pass_two: describe(Some(&made)),
        };
        Err(self.refuse(fault))
    }

    /// The next envelope for a receive of `me`'s waiting on `src` and
    /// `tag`: the next logged send from that source (from the lowest
    /// source with one under `ANY_SOURCE`); failing that, a stand-in in
    /// pass one and [`MpiError::Unmatched`] in pass two. `alone` is false
    /// when the rank waits for any of a set of receives (`waitany`).
    pub(crate) fn pull(
        &mut self,
        me: Rank,
        src: SrcSel,
        tag: TagSel,
        alone: bool,
    ) -> Result<Envelope> {
        let log = match &self.pass {
            Pass::Record(log) => log,
            Pass::Check(log) => &**log,
        };
        let found = match src {
            SrcSel::Rank(r) => log.next_from(&mut self.next, me, r).map(|i| (r, i)),
            SrcSel::Any => log.next_from_any(&mut self.next, me),
        };
        if let Some((from, index)) = found {
            if alone && matches!((&self.pass, src), (Pass::Check(_), SrcSel::Rank(_))) {
                let first = log.range(from).expect("a logged source ran").start;
                self.waits.push(Wait {
                    before: self.sent as u32,
                    src: from as u32,
                    need: index + 1 - first as u32,
                });
            }
            let sent = &log.sends[index as usize];
            return Ok(Envelope {
                src: from,
                tag: sent.tag,
                payload: sent.payload.clone(),
                stamp: None,
            });
        }
        let src = match src {
            SrcSel::Rank(r) => Some(r),
            SrcSel::Any => None,
        };
        let tag = match tag {
            TagSel::Tag(t) => Some(t),
            TagSel::Any => None,
        };
        if let Pass::Check(_) = self.pass {
            let fault = MpiError::Unmatched { rank: me, src, tag };
            return Err(self.refuse(fault));
        }
        Ok(Envelope {
            src: src.unwrap_or(me),
            tag: tag.unwrap_or(Tag(0)),
            payload: Payload::synthetic(0),
            stamp: Some(Stamp::StandIn),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::hook::{CallKind, RecordingHook};
    use crate::ReduceOp;

    /// Under rank threads the same worlds wait for `timeout`: this is how
    /// long a replay's refusal may take.
    const PROMPT: Duration = Duration::from_secs(1);

    #[test]
    fn ring_matches_threads_and_takes_no_time() {
        let ring = |comm: &mut Comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let req = comm.isend(right, Tag(1), Payload::synthetic(8)).unwrap();
            let (status, _) = comm.recv(left, Tag(1)).unwrap();
            comm.wait(req).unwrap();
            comm.barrier().unwrap();
            status.source
        };
        let hook = Arc::new(RecordingHook::new());
        let config = WorldConfig::new(16).hook(hook.clone() as Arc<dyn CommHook>);
        let replayed = World::replay(config, ring).unwrap();
        assert_eq!(replayed, World::run(16, ring).unwrap());
        let events = hook.take();
        let count = |kind| events.iter().filter(|e| e.kind == kind).count();
        assert_eq!([count(CallKind::Isend), count(CallKind::Barrier)], [16, 16]);
        assert!(events.iter().all(|e| e.t_start_ns == 0 && e.t_end_ns == 0));
    }

    #[test]
    fn a_ring_with_a_silent_rank_names_the_receive_it_starves() {
        let t0 = Instant::now();
        let err = World::replay(WorldConfig::new(8), |comm| -> Result<()> {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            if comm.rank() != 3 {
                comm.send(right, Tag(5), Payload::synthetic(64))?;
            }
            comm.recv(left, Tag(5))?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(
            err,
            MpiError::Unmatched {
                rank: 4,
                src: Some(3),
                tag: Some(Tag(5))
            }
        );
        assert_eq!(
            err.to_string(),
            "rank 4: no send in the world matches recv(src=3, tag=5)"
        );
        assert!(t0.elapsed() < PROMPT, "took {:?}", t0.elapsed());
    }

    #[test]
    fn forwarding_a_length_pass_one_could_not_know_is_refused() {
        // Rank 0 receives from rank 1 before rank 1 has run, so pass one
        // hands it a zero-byte stand-in, and it forwards that length.
        let t0 = Instant::now();
        let err = World::replay(WorldConfig::new(2), |comm| -> Result<()> {
            if comm.rank() == 0 {
                comm.send(1, Tag(2), Payload::synthetic(16))?;
                let (status, _) = comm.recv(1, Tag(1))?;
                comm.send(1, Tag(1), Payload::synthetic(status.bytes))?;
            } else {
                comm.send(0, Tag(1), Payload::synthetic(64))?;
                comm.recv(0, Tag(2))?;
                comm.recv(0, Tag(1))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(
            err,
            MpiError::Diverged {
                rank: 0,
                send: 1,
                pass_one: "0 B (synthetic) to rank 1 with tag 1".to_string(),
                pass_two: "64 B (synthetic) to rank 1 with tag 1".to_string(),
            }
        );
        assert!(t0.elapsed() < PROMPT);
    }

    #[test]
    fn receives_that_wait_on_each_other_are_a_deadlock() {
        // Under rank threads, ranks 1 and 2 each wait for the other's
        // send, which follows its own receive, until the timeout.
        let t0 = Instant::now();
        let err = World::replay(WorldConfig::new(3), |comm| -> Result<()> {
            if comm.rank() > 0 {
                let peer = 3 - comm.rank();
                comm.recv(peer, Tag(1))?;
                comm.send(peer, Tag(1), Payload::synthetic(8))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, MpiError::Deadlock { rank: 1, src: 2 });
        assert!(t0.elapsed() < PROMPT);
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = World::replay(WorldConfig::new(3), |comm| {
            if comm.rank() == 1 {
                panic!("deliberate test panic");
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            MpiError::RankPanic {
                rank: 1,
                message: "deliberate test panic".to_string()
            }
        );
    }

    #[test]
    fn any_source_takes_the_lowest_source_first() {
        let sources = World::replay(WorldConfig::new(4), |comm| {
            if comm.rank() == 2 {
                (0..3)
                    .map(|_| comm.recv_sel(SrcSel::Any, TagSel::Any).unwrap().0.source)
                    .collect()
            } else {
                comm.send(2, Tag(3), Payload::synthetic(1)).unwrap();
                vec![]
            }
        })
        .unwrap();
        assert_eq!(sources[2], vec![0, 1, 3]);
    }

    #[test]
    fn reductions_take_stand_ins_as_identity() {
        // In pass one every partial from a higher rank is a stand-in, so
        // each tree node forwards its own length, which is the real one.
        let lengths = World::replay(WorldConfig::new(5), |comm| {
            comm.allreduce(Payload::synthetic(24), ReduceOp::Max)
        })
        .unwrap();
        assert_eq!(lengths, vec![Ok(Payload::synthetic(24)); 5]);
        // Data sums are what pass one's root cannot know: it broadcasts
        // its own value, a send that depends on received bytes.
        let sums = World::replay(WorldConfig::new(5), |comm| {
            comm.allreduce(Payload::from_f64s(&[comm.rank() as f64]), ReduceOp::Sum)
        })
        .unwrap_err();
        let MpiError::Diverged {
            rank: 0,
            send: 0,
            pass_one,
            pass_two,
        } = sums
        else {
            panic!("{sums:?}");
        };
        assert_ne!(pass_one, pass_two);
    }
}
