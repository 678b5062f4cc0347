//! Nonblocking request handles and the per-communicator message matcher.

use std::collections::VecDeque;

use crate::comm::{SrcSel, Status, TagSel};
use crate::message::Envelope;
use crate::Rank;

/// Handle to an outstanding nonblocking operation.
///
/// Obtained from [`Comm::isend`](crate::Comm::isend) /
/// [`Comm::irecv`](crate::Comm::irecv) and resolved by the `wait*` family.
#[derive(Debug)]
pub enum Request {
    /// A completed (buffered) send. The runtime's channels buffer without
    /// bound, so standard-mode sends complete locally at post time — the
    /// request only carries the status for `wait` to report.
    Send(Status),
    /// A pending receive, indexed into the communicator's matcher.
    Recv(RecvHandle),
}

/// Opaque handle of a posted receive: its source key and posting number.
/// Posting numbers are never reused, so a completed handle stays stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvHandle {
    src: Rank,
    seq: u64,
}

/// Source key under which `ANY_SOURCE` receives wait; no rank reaches it.
const ANY_SOURCE: Rank = Rank::MAX;

/// One source's side of the matching: the receives that name it and the
/// envelopes it sent that no receive has taken.
#[derive(Debug, Default)]
struct Fifo {
    /// Unmatched receives as `(seq, tag)`, in posting order.
    waiting: VecDeque<(u64, TagSel)>,
    /// Matched receives not yet taken, as `(seq, envelope)`.
    matched: Vec<(u64, Envelope)>,
    /// Envelopes no receive has accepted yet, as `(arrival, envelope)`,
    /// in arrival order.
    unexpected: VecDeque<(u64, Envelope)>,
}

/// One rank's message matching: posted receives on one side, unexpected
/// envelopes on the other, both kept per source.
///
/// Four ordering rules hold, each MPI's:
///
/// 1. An arriving envelope goes to the earliest-posted receive that accepts
///    it. A blocking receive is posted like any other when it starts, so
///    receives posted before it win.
/// 2. No overtaking per source: envelopes from one source are matched in
///    arrival order, receives naming one source in posting order.
/// 3. An `ANY_SOURCE` receive takes the earliest-arrived acceptable
///    envelope.
/// 4. An `ANY_TAG` receive skips collective-tagged envelopes: they are the
///    runtime's internal traffic (user sends reject the reserved namespace),
///    e.g. a peer's barrier token arriving while the receive is posted.
///    [`TagSel::accepts`] holds this rule, so posting and arrival both
///    apply it.
///
/// No unexpected envelope is ever acceptable to a waiting receive, since
/// each is offered to the waiting receives when it arrives and to each new
/// receive when it is posted. The [`Fifo`]s are indexed by source rank, in
/// a `Vec` grown to the highest source the rank hears from or names, and
/// `ANY_SOURCE` receives get one more beside it, so an envelope or a
/// receive costs one index and a walk of its own source's queue. Beside
/// the queued entries, a matcher costs one [`Fifo`] header (88 bytes) per
/// rank up to the highest source it meets: at most 88·P bytes, whatever
/// the traffic. A threaded world keeps P matchers alive at once.
///
/// A replay worker runs every rank it takes on one matcher, and
/// [`clear`](Self::clear) empties it between ranks while keeping the
/// queues' allocations.
#[derive(Debug, Default)]
pub(crate) struct Matcher {
    next_seq: u64,
    next_arrival: u64,
    /// Per named source, indexed by rank.
    fifos: Vec<Fifo>,
    /// `ANY_SOURCE` receives (its `unexpected` stays empty).
    any: Fifo,
    /// Receives posted and not yet matched or cancelled.
    waiting: usize,
    /// Receives matched and not yet taken.
    matched: usize,
    /// Envelopes in the `unexpected` queues.
    unexpected: usize,
}

impl Matcher {
    /// Posts a receive, matching it at once to the earliest-arrived
    /// acceptable unexpected envelope if there is one.
    pub(crate) fn post(&mut self, src: SrcSel, tag: TagSel) -> RecvHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let accepts =
            |q: &VecDeque<(u64, Envelope)>| q.iter().position(|(_, e)| tag.accepts(e.tag));
        let (key, found) = match src {
            SrcSel::Rank(r) => {
                let found = self
                    .fifos
                    .get_mut(r)
                    .and_then(|f| accepts(&f.unexpected).and_then(|i| f.unexpected.remove(i)));
                (r, found)
            }
            SrcSel::Any if self.unexpected == 0 => (ANY_SOURCE, None),
            SrcSel::Any => {
                let earliest = self
                    .fifos
                    .iter()
                    .enumerate()
                    .filter_map(|(r, f)| accepts(&f.unexpected).map(|i| (f.unexpected[i].0, r, i)))
                    .min();
                let found = earliest.and_then(|(_, r, i)| self.fifos[r].unexpected.remove(i));
                (ANY_SOURCE, found)
            }
        };
        let fifo = self.fifo(key);
        match found {
            Some((_, env)) => {
                fifo.matched.push((seq, env));
                self.matched += 1;
                self.unexpected -= 1;
            }
            None => {
                fifo.waiting.push_back((seq, tag));
                self.waiting += 1;
            }
        }
        RecvHandle { src: key, seq }
    }

    /// Delivers an envelope off the wire to the earliest-posted receive that
    /// accepts it, or queues it as unexpected.
    pub(crate) fn arrive(&mut self, env: Envelope) {
        let first = |f: &Fifo| {
            f.waiting
                .iter()
                .position(|&(_, tag)| tag.accepts(env.tag))
                .map(|i| (f.waiting[i].0, i))
        };
        let named = self.fifos.get(env.src).and_then(first);
        let any = first(&self.any);
        let (fifo, i) = match (named, any) {
            (Some(n), Some(a)) if a.0 < n.0 => (&mut self.any, a.1),
            (Some(n), _) => (&mut self.fifos[env.src], n.1),
            (None, Some(a)) => (&mut self.any, a.1),
            (None, None) => {
                let arrival = self.next_arrival;
                self.next_arrival += 1;
                self.unexpected += 1;
                self.fifo(env.src).unexpected.push_back((arrival, env));
                return;
            }
        };
        let (seq, _) = fifo.waiting.remove(i).expect("position found above");
        fifo.matched.push((seq, env));
        self.waiting -= 1;
        self.matched += 1;
    }

    /// Takes the matched envelope of a completed receive, after which the
    /// handle is stale. `None` while the receive is pending and for a stale
    /// handle; [`describe`](Self::describe) tells the two apart. One lookup
    /// and a scan of its source's matched-but-untaken receives, so polling
    /// a long request list (`waitany`) stays cheap.
    pub(crate) fn take(&mut self, h: RecvHandle) -> Option<Envelope> {
        let fifo = self.fifo_of(h)?;
        let i = fifo.matched.iter().position(|&(seq, _)| seq == h.seq)?;
        let (_, env) = fifo.matched.swap_remove(i);
        self.matched -= 1;
        Some(env)
    }

    /// Withdraws a still-unmatched receive (a blocking receive whose wait
    /// failed) so it cannot claim a later envelope.
    pub(crate) fn cancel(&mut self, h: RecvHandle) {
        if let Some(fifo) = self.fifo_of(h) {
            if let Some(i) = fifo.waiting.iter().position(|&(seq, _)| seq == h.seq) {
                fifo.waiting.remove(i);
                self.waiting -= 1;
            }
        }
    }

    /// Selectors of a still-unmatched receive (for timeout diagnostics and
    /// the replay's pulls); `None` once it is matched, taken or cancelled.
    pub(crate) fn describe(&self, h: RecvHandle) -> Option<(SrcSel, TagSel)> {
        let fifo = if h.src == ANY_SOURCE {
            &self.any
        } else {
            self.fifos.get(h.src)?
        };
        let &(_, tag) = fifo.waiting.iter().find(|&&(seq, _)| seq == h.seq)?;
        let src = if h.src == ANY_SOURCE {
            SrcSel::Any
        } else {
            SrcSel::Rank(h.src)
        };
        Some((src, tag))
    }

    /// Number of posted-but-uncompleted receives.
    pub(crate) fn outstanding(&self) -> usize {
        self.waiting + self.matched
    }

    /// True if some receive is matched and not yet taken: until one is,
    /// [`take`](Self::take) returns `None` for every handle.
    pub(crate) fn any_matched(&self) -> bool {
        self.matched > 0
    }

    /// Number of unexpected (arrived, unmatched) envelopes.
    pub(crate) fn unexpected_depth(&self) -> usize {
        self.unexpected
    }

    /// Empties the matcher for the next rank: every queue is cleared in
    /// place, keeping its allocation, and the numbering restarts. Only
    /// a rank that left receives or envelopes behind costs a walk of the
    /// queues.
    pub(crate) fn clear(&mut self) {
        if self.waiting + self.matched + self.unexpected > 0 {
            for fifo in self.fifos.iter_mut().chain([&mut self.any]) {
                fifo.waiting.clear();
                fifo.matched.clear();
                fifo.unexpected.clear();
            }
        }
        self.next_seq = 0;
        self.next_arrival = 0;
        self.waiting = 0;
        self.matched = 0;
        self.unexpected = 0;
    }

    /// The queues of `key` (a rank or [`ANY_SOURCE`]), made on first use.
    fn fifo(&mut self, key: Rank) -> &mut Fifo {
        if key == ANY_SOURCE {
            return &mut self.any;
        }
        if key >= self.fifos.len() {
            self.fifos.resize_with(key + 1, Fifo::default);
        }
        &mut self.fifos[key]
    }

    /// The queues a handle's receive was posted to, if they exist.
    fn fifo_of(&mut self, h: RecvHandle) -> Option<&mut Fifo> {
        if h.src == ANY_SOURCE {
            Some(&mut self.any)
        } else {
            self.fifos.get_mut(h.src)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::Tag;

    fn env(src: usize, tag: u32) -> Envelope {
        Envelope {
            src,
            tag: Tag(tag),
            payload: Payload::synthetic(4),
            stamp: None,
        }
    }

    #[test]
    fn post_match_take_cycle() {
        let mut m = Matcher::default();
        let h = m.post(SrcSel::Rank(2), TagSel::Tag(Tag(7)));
        m.arrive(env(1, 7));
        m.arrive(env(2, 8));
        assert!(m.take(h).is_none(), "wrong source or tag must not match");
        assert_eq!(m.unexpected_depth(), 2);
        m.arrive(env(2, 7));
        assert_eq!(m.take(h).unwrap().src, 2);
        assert_eq!(m.outstanding(), 0);
        assert!(m.take(h).is_none() && m.describe(h).is_none(), "stale");
    }

    #[test]
    fn match_priority_is_posting_order() {
        let mut m = Matcher::default();
        let named = m.post(SrcSel::Rank(0), TagSel::Any);
        let any = m.post(SrcSel::Any, TagSel::Any);
        let later = m.post(SrcSel::Rank(0), TagSel::Any);
        m.arrive(env(0, 1));
        m.arrive(env(0, 2));
        m.arrive(env(0, 3));
        let mut tag = |h| m.take(h).unwrap().tag.0;
        assert_eq!([tag(named), tag(any), tag(later)], [1, 2, 3]);
    }

    #[test]
    fn any_source_takes_earliest_arrival() {
        let mut m = Matcher::default();
        m.arrive(env(5, 1));
        m.arrive(env(3, 1));
        m.arrive(env(4, 2));
        let h = m.post(SrcSel::Any, TagSel::Tag(Tag(1)));
        assert_eq!(m.take(h).unwrap().src, 5);
        let h = m.post(SrcSel::Any, TagSel::Any);
        assert_eq!(m.take(h).unwrap().src, 3);
        assert_eq!(m.unexpected_depth(), 1);
    }

    #[test]
    fn completed_handles_stay_stale() {
        let mut m = Matcher::default();
        let h1 = m.post(SrcSel::Rank(0), TagSel::Tag(Tag(1)));
        m.arrive(env(0, 1));
        assert!(m.take(h1).is_some());
        let h2 = m.post(SrcSel::Rank(0), TagSel::Tag(Tag(2)));
        assert_ne!(h1, h2, "posting numbers are not reused");
        assert!(m.take(h2).is_none(), "pending receive yields None");
        assert!(m.describe(h2).is_some(), "and is still described");
        assert!(m.take(h1).is_none() && m.describe(h1).is_none(), "stale");
    }

    #[test]
    fn cancel_withdraws_a_waiting_receive() {
        let mut m = Matcher::default();
        let h = m.post(SrcSel::Rank(1), TagSel::Any);
        m.cancel(h);
        assert_eq!(m.outstanding(), 0);
        m.arrive(env(1, 9));
        assert_eq!(m.unexpected_depth(), 1, "nobody is waiting any more");
    }

    #[test]
    fn any_tag_receive_skips_collective_envelopes() {
        let mut m = Matcher::default();
        let waiting = m.post(SrcSel::Any, TagSel::Any);
        m.arrive(env(0, Tag::COLLECTIVE_BASE | 1));
        assert!(m.take(waiting).is_none(), "arrival passes it by");
        let posted = m.post(SrcSel::Rank(0), TagSel::Any);
        assert!(m.take(posted).is_none(), "posting passes it by");
        let internal = m.post(SrcSel::Rank(0), TagSel::Tag(Tag(Tag::COLLECTIVE_BASE | 1)));
        assert_eq!(m.take(internal).unwrap().src, 0);
        m.arrive(env(1, 4));
        assert_eq!(m.take(waiting).unwrap().tag, Tag(4));
    }

    #[test]
    fn clear_leaves_no_receive_or_envelope_behind() {
        let mut m = Matcher::default();
        m.post(SrcSel::Rank(1), TagSel::Any);
        m.post(SrcSel::Any, TagSel::Tag(Tag(3)));
        let matched = m.post(SrcSel::Rank(0), TagSel::Any);
        m.arrive(env(0, 4));
        m.arrive(env(2, 5));
        m.clear();
        assert_eq!((m.outstanding(), m.unexpected_depth()), (0, 0));
        assert!(m.take(matched).is_none(), "its envelope went too");
        let h = m.post(SrcSel::Rank(2), TagSel::Any);
        assert!(m.take(h).is_none(), "the unexpected envelope is gone");
        m.arrive(env(1, 3));
        assert_eq!(m.unexpected_depth(), 1, "so are both waiting receives");
    }

    #[test]
    fn describe_reports_selectors() {
        let mut m = Matcher::default();
        let h = m.post(SrcSel::Rank(3), TagSel::Any);
        assert_eq!(m.describe(h), Some((SrcSel::Rank(3), TagSel::Any)));
    }
}
