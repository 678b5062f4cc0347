//! Nonblocking request handles and the per-communicator message matcher.

use std::collections::BTreeMap;

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

/// One rank's message matching: posted receives on one side, unexpected
/// envelopes on the other, both indexed by source.
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
/// receive when it is posted. Heap is proportional to the receives and
/// envelopes in flight: the three maps hold only live entries.
#[derive(Debug, Default)]
pub(crate) struct Matcher {
    next_seq: u64,
    /// Unmatched receives keyed `(source, seq)`, `ANY_SOURCE` ones under
    /// [`ANY_SOURCE`]: each source's receives form one range in posting
    /// order.
    waiting: BTreeMap<(Rank, u64), TagSel>,
    /// Matched receives not yet taken, by seq.
    matched: BTreeMap<u64, Envelope>,
    /// Envelopes no receive has accepted yet, keyed `(source, arrival)`:
    /// each source's envelopes form one range in arrival order.
    unexpected: BTreeMap<(Rank, u64), Envelope>,
    next_arrival: u64,
}

impl Matcher {
    /// Posts a receive, matching it at once to the earliest-arrived
    /// acceptable unexpected envelope if there is one.
    pub(crate) fn post(&mut self, src: SrcSel, tag: TagSel) -> RecvHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let handle = RecvHandle {
            src: match src {
                SrcSel::Rank(r) => r,
                SrcSel::Any => ANY_SOURCE,
            },
            seq,
        };
        match self
            .find_unexpected(src, |e| tag.accepts(e.tag))
            .and_then(|key| self.unexpected.remove(&key))
        {
            Some(env) => {
                self.matched.insert(seq, env);
            }
            None => {
                self.waiting.insert((handle.src, seq), tag);
            }
        }
        handle
    }

    /// Delivers an envelope off the wire to the earliest-posted receive that
    /// accepts it, or queues it as unexpected.
    pub(crate) fn arrive(&mut self, env: Envelope) {
        let first = |src: Rank| {
            self.waiting
                .range((src, 0)..=(src, u64::MAX))
                .find(|(_, tag)| tag.accepts(env.tag))
                .map(|(&key, _)| key)
        };
        let winner = match (first(env.src), first(ANY_SOURCE)) {
            (Some(named), Some(any)) => Some(if named.1 < any.1 { named } else { any }),
            (named, any) => named.or(any),
        };
        match winner {
            Some(key) => {
                self.waiting.remove(&key);
                self.matched.insert(key.1, env);
            }
            None => {
                self.unexpected.insert((env.src, self.next_arrival), env);
                self.next_arrival += 1;
            }
        }
    }

    /// Takes the matched envelope of a completed receive, after which the
    /// handle is stale. `None` while the receive is pending and for a stale
    /// handle; [`describe`](Self::describe) tells the two apart. One lookup
    /// among the matched-but-untaken receives, so polling a long request
    /// list (`waitany`) stays cheap.
    pub(crate) fn take(&mut self, h: RecvHandle) -> Option<Envelope> {
        self.matched.remove(&h.seq)
    }

    /// Withdraws a still-unmatched receive (a blocking receive whose wait
    /// failed) so it cannot claim a later envelope.
    pub(crate) fn cancel(&mut self, h: RecvHandle) {
        self.waiting.remove(&(h.src, h.seq));
    }

    /// Selectors of a still-unmatched receive (for timeout diagnostics);
    /// `None` once it is matched, taken or cancelled.
    pub(crate) fn describe(&self, h: RecvHandle) -> Option<(SrcSel, TagSel)> {
        let tag = *self.waiting.get(&(h.src, h.seq))?;
        let src = if h.src == ANY_SOURCE {
            SrcSel::Any
        } else {
            SrcSel::Rank(h.src)
        };
        Some((src, tag))
    }

    /// Number of posted-but-uncompleted receives.
    pub(crate) fn outstanding(&self) -> usize {
        self.waiting.len() + self.matched.len()
    }

    /// Number of unexpected (arrived, unmatched) envelopes.
    pub(crate) fn unexpected_depth(&self) -> usize {
        self.unexpected.len()
    }

    /// Key of the earliest-arrived unexpected envelope from `src` that
    /// `accepts` admits.
    fn find_unexpected(
        &self,
        src: SrcSel,
        accepts: impl Fn(&Envelope) -> bool,
    ) -> Option<(Rank, u64)> {
        match src {
            SrcSel::Rank(r) => self
                .unexpected
                .range((r, 0)..=(r, u64::MAX))
                .find(|(_, e)| accepts(e))
                .map(|(&key, _)| key),
            SrcSel::Any => self
                .unexpected
                .iter()
                .filter(|(_, e)| accepts(e))
                .min_by_key(|(&(_, arrival), _)| arrival)
                .map(|(&key, _)| key),
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
    fn describe_reports_selectors() {
        let mut m = Matcher::default();
        let h = m.post(SrcSel::Rank(3), TagSel::Any);
        assert_eq!(m.describe(h), Some((SrcSel::Rank(3), TagSel::Any)));
    }
}
