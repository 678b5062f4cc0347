//! Differential test of [`Matcher`] against the linear matcher it replaced.
//!
//! The reference below is the runtime's matching as it was before the
//! matcher indexed by source: a table of posted receives scanned in full for
//! every arriving envelope, an arrival-ordered queue of unexpected envelopes
//! scanned in full for every receive, and a blocking receive that looked in
//! that queue first and then took the first pumped envelope no posted
//! receive wanted. The reference states its own acceptance rule, including
//! rule 4: an `ANY_TAG` receive never accepts a collective-tagged envelope.
//! Random sequences of posts, arrivals, takes and blocking receives drive
//! both; after every step the envelope each side handed out, the unexpected
//! depth and the number of outstanding receives must agree.

use std::collections::VecDeque;

use hfast_par::{forall, Rng64};

use crate::comm::{SrcSel, TagSel};
use crate::message::{Envelope, Payload};
use crate::request::{Matcher, RecvHandle};
use crate::Tag;

/// True if a receive posted with `src` and `tag` accepts `env`.
fn accepts(src: SrcSel, tag: TagSel, env: &Envelope) -> bool {
    let src_ok = match src {
        SrcSel::Any => true,
        SrcSel::Rank(r) => r == env.src,
    };
    let tag_ok = match tag {
        TagSel::Any => !env.tag.is_collective(),
        TagSel::Tag(t) => t == env.tag,
    };
    src_ok && tag_ok
}

/// A posted, not-yet-matched receive of the reference.
struct PendingRecv {
    src: SrcSel,
    tag: TagSel,
    matched: Option<Envelope>,
    seq: u64,
}

/// The reference: the linear request table and unexpected queue.
#[derive(Default)]
struct LinearMatcher {
    slots: Vec<Option<PendingRecv>>,
    free: Vec<usize>,
    next_seq: u64,
    unexpected: VecDeque<Envelope>,
}

impl LinearMatcher {
    /// `Comm::irecv`: post, then satisfy from the unexpected queue.
    fn post(&mut self, src: SrcSel, tag: TagSel) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pending = PendingRecv {
            src,
            tag,
            matched: None,
            seq,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(pending);
            idx
        } else {
            self.slots.push(Some(pending));
            self.slots.len() - 1
        };
        if let Some(pos) = self.unexpected.iter().position(|e| accepts(src, tag, e)) {
            let env = self.unexpected.remove(pos).expect("position valid");
            assert!(self.try_match(&env), "freshly posted receive must accept");
        }
        idx
    }

    /// The earliest-posted unmatched receive that accepts `env` takes it.
    fn try_match(&mut self, env: &Envelope) -> bool {
        let mut best: Option<(u64, usize)> = None;
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Some(p) = slot {
                if p.matched.is_none()
                    && accepts(p.src, p.tag, env)
                    && best.is_none_or(|(seq, _)| p.seq < seq)
                {
                    best = Some((p.seq, idx));
                }
            }
        }
        let Some((_, idx)) = best else { return false };
        self.slots[idx].as_mut().expect("occupied").matched = Some(env.clone());
        true
    }

    /// `drain_nonblocking` for one envelope.
    fn arrive(&mut self, env: Envelope) {
        if !self.try_match(&env) {
            self.unexpected.push_back(env);
        }
    }

    /// `RequestTable::complete`: the matched envelope, if any, freeing the
    /// slot.
    fn take(&mut self, h: usize) -> Option<Envelope> {
        let slot = self.slots.get_mut(h)?;
        if slot.as_ref().is_some_and(|p| p.matched.is_some()) {
            self.free.push(h);
            return slot.take().expect("checked occupied").matched;
        }
        None
    }

    /// `recv_raw` over the envelopes on `wire`; `None` if it would block.
    fn recv(&mut self, src: SrcSel, tag: TagSel, wire: &mut VecDeque<Envelope>) -> Option<usize> {
        if let Some(pos) = self.unexpected.iter().position(|e| accepts(src, tag, e)) {
            return Some(
                self.unexpected
                    .remove(pos)
                    .expect("position valid")
                    .payload
                    .len(),
            );
        }
        while let Some(env) = wire.pop_front() {
            // `pump_one`: posted receives first, then the caller.
            if self.try_match(&env) {
                continue;
            }
            if accepts(src, tag, &env) {
                return Some(env.payload.len());
            }
            self.unexpected.push_back(env);
        }
        None
    }

    fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// `Comm::recv_raw` over the matcher and the envelopes on `wire`; `None` if
/// it would block.
fn matcher_recv(
    m: &mut Matcher,
    src: SrcSel,
    tag: TagSel,
    wire: &mut VecDeque<Envelope>,
) -> Option<usize> {
    let h = m.post(src, tag);
    loop {
        if let Some(env) = m.take(h) {
            return Some(env.payload.len());
        }
        match wire.pop_front() {
            Some(env) => m.arrive(env),
            None => {
                m.cancel(h);
                return None;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// An envelope joins the wire; its payload length is its id.
    Send {
        src: usize,
        tag: Tag,
    },
    /// One envelope off the wire into the matcher.
    Pump,
    Post {
        src: SrcSel,
        tag: TagSel,
    },
    /// Takes the k-th live posted receive (modulo their number).
    Take(usize),
    /// A blocking receive, pumping the wire until satisfied or empty.
    Recv {
        src: SrcSel,
        tag: TagSel,
    },
}

const SOURCES: usize = 4;
/// Two application tags, so (source, tag) pairs repeat, and one collective
/// (internal) tag.
const TAGS: [Tag; 3] = [Tag(1), Tag(2), Tag(Tag::COLLECTIVE_BASE | 7)];

fn tag(rng: &mut Rng64) -> Tag {
    TAGS[rng.range(0, TAGS.len())]
}

fn selectors(rng: &mut Rng64) -> (SrcSel, TagSel) {
    let src = if rng.range(0, 4) == 0 {
        SrcSel::Any
    } else {
        SrcSel::Rank(rng.range(0, SOURCES))
    };
    let tag = if rng.range(0, 4) == 0 {
        TagSel::Any
    } else {
        TagSel::Tag(tag(rng))
    };
    (src, tag)
}

fn step(rng: &mut Rng64) -> Step {
    let (src, sel_tag) = selectors(rng);
    match rng.range(0, 12) {
        0..=3 => Step::Send {
            src: rng.range(0, SOURCES),
            tag: tag(rng),
        },
        4 | 5 => Step::Pump,
        6 | 7 => Step::Post { src, tag: sel_tag },
        8..=10 => Step::Take(rng.range(0, 64)),
        _ => Step::Recv { src, tag: sel_tag },
    }
}

#[test]
fn matcher_agrees_with_linear_reference() {
    forall("matcher_agrees_with_linear_reference", 256, |rng| {
        let steps: Vec<Step> = (0..rng.range(1, 160)).map(|_| step(rng)).collect();
        let (mut reference, mut matcher) = (LinearMatcher::default(), Matcher::default());
        let (mut ref_wire, mut wire) = (VecDeque::new(), VecDeque::new());
        // Live posted receives as (reference handle, matcher handle).
        let mut live: Vec<(usize, RecvHandle)> = Vec::new();
        let mut next_id = 1;
        for (i, &s) in steps.iter().enumerate() {
            let fail = |what: &str, expected: &dyn std::fmt::Debug, got: &dyn std::fmt::Debug| {
                panic!("step {i} {s:?}: {what}: expected {expected:?}, got {got:?}")
            };
            match s {
                Step::Send { src, tag } => {
                    let env = Envelope {
                        src,
                        tag,
                        payload: Payload::synthetic(next_id),
                        stamp: None,
                    };
                    next_id += 1;
                    ref_wire.push_back(env.clone());
                    wire.push_back(env);
                }
                Step::Pump => {
                    if let Some(env) = ref_wire.pop_front() {
                        reference.arrive(env);
                        matcher.arrive(wire.pop_front().expect("wires in step"));
                    }
                }
                Step::Post { src, tag } => {
                    live.push((reference.post(src, tag), matcher.post(src, tag)))
                }
                Step::Take(k) => {
                    if !live.is_empty() {
                        let (r, m) = live[k % live.len()];
                        let id = |e: Option<Envelope>| e.map(|e| e.payload.len());
                        let expected = id(reference.take(r));
                        let got = id(matcher.take(m));
                        if expected != got {
                            fail("taken envelope", &expected, &got);
                        }
                        if got.is_some() {
                            live.retain(|&(lr, _)| lr != r);
                        }
                    }
                }
                Step::Recv { src, tag } => {
                    let expected = reference.recv(src, tag, &mut ref_wire);
                    let got = matcher_recv(&mut matcher, src, tag, &mut wire);
                    if expected != got {
                        fail("received envelope", &expected, &got);
                    }
                }
            }
            let expected = (
                reference.unexpected.len(),
                reference.outstanding(),
                ref_wire.len(),
            );
            let got = (
                matcher.unexpected_depth(),
                matcher.outstanding(),
                wire.len(),
            );
            if expected != got {
                fail(
                    "(unexpected_depth, outstanding_recvs, wire)",
                    &expected,
                    &got,
                );
            }
        }
    });
}
