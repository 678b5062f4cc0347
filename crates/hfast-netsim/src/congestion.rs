//! Credit-based flow control: backpressure, stalls, and congestion trees.
//!
//! The default link model treats every link as an ideal FIFO server —
//! messages queue *at* a busy link but congestion can never spread
//! *between* links. Real credit/wormhole fabrics behave differently:
//! a hop may only forward when the downstream buffer has a free credit,
//! so a saturated link backs traffic up into its upstream buffers,
//! which fill and stall *their* upstreams — the congestion trees of
//! Jha et al. (arXiv 1907.05312), whose victims include flows that never
//! touch the hot link at all.
//!
//! [`CongestionMode::Credit`] turns that mechanism on. The model is
//! store-and-forward with per-link input buffers of
//! [`CreditConfig::credits`] message slots:
//!
//! - a message occupies exactly one buffer slot from the moment it enters
//!   a link until it advances to the next one (sources have unbounded
//!   injection queues and wait for the first link's credit);
//! - the buffer head serializes for `bytes / bandwidth` and crosses in
//!   `latency_ns`, then requests a credit on the next link: granted, it
//!   moves and frees its slot (waking the first waiter FIFO); refused,
//!   it **stays at the head**, blocking everything behind it
//!   (head-of-line blocking — this is what makes trees form);
//! - freed credits cascade deterministically at the same timestamp, so
//!   a delivery at the tree root can unwind a whole chain of stalls.
//!
//! End-to-end uncontended latency is therefore `Σ (latency + bytes/bw)`
//! per hop (store-and-forward), not the cut-through `Σ latency +
//! bytes/bw` of the ideal model — the two modes are different *models*,
//! compared credit-vs-credit across fabrics, never credit-vs-ideal.
//!
//! This module is a link model and nothing else: `CreditBuffers`
//! implements the engine's `LinkModel` seam with buffers, waiters, and
//! the credit cascade. Everything around it — the event loop, the fault
//! schedule, route resolution through the
//! [`PathCache`](crate::PathCache), retry and abandon, mid-run circuit
//! repatching, records, stats — is the one driver in [`crate::engine`],
//! shared with the ideal model. So a credit run takes a
//! [`FaultPlan`](crate::FaultPlan), a
//! [`RetryPolicy`](crate::RetryPolicy), `with_reprovision`,
//! `with_cache` / `with_snapshot`, and an
//! [`EngineObs`](crate::EngineObs) exactly like an ideal run. The one
//! model-specific fault rule: a link failure kills every occupant and
//! waiter of the link at once (an ideal link kills lazily, when a header
//! arrives), and each re-admits from its source around the outage.
//!
//! With a [`TraceRecorder`](hfast_trace::TraceRecorder) attached a credit
//! run emits the same `hop` spans as an ideal run plus `stall` spans
//! (`flow`, `for` = the downstream link that refused the credit) on the
//! blocked link's track; `hfast_trace::congestion_trees` folds those
//! into root/depth/victim reports.
//!
//! Finite buffers can deadlock where routes form a cycle (a torus with
//! wrap-around links and no escape channel): such a run still terminates
//! — the event queue simply runs dry — and the wedged flows come back
//! undelivered.
//!
//! Credit runs are deterministic: identical inputs produce identical
//! outputs.

use std::collections::VecDeque;

use hfast_trace::{engine_span_id, Track};

use crate::engine::{ArenaEntry, Driver, LinkModel, Probe, Ser, ADMIT};
use crate::fabric::LinkId;
use crate::queue::{Ev, TieClass};

/// Which link model a [`Simulation`](crate::Simulation) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionMode {
    /// Ideal FIFO links under virtual cut-through (the default).
    #[default]
    Ideal,
    /// Credit-based flow control with finite per-link buffers and
    /// head-of-line blocking; congestion spreads upstream.
    Credit,
}

/// Default buffer depth per link, in message slots.
pub const DEFAULT_CREDITS: u32 = 2;

/// Congestion-model configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditConfig {
    /// Link model.
    pub mode: CongestionMode,
    /// Buffer slots per link (ignored under [`CongestionMode::Ideal`]).
    pub credits: u32,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            mode: CongestionMode::Ideal,
            credits: DEFAULT_CREDITS,
        }
    }
}

impl CreditConfig {
    /// Credit-mode config with `credits` buffer slots per link.
    ///
    /// # Panics
    /// If `credits` is zero (a link with no buffer can never accept a
    /// message).
    pub fn credit(credits: u32) -> Self {
        assert!(credits > 0, "links need at least one buffer slot");
        CreditConfig {
            mode: CongestionMode::Credit,
            credits,
        }
    }
}

/// Where a flow currently is, from the link model's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Pos {
    /// Not in the network: not yet admitted, between attempts, or done.
    #[default]
    Out,
    /// At the source NIC, waiting for a credit on its first link.
    SourceWait,
    /// Resident in its current link's buffer (queued or serializing).
    Buffered,
    /// Head of its current link, blocked on the next link's credit.
    Blocked,
}

#[derive(Clone, Default)]
struct InFlight {
    /// Arena index of the link currently holding (or, at the source,
    /// wanted by) the flow; the next link of its route is at `idx + 1`.
    idx: u32,
    /// When the flow entered its current buffer (or the injection queue).
    arrived_ns: u64,
    /// Bumped on every kill so the queued completion of the old life goes
    /// stale. Completions carry it as their queue tag.
    epoch: u32,
    pos: Pos,
}

#[derive(Clone, Default)]
struct Buffer {
    /// Flows occupying this link's buffer; the front is in service (or
    /// blocked on its downstream credit).
    slots: VecDeque<u32>,
    /// Flows waiting FIFO for one of this link's credits.
    waiters: VecDeque<u32>,
    /// When the current head became blocked (valid while the head's
    /// [`Pos::Blocked`]).
    blocked_since: u64,
}

/// The credit link model: finite per-link buffers, FIFO credit waiters,
/// and the same-timestamp credit cascade. Schedules one kind of event —
/// the completion of a buffer head's service, tagged with the flow's
/// epoch.
pub(crate) struct CreditBuffers {
    credits: usize,
    links: Vec<Buffer>,
    flows: Vec<InFlight>,
}

/// Re-admissions fire before service completions at equal timestamps: an
/// injection at `t` sees the buffers as they stood before anything
/// finished at `t`.
impl TieClass for CreditBuffers {
    #[inline(always)]
    fn class(tag: u32) -> u8 {
        u8::from(tag != ADMIT)
    }
}

impl CreditBuffers {
    pub(crate) fn new(credits: u32, links: usize, flows: usize) -> Self {
        CreditBuffers {
            credits: credits.max(1) as usize,
            links: vec![Buffer::default(); links],
            flows: vec![InFlight::default(); flows],
        }
    }
}

/// What the driver does when it runs on credit buffers.
impl<E: ArenaEntry, S: Ser, P: Probe> Driver<'_, E, S, P, CreditBuffers> {
    /// Starts serializing the head of `link` at `t`: books the busy
    /// time, reports the hop, and schedules the completion event.
    fn start_service(&mut self, link: LinkId, flow: u32, t: u64) {
        let lh = &mut self.links[link];
        let ser = self.ser.of(flow, lh.bw_bits);
        lh.busy_ns = lh.busy_ns.saturating_add(ser);
        let done = t.saturating_add(lh.lat).saturating_add(ser);
        let fs = &self.model.flows[flow as usize];
        self.probe.hop(link, flow, t - fs.arrived_ns, t, ser);
        self.q.push(done, flow, fs.epoch);
    }

    /// Moves `flow` into `link`'s buffer — the one place a buffer grows,
    /// so the caller holds a credit — and starts service if it became the
    /// head.
    fn enter(&mut self, link: LinkId, flow: u32, t: u64) {
        debug_assert!(
            self.model.links[link].slots.len() < self.model.credits,
            "buffer occupancy exceeds the link's credits"
        );
        self.model.flows[flow as usize].pos = Pos::Buffered;
        self.model.links[link].slots.push_back(flow);
        if self.model.links[link].slots.len() == 1 {
            self.start_service(link, flow, t);
        }
    }

    /// Closes the stall interval of the blocked head `flow` at `t`,
    /// emitting the `stall` span that congestion-tree extraction folds,
    /// and returns the link whose credit it was waiting for.
    fn close_stall(&self, flow: u32, t: u64) -> LinkId {
        let idx = self.model.flows[flow as usize].idx as usize;
        let (link, wanted) = (self.arena[idx].link(), self.arena[idx + 1].link());
        let since = self.model.links[link].blocked_since;
        if t > since {
            if let Some(tr) = self.probe.trace() {
                tr.record_span(
                    Track::Link(link),
                    "stall",
                    since,
                    t - since,
                    0,
                    engine_span_id(u64::from(flow) + 1),
                    vec![("flow", u64::from(flow)), ("for", wanted as u64)],
                );
            }
        }
        wanted
    }

    /// The head of `link` has left its buffer slot: pop it, start the
    /// next head, and grant the freed credit to the first waiter. A
    /// granted waiter that was a blocked head departs *its* link in
    /// turn, so grants cascade — iteratively, FIFO, all at `t`.
    fn depart(&mut self, link: LinkId, t: u64) {
        let mut pending: VecDeque<LinkId> = VecDeque::from([link]);
        while let Some(l) = pending.pop_front() {
            self.model.links[l].slots.pop_front();
            if let Some(&next) = self.model.links[l].slots.front() {
                self.start_service(l, next, t);
            }
            let Some(w) = self.model.links[l].waiters.pop_front() else {
                continue;
            };
            match self.model.flows[w as usize].pos {
                // Entering from the NIC: `arrived_ns` stays the injection
                // time, so the hop's wait counts the source queueing.
                Pos::SourceWait => {}
                Pos::Blocked => {
                    self.close_stall(w, t);
                    let fs = &mut self.model.flows[w as usize];
                    pending.push_back(self.arena[fs.idx as usize].link());
                    fs.idx += 1;
                    fs.arrived_ns = t;
                }
                other => unreachable!("waiter in state {other:?}"),
            }
            self.enter(l, w, t);
        }
    }

    /// Kills `flow` at `t` because the link at arena index `dead` is
    /// down: frees whatever the flow occupies, invalidates its queued
    /// completion, and hands it back to the driver to retry or abandon.
    fn kill_resident(&mut self, flow: u32, dead: u32, t: u64) {
        let InFlight { idx, pos, .. } = self.model.flows[flow as usize];
        let l = self.arena[idx as usize].link();
        match pos {
            Pos::SourceWait => self.model.links[l].waiters.retain(|&w| w != flow),
            Pos::Buffered | Pos::Blocked => {
                if pos == Pos::Blocked {
                    let wanted = self.close_stall(flow, t);
                    self.model.links[wanted].waiters.retain(|&w| w != flow);
                }
                if self.model.links[l].slots.front() == Some(&flow) {
                    self.depart(l, t);
                } else {
                    self.model.links[l].slots.retain(|&w| w != flow);
                }
            }
            Pos::Out => unreachable!("killing a flow that is not in the network"),
        }
        self.hand_back(flow, dead, t);
    }

    /// Post-kill bookkeeping shared by every kill path.
    fn hand_back(&mut self, flow: u32, dead: u32, t: u64) {
        let fs = &mut self.model.flows[flow as usize];
        fs.epoch += 1;
        fs.pos = Pos::Out;
        self.kill(t, flow, dead);
    }

    /// `flow`'s service on its current link completed at `t`.
    fn done(&mut self, flow: u32, t: u64) {
        let idx = self.model.flows[flow as usize].idx;
        let cell = self.arena[idx as usize];
        let l = cell.link();
        if cell.is_last() {
            self.model.flows[flow as usize].pos = Pos::Out;
            self.deliver(flow, t);
            return self.depart(l, t);
        }
        let next = self.arena[idx as usize + 1].link();
        if self.links[next].is_down() {
            self.kill_resident(flow, idx + 1, t);
        } else if self.model.links[next].slots.len() < self.model.credits {
            let fs = &mut self.model.flows[flow as usize];
            fs.idx = idx + 1;
            fs.arrived_ns = t;
            self.enter(next, flow, t);
            self.depart(l, t);
        } else {
            self.model.flows[flow as usize].pos = Pos::Blocked;
            self.model.links[next].waiters.push_back(flow);
            self.model.links[l].blocked_since = t;
        }
    }
}

impl<E: ArenaEntry, S: Ser, P: Probe> LinkModel for Driver<'_, E, S, P, CreditBuffers> {
    /// An admission may have to wait at the source; it is not an event of
    /// this model's making.
    const ADMIT_IS_EVENT: bool = false;

    fn inject(&mut self, t: u64, flow: u32, idx: u32) {
        let first = self.arena[idx as usize].link();
        let fs = &mut self.model.flows[flow as usize];
        fs.idx = idx;
        fs.arrived_ns = t;
        if self.model.links[first].slots.len() < self.model.credits {
            self.enter(first, flow, t);
        } else {
            fs.pos = Pos::SourceWait;
            self.model.links[first].waiters.push_back(flow);
        }
    }

    #[inline]
    fn event(&mut self, ev: Ev) {
        // A kill since this completion was scheduled supersedes it.
        if self.model.flows[ev.flow as usize].epoch == ev.tag {
            self.done(ev.flow, ev.t);
        }
    }

    /// Kills every occupant and waiter of `link`: their routes all cross
    /// it, so each re-admits under the retry policy.
    fn link_down(&mut self, link: LinkId, t: u64) {
        // Waiters first: once the occupants drain, no freed credit may
        // pull a doomed flow onto the dead link.
        while let Some(w) = self.model.links[link].waiters.pop_front() {
            let fs = &self.model.flows[w as usize];
            let dead = fs.idx + u32::from(fs.pos == Pos::Blocked);
            self.kill_resident(w, dead, t);
        }
        // Drain the buffer wholesale (no departs: a freed slot on a dead
        // link must not start anyone's service).
        for f in std::mem::take(&mut self.model.links[link].slots) {
            let InFlight { idx, pos, .. } = self.model.flows[f as usize];
            if pos == Pos::Blocked {
                let wanted = self.close_stall(f, t);
                self.model.links[wanted].waiters.retain(|&w| w != f);
            }
            self.hand_back(f, idx, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeFabric;
    use crate::torus::TorusFabric;
    use crate::traffic::{self, Flow};
    use crate::Simulation;
    use hfast_trace::TraceRecorder;

    #[test]
    fn default_config_is_ideal() {
        assert_eq!(CreditConfig::default().mode, CongestionMode::Ideal);
        assert_eq!(CreditConfig::credit(4).mode, CongestionMode::Credit);
        assert_eq!(CreditConfig::credit(4).credits, 4);
    }

    #[test]
    #[should_panic(expected = "at least one buffer slot")]
    fn zero_credits_are_rejected() {
        CreditConfig::credit(0);
    }

    #[test]
    fn credit_mode_delivers_everything_fault_free() {
        let ft = FatTreeFabric::new(16, 4).expect("valid shape");
        let flows = traffic::alltoall(16, 8 << 10);
        let out = Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .run(&flows);
        assert_eq!(out.stats.completed, flows.len());
        assert_eq!(out.stats.unrouted, 0);
        assert!(out.stats.makespan_ns > 0);
    }

    #[test]
    fn credit_mode_is_deterministic_and_thread_invariant() {
        let torus = TorusFabric::new((4, 4, 2)).expect("valid shape");
        let flows = traffic::uniform_random(32, 2_000, 4096, 100_000, 7);
        let a = Simulation::new(&torus)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .run(&flows);
        let b = Simulation::new(&torus)
            .with_congestion(CreditConfig::credit(2))
            .detailed()
            .run(&flows);
        assert_eq!(a, b, "repeated credit runs are identical");
    }

    #[test]
    fn backpressure_stretches_the_makespan() {
        // 15→1 incast on a small fat tree: with one-slot buffers the
        // sources serialize almost entirely, so the makespan must exceed
        // the ideal loop's (which lets every flow queue at the last hop).
        let ft = FatTreeFabric::new(16, 4).expect("valid shape");
        let flows: Vec<Flow> = (1..16)
            .map(|src| Flow {
                src,
                dst: 0,
                bytes: 64 << 10,
                start_ns: 0,
            })
            .collect();
        let ideal = Simulation::new(&ft).run(&flows);
        let credit = Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(1))
            .run(&flows);
        assert_eq!(credit.stats.completed, flows.len());
        assert!(
            credit.stats.makespan_ns >= ideal.stats.makespan_ns,
            "backpressure cannot beat the ideal fabric: credit {} < ideal {}",
            credit.stats.makespan_ns,
            ideal.stats.makespan_ns
        );
    }

    #[test]
    fn stall_spans_mark_blocked_links() {
        let ft = FatTreeFabric::new(16, 4).expect("valid shape");
        let flows: Vec<Flow> = (1..16)
            .map(|src| Flow {
                src,
                dst: 0,
                bytes: 64 << 10,
                start_ns: 0,
            })
            .collect();
        let rec = TraceRecorder::new();
        Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(1))
            .with_trace(&rec)
            .run(&flows);
        let spans = rec.snapshot();
        let stalls = spans.iter().filter(|s| s.name == "stall").count();
        assert!(stalls > 0, "a 15→1 incast with 1-slot buffers must stall");
        // Every stall names the downstream link it waited for.
        for s in spans.iter().filter(|s| s.name == "stall") {
            assert!(s.fields.iter().any(|(k, _)| *k == "for"));
            assert!(s.fields.iter().any(|(k, _)| *k == "flow"));
            assert!(s.dur_ns > 0);
        }
    }
}
