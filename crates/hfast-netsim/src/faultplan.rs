//! Runtime fault injection: seeded, validated schedules of link/node
//! failures and recoveries, consumed as first-class events by the
//! simulation event loop.
//!
//! A [`FaultPlan`] is built with the same builder style as
//! [`Simulation`](crate::Simulation): explicit `fail_*`/`recover_*` calls
//! schedule individual topology changes at simulated timestamps, and
//! [`FaultPlanBuilder::random_link_failures`] draws a seeded batch through
//! [`hfast_core::seeded_failures`] so the same seed fails the same
//! components everywhere. [`FaultPlanBuilder::build`] validates every id
//! against the target fabric.
//!
//! [`FaultState`] is the runtime side: the engine folds plan events into it
//! as simulated time advances and fabrics consult it through
//! [`Fabric::path_avoiding`].

use hfast_par::Rng64;

use crate::engine::PathCache;
use crate::error::NetsimError;
use crate::fabric::{Fabric, LinkId};
use crate::traffic::{below, Flow};

/// The component a [`FaultEvent`] acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// A directed fabric link.
    Link(LinkId),
    /// An attached compute node (fails all its incident links too).
    Node(usize),
}

/// Whether a [`FaultEvent`] takes the component down or brings it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultAction {
    /// The component fails at the event time.
    Fail,
    /// The component recovers at the event time.
    Recover,
}

/// One scheduled topology change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time at which the change takes effect.
    pub time_ns: u64,
    /// Fail or recover.
    pub action: FaultAction,
    /// The affected component.
    pub target: FaultTarget,
}

/// A validated, time-sorted schedule of topology changes for one fabric.
///
/// Obtained from [`FaultPlan::builder`]; an empty (default) plan is the
/// explicit "no faults" case and leaves simulation output bit-identical to
/// a run without any plan attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Starts an empty schedule.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder { events: Vec::new() }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by time (ties keep insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Builder for a [`FaultPlan`].
#[must_use = "a FaultPlanBuilder does nothing until build()"]
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    events: Vec<FaultEvent>,
}

impl FaultPlanBuilder {
    fn push(mut self, time_ns: u64, action: FaultAction, target: FaultTarget) -> Self {
        self.events.push(FaultEvent {
            time_ns,
            action,
            target,
        });
        self
    }

    /// Fails `link` at `time_ns`.
    pub fn fail_link(self, time_ns: u64, link: LinkId) -> Self {
        self.push(time_ns, FaultAction::Fail, FaultTarget::Link(link))
    }

    /// Recovers `link` at `time_ns` (a no-op if it is not down then).
    pub fn recover_link(self, time_ns: u64, link: LinkId) -> Self {
        self.push(time_ns, FaultAction::Recover, FaultTarget::Link(link))
    }

    /// Fails `node` (and all its incident links) at `time_ns`.
    pub fn fail_node(self, time_ns: u64, node: usize) -> Self {
        self.push(time_ns, FaultAction::Fail, FaultTarget::Node(node))
    }

    /// Recovers `node` at `time_ns`.
    pub fn recover_node(self, time_ns: u64, node: usize) -> Self {
        self.push(time_ns, FaultAction::Recover, FaultTarget::Node(node))
    }

    /// Schedules `count` seeded link failures drawn from `eligible`, with
    /// failure times spread uniformly over `window` and, when `downtime_ns`
    /// is given, a matching recovery that much later.
    ///
    /// Which links fail comes from [`hfast_core::seeded_failures`]; *when*
    /// they fail comes from the same seed through `Rng64` — so one
    /// `(seed, count, eligible)` triple defines one reproducible disaster.
    pub fn random_link_failures(
        mut self,
        seed: u64,
        count: usize,
        eligible: &[LinkId],
        window: (u64, u64),
        downtime_ns: Option<u64>,
    ) -> Self {
        let picks = hfast_core::seeded_failures(count, eligible.len(), seed);
        let mut rng = Rng64::new(seed ^ 0xFAB5_C8ED);
        let (t0, t1) = window;
        let span = t1.saturating_sub(t0);
        for idx in picks {
            let link = eligible[idx];
            let at = if span == 0 {
                t0
            } else {
                t0 + below(&mut rng, span)
            };
            self.events.push(FaultEvent {
                time_ns: at,
                action: FaultAction::Fail,
                target: FaultTarget::Link(link),
            });
            if let Some(dt) = downtime_ns {
                self.events.push(FaultEvent {
                    time_ns: at.saturating_add(dt),
                    action: FaultAction::Recover,
                    target: FaultTarget::Link(link),
                });
            }
        }
        self
    }

    /// Validates every scheduled id against `fabric` and returns the
    /// time-sorted plan.
    ///
    /// # Errors
    /// [`NetsimError::NodeOutOfRange`] / [`NetsimError::LinkOutOfRange`]
    /// naming the first component that does not exist in `fabric`.
    pub fn build(mut self, fabric: &dyn Fabric) -> Result<FaultPlan, NetsimError> {
        for ev in &self.events {
            match ev.target {
                FaultTarget::Node(node) if node >= fabric.nodes() => {
                    return Err(NetsimError::NodeOutOfRange {
                        node,
                        nodes: fabric.nodes(),
                    });
                }
                FaultTarget::Link(link) if link >= fabric.link_count() => {
                    return Err(NetsimError::LinkOutOfRange {
                        link,
                        links: fabric.link_count(),
                    });
                }
                _ => {}
            }
        }
        self.events.sort_by_key(|e| e.time_ns);
        Ok(FaultPlan {
            events: self.events,
        })
    }
}

/// Retry policy for flows killed by a failure: exponential backoff in
/// *simulated* time.
///
/// A flow's first injection is attempt 1. After a kill (or a failed route
/// resolution while components are down), attempt `k` is re-admitted
/// `base_backoff_ns << (k - 1)` nanoseconds later, capped at
/// `max_backoff_ns`; once `max_attempts` admissions have failed the flow is
/// abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total admissions allowed, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first re-admission.
    pub base_backoff_ns: u64,
    /// Upper bound on any single backoff.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ns: 50_000,
            max_backoff_ns: 10_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff after `failed_attempts` admissions have failed (1-based).
    pub(crate) fn backoff_ns(&self, failed_attempts: u32) -> u64 {
        let shift = failed_attempts.saturating_sub(1).min(63);
        self.base_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ns)
    }

    /// Effective attempt ceiling (the `max_attempts == 0` degenerate case
    /// still admits every flow once).
    pub(crate) fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Live component health during a simulation run.
///
/// Links carry two independent down-counts: explicit link failures and
/// contributions from failed nodes (a node failure takes all its
/// [`Fabric::incident_links`] down with it). A link is usable only when
/// both are zero, so overlapping causes recover independently.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    node_down: Vec<u32>,
    link_failed: Vec<u32>,
    node_blocked: Vec<u32>,
}

impl FaultState {
    /// An all-healthy state sized for `fabric`.
    pub fn healthy(fabric: &dyn Fabric) -> Self {
        FaultState {
            node_down: vec![0; fabric.nodes()],
            link_failed: vec![0; fabric.link_count()],
            node_blocked: vec![0; fabric.link_count()],
        }
    }

    /// True if `node` is up.
    #[inline]
    pub fn node_up(&self, node: usize) -> bool {
        self.node_down.get(node).is_none_or(|&c| c == 0)
    }

    /// True if `link` is usable (neither failed nor blocked by a dead
    /// node).
    #[inline]
    pub(crate) fn link_up(&self, link: LinkId) -> bool {
        self.link_failed.get(link).is_none_or(|&c| c == 0)
            && self.node_blocked.get(link).is_none_or(|&c| c == 0)
    }

    /// True if any component is currently down.
    pub(crate) fn any_down(&self) -> bool {
        self.node_down.iter().any(|&c| c > 0)
            || self.link_failed.iter().any(|&c| c > 0)
            || self.node_blocked.iter().any(|&c| c > 0)
    }

    /// True if `path` crosses any down link.
    pub fn blocks(&self, path: &[LinkId]) -> bool {
        path.iter().any(|&l| !self.link_up(l))
    }

    /// Links currently down due to an explicit *link* failure (node-caused
    /// outages excluded — a dead node's links cannot be repatched from the
    /// switch side), ascending.
    pub(crate) fn failed_links(&self) -> Vec<LinkId> {
        self.link_failed
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(l, _)| l)
            .collect()
    }

    /// Applies one plan event, returning the incident links of a node
    /// change (empty for link events) so callers can invalidate caches.
    pub fn apply(&mut self, fabric: &dyn Fabric, ev: FaultEvent) -> Vec<LinkId> {
        match (ev.action, ev.target) {
            (FaultAction::Fail, FaultTarget::Link(l)) => {
                self.link_failed[l] += 1;
                Vec::new()
            }
            (FaultAction::Recover, FaultTarget::Link(l)) => {
                self.link_failed[l] = self.link_failed[l].saturating_sub(1);
                Vec::new()
            }
            (FaultAction::Fail, FaultTarget::Node(n)) => {
                self.node_down[n] += 1;
                let incident = fabric.incident_links(n);
                for &l in &incident {
                    self.node_blocked[l] += 1;
                }
                incident
            }
            (FaultAction::Recover, FaultTarget::Node(n)) => {
                if self.node_down[n] == 0 {
                    return Vec::new(); // recover without failure: no-op
                }
                self.node_down[n] -= 1;
                let incident = fabric.incident_links(n);
                for &l in &incident {
                    self.node_blocked[l] = self.node_blocked[l].saturating_sub(1);
                }
                incident
            }
        }
    }

    /// Repairs `link` from the switch side (a repatched circuit): clears
    /// its explicit-failure count, leaving node-caused blocks alone.
    pub fn repatch_link(&mut self, link: LinkId) {
        self.link_failed[link] = 0;
    }
}

/// The distinct links that carry `flows` over `fabric`, excluding every
/// path's first and last hop (the endpoints' own injection/ejection links —
/// failing those models a NIC death, i.e. a node fault, not a link fault).
///
/// This is the eligibility set seeded link-failure sweeps draw from: every
/// returned link is a *transit* link some flow actually crosses, so a
/// failure is guaranteed to matter to the workload. Links come back
/// distinct and ascending. Each distinct pair is routed once.
pub fn transit_links(fabric: &dyn Fabric, flows: &[Flow]) -> Vec<LinkId> {
    transit_links_from(fabric, &PathCache::new(), flows)
}

/// [`transit_links`] over routes already resolved: a pair `routes` holds
/// fresh is read from it, and only a pair it lacks (or holds stale) is
/// routed through `fabric.path`, once. `routes` must have been filled on
/// `fabric`, e.g. a [`SharedPathCache`](crate::SharedPathCache) snapshot
/// warmed on these flows, which makes this a pure read.
pub fn transit_links_from(fabric: &dyn Fabric, routes: &PathCache, flows: &[Flow]) -> Vec<LinkId> {
    let mut transit = vec![false; fabric.link_count()];
    let mut mark = |path: &[LinkId]| {
        if path.len() > 2 {
            for &l in &path[1..path.len() - 1] {
                transit[l] = true;
            }
        }
    };
    // Uncovered flows by index, 4 bytes each: as 16-byte pairs a 20k-flow
    // list grew to 512 KiB, and freeing a block that size raises glibc's
    // mmap threshold, which cost a 20k-flow faulted replay 3 MB of peak RSS.
    let mut missing: Vec<u32> = Vec::new();
    for (i, f) in flows.iter().enumerate().filter(|(_, f)| f.src != f.dst) {
        match routes.cached(f.src, f.dst) {
            Some(Some(path)) => mark(path),
            Some(None) => {}
            None => missing.push(i as u32),
        }
    }
    let pair = |&i: &u32| (flows[i as usize].src, flows[i as usize].dst);
    missing.sort_unstable_by_key(pair);
    missing.dedup_by_key(|i| pair(i));
    for (src, dst) in missing.iter().map(pair) {
        if let Some(path) = fabric.path(src, dst) {
            mark(&path);
        }
    }
    (0..transit.len()).filter(|&l| transit[l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTreeFabric;
    use crate::torus::TorusFabric;

    fn ft() -> FatTreeFabric {
        FatTreeFabric::new(16, 8).unwrap()
    }

    #[test]
    fn builder_sorts_and_validates() {
        let fabric = ft();
        let plan = FaultPlan::builder()
            .fail_link(500, 3)
            .fail_node(100, 2)
            .recover_link(900, 3)
            .build(&fabric)
            .unwrap();
        let times: Vec<u64> = plan.events().iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![100, 500, 900]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());

        let err = FaultPlan::builder()
            .fail_node(0, 99)
            .build(&fabric)
            .unwrap_err();
        assert_eq!(
            err,
            NetsimError::NodeOutOfRange {
                node: 99,
                nodes: 16
            }
        );
        let err = FaultPlan::builder()
            .fail_link(0, usize::MAX)
            .build(&fabric)
            .unwrap_err();
        assert!(matches!(err, NetsimError::LinkOutOfRange { .. }));
    }

    #[test]
    fn seeded_failures_reproduce() {
        let fabric = ft();
        let eligible: Vec<LinkId> = (32..fabric.link_count()).collect();
        let mk = || {
            FaultPlan::builder()
                .random_link_failures(7, 3, &eligible, (0, 10_000), Some(5_000))
                .build(&fabric)
                .unwrap()
        };
        let a = mk();
        assert_eq!(a, mk(), "same seed, same plan");
        assert_eq!(a.len(), 6, "3 failures + 3 recoveries");
        for w in a.events().windows(2) {
            assert!(w[0].time_ns <= w[1].time_ns);
        }
        let b = FaultPlan::builder()
            .random_link_failures(8, 3, &eligible, (0, 10_000), Some(5_000))
            .build(&fabric)
            .unwrap();
        assert_ne!(a, b, "different seed, different plan");
    }

    #[test]
    fn fault_state_tracks_overlapping_causes() {
        let fabric = ft();
        let mut state = FaultState::healthy(&fabric);
        assert!(!state.any_down());
        // Node 3's injection link is link 3 in the fat-tree layout.
        state.apply(
            &fabric,
            FaultEvent {
                time_ns: 0,
                action: FaultAction::Fail,
                target: FaultTarget::Node(3),
            },
        );
        assert!(!state.node_up(3));
        assert!(!state.link_up(3), "incident link blocked by dead node");
        // Independently fail the same link.
        state.apply(
            &fabric,
            FaultEvent {
                time_ns: 1,
                action: FaultAction::Fail,
                target: FaultTarget::Link(3),
            },
        );
        assert_eq!(state.failed_links(), vec![3]);
        // Node recovery alone does not resurrect the link.
        state.apply(
            &fabric,
            FaultEvent {
                time_ns: 2,
                action: FaultAction::Recover,
                target: FaultTarget::Node(3),
            },
        );
        assert!(state.node_up(3));
        assert!(!state.link_up(3), "explicit link failure persists");
        state.repatch_link(3);
        assert!(state.link_up(3));
        assert!(!state.any_down());
        // Spurious recovery is a no-op.
        state.apply(
            &fabric,
            FaultEvent {
                time_ns: 3,
                action: FaultAction::Recover,
                target: FaultTarget::Node(3),
            },
        );
        assert!(state.node_up(3));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_ns: 1_000,
            max_backoff_ns: 3_000,
        };
        assert_eq!(p.backoff_ns(1), 1_000);
        assert_eq!(p.backoff_ns(2), 2_000);
        assert_eq!(p.backoff_ns(3), 3_000, "capped");
        assert_eq!(p.backoff_ns(40), 3_000);
        assert_eq!(RetryPolicy::default().attempts(), 4);
        let degenerate = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(degenerate.attempts(), 1);
    }

    #[test]
    fn transit_links_exclude_endpoint_hops() {
        let torus = TorusFabric::new((4, 1, 1)).unwrap();
        // 0 -> 2 is two hops: the first is 0's injection, the last enters 2.
        let flows = [Flow {
            src: 0,
            dst: 2,
            bytes: 64,
            start_ns: 0,
        }];
        assert!(
            transit_links(&torus, &flows).is_empty(),
            "a 2-link path has no transit links"
        );
        let ftree = ft();
        // 0 -> 15 climbs the tree: interior switch links are transit.
        let flows = [Flow {
            src: 0,
            dst: 15,
            bytes: 64,
            start_ns: 0,
        }];
        let transit = transit_links(&ftree, &flows);
        let path = ftree.path(0, 15).unwrap();
        assert_eq!(transit.len(), path.len() - 2);
        assert!(!transit.contains(&path[0]));
        assert!(!transit.contains(path.last().unwrap()));
    }
}
