//! Congestion hotspots: each app's steady-state flows replayed traced on
//! the fat tree and on `PaperLinear` HFAST, the per-link `hop` spans
//! folded by [`rank_hotspots`] into busy-time / queueing rankings. The
//! paper's provisioning argument predicts that congestion lands on the
//! circuits dedicated to the heavy pairs, not on the collective tree:
//! [`AppHotspots::violation`] is that check, asserted by the tier-1 test
//! `tests/hotspots.rs`; `paper hotspots` prints the rankings.

use hfast_apps::CommKernel;
use hfast_core::Strategy;
use hfast_netsim::{Fabric, Flow, HfastFabric, RunStats, Simulation};
use hfast_obs::Histogram;
use hfast_trace::{rank_hotspots, LinkLoad, TraceRecorder, Track};

use crate::cell::{cell, PROCS};

/// One fabric's traced replay, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Links hottest first, each with its HFAST link class (`None` on the
    /// fat tree).
    pub links: Vec<(LinkLoad, Option<&'static str>)>,
    /// Queueing wait before a hop at the 50th, 95th and 99th percentile.
    pub wait_ns: [u64; 3],
}

/// One application's rankings.
#[derive(Debug, Clone, PartialEq)]
pub struct AppHotspots {
    /// Application name.
    pub app: &'static str,
    /// Steady-state flows replayed (none: both rankings are empty).
    pub flows: usize,
    /// Every link of the fat tree that carried traffic.
    pub fat_tree: Ranking,
    /// HFAST's transit links that carried traffic: endpoint fibers
    /// aggregate a whole node's traffic and would rank first on any
    /// fabric, so they are left out.
    pub hfast_transit: Ranking,
}

impl Ranking {
    /// The hottest link's class, `-` when no link carried traffic.
    pub fn top_class(&self) -> &'static str {
        self.links.first().and_then(|(_, c)| *c).unwrap_or("-")
    }

    /// Circuit links' share of the ranked links' busy time, in percent
    /// (0 when nothing was busy).
    pub fn circuit_busy_pct(&self) -> f64 {
        let busy = |circuit_only: bool| -> u64 {
            self.links
                .iter()
                .filter(|(_, c)| !circuit_only || *c == Some("circuit"))
                .map(|(l, _)| l.busy_ns)
                .sum()
        };
        match busy(false) {
            0 => 0.0,
            total => 100.0 * busy(true) as f64 / total as f64,
        }
    }
}

impl AppHotspots {
    /// The app and what it found when no HFAST transit link carried
    /// traffic or the hottest one is not a circuit; `None` otherwise.
    pub fn violation(&self) -> Option<String> {
        match self.hfast_transit.links.first() {
            None => Some(format!(
                "{}: expected HFAST transit links to carry traffic, got none ({} flows)",
                self.app, self.flows
            )),
            Some((top, Some(class))) if *class != "circuit" => Some(format!(
                "{}: expected a circuit as the hottest HFAST transit link, got link {} [{class}]",
                self.app, top.link
            )),
            _ => None,
        }
    }
}

/// Replays `flows` on `fabric` with tracing on: the run's stats, every
/// link that carried traffic, hottest first, and the queueing-wait
/// percentiles.
fn traced(fabric: &dyn Fabric, flows: &[Flow]) -> (RunStats, Vec<LinkLoad>, [u64; 3]) {
    let rec = TraceRecorder::new();
    let out = Simulation::new(fabric).with_trace(&rec).run(flows);
    let spans = rec.snapshot();
    let waits = Histogram::new();
    for s in &spans {
        if matches!(s.track, Track::Link(_)) && s.name == "hop" {
            if let Some(&(_, w)) = s.fields.iter().find(|(k, _)| *k == "wait") {
                waits.record(w);
            }
        }
    }
    let wait_ns = [0.5, 0.95, 0.99].map(|q| waits.quantile(q));
    (out.stats, rank_hotspots(&spans), wait_ns)
}

/// [`traced`] on `hf`, its endpoint fibers left out and every other link
/// tagged with its class.
pub(crate) fn hfast_transit(hf: &HfastFabric, flows: &[Flow]) -> (RunStats, Ranking) {
    let (stats, loads, wait_ns) = traced(hf, flows);
    let links = loads
        .into_iter()
        .filter_map(|l| {
            let class = hf.link_class(l.link);
            (class != "fiber").then_some((l, Some(class)))
        })
        .collect();
    (stats, Ranking { links, wait_ns })
}

/// `app` at [`PROCS`] ranks on the fat tree and on `PaperLinear` HFAST.
pub fn hotspots(app: &dyn CommKernel) -> AppHotspots {
    let cell = cell(app, PROCS);
    let (_, loads, wait_ns) = traced(cell.fat_tree().as_ref(), &cell.flows);
    let fat_tree = Ranking {
        links: loads.into_iter().map(|l| (l, None)).collect(),
        wait_ns,
    };
    let (_, hfast_transit) = hfast_transit(&cell.hfast(Strategy::PaperLinear), &cell.flows);
    AppHotspots {
        app: cell.name,
        flows: cell.flows.len(),
        fat_tree,
        hfast_transit,
    }
}
