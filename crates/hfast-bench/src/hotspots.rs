//! Congestion hotspots: each app's steady-state flows replayed traced on
//! the fat tree and on `PaperLinear` HFAST, the per-link `hop` spans
//! folded by [`rank_hotspots`] into busy-time / queueing rankings. The
//! paper's provisioning argument predicts that congestion lands on the
//! circuits dedicated to the heavy pairs, not on the collective tree:
//! [`AppHotspots::violation`] is that check, asserted by the tier-1 test
//! `tests/hotspots.rs`; the `hotspots` bin prints the rankings.

use hfast_apps::all_apps;
use hfast_core::Strategy;
use hfast_netsim::{Fabric, Flow, Simulation};
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

impl AppHotspots {
    /// The app and link class when the hottest HFAST transit link is not
    /// a circuit; `None` when it is, or when no transit link was used.
    pub fn violation(&self) -> Option<String> {
        match self.hfast_transit.links.first() {
            Some((top, Some(class))) if *class != "circuit" => Some(format!(
                "{}: hottest HFAST transit link {} is {class} traffic, not a circuit",
                self.app, top.link
            )),
            _ => None,
        }
    }
}

/// Replays `flows` on `fabric` with tracing on: every link that carried
/// traffic, hottest first, and the queueing-wait percentiles.
fn traced(fabric: &dyn Fabric, flows: &[Flow]) -> (Vec<LinkLoad>, [u64; 3]) {
    let rec = TraceRecorder::new();
    Simulation::new(fabric).with_trace(&rec).run(flows);
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
    (rank_hotspots(&spans), wait_ns)
}

/// Every app of `all_apps()` at [`PROCS`] ranks, in that order, on the
/// fat tree and on `PaperLinear` HFAST.
pub fn hotspots() -> Vec<AppHotspots> {
    all_apps()
        .iter()
        .map(|app| {
            let cell = cell(app.as_ref(), PROCS);
            let (loads, wait_ns) = traced(cell.fat_tree().as_ref(), &cell.flows);
            let fat_tree = Ranking {
                links: loads.into_iter().map(|l| (l, None)).collect(),
                wait_ns,
            };
            let hf = cell.hfast(Strategy::PaperLinear);
            let (loads, wait_ns) = traced(&hf, &cell.flows);
            let transit = loads.into_iter().filter_map(|l| {
                let class = hf.link_class(l.link);
                (class != "fiber").then_some((l, Some(class)))
            });
            let hfast_transit = Ranking {
                links: transit.collect(),
                wait_ns,
            };
            AppHotspots {
                app: cell.name,
                flows: cell.flows.len(),
                fat_tree,
                hfast_transit,
            }
        })
        .collect()
}
