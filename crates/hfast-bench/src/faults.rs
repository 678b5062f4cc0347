//! Fault replay: seeded link failures during a bulk-synchronous exchange
//! step, replayed on fat-tree vs HFAST (paper §1's reliability argument,
//! quantified in goodput).
//!
//! For each application and failure rate, the same seed picks which
//! fraction of each fabric's *transit* links (interior hops actually
//! carried by the app's traffic — never the endpoint fibers) fail at the
//! start of the exchange, permanently. The fat tree has one route per
//! pair: crossing flows burn their retry budget and are abandoned. HFAST
//! drops affected pairs onto the collective tree, keeps delivering, and
//! repatches the failed circuits through the MEMS crossbar at the next
//! synchronization point.

use hfast_apps::all_apps;
use hfast_core::Strategy;
use hfast_netsim::{transit_links, Fabric, FaultPlan, Flow, RetryPolicy, Simulation};

use crate::cell::{cell, PROCS};

/// Fractions of each fabric's transit links that fail.
pub const RATES: [f64; 3] = [0.05, 0.15, 0.30];
const SEED: u64 = 0x5C05;
const SYNC_INTERVAL_NS: u64 = 2_000_000;

/// One (app, failure-rate) cell: delivered over offered bytes per fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputCell {
    /// Fraction of transit links failed.
    pub rate: f64,
    /// Goodput on the fat tree.
    pub fat_tree: f64,
    /// Goodput on HFAST with mid-run reprovisioning.
    pub hfast: f64,
}

/// One application's row of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputRow {
    /// Application name.
    pub app: &'static str,
    /// One cell per [`RATES`] entry; empty when the app has no
    /// steady-state flows above the 2 KiB cutoff to replay.
    pub cells: Vec<GoodputCell>,
}

impl GoodputRow {
    /// Every way the row breaks §1's claim, one line each: no cells to
    /// replay, or a cell where HFAST's goodput is not strictly above the
    /// fat tree's.
    pub fn violations(&self) -> Vec<String> {
        if self.cells.is_empty() {
            return vec![format!(
                "{}: expected {} goodput cells, got none (no steady-state flows above the cutoff)",
                self.app,
                RATES.len()
            )];
        }
        self.cells
            .iter()
            .filter(|c| c.hfast <= c.fat_tree)
            .map(|c| {
                format!(
                    "{} at rate {:.2}: expected HFAST goodput above the fat tree's {:.4}, got {:.4}",
                    self.app, c.rate, c.fat_tree, c.hfast
                )
            })
            .collect()
    }
}

fn goodput(fabric: &dyn Fabric, flows: &[Flow], rate: f64, reprovision: bool) -> f64 {
    let offered: u64 = flows.iter().map(|f| f.bytes).sum();
    if offered == 0 {
        return 1.0;
    }
    let eligible = transit_links(fabric, flows);
    let count = ((eligible.len() as f64 * rate).ceil() as usize).max(1);
    let plan = FaultPlan::builder()
        .random_link_failures(SEED, count, &eligible, (0, 0), None)
        .build(fabric)
        .expect("valid plan");
    let mut sim = Simulation::new(fabric)
        .with_faults(&plan)
        .with_retry(RetryPolicy::default());
    if reprovision {
        sim = sim.with_reprovision(SYNC_INTERVAL_NS);
    }
    let out = sim.run(flows);
    out.stats.delivered_bytes as f64 / offered as f64
}

/// The goodput grid: every app of `all_apps()` at [`PROCS`] ranks, on an
/// 8-port fat tree and on its `PaperLinear`-provisioned HFAST fabric, at
/// every failure rate in [`RATES`].
pub fn goodput_grid() -> Vec<GoodputRow> {
    all_apps()
        .iter()
        .map(|app| {
            let cell = cell(app.as_ref(), PROCS);
            let cells = if cell.flows.is_empty() {
                Vec::new()
            } else {
                let ft = cell.fat_tree();
                let hf = cell.hfast(Strategy::PaperLinear);
                RATES
                    .iter()
                    .map(|&rate| GoodputCell {
                        rate,
                        fat_tree: goodput(ft.as_ref(), &cell.flows, rate, false),
                        hfast: goodput(&hf, &cell.flows, rate, true),
                    })
                    .collect()
            };
            GoodputRow {
                app: cell.name,
                cells,
            }
        })
        .collect()
}
