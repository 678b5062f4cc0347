//! Provisioner bake-off: an application at [`PROCS`] ranks provisioned
//! by every [`Strategy`], each cell judged on cost, coverage, and measured congestion
//! placement — the paper's linear-time heuristic against the matching
//! strategies of arXiv 1712.06634, with the congestion trees of arXiv
//! 1907.05312 to judge placement, not just coverage.
//!
//! Each cell reports the switch blocks, packet ports per node and the
//! cost-model ratio against an equivalent fat tree; the share of
//! above-cutoff pairs that got a dedicated circuit; a traced replay's
//! HFAST transit ranking ([`Ranking`]); and a [`LAB_CREDITS`]-slot
//! credit-mode replay folded into congestion trees, as in the congestion
//! lab. [`AppBakeoff::violations`] is the check, asserted by the tier-1
//! test `tests/provision_bakeoff.rs` and by `paper provision_bakeoff`,
//! which prints the rows.
//!
//! [`LAB_CREDITS`]: crate::LAB_CREDITS

use hfast_apps::CommKernel;
use hfast_core::{CostComparison, CostModel, Strategy};

use crate::cell::{cell, PROCS};
use crate::congestion::{run_cell, CellMetrics};
use crate::hotspots::{hfast_transit, Ranking};

/// One strategy's cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// The provisioner.
    pub strategy: Strategy,
    /// `Provisioning::validate`'s error, when the provisioning breaks an
    /// invariant.
    pub invalid: Option<String>,
    /// Switch blocks allocated.
    pub blocks: usize,
    /// Packet-switch ports per node.
    pub ports_per_node: f64,
    /// HFAST cost over the equivalent fat tree's.
    pub cost_ratio: f64,
    /// Above-cutoff pairs with a dedicated circuit, in percent.
    pub coverage_pct: f64,
    /// Flows the traced replay delivered.
    pub completed: usize,
    /// The traced replay's time of last delivery.
    pub makespan_ns: u64,
    /// The traced replay's HFAST transit links.
    pub transit: Ranking,
    /// The credit-mode replay.
    pub credit: CellMetrics,
}

/// One application's row of the bake-off.
#[derive(Debug, Clone, PartialEq)]
pub struct AppBakeoff {
    /// Application name.
    pub app: &'static str,
    /// Steady-state flows above the cutoff.
    pub flows: usize,
    /// `PaperLinear`'s `Provisioning::digest`.
    pub digest: u64,
    /// One cell per [`Strategy::ALL`] entry, in that order.
    pub rows: Vec<StrategyRow>,
}

impl AppBakeoff {
    /// Every cell whose provisioning does not validate or whose
    /// credit-mode replay leaves a flow undelivered (backpressure must
    /// never deadlock a provisioned fabric), one line each.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            let at = format!("{} x {}", self.app, row.strategy);
            if let Some(e) = &row.invalid {
                out.push(format!("{at}: expected a valid provisioning, got {e}"));
            }
            if row.credit.completed != self.flows {
                out.push(format!(
                    "{at}: expected {} flows delivered under credit flow control, got {}",
                    self.flows, row.credit.completed
                ));
            }
        }
        out
    }
}

/// `app` at [`PROCS`] ranks under every [`Strategy`].
pub fn bakeoff(app: &dyn CommKernel) -> AppBakeoff {
    let cell = cell(app, PROCS);
    let rows = Strategy::ALL.map(|strategy| {
        let fabric = cell.hfast(strategy);
        let prov = fabric.provisioning();
        let circuits = prov.circuit_pairs().count();
        let wanted = circuits + prov.unprovisioned().len();
        let (stats, transit) = hfast_transit(&fabric, &cell.flows);
        StrategyRow {
            strategy,
            invalid: prov.validate(&cell.graph).err().map(|e| e.to_string()),
            blocks: prov.total_blocks(),
            ports_per_node: prov.block_ports_per_node(),
            cost_ratio: CostComparison::of(prov, &CostModel::default()).ratio(),
            coverage_pct: match wanted {
                0 => 100.0,
                _ => 100.0 * circuits as f64 / wanted as f64,
            },
            completed: stats.completed,
            makespan_ns: stats.makespan_ns,
            transit,
            credit: run_cell(&fabric, &cell.flows),
        }
    });
    AppBakeoff {
        app: cell.name,
        flows: cell.flows.len(),
        digest: cell.hfast(Strategy::PaperLinear).provisioning().digest(),
        rows: rows.into(),
    }
}
