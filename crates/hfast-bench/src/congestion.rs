//! Congestion lab: adversarial scenarios × fabrics × provisioner
//! strategies under credit-based flow control.
//!
//! The paper's §2.4 claim — HFAST's circuit-provisioned transit links
//! *isolate* heavy flows — is measured here: every [`ScenarioKind`]
//! replays with [`CongestionMode::Credit`] (finite per-link buffers,
//! head-of-line blocking) on a fat tree and on an HFAST fabric
//! provisioned for the scenario's own traffic by each [`Strategy`], and
//! the `stall` spans are folded into the congestion-tree reports of
//! arXiv 1907.05312.
//!
//! [`lab`] runs the grid; [`Lab::violations`] is its check, asserted by
//! the tier-1 test `tests/congestion_lab.rs` and by `paper
//! congestion_lab`, which prints the grid.
//!
//! [`CongestionMode::Credit`]: hfast_netsim::CongestionMode::Credit

use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::tenant_slowdown;
use hfast_netsim::{
    traffic, CreditConfig, Fabric, Flow, HfastFabric, Scenario, ScenarioKind, Simulation,
    TorusFabric,
};
use hfast_trace::{congestion_trees, rank_hotspots, utilization_spread, TraceRecorder};

use crate::cell::{fabric, FAT_TREE};

/// Endpoint universe for every scenario (one pod-rich fat tree's worth).
pub const LAB_NODES: usize = 64;
/// One seed defines the whole lab.
pub const LAB_SEED: u64 = 0xC0DE;
/// Buffer slots per link of every credit-mode replay, here and in the
/// provisioner bake-off: shallow buffers make trees form fast, which is
/// the point — the lab studies spread, not capacity.
pub const LAB_CREDITS: u32 = 1;

/// Everything a cell's traced credit-mode replay is judged on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Flows delivered.
    pub completed: usize,
    /// Time of last delivery.
    pub makespan_ns: u64,
    /// Congestion trees found in the trace.
    pub trees: usize,
    /// Deepest tree.
    pub deepest: usize,
    /// Total stalled time across all trees.
    pub stall_ns: u64,
    /// Worst tree's victims / root-crossing flows (0 when no tree).
    pub spread: f64,
    /// Victims that never cross their tree's root, summed over trees.
    pub off_root: usize,
    /// Max-over-mean link busy time.
    pub max_over_mean: f64,
    /// Gini coefficient of link busy time.
    pub gini: f64,
}

/// One scenario's row: the fat tree, then HFAST under every strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// The generator.
    pub kind: ScenarioKind,
    /// Flows the generator emitted.
    pub flows: usize,
    /// The 8-port fat tree's cell.
    pub fat_tree: CellMetrics,
    /// One cell per [`Strategy::ALL`] entry, in that order.
    pub hfast: Vec<(Strategy, CellMetrics)>,
    /// On the multi-tenant scenario, the light tenant's p95 slowdown
    /// (shared over solo) on the fat tree and on `PaperLinear` HFAST.
    pub light_tenant_slowdown: Option<(f64, f64)>,
}

/// The whole grid, plus the ideal-mode identity probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Lab {
    /// Digest of a seeded torus replay that never mentions congestion,
    /// then of the same replay under `CongestionMode::Ideal`.
    pub ideal_identity: (u64, u64),
    /// One row per [`ScenarioKind::ALL`] entry, in that order.
    pub rows: Vec<ScenarioRow>,
}

impl Lab {
    /// Everything the lab's claims rule out, one line each: an HFAST cell
    /// whose spread is not strictly below the fat tree's (naming the
    /// scenario, the strategy and both spreads), a fat-tree incast with
    /// no off-root victims, and an ideal-mode replay that differs from
    /// the plain one.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (plain, ideal) = self.ideal_identity;
        if plain != ideal {
            out.push(format!(
                "ideal identity: expected the plain loop's digest {plain:#018x}, got {ideal:#018x}"
            ));
        }
        for row in &self.rows {
            for (strategy, m) in &row.hfast {
                if m.spread >= row.fat_tree.spread {
                    out.push(format!(
                        "{} x {strategy}: expected hfast spread below the fat tree's {:.2}, got {:.2}",
                        row.kind, row.fat_tree.spread, m.spread
                    ));
                }
            }
        }
        let incast = self.rows.iter().find(|r| r.kind == ScenarioKind::Incast);
        if incast.map_or(0, |r| r.fat_tree.off_root) == 0 {
            out.push("incast x fat-tree: expected off-root victims, got 0".to_string());
        }
        out
    }
}

/// Replays `flows` on `fabric` traced under [`LAB_CREDITS`]-slot credit
/// flow control and folds the spans into a cell.
pub(crate) fn run_cell(fabric: &dyn Fabric, flows: &[Flow]) -> CellMetrics {
    let rec = TraceRecorder::new();
    let out = Simulation::new(fabric)
        .with_congestion(CreditConfig::credit(LAB_CREDITS))
        .with_trace(&rec)
        .run(flows);
    let spans = rec.snapshot();
    let trees = congestion_trees(&spans);
    let spread_stats = utilization_spread(&rank_hotspots(&spans));
    CellMetrics {
        completed: out.stats.completed,
        makespan_ns: out.stats.makespan_ns,
        trees: trees.len(),
        deepest: trees.iter().map(|t| t.depth).max().unwrap_or(0),
        stall_ns: trees.iter().map(|t| t.stall_ns).sum(),
        spread: trees.iter().map(|t| t.spread_ratio).fold(0.0, f64::max),
        off_root: trees.iter().map(|t| t.off_root_victims).sum(),
        max_over_mean: spread_stats.max_over_mean,
        gini: spread_stats.gini,
    }
}

/// `Ideal` must be byte-identical to a builder that never mentions
/// congestion — the cheap in-lab form of the golden identity the
/// eventloop suite pins in full.
fn ideal_identity() -> (u64, u64) {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let flows = traffic::uniform_random(32, 2_000, 4096, 500_000, LAB_SEED);
    let plain = Simulation::new(&torus).detailed().run(&flows).digest();
    let ideal = Simulation::new(&torus)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&flows)
        .digest();
    (plain, ideal)
}

/// Per-tenant interference on the multi-tenant scenario: the light
/// tenant's p95 slowdown (shared vs solo) on `fabric`.
fn light_tenant_slowdown(scenario: &Scenario, fabric: &dyn Fabric) -> f64 {
    let (flows, tenants) = scenario.flows_with_tenants();
    let run = |fs: &[Flow]| {
        Simulation::new(fabric)
            .with_congestion(CreditConfig::credit(LAB_CREDITS))
            .detailed()
            .run(fs)
            .records()
            .to_vec()
    };
    let shared = run(&flows);
    let solos = vec![
        run(&scenario.tenant_flows(0)),
        run(&scenario.tenant_flows(1)),
    ];
    tenant_slowdown(&tenants, &shared, &solos)[1].slowdown
}

/// Runs the grid: every [`ScenarioKind`] preset at [`LAB_NODES`] endpoints
/// and [`LAB_SEED`], on an 8-port fat tree and on HFAST provisioned by every
/// [`Strategy`], under [`LAB_CREDITS`]-slot credit flow control.
pub fn lab() -> Lab {
    let ideal_identity = ideal_identity();
    let rows = ScenarioKind::ALL
        .into_iter()
        .map(|kind| {
            let scenario = Scenario::preset(kind, LAB_NODES, LAB_SEED);
            let graph = scenario.comm_graph();
            let fat = fabric(FAT_TREE, &graph);
            scenario
                .validate_for(fat.as_ref())
                .expect("scenario fits the fat tree");
            let flows = scenario.generate();
            let fat_tree = run_cell(fat.as_ref(), &flows);
            let provisioned =
                |strategy| HfastFabric::provisioned(&graph, ProvisionConfig::default(), strategy);
            let hfast = Strategy::ALL
                .into_iter()
                .map(|strategy| {
                    let hf = provisioned(strategy);
                    scenario.validate_for(&hf).expect("scenario fits HFAST");
                    (strategy, run_cell(&hf, &flows))
                })
                .collect();
            let light_tenant_slowdown = (kind == ScenarioKind::MultiTenant).then(|| {
                let hf = provisioned(Strategy::PaperLinear);
                (
                    light_tenant_slowdown(&scenario, fat.as_ref()),
                    light_tenant_slowdown(&scenario, &hf),
                )
            });
            ScenarioRow {
                kind,
                flows: flows.len(),
                fat_tree,
                hfast,
                light_tenant_slowdown,
            }
        })
        .collect();
    Lab {
        ideal_identity,
        rows,
    }
}
