//! Congestion lab: adversarial scenarios × fabrics × provisioner
//! strategies under credit-based flow control.
//!
//! The paper's §2.4 claim — HFAST's circuit-provisioned transit links
//! *isolate* heavy flows — was asserted, not measured, while the
//! simulator modeled links as ideal FIFO servers. This lab measures it:
//! every [`ScenarioKind`] replays with [`CongestionMode::Credit`] (finite
//! per-link buffers, head-of-line blocking) on a fat tree and on an
//! HFAST fabric provisioned for the scenario's own traffic by each
//! [`Strategy`], and the `stall` spans are folded into the
//! congestion-tree reports of arXiv 1907.05312.
//!
//! Per cell the table reports tree count, deepest tree, total stalled
//! time, the worst tree's **spread ratio** (victims over flows crossing
//! the root), **off-root victims** (flows delayed by the tree that never
//! traverse the root link — the paper's headline casualty class), and
//! the link-utilization spread (max/mean and Gini).
//!
//! `--check` is the CI smoke; it exits non-zero unless
//! - HFAST's congestion spread is strictly lower than the fat tree's on
//!   **every** scenario × strategy cell,
//! - the fat tree shows off-root victims on the incast scenario (real
//!   congestion-tree collateral, not just queueing at the hot link), and
//! - `CongestionMode::Ideal` replays a seeded suite byte-identically to
//!   a run that never mentions congestion.
//!
//! [`CongestionMode::Credit`]: hfast_netsim::CongestionMode::Credit

use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::scenario::tenant_slowdown;
use hfast_netsim::{
    traffic, CreditConfig, Fabric, FatTreeFabric, Flow, HfastFabric, Scenario, ScenarioKind,
    Simulation, TorusFabric,
};
use hfast_trace::{congestion_trees, rank_hotspots, utilization_spread, TraceRecorder};

/// Endpoint universe for every scenario (one pod-rich fat tree's worth).
const NODES: usize = 64;
/// One seed defines the whole lab.
const SEED: u64 = 0xC0DE;
/// Buffer slots per link: shallow buffers make trees form fast, which is
/// the point — the lab studies spread, not capacity.
const CREDITS: u32 = 1;

/// Everything a cell's traced credit-mode replay is judged on.
struct CellMetrics {
    completed: usize,
    makespan_ns: u64,
    trees: usize,
    deepest: usize,
    stall_ns: u64,
    /// Worst tree's victims / root-crossing flows (0 when no tree).
    spread: f64,
    /// Victims that never cross their tree's root, summed over trees.
    off_root: usize,
    max_over_mean: f64,
    gini: f64,
}

fn run_cell(fabric: &dyn Fabric, flows: &[Flow]) -> CellMetrics {
    let rec = TraceRecorder::new();
    let out = Simulation::new(fabric)
        .with_congestion(CreditConfig::credit(CREDITS))
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

fn print_cell(label: &str, m: &CellMetrics) {
    println!(
        "  {label:<16} {:>6} {:>12} {:>6} {:>6} {:>12} {:>8.2} {:>9} {:>9.1} {:>6.3}",
        m.completed,
        m.makespan_ns,
        m.trees,
        m.deepest,
        m.stall_ns,
        m.spread,
        m.off_root,
        m.max_over_mean,
        m.gini
    );
}

/// `Ideal` must be byte-identical to a builder that never mentions
/// congestion — the cheap in-lab form of the golden identity the
/// eventloop suite pins in full.
fn check_ideal_identity() {
    let torus = TorusFabric::new((4, 4, 2)).unwrap();
    let flows = traffic::uniform_random(32, 2_000, 4096, 500_000, SEED);
    let plain = Simulation::new(&torus).detailed().run(&flows).digest();
    let ideal = Simulation::new(&torus)
        .with_congestion(CreditConfig::default())
        .detailed()
        .run(&flows)
        .digest();
    assert_eq!(
        plain, ideal,
        "CongestionMode::Ideal diverged from the plain event loop"
    );
    println!("ideal identity: digest {plain:#018x} (plain == ideal)\n");
}

/// Per-tenant interference on the multi-tenant scenario: the light
/// tenant's p95 slowdown (shared vs solo) on each fabric.
fn tenant_report(scenario: &Scenario, fabric: &dyn Fabric) -> f64 {
    let (flows, tenants) = scenario.flows_with_tenants();
    let run = |fs: &[Flow]| {
        Simulation::new(fabric)
            .with_congestion(CreditConfig::credit(CREDITS))
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
    let report = tenant_slowdown(&tenants, &shared, &solos);
    report[1].slowdown
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    println!("== congestion lab: scenarios x fabrics x strategies ==");
    println!("   {NODES} nodes, credit flow control ({CREDITS} slot/link), seed {SEED:#x}\n");
    check_ideal_identity();

    let fat = FatTreeFabric::new(NODES, 8).unwrap();
    let mut violations: Vec<String> = Vec::new();
    let mut incast_fat_off_root = 0usize;

    for kind in ScenarioKind::ALL {
        let scenario = Scenario::preset(kind, NODES, SEED);
        scenario
            .validate_for(&fat)
            .expect("scenario fits the fat tree");
        let flows = scenario.generate();
        println!("{kind} ({} flows)", flows.len());
        println!(
            "  {:<16} {:>6} {:>12} {:>6} {:>6} {:>12} {:>8} {:>9} {:>9} {:>6}",
            "fabric",
            "flows",
            "makespan-ns",
            "trees",
            "depth",
            "stall-ns",
            "spread",
            "off-root",
            "max/mean",
            "gini"
        );
        let fat_m = run_cell(&fat, &flows);
        print_cell("fat-tree", &fat_m);
        if kind == ScenarioKind::Incast {
            incast_fat_off_root = fat_m.off_root;
        }

        for strategy in Strategy::ALL {
            let hf = HfastFabric::provisioned(
                &scenario.comm_graph(),
                ProvisionConfig::default(),
                strategy,
            );
            scenario.validate_for(&hf).expect("scenario fits HFAST");
            let m = run_cell(&hf, &flows);
            print_cell(&format!("hfast/{strategy}"), &m);
            if m.spread >= fat_m.spread {
                violations.push(format!(
                    "{kind} x {strategy}: hfast spread {:.2} >= fat-tree {:.2}",
                    m.spread, fat_m.spread
                ));
            }
        }

        if kind == ScenarioKind::MultiTenant {
            let hf = HfastFabric::provisioned(
                &scenario.comm_graph(),
                ProvisionConfig::default(),
                Strategy::PaperLinear,
            );
            let (fat_slow, hf_slow) = (
                tenant_report(&scenario, &fat),
                tenant_report(&scenario, &hf),
            );
            println!(
                "  light-tenant p95 slowdown (shared/solo): fat-tree {fat_slow:.2}x, \
                 hfast/paper_linear {hf_slow:.2}x"
            );
        }
        println!();
    }

    if check {
        let mut failed = false;
        if !violations.is_empty() {
            failed = true;
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
        }
        if incast_fat_off_root == 0 {
            failed = true;
            eprintln!("FAIL: fat-tree incast produced no off-root victims — no congestion tree");
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "congestion check: hfast spread < fat-tree on every scenario x strategy cell, \
             fat-tree incast shows {incast_fat_off_root} off-root victims"
        );
    } else {
        println!(
            "shape: the fat tree's shared interior links let one saturated link \
             stall flows that never touch it, while hfast pins heavy pairs to \
             dedicated circuits and keeps probe traffic on per-node tree links — \
             congestion stays at the root instead of spreading."
        );
    }
}
