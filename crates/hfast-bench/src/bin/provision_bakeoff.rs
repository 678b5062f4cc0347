//! Provisioner bake-off: every application × strategy cell, judged on
//! cost, coverage, and measured congestion placement.
//!
//! ROADMAP item 3 asks how the paper's linear-time heuristic fares against
//! the BFF/Eclipse-style alternatives of arXiv 1712.06634. Each of the six
//! study codes is profiled at P = 64, then every [`Strategy`] provisions
//! its steady-state graph; each cell reports
//!
//! - **cost**: switch blocks, packet ports/node, and the cost-model ratio
//!   against an equivalent fat tree;
//! - **coverage**: the share of above-cutoff pairs that got a dedicated
//!   circuit (the rest ride the slow collective tree);
//! - **hotspots**: a traced netsim replay of the steady-state flows on the
//!   provisioned fabric, folded by the hfast-trace hotspot analyzer — the
//!   class of the hottest transit link and the circuit share of transit
//!   busy-time (arXiv 1907.05312 motivates judging placement, not just
//!   coverage);
//! - **congestion**: a second replay under credit-based flow control
//!   (finite link buffers), folded into congestion trees — the worst
//!   tree's spread ratio and the total stalled time show how far each
//!   strategy lets backpressure travel.
//!
//! `--check` runs the CI smoke: every strategy's output must pass
//! [`Provisioning::validate`] on every cell, `paper_linear` digests must
//! match the PR-6 goldens (bit-identical extraction), and a credit-mode
//! replay must deliver every flow on every cell (no deadlock under
//! backpressure). Any argument that is not `--check` filters the app
//! list by substring.

use hfast_apps::all_apps;
use hfast_bench::measure_app;
use hfast_core::{CostComparison, CostModel, ProvisionConfig, Provisioning, Strategy};
use hfast_netsim::{traffic, CreditConfig, HfastFabric, Simulation};
use hfast_trace::{congestion_trees, rank_hotspots, TraceRecorder};

const PROCS: usize = 64;
const CUTOFF: u64 = 2048;
/// Buffer slots per link for the credit-mode congestion replay.
const CREDITS: u32 = 1;

/// PR-6 `Provisioning::digest()` goldens for the paper heuristic on each
/// study code's steady-state graph at P = 64, default config. The trait
/// extraction is verbatim, so these must never move.
const PAPER_LINEAR_GOLDENS: &[(&str, u64)] = &[
    ("Cactus", 0x7c73906c2ec77bdd),
    ("LBMHD", 0x2278b65cc94b773d),
    ("GTC", 0xdaf434118fd5579d),
    ("SuperLU", 0x732ece61ea5fef5d),
    ("PMEMD", 0x70d56ff85bbe06f6),
    ("PARATEC", 0x70d56ff85bbe06f6),
];

struct Cell {
    strategy: &'static str,
    blocks: usize,
    ports_per_node: f64,
    cost_ratio: f64,
    coverage_pct: f64,
    completed: usize,
    makespan_ns: u64,
    top_class: String,
    circuit_busy_pct: f64,
    /// Worst congestion tree's victims / root-crossing flows under
    /// credit-mode flow control (0 when no link ever stalls).
    congestion_spread: f64,
    /// Total stalled time across all congestion trees, credit mode.
    stall_ns: u64,
}

/// Provisions one cell and (outside `--check`) replays its flows traced.
fn run_cell(
    strategy: Strategy,
    graph: &hfast_topology::CommGraph,
    flows: &[traffic::Flow],
    check_only: bool,
) -> Cell {
    let prov = strategy
        .provisioner()
        .provision(graph, ProvisionConfig::default());
    prov.validate(graph)
        .unwrap_or_else(|e| panic!("{strategy} produced an invalid provisioning: {e}"));
    let circuits = prov.circuit_pairs().count();
    let wanted = circuits + prov.unprovisioned().len();
    let coverage_pct = if wanted == 0 {
        100.0
    } else {
        100.0 * circuits as f64 / wanted as f64
    };
    let cmp = CostComparison::of(&prov, &CostModel::default());
    let (blocks, ports_per_node) = (prov.total_blocks(), prov.block_ports_per_node());
    if check_only {
        // Credit-mode coverage: backpressure must never deadlock a
        // provisioned fabric — every steady-state flow still delivers.
        let fabric = HfastFabric::new(prov);
        let out = Simulation::new(&fabric)
            .with_congestion(CreditConfig::credit(CREDITS))
            .run(flows);
        assert_eq!(
            out.stats.completed,
            flows.len(),
            "{strategy}: credit-mode replay lost flows (deadlock or unrouted)"
        );
        return Cell {
            strategy: strategy.as_str(),
            blocks,
            ports_per_node,
            cost_ratio: cmp.ratio(),
            coverage_pct,
            completed: 0,
            makespan_ns: 0,
            top_class: "-".into(),
            circuit_busy_pct: 0.0,
            congestion_spread: 0.0,
            stall_ns: 0,
        };
    }

    // Traced replay on the provisioned fabric: where does congestion land?
    let fabric = HfastFabric::new(prov);
    let rec = TraceRecorder::new();
    let out = Simulation::new(&fabric).with_trace(&rec).run(flows);
    let loads = rank_hotspots(&rec.snapshot());
    let transit: Vec<_> = loads
        .iter()
        .filter(|l| fabric.link_class(l.link) != "fiber")
        .collect();
    let busy_total: u64 = transit.iter().map(|l| l.busy_ns).sum();
    let busy_circuit: u64 = transit
        .iter()
        .filter(|l| fabric.link_class(l.link) == "circuit")
        .map(|l| l.busy_ns)
        .sum();

    // Second replay under credit flow control: where does backpressure go?
    let credit_rec = TraceRecorder::new();
    Simulation::new(&fabric)
        .with_congestion(CreditConfig::credit(CREDITS))
        .with_trace(&credit_rec)
        .run(flows);
    let trees = congestion_trees(&credit_rec.snapshot());
    Cell {
        strategy: strategy.as_str(),
        blocks,
        ports_per_node,
        cost_ratio: cmp.ratio(),
        coverage_pct,
        completed: out.stats.completed,
        makespan_ns: out.stats.makespan_ns,
        top_class: transit
            .first()
            .map_or("-".into(), |l| fabric.link_class(l.link).to_string()),
        circuit_busy_pct: if busy_total == 0 {
            0.0
        } else {
            100.0 * busy_circuit as f64 / busy_total as f64
        },
        congestion_spread: trees.iter().map(|t| t.spread_ratio).fold(0.0, f64::max),
        stall_ns: trees.iter().map(|t| t.stall_ns).sum(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_only = args.iter().any(|a| a == "--check");
    let filter: Option<String> = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map(|s| s.to_lowercase());

    println!("== provisioner bake-off: apps x strategies at P = {PROCS} ==\n");
    let mut golden_failures = 0usize;
    for app in &all_apps() {
        if let Some(f) = &filter {
            if !app.name().to_lowercase().contains(f.as_str()) {
                continue;
            }
        }
        let row = measure_app(app.as_ref(), PROCS);
        let graph = row.steady.comm_graph();
        let flows = traffic::flows_from_graph(&graph, CUTOFF);

        // PR-6 golden: the paper heuristic through the trait must be
        // bit-identical to the pre-refactor `Provisioning::per_node`.
        let digest = Provisioning::digest(
            &Strategy::PaperLinear
                .provisioner()
                .provision(&graph, ProvisionConfig::default()),
        );
        let golden = PAPER_LINEAR_GOLDENS
            .iter()
            .find(|(n, _)| *n == row.name)
            .map(|(_, d)| *d);
        let golden_ok = golden == Some(digest);
        if !golden_ok {
            golden_failures += 1;
        }

        println!(
            "{} ({} flows above cutoff)  paper_linear digest {digest:#018x} {}",
            row.name,
            flows.len(),
            if golden_ok {
                "[golden ok]"
            } else {
                "[GOLDEN MISMATCH]"
            }
        );
        println!(
            "  {:<14} {:>6} {:>10} {:>10} {:>9} {:>9} {:>12} {:>8} {:>12} {:>8} {:>12}",
            "strategy",
            "blocks",
            "ports/node",
            "cost-ratio",
            "coverage",
            "flows",
            "makespan-ns",
            "top-hot",
            "circuit-busy",
            "spread",
            "stall-ns"
        );
        for strategy in Strategy::ALL {
            let c = run_cell(strategy, &graph, &flows, check_only);
            println!(
                "  {:<14} {:>6} {:>10.2} {:>10.3} {:>8.1}% {:>9} {:>12} {:>8} {:>11.1}% {:>8.2} {:>12}",
                c.strategy,
                c.blocks,
                c.ports_per_node,
                c.cost_ratio,
                c.coverage_pct,
                c.completed,
                c.makespan_ns,
                c.top_class,
                c.circuit_busy_pct,
                c.congestion_spread,
                c.stall_ns
            );
        }
        println!();
    }
    if check_only {
        if golden_failures > 0 {
            eprintln!("FAIL: {golden_failures} paper_linear digests diverged from PR-6 goldens");
            std::process::exit(1);
        }
        println!(
            "bake-off check: all strategies valid on every cell, goldens match, \
             credit-mode replays deliver every flow"
        );
    } else {
        println!(
            "shape: paper_linear is linear-time but spends a block chain per \
             node; bff_circuit and demand_decomp consolidate matched pairs \
             onto shared blocks at higher provisioning cost. Congestion lands \
             on circuit-switched links for every strategy, and under credit \
             flow control the spread column shows backpressure staying near \
             its root instead of fanning out."
        );
    }
}
