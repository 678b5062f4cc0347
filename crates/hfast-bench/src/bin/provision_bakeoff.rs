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
//! `tests/provision_bakeoff.rs` asserts that every cell validates and
//! delivers every flow under credit flow control; the root
//! `tests/provisioner_goldens.rs` pins the `paper_linear` digests printed
//! here. An argument filters the app list by substring.

use hfast_apps::all_apps;
use hfast_bench::{cell, Cell, PROCS};
use hfast_core::{CostComparison, CostModel, Strategy};
use hfast_netsim::{CreditConfig, Simulation};
use hfast_trace::{congestion_trees, rank_hotspots, TraceRecorder};

/// Buffer slots per link for the credit-mode congestion replay.
const CREDITS: u32 = 1;

/// Provisions `cell` by `strategy`, replays its flows traced and prints
/// the strategy's row.
fn print_row(strategy: Strategy, cell: &Cell) {
    let fabric = cell.hfast(strategy);
    let prov = fabric.provisioning();
    prov.validate(&cell.graph)
        .unwrap_or_else(|e| panic!("{strategy} produced an invalid provisioning: {e}"));
    let circuits = prov.circuit_pairs().count();
    let wanted = circuits + prov.unprovisioned().len();
    let coverage_pct = if wanted == 0 {
        100.0
    } else {
        100.0 * circuits as f64 / wanted as f64
    };
    let cost_ratio = CostComparison::of(prov, &CostModel::default()).ratio();

    // Traced replay on the provisioned fabric: where does congestion land?
    let rec = TraceRecorder::new();
    let out = Simulation::new(&fabric).with_trace(&rec).run(&cell.flows);
    let loads = rank_hotspots(&rec.snapshot());
    let transit: Vec<_> = loads
        .iter()
        .filter(|l| fabric.link_class(l.link) != "fiber")
        .collect();
    let top_class = transit.first().map_or("-", |l| fabric.link_class(l.link));
    let busy_total: u64 = transit.iter().map(|l| l.busy_ns).sum();
    let busy_circuit: u64 = transit
        .iter()
        .filter(|l| fabric.link_class(l.link) == "circuit")
        .map(|l| l.busy_ns)
        .sum();
    let circuit_busy_pct = if busy_total == 0 {
        0.0
    } else {
        100.0 * busy_circuit as f64 / busy_total as f64
    };

    // Second replay under credit flow control: where does backpressure go?
    // The spread is the worst congestion tree's victims / root-crossing
    // flows (0 when no link ever stalls).
    let credit_rec = TraceRecorder::new();
    Simulation::new(&fabric)
        .with_congestion(CreditConfig::credit(CREDITS))
        .with_trace(&credit_rec)
        .run(&cell.flows);
    let trees = congestion_trees(&credit_rec.snapshot());
    let spread = trees.iter().map(|t| t.spread_ratio).fold(0.0, f64::max);
    let stall_ns: u64 = trees.iter().map(|t| t.stall_ns).sum();
    println!(
        "  {:<14} {:>6} {:>10.2} {cost_ratio:>10.3} {coverage_pct:>8.1}% {:>9} {:>12} \
         {top_class:>8} {circuit_busy_pct:>11.1}% {spread:>8.2} {stall_ns:>12}",
        strategy.as_str(),
        prov.total_blocks(),
        prov.block_ports_per_node(),
        out.stats.completed,
        out.stats.makespan_ns,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = match args.as_slice() {
        [] => None,
        // No flags: validation and delivery are tests/provision_bakeoff.rs.
        [app] if !app.starts_with('-') => Some(app.to_lowercase()),
        _ => {
            eprintln!("usage: provision_bakeoff [APP]");
            std::process::exit(2);
        }
    };

    println!("== provisioner bake-off: apps x strategies at P = {PROCS} ==\n");
    for app in &all_apps() {
        if let Some(f) = &filter {
            if !app.name().to_lowercase().contains(f.as_str()) {
                continue;
            }
        }
        let cell = cell(app.as_ref(), PROCS);
        let digest = cell.hfast(Strategy::PaperLinear).provisioning().digest();
        println!(
            "{} ({} flows above cutoff)  paper_linear digest {digest:#018x}",
            cell.name,
            cell.flows.len(),
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
            print_row(strategy, &cell);
        }
        println!();
    }
    println!(
        "shape: paper_linear is linear-time but spends a block chain per \
         node; bff_circuit and demand_decomp consolidate matched pairs \
         onto shared blocks at higher provisioning cost. Congestion lands \
         on circuit-switched links for every strategy, and under credit \
         flow control the spread column shows backpressure staying near \
         its root instead of fanning out."
    );
}
