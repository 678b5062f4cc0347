//! Congestion lab: prints [`hfast_bench::lab`], adversarial
//! scenarios × fabrics × provisioner strategies under credit-based flow
//! control.
//!
//! Per cell the table reports tree count, deepest tree, total stalled
//! time, the worst tree's **spread ratio** (victims over flows crossing
//! the root), **off-root victims** (flows delayed by the tree that never
//! traverse the root link — the paper's headline casualty class), and
//! the link-utilization spread (max/mean and Gini).
//!
//! Takes no arguments. Exits 1 on any of the lab's violations
//! ([`hfast_bench::Lab::violations`]), named on stderr: an HFAST cell
//! whose spread is not strictly below the fat tree's, a fat-tree incast
//! with no off-root victims, or an ideal-mode replay that differs from the
//! plain loop. The tier-1 test `tests/congestion_lab.rs` asserts the same.

use hfast_bench::{lab, CellMetrics, LAB_CREDITS, LAB_NODES, LAB_SEED};

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

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: congestion_lab");
        std::process::exit(2);
    }
    println!("== congestion lab: scenarios x fabrics x strategies ==");
    println!(
        "   {LAB_NODES} nodes, credit flow control ({LAB_CREDITS} slot/link), seed {LAB_SEED:#x}\n"
    );
    let lab = lab();
    let (plain, ideal) = lab.ideal_identity;
    if plain == ideal {
        println!("ideal identity: digest {plain:#018x} (plain == ideal)\n");
    } else {
        println!("ideal identity: plain {plain:#018x} != ideal {ideal:#018x}\n");
    }

    for row in &lab.rows {
        println!("{} ({} flows)", row.kind, row.flows);
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
        print_cell("fat-tree", &row.fat_tree);
        for (strategy, m) in &row.hfast {
            print_cell(&format!("hfast/{strategy}"), m);
        }
        if let Some((fat_slow, hf_slow)) = row.light_tenant_slowdown {
            println!(
                "  light-tenant p95 slowdown (shared/solo): fat-tree {fat_slow:.2}x, \
                 hfast/paper_linear {hf_slow:.2}x"
            );
        }
        println!();
    }

    println!(
        "shape: the fat tree's shared interior links let one saturated link \
         stall flows that never touch it, while hfast pins heavy pairs to \
         dedicated circuits and keeps probe traffic on per-node tree links — \
         congestion stays at the root instead of spreading."
    );
    let violations = lab.violations();
    for v in &violations {
        eprintln!("FAIL: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
