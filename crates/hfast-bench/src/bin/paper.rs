//! `paper` — prints one table, figure or extension experiment of the
//! reproduction, measured next to the paper's published values where the
//! paper gives numbers.
//!
//! ```text
//! paper <section>
//! ```
//!
//! The sections are listed in [`SECTIONS`]; no argument or an unknown name
//! prints them and exits 2. `experiments` measures the Table 3 grid, prints
//! a PASS/MISS verdict for every row of the claims ledger
//! (`hfast_bench::CLAIMS`) and exits 1 if any row misses.

use std::process::ExitCode;

use hfast_apps::TABLE2;
use hfast_apps::{all_apps, Cactus, Gtc, Lbmhd, Paratec, Pmemd, SuperLu, STUDY_SIZES};
use hfast_bench::{
    app_figure, cdf_line, cell, check_claims, measure_app, measure_grid, published, table3_header,
    table3_rows, Quantity, Value, ALL_CODES, PROCS,
};
use hfast_core::AnalyticHfast;
use hfast_core::TABLE1_SYSTEMS;
use hfast_core::{
    classify, hfast_fault_impact, localize, seeded_failures, torus_fault_impact, ClassifyConfig,
    Clustered, CostComparison, CostModel, FatTree, PaperLinear, ProvisionConfig, Provisioner,
    SmpAssignment,
};
use hfast_ipm::format_bytes;
use hfast_netsim::engine::PathCache;
use hfast_netsim::Simulation;
use hfast_topology::generators::{balanced_dims3, mesh3d_graph};
use hfast_topology::{tdc, BufferHistogram, CommGraph, BDP_CUTOFF};

/// Every section, in the order the usage lists them: the paper's tables
/// and figures, then the §2.5 taxonomy, the §5.3 cost analysis, the
/// extension experiments, and the full sweep with the ledger's verdicts.
const SECTIONS: &[(&str, fn())] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    // Figures 5-10: volume matrix and TDC-vs-cutoff curves, one app each.
    ("fig5", || print!("{}", app_figure(&Gtc::default(), 5))),
    ("fig6", || print!("{}", app_figure(&Cactus::default(), 6))),
    ("fig7", || print!("{}", app_figure(&Lbmhd::default(), 7))),
    ("fig8", || print!("{}", app_figure(&SuperLu::default(), 8))),
    ("fig9", || print!("{}", app_figure(&Pmemd::default(), 9))),
    ("fig10", || {
        print!("{}", app_figure(&Paratec::default(), 10))
    }),
    ("classify", classify_apps),
    ("cost_model", cost_model),
    ("smp", smp),
    ("faults", faults),
    ("netsim_compare", netsim_compare),
    ("experiments", experiments),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: paper <section>\nsections: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        return usage();
    };
    match SECTIONS.iter().find(|(section, _)| section == name) {
        Some((_, run)) => {
            run();
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}

/// Paper Table 1: bandwidth-delay products for leading interconnects.
fn table1() {
    println!("== Table 1: bandwidth-delay products ==\n");
    println!(
        "{:<22} {:<18} {:>10} {:>12} {:>8} {:>8}",
        "System", "Technology", "Latency", "Bandwidth", "BDP", "N1/2"
    );
    println!("{}", "-".repeat(84));
    for s in TABLE1_SYSTEMS {
        println!(
            "{:<22} {:<18} {:>8.1}us {:>9.1}GB/s {:>8} {:>8}",
            s.system,
            s.technology,
            s.mpi_latency_us,
            s.peak_bandwidth_gbs,
            format_bytes(s.bdp_bytes() as u64),
            format_bytes(s.n_half_bytes() as u64),
        );
    }
    println!(
        "\nBest BDP ≈ 2 KB → the paper's circuit-worthiness threshold \
         (messages below it cannot saturate a dedicated circuit)."
    );
}

/// Paper Table 2: the studied applications.
fn table2() {
    println!("== Table 2: scientific applications examined ==\n");
    println!(
        "{:<9} {:>7}  {:<16} {:<48} {:<14}",
        "Name", "Lines", "Discipline", "Problem and Method", "Structure"
    );
    println!("{}", "-".repeat(100));
    for m in TABLE2 {
        println!(
            "{:<9} {:>7}  {:<16} {:<48} {:<14}",
            m.name, m.lines, m.discipline, m.problem, m.structure
        );
    }
}

/// Paper Table 3: per-application communication summary at P = 64 and
/// 256, measured vs published.
fn table3() {
    println!("== Table 3: summary of code characteristics ==\n");
    print!("{}", table3_header());
    for app in all_apps() {
        for &procs in &STUDY_SIZES {
            print!("{}", table3_rows(&measure_app(app.as_ref(), procs)));
        }
        println!();
    }
    let superlu_fcn = published("SuperLU", 256, Quantity::FcnUtil).expect("Table 3 row");
    println!(
        "(FCN utilization defined as avgTDC@2KB/(P−1); the paper's SuperLU \
         P=256 row reports {:.0}%, inconsistent with its own TDC column — see \
         EXPERIMENTS.md.)",
        superlu_fcn.num()
    );
}

/// Paper Figure 1's worked example: 6 nodes on active switch blocks of
/// size 4, with routes for node1→node2 (one block) and node1→node6 (two
/// blocks).
fn fig1() {
    println!("== Figure 1: HFAST layout example (6 nodes, blocks of 4) ==\n");
    let mut g = CommGraph::new(6);
    g.add_message(0, 1, 1 << 20); // node1 ↔ node2 in the paper's 1-indexing
    g.add_message(0, 5, 1 << 20); // node1 ↔ node6
    let clustering = vec![vec![0, 1, 2], vec![3, 4, 5]];
    let prov = Clustered::new(clustering).provision(
        &g,
        ProvisionConfig {
            block_ports: 4,
            cutoff: 2048,
        },
    );
    prov.validate(&g).expect("valid provisioning");

    println!("switch blocks allocated: {}", prov.total_blocks());
    println!("circuit ports in use:    {}\n", prov.circuit_ports_used());
    println!("circuits patched (endpoint ↔ endpoint):");
    for (a, b) in prov.circuit().circuits() {
        println!("  {a} ↔ {b}");
    }
    let r01 = prov.route(0, 1).expect("routed");
    println!(
        "\nnode1 → node2: {} circuit traversals, {} active switch hop(s)  (paper: 2 / 1)",
        r01.circuit_traversals, r01.switch_hops
    );
    let r05 = prov.route(0, 5).expect("routed");
    println!(
        "node1 → node6: {} circuit traversals, {} active switch hop(s)  (paper: 3 / 2)",
        r05.circuit_traversals, r05.switch_hops
    );
}

/// Paper Figure 2: relative number of MPI communication calls per code,
/// measured vs published.
fn fig2() {
    println!("== Figure 2: relative number of MPI calls per code ==\n");
    for app in all_apps() {
        let row = measure_app(app.as_ref(), 64);
        println!("{}:", row.name);
        for (kind, pct) in row.steady.call_mix() {
            if pct < 0.05 {
                continue;
            }
            let published = published(row.name, 64, Quantity::CallShare(kind))
                .map(|p| format!("{:>5.1}%", p.num()))
                .unwrap_or_else(|| "    —".into());
            println!(
                "  {:<18} measured {:>5.1}%   paper {}",
                kind.mpi_name(),
                pct,
                published
            );
        }
        println!();
    }
}

/// Paper Figure 3: cumulative buffer-size distribution of collective
/// communication across all six codes.
fn fig3() {
    println!("== Figure 3: collective buffer sizes, all codes ==\n");
    let mut combined = BufferHistogram::new();
    for app in all_apps() {
        let row = measure_app(app.as_ref(), 64);
        combined.merge(&row.steady.collective_buffer_histogram());
    }
    println!("cumulative distribution (log-scaled x, 1B → max):");
    println!("  [{}]", cdf_line(&combined.cdf(), 60));
    for mark in [100u64, 2048, 1 << 20] {
        println!(
            "  ≤ {:>6}: {:>5.1}% of collective calls",
            format_bytes(mark),
            100.0 * combined.fraction_at_or_below(mark)
        );
    }
    let at_2k = published(ALL_CODES, 64, Quantity::CollectivesAtOrBelow(2048));
    println!(
        "\npaper: ~{:.0}% of collective payloads ≤ 2 KB, ~half < 100 B → a \
         low-bandwidth tree network suffices for collectives.",
        at_2k.expect("Figure 3 row").num()
    );
}

/// Paper Figure 4: cumulative point-to-point buffer-size distribution per
/// code.
fn fig4() {
    println!("== Figure 4: PTP buffer sizes per code ==\n");
    for app in all_apps() {
        let row = measure_app(app.as_ref(), 64);
        let hist = row.steady.ptp_buffer_histogram();
        println!(
            "{} (median {}):",
            row.name,
            format_bytes(hist.median().unwrap_or(0))
        );
        println!("  [{}]", cdf_line(&hist.cdf(), 60));
        println!(
            "  ≤ 2KB: {:>5.1}%   ≤ 100KB: {:>5.1}%\n",
            100.0 * hist.fraction_at_or_below(2048),
            100.0 * hist.fraction_at_or_below(100 << 10)
        );
    }
}

/// The §2.5 taxonomy: classify each application into cases i-iv.
fn classify_apps() {
    let procs = 256;
    println!("== §2.5 application classification (measured at P = {procs}) ==\n");
    for app in all_apps() {
        let row = measure_app(app.as_ref(), procs);
        let c = classify(&row.steady.comm_graph(), &ClassifyConfig::default());
        let expected = match published(row.name, procs, Quantity::Case) {
            Some(Value::Case(case)) => case.to_string(),
            _ => "?".into(),
        };
        println!(
            "{:<9} measured {:<9} (paper: {expected})",
            row.name,
            c.case.to_string()
        );
        println!("          {}", c.rationale);
        println!("          prescription: {}\n", c.case.prescription());
    }
}

/// The §5.3 cost analysis: fat-tree vs HFAST component scaling, the
/// ultra-scale crossover, and per-application cost comparisons.
fn cost_model() {
    let model = CostModel::default();
    println!("== §5.3 cost model ==\n");

    println!("fat-tree dimensioning (8-port switches, paper's example):");
    println!(
        "{:>10} {:>7} {:>12} {:>12}",
        "P", "layers", "ports/proc", "max hops"
    );
    for p in [64usize, 256, 2048, 8192, 65536, 1 << 20] {
        let ft = FatTree::for_processors(p, 8);
        println!(
            "{:>10} {:>7} {:>12} {:>12}",
            p,
            ft.layers,
            ft.ports_per_processor(),
            ft.max_switch_hops()
        );
    }

    println!("\nHFAST vs fat-tree crossover (8-port components):");
    for tdc in [2usize, 6, 12, 30] {
        let config = ProvisionConfig {
            block_ports: 8,
            cutoff: 2048,
        };
        match AnalyticHfast::crossover_p(tdc, config, &model) {
            Some(p) => println!("  TDC {tdc:>3}: HFAST cheaper from P = {p}"),
            None => println!("  TDC {tdc:>3}: fat tree always cheaper (case-iv style)"),
        }
    }

    println!("\nper-application comparison at P = 64 (16-port blocks):");
    println!(
        "{:>9} {:>12} {:>12} {:>7} {:>16}",
        "code", "HFAST cost", "fat-tree", "ratio", "HFAST ports/node"
    );
    for app in all_apps() {
        let row = measure_app(app.as_ref(), 64);
        let graph = row.steady.comm_graph();
        let prov = PaperLinear.provision(&graph, ProvisionConfig::default());
        let cmp = CostComparison::of(&prov, &model);
        println!(
            "{:>9} {:>12.0} {:>12.0} {:>7.2} {:>16.1}",
            row.name,
            cmp.hfast,
            cmp.fat_tree,
            cmp.ratio(),
            cmp.hfast_ports_per_node
        );
    }
    println!(
        "\nshape: packet-switch ports per node are constant for HFAST and \
         grow with log P for the fat tree; the crossover lands at \
         ultra-scale P for low-TDC codes and never for PARATEC-class codes."
    );
}

/// Extension experiment: SMP-node bandwidth localization (the paper's §5
/// deferred analysis) across the six applications.
fn smp() {
    let procs = 64;
    let width = 4;
    println!("== SMP localization at P = {procs}, {width}-way nodes ==\n");
    println!(
        "{:>9} {:>12} {:>12} {:>14} {:>16}",
        "code", "blocked", "localized", "node TDC(max)", "blocks (vs flat)"
    );
    for app in all_apps() {
        let row = measure_app(app.as_ref(), procs);
        let graph = row.steady.comm_graph();
        let blocked = SmpAssignment::blocked(procs, width);
        let best = localize(&graph, width, 3);
        let folded = best.fold(&graph);
        let node_tdc = tdc(&folded, BDP_CUTOFF);
        let node_prov = PaperLinear.provision(&folded, ProvisionConfig::default());
        let flat_prov = PaperLinear.provision(&graph, ProvisionConfig::default());
        println!(
            "{:>9} {:>11.1}% {:>11.1}% {:>14} {:>9} ({:>3})",
            row.name,
            100.0 * blocked.locality(&graph),
            100.0 * best.locality(&graph),
            node_tdc.max,
            node_prov.total_blocks(),
            flat_prov.total_blocks(),
        );
    }
    println!(
        "\nshape: folding ranks onto SMP nodes divides the switch-block \
         demand by the node width; localization additionally moves a \
         workload-dependent share of bytes into shared memory."
    );
}

/// Fault-tolerance experiment: node failures on a torus vs HFAST (§1's
/// qualitative argument, quantified).
fn faults() {
    println!("== fault tolerance: torus vs HFAST ==\n");
    let p = 64;
    let dims = balanced_dims3(p);
    let app = mesh3d_graph(dims, 300 << 10);
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>18}",
        "failed", "unreachable", "max dilation", "hfast degraded", "hfast circuits Δ"
    );
    for k in [1usize, 2, 4, 8] {
        let failed = seeded_failures(k, p, 0x5C05);
        let torus = torus_fault_impact(dims, &failed);
        let hfast = hfast_fault_impact(&app, ProvisionConfig::default(), &failed);
        println!(
            "{:>8} {:>12} {:>12.2} {:>14} {:>18}",
            k,
            torus.unreachable_pairs,
            torus.max_dilation,
            hfast.survivors_degraded,
            hfast.circuits_changed
        );
    }
    println!(
        "\nshape: the torus pays growing path dilation (and can partition); \
         HFAST re-provisions and surviving pairs keep dedicated routes."
    );
}

/// Extension experiment: replay each application's steady-state traffic on
/// fat-tree, torus, and HFAST fabrics and compare delivered latency.
///
/// Apps are measured and simulated on worker threads (`HFAST_THREADS=1`
/// forces sequential); rows print in application order either way.
fn netsim_compare() {
    println!("== netsim: per-app latency on fat-tree / torus / HFAST ==\n");
    println!(
        "{:>9} {:>14} {:>14} {:>14}   (p50 latency ns)",
        "code", "fat-tree", "torus", "hfast"
    );
    let app_count = all_apps().len();
    let results = hfast_par::par_map((0..app_count).collect::<Vec<_>>(), |i| {
        let cell = cell(all_apps()[i].as_ref(), PROCS);
        if cell.flows.is_empty() {
            return None;
        }
        // One path cache for the cell, cleared per fabric: each app replays
        // the same (src, dst) pairs many times over, so routes are resolved
        // once.
        let mut cache = PathCache::new();
        let p50s = cell.fabrics().map(|fabric| {
            cache.clear();
            Simulation::new(fabric.as_ref())
                .with_cache(&mut cache)
                .run(&cell.flows)
                .stats
                .p50_latency_ns
        });
        Some((cell.name, p50s))
    });
    let mut lowest = Vec::new();
    for (name, p50s) in results.into_iter().flatten() {
        let [ft, torus, hfast] = p50s;
        println!("{name:>9} {ft:>14} {torus:>14} {hfast:>14}");
        let best = *p50s.iter().min().expect("three fabrics");
        let fabrics: Vec<&str> = ["fat-tree", "torus", "hfast"]
            .into_iter()
            .zip(p50s)
            .filter(|&(_, p50)| p50 == best)
            .map(|(fabric, _)| fabric)
            .collect();
        lowest.push(format!("{name} {}", fabrics.join(" = ")));
    }
    println!("\nlowest p50 per code: {}", lowest.join(", "));
}

/// Runs the complete reproduction suite — the Table 3 grid, each cell
/// measured once — and prints it with every row of the claims ledger as
/// PASS or MISS (the data source for EXPERIMENTS.md), then exits 1 if any
/// row misses.
///
/// The apps × sizes measurement grid is embarrassingly parallel, so the
/// cells are profiled on worker threads (`HFAST_THREADS` overrides the
/// count; `HFAST_THREADS=1` runs sequentially) and printed in grid order —
/// the output is byte-identical either way.
fn experiments() {
    println!("== HFAST reproduction: full experiment sweep ==\n");
    print!("{}", table3_header());
    let rows = measure_grid();
    for (i, row) in rows.iter().enumerate() {
        print!("{}", table3_rows(row));
        println!(
            "              unthresholded TDC (max,avg) = ({}, {:.1}); cutoff shrinks max by {}",
            row.tdc_max_uncut,
            row.tdc_avg_uncut,
            row.tdc_max_uncut - row.tdc_max
        );
        if (i + 1) % STUDY_SIZES.len() == 0 {
            println!();
        }
    }
    let verdicts = check_claims(&rows);
    println!("claims against the paper (hfast_bench::CLAIMS):");
    let mut held = 0;
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 && v.claim.section != verdicts[i - 1].claim.section {
            println!();
        }
        println!("  {} {v}", if v.holds() { "PASS" } else { "MISS" });
        held += usize::from(v.holds());
    }
    println!("\n{held}/{} claims hold", verdicts.len());
    if held < verdicts.len() {
        std::process::exit(1);
    }
}
