//! `paper` — prints one table, figure or extension experiment of the
//! reproduction, measured next to the paper's published values where the
//! paper gives numbers.
//!
//! ```text
//! paper <section> [ARGS]
//! ```
//!
//! The sections are listed in [`SECTIONS`]; no argument or an unknown name
//! prints them and exits 2. A section that refuses its arguments prints its
//! usage and exits 2 before any output. A section that checks its rows
//! (`experiments` against the claims ledger, `hfast_bench::CLAIMS`; the
//! five extension experiments against their library checks) prints each
//! violation as a `FAIL:` line on stderr and exits 1.

use std::process::ExitCode;

use hfast_apps::TABLE2;
use hfast_apps::{all_apps, Cactus, CommKernel, Gtc, Lbmhd, Paratec, Pmemd, SuperLu, STUDY_SIZES};
use hfast_bench::{
    app_figure, bakeoff, capture, cdf_line, cell, check_claims, goodput_grid, lab, measure_app,
    measure_grid, published, table3_header, table3_rows, AppBakeoff, AppHotspots, CellMetrics,
    GoodputRow, Quantity, Ranking, Value, Verdict, ALL_CODES, CAPTURE_PROCS, LAB_CREDITS,
    LAB_NODES, LAB_SEED, PROCS,
};
use hfast_core::AnalyticHfast;
use hfast_core::TABLE1_SYSTEMS;
use hfast_core::{
    classify, hfast_fault_impact, localize, seeded_failures, torus_fault_impact, ClassifyConfig,
    Clustered, CostComparison, CostModel, FatTree, PaperLinear, ProvisionConfig, Provisioner,
    SmpAssignment, Strategy,
};
use hfast_ipm::format_bytes;
use hfast_netsim::engine::PathCache;
use hfast_netsim::Simulation;
use hfast_topology::generators::{balanced_dims3, mesh3d_graph};
use hfast_topology::{tdc, BufferHistogram, CommGraph, BDP_CUTOFF};
use hfast_trace::aggregate;

/// What a section returns for its arguments: `Err` with its argument
/// synopsis when it refuses them (it has printed nothing), else the
/// violations its rows show, each `<cell>: expected … got …`.
type Outcome = Result<Vec<String>, &'static str>;

/// A section's entry: its arguments (those after its name) in.
type Section = fn(&[String]) -> Outcome;

/// Every section, in the order the usage lists them: the paper's tables
/// and figures, then the §2.5 taxonomy, the §5.3 cost analysis, the
/// extension experiments, and the full sweep with the ledger's verdicts.
const SECTIONS: &[(&str, Section)] = &[
    ("table1", |a| plain(a, table1)),
    ("table2", |a| plain(a, table2)),
    ("table3", |a| plain(a, table3)),
    ("fig1", |a| plain(a, fig1)),
    ("fig2", |a| plain(a, fig2)),
    ("fig3", |a| plain(a, fig3)),
    ("fig4", |a| plain(a, fig4)),
    ("fig5", |a| figure(a, &Gtc::default(), 5)),
    ("fig6", |a| figure(a, &Cactus::default(), 6)),
    ("fig7", |a| figure(a, &Lbmhd::default(), 7)),
    ("fig8", |a| figure(a, &SuperLu::default(), 8)),
    ("fig9", |a| figure(a, &Pmemd::default(), 9)),
    ("fig10", |a| figure(a, &Paratec::default(), 10)),
    ("classify", |a| plain(a, classify_apps)),
    ("cost_model", |a| plain(a, cost_model)),
    ("smp", |a| plain(a, smp)),
    ("faults", |a| plain(a, faults)),
    ("netsim_compare", |a| plain(a, netsim_compare)),
    ("faults_replay", faults_replay),
    ("congestion_lab", congestion_lab),
    ("hotspots", hotspots),
    ("provision_bakeoff", provision_bakeoff),
    ("trace_capture", trace_capture),
    ("experiments", experiments),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: paper <section> [ARGS]\nsections: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// Runs the named section: its usage and exit 2 when it refuses its
/// arguments, one `FAIL:` line per violation and exit 1, else exit 0.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    let Some((_, run)) = SECTIONS.iter().find(|(section, _)| section == name) else {
        return usage();
    };
    match run(rest) {
        Err(synopsis) => {
            eprintln!("usage: {}", format!("paper {name} {synopsis}").trim_end());
            ExitCode::from(2)
        }
        Ok(violations) if violations.is_empty() => ExitCode::SUCCESS,
        Ok(violations) => {
            for v in &violations {
                eprintln!("FAIL: {v}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Refuses every argument: the synopsis of a section that takes none.
fn no_args(args: &[String]) -> Result<(), &'static str> {
    if args.is_empty() {
        Ok(())
    } else {
        Err("")
    }
}

/// A section that takes no arguments and checks nothing.
fn plain(args: &[String], print: fn()) -> Outcome {
    no_args(args)?;
    print();
    Ok(Vec::new())
}

/// Figures 5-10: `app`'s volume matrix and TDC-vs-cutoff curves.
fn figure(args: &[String], app: &dyn CommKernel, number: usize) -> Outcome {
    no_args(args)?;
    print!("{}", app_figure(app, number));
    Ok(Vec::new())
}

/// `[APP]`: the apps whose name contains `APP` in any case, every app
/// without one; an `APP` (a flag among them) that no app's name contains
/// is refused.
fn selected_apps(args: &[String]) -> Result<Vec<Box<dyn CommKernel>>, &'static str> {
    let only = match args {
        [] => String::new(),
        [app] => app.to_lowercase(),
        _ => return Err("[APP]"),
    };
    let mut apps = all_apps();
    apps.retain(|app| app.name().to_lowercase().contains(&only));
    if apps.is_empty() {
        Err("[APP]")
    } else {
        Ok(apps)
    }
}

/// The lowest and highest of `xs` (`(inf, -inf)` when empty).
fn span(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    xs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    })
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

/// Fault-replay experiment: goodput under seeded failures of each
/// fabric's transit links, fat tree vs HFAST, for every (app,
/// failure-rate) cell of [`goodput_grid`].
fn faults_replay(args: &[String]) -> Outcome {
    no_args(args)?;
    println!("== fault replay: goodput under seeded link failures ==\n");
    println!(
        "{:>9} {:>6} {:>10} {:>10}   (goodput = delivered/offered bytes)",
        "code", "rate", "fat-tree", "hfast"
    );
    let grid = goodput_grid();
    for row in &grid {
        for cell in &row.cells {
            println!(
                "{:>9} {:>6.2} {:>10.4} {:>10.4}",
                row.app, cell.rate, cell.fat_tree, cell.hfast
            );
        }
    }
    let cells: Vec<_> = grid.iter().flat_map(|r| &r.cells).collect();
    let wins = cells.iter().filter(|c| c.hfast > c.fat_tree).count();
    let (hf_lo, hf_hi) = span(cells.iter().map(|c| c.hfast));
    let (ft_lo, ft_hi) = span(cells.iter().map(|c| c.fat_tree));
    println!(
        "\nshape: HFAST delivers more goodput than the fat tree in {wins}/{} cells: \
         {hf_lo:.4}-{hf_hi:.4} against {ft_lo:.4}-{ft_hi:.4}.",
        cells.len()
    );
    Ok(grid.iter().flat_map(GoodputRow::violations).collect())
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

/// Congestion lab: adversarial scenarios on the fat tree and on HFAST
/// under every strategy, credit flow control, folded into congestion
/// trees: tree count, deepest tree, stalled time, the worst tree's spread
/// (victims over flows crossing its root), off-root victims and the
/// link-utilization spread (max/mean, Gini).
fn congestion_lab(args: &[String]) -> Outcome {
    no_args(args)?;
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
            "  fabric            flows  makespan-ns  trees  depth     stall-ns   spread  \
             off-root  max/mean   gini"
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
    // Every (scenario row, HFAST cell) pair.
    let hfast = || {
        let rows = lab.rows.iter();
        rows.flat_map(|r| r.hfast.iter().map(move |(_, m)| (r, m)))
    };
    let below = hfast()
        .filter(|(r, m)| m.spread < r.fat_tree.spread)
        .count();
    let fat_off_root: usize = lab.rows.iter().map(|r| r.fat_tree.off_root).sum();
    let hfast_off_root: usize = hfast().map(|(_, m)| m.off_root).sum();
    println!(
        "shape: hfast's worst congestion tree spreads less than the fat tree's in \
         {below}/{} scenario x strategy cells; off-root victims: {fat_off_root} on the \
         fat tree, {hfast_off_root} on hfast over all {} strategies.",
        hfast().count(),
        Strategy::ALL.len()
    );
    Ok(lab.violations())
}

const TOP: usize = 5;

fn print_ranking(label: &str, ranking: &Ranking) {
    println!("  {label}:");
    for (l, class) in ranking.links.iter().take(TOP) {
        let class = class.map_or(String::new(), |c| format!(" [{c}]"));
        println!(
            "    link {:>4}{class}: busy {:>9} ns  util {:>5.3}  waited {:>9} ns  \
             msgs {:>4}  peak queue {:>2}",
            l.link, l.busy_ns, l.utilization, l.wait_ns, l.messages, l.peak_queue
        );
    }
    let [p50, p95, p99] = ranking.wait_ns;
    println!("    queue wait p50/p95/p99: {p50} / {p95} / {p99} ns");
}

/// Congestion hotspots, `hotspots [APP]`: each app's traced replay on the
/// fat tree and on `PaperLinear` HFAST, the hottest links of each; fails
/// on an app whose hottest HFAST transit link is not a circuit.
fn hotspots(args: &[String]) -> Outcome {
    let apps = selected_apps(args)?;
    println!("== congestion hotspots: traced replay, all codes, both fabrics ==\n");
    let apps: Vec<AppHotspots> = apps
        .iter()
        .map(|app| hfast_bench::hotspots(app.as_ref()))
        .collect();
    for app in &apps {
        println!("{} ({} flows):", app.app, app.flows);
        print_ranking("fat-tree", &app.fat_tree);
        print_ranking("hfast (transit)", &app.hfast_transit);
        let verdict = match app.hfast_transit.top_class() {
            "-" => "all traffic node-local (no transit links used)",
            "circuit" => "hottest transit link is circuit-switched, as provisioned",
            _ => "hottest transit link is not a circuit",
        };
        println!("    -> {verdict}\n");
    }
    let circuit_top = apps
        .iter()
        .filter(|a| a.hfast_transit.top_class() == "circuit")
        .count();
    let (lo, hi) = span(apps.iter().map(|a| a.hfast_transit.circuit_busy_pct()));
    println!(
        "shape: the hottest HFAST transit link is a circuit in {circuit_top}/{} codes, \
         and circuits carry {lo:.1}-{hi:.1}% of each code's transit busy time.",
        apps.len()
    );
    Ok(apps.iter().filter_map(AppHotspots::violation).collect())
}

/// Provisioner bake-off, `provision_bakeoff [APP]`: every app × strategy
/// cell's cost, coverage, congestion placement and credit-mode spread
/// ([`bakeoff`]); fails on a cell that does not validate or leaves a flow
/// undelivered under credit flow control.
fn provision_bakeoff(args: &[String]) -> Outcome {
    let apps = selected_apps(args)?;
    println!("== provisioner bake-off: apps x strategies at P = {PROCS} ==\n");
    let apps: Vec<AppBakeoff> = apps.iter().map(|app| bakeoff(app.as_ref())).collect();
    for app in &apps {
        println!(
            "{} ({} flows above cutoff)  paper_linear digest {:#018x}",
            app.app, app.flows, app.digest
        );
        println!(
            "  strategy       blocks ports/node cost-ratio  coverage     flows  makespan-ns  \
             top-hot circuit-busy   spread     stall-ns"
        );
        for r in &app.rows {
            println!(
                "  {:<14} {:>6} {:>10.2} {:>10.3} {:>8.1}% {:>9} {:>12} {:>8} {:>11.1}% \
                 {:>8.2} {:>12}",
                r.strategy.as_str(),
                r.blocks,
                r.ports_per_node,
                r.cost_ratio,
                r.coverage_pct,
                r.completed,
                r.makespan_ns,
                r.transit.top_class(),
                r.transit.circuit_busy_pct(),
                r.credit.spread,
                r.credit.stall_ns
            );
        }
        println!();
    }
    let rows = || apps.iter().flat_map(|a| &a.rows);
    let (mut no_more, mut fewer, mut matched) = (0, 0, 0);
    for app in &apps {
        // Strategy::ALL, and so each app's rows, start with paper_linear.
        let (base, others) = app.rows.split_first().expect("a row per strategy");
        for r in others {
            matched += 1;
            no_more += usize::from(r.blocks <= base.blocks);
            fewer += usize::from(r.blocks < base.blocks);
        }
    }
    let matching: Vec<&str> = Strategy::ALL[1..].iter().map(Strategy::as_str).collect();
    let circuit_top = rows()
        .filter(|r| r.transit.top_class() == "circuit")
        .count();
    let worst: Vec<String> = Strategy::ALL
        .iter()
        .map(|s| {
            let (_, hi) = span(rows().filter(|r| r.strategy == *s).map(|r| r.credit.spread));
            format!("{s} {hi:.2}")
        })
        .collect();
    println!(
        "shape: {} use no more switch blocks than paper_linear in {no_more}/{matched} \
         cells (fewer in {fewer}); the hottest transit link is a circuit in {circuit_top}/{} \
         cells; worst credit-mode spread: {}.",
        matching.join(" and "),
        rows().count(),
        worst.join(", ")
    );
    Ok(apps.iter().flat_map(AppBakeoff::violations).collect())
}

/// Causal trace capture, `trace_capture [--trace-out FILE]`: GTC at P =
/// 256 traced through the world run and its HFAST replay, the trace
/// statistics and a flamegraph-style self/total aggregation per call
/// kind; `--trace-out` keeps the Chrome trace-event / Perfetto JSON
/// document. Fails on a break of the trace contract.
fn trace_capture(args: &[String]) -> Outcome {
    let trace_out = match args {
        [] => None,
        [flag, path] if flag == "--trace-out" => Some(path),
        _ => return Err("[--trace-out FILE]"),
    };
    println!("== causal trace capture: GTC, P = {CAPTURE_PROCS} ==\n");
    let cap = capture();
    println!("world run: {} rank spans recorded", cap.world_spans);
    let flows = &cap.cell.flows;
    println!(
        "replay: {} flows ({}) -> {} spans total",
        flows.len(),
        format_bytes(flows.iter().map(|f| f.bytes).sum::<u64>()),
        cap.spans.len()
    );
    let stats = &cap.stats;
    println!(
        "\ntrace: {} events, {} rank tracks, {} link tracks, \
         {} linked recvs, {} orphans",
        stats.events, stats.rank_tracks, stats.link_tracks, stats.linked_recvs, stats.orphan_recvs
    );
    println!("\nflamegraph aggregation (self/total per call kind):");
    for agg in aggregate(&cap.spans).iter().take(8) {
        println!(
            "  {:>12}: {:>7} calls  total {:>12} ns  self {:>12} ns",
            agg.name, agg.count, agg.total_ns, agg.self_ns
        );
    }
    let mut violations = cap.violations();
    println!(
        "\n{}: {} rank tracks for {CAPTURE_PROCS} ranks, {} link tracks for {} used links, \
         {} linked recvs, {} orphans",
        if violations.is_empty() {
            "PASS"
        } else {
            "FAIL"
        },
        stats.rank_tracks,
        stats.link_tracks,
        cap.used_links,
        stats.linked_recvs,
        stats.orphan_recvs
    );
    if let Some(path) = trace_out {
        match std::fs::write(path, &cap.doc) {
            Ok(()) => println!(
                "\nwrote {} bytes to {path} (load in ui.perfetto.dev)",
                cap.doc.len()
            ),
            Err(e) => violations.push(format!(
                "{path}: expected the trace document written, got {e}"
            )),
        }
    }
    Ok(violations)
}

/// Runs the complete reproduction suite — the Table 3 grid, each cell
/// measured once — and prints it with every row of the claims ledger as
/// PASS or MISS (the data source for EXPERIMENTS.md); every MISS is a
/// violation.
///
/// The apps × sizes measurement grid is embarrassingly parallel, so the
/// cells are profiled on worker threads (`HFAST_THREADS` overrides the
/// count; `HFAST_THREADS=1` runs sequentially) and printed in grid order —
/// the output is byte-identical either way.
fn experiments(args: &[String]) -> Outcome {
    no_args(args)?;
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
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 && v.claim.section != verdicts[i - 1].claim.section {
            println!();
        }
        println!("  {} {v}", if v.holds() { "PASS" } else { "MISS" });
    }
    let misses: Vec<String> = verdicts.iter().filter_map(Verdict::violation).collect();
    println!(
        "\n{}/{} claims hold",
        verdicts.len() - misses.len(),
        verdicts.len()
    );
    Ok(misses)
}
