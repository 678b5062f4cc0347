//! Benchmarks of the discrete-event simulator across fabrics and loads,
//! including the path-cache ablation: cold (routes recomputed every run)
//! versus warm (a reused [`PathCache`]), the observability ablation (an
//! attached [`EngineObs`] versus none), the causal-tracing ablation (an
//! attached [`TraceRecorder`] versus none), the fault-replay overhead,
//! and the trace-off overhead guard against the PR-3 baseline — plus the
//! ideal-dispatch guard for the congestion rework (an explicit
//! `CongestionMode::Ideal` must price like the plain loop against the
//! PR-9 baseline) and the credit-mode incast replay with its headline
//! HFAST-vs-fat-tree congestion-spread ratio.

use hfast_bench::Harness;
use hfast_core::{PaperLinear, ProvisionConfig, Provisioner, Strategy};
use hfast_netsim::engine::PathCache;
use hfast_netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FatTreeFabric, FaultPlan, HfastFabric,
    RetryPolicy, Scenario, ScenarioKind, Simulation, TorusFabric,
};
use hfast_topology::generators::{balanced_dims3, torus3d_graph};
use hfast_trace::{congestion_trees, TraceRecorder};

/// A recorded statistic (`"median_ns"`, `"min_ns"`, …) of case `name` in
/// the JSONL-per-line file at `path_env`, if present. Works on both the
/// assembled `BENCH_<tag>.json` baseline (`HFAST_BENCH_BASELINE`) and the
/// current run's accumulating JSONL stream (`HFAST_BENCH_JSON`).
fn recorded_stat(path_env: &str, name: &str, key: &str) -> Option<f64> {
    let path = std::env::var(path_env).ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"name\":\"{name}\"");
    let line = text.lines().find(|l| l.contains(&needle))?;
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let mut h = Harness::new("netsim");

    let n = 64;
    let flows = traffic::alltoall(n, 32 << 10);
    let graph = torus3d_graph(balanced_dims3(n), 1 << 20);

    let ft = FatTreeFabric::new(n, 8).expect("valid shape");
    h.bench("netsim_alltoall_64/fat-tree", || {
        Simulation::new(&ft).run(std::hint::black_box(&flows))
    });
    let torus = TorusFabric::new(balanced_dims3(n)).expect("valid shape");
    h.bench("netsim_alltoall_64/torus", || {
        Simulation::new(&torus).run(std::hint::black_box(&flows))
    });
    let hfast = HfastFabric::new(PaperLinear.provision(&graph, ProvisionConfig::default()));
    h.bench("netsim_alltoall_64/hfast", || {
        Simulation::new(&hfast).run(std::hint::black_box(&flows))
    });

    // Pure engine throughput: many small flows over a big torus. The
    // uniform-random load repeats (src, dst) pairs heavily, so this is
    // also the path-cache ablation: the cache-free run re-resolves routes
    // every call (cold), the warm case amortizes them across runs.
    let big = TorusFabric::new((8, 8, 8)).expect("valid shape");
    let many = traffic::uniform_random(512, 20_000, 4096, 1_000_000, 42);
    h.bench("netsim/20k-flows-512-torus/cold", || {
        Simulation::new(&big).run(std::hint::black_box(&many))
    });
    let mut cache = PathCache::new();
    Simulation::new(&big).with_cache(&mut cache).run(&many); // prime
    h.bench("netsim/20k-flows-512-torus/warm", || {
        Simulation::new(&big)
            .with_cache(&mut cache)
            .run(std::hint::black_box(&many))
    });
    h.report_speedup(
        "path_cache_warm",
        "netsim/20k-flows-512-torus/cold",
        "netsim/20k-flows-512-torus/warm",
    );

    // Observability ablation: the same cold run with counters, histograms,
    // and the link timeline attached.
    let obs = EngineObs::with_timeline_capacity(4096);
    h.bench("netsim/20k-flows-512-torus/obs-on", || {
        Simulation::new(&big)
            .with_obs(&obs)
            .run(std::hint::black_box(&many))
    });
    h.report_speedup(
        "obs_off_vs_on",
        "netsim/20k-flows-512-torus/obs-on",
        "netsim/20k-flows-512-torus/cold",
    );

    // Causal-tracing ablation: the same cold run with a span recorder
    // attached — every hop and flow becomes a span record. A fresh
    // recorder per iteration keeps memory bounded and prices the span
    // drop alongside the push, which is what a real capture pays.
    h.bench("netsim/20k-flows-512-torus/trace-on", || {
        let rec = TraceRecorder::new();
        Simulation::new(&big)
            .with_trace(&rec)
            .run(std::hint::black_box(&many))
    });
    h.report_speedup(
        "trace_off_vs_on",
        "netsim/20k-flows-512-torus/trace-on",
        "netsim/20k-flows-512-torus/cold",
    );

    // Fault-replay ablation: the same load with a seeded mid-run outage
    // (12 transit links down for 500 us each) and the default retry
    // policy. This prices what a fault plan adds to the one event loop —
    // per-admission route checks, evictions, rerouting — against the
    // fault-free run above.
    let eligible = transit_links(&big, &many);
    let plan = FaultPlan::builder()
        .random_link_failures(0x5C05, 12, &eligible, (0, 2_000_000), Some(500_000))
        .build(&big)
        .expect("valid plan");
    h.bench("netsim/20k-flows-512-torus/faulted", || {
        Simulation::new(&big)
            .with_faults(&plan)
            .with_retry(RetryPolicy::default())
            .run(std::hint::black_box(&many))
    });
    h.report_speedup(
        "faults_off_vs_on",
        "netsim/20k-flows-512-torus/faulted",
        "netsim/20k-flows-512-torus/cold",
    );

    // Overhead guard: with no TraceRecorder attached, tracing is one
    // `Option` check per run, so the cold run must stay within 5% of the
    // recorded PR-3 baseline (scripts/bench.sh exports
    // HFAST_BENCH_BASELINE=BENCH_pr3.json when present). Raw
    // cross-session timing comparisons measure mostly machine-speed
    // drift, so the guard (a) compares fastest samples (min_ns, the
    // least-throttled cost), (b) measures the cold case twice — once up
    // front, once here — taking the faster, and (c) normalizes by a
    // calibration case whose code is identical across PRs
    // (tdc_sweep/naive/complete-256, from the topology suite that
    // scripts/bench.sh runs earlier into the same JSONL stream): any
    // slowdown shared with the untouched calibration workload is the
    // machine, not the engine. The ratio lands in BENCH_<tag>.json;
    // values > 1.05 mean the tracing hooks taxed trace-off runs.
    h.bench("netsim/20k-flows-512-torus/cold-recheck", || {
        Simulation::new(&big).run(std::hint::black_box(&many))
    });
    const COLD: &str = "netsim/20k-flows-512-torus/cold";
    const CALIBRATION: &str = "tdc_sweep/naive/complete-256";
    if let (Some(base), Some(first), Some(recheck)) = (
        recorded_stat("HFAST_BENCH_BASELINE", COLD, "min_ns"),
        h.min_ns(COLD),
        h.min_ns("netsim/20k-flows-512-torus/cold-recheck"),
    ) {
        let drift = match (
            recorded_stat("HFAST_BENCH_BASELINE", CALIBRATION, "min_ns"),
            recorded_stat("HFAST_BENCH_JSON", CALIBRATION, "min_ns"),
        ) {
            (Some(cal_base), Some(cal_now)) => cal_now / cal_base,
            _ => 1.0, // standalone run: fall back to the raw ratio
        };
        h.record_value("guard/trace_off_vs_pr3", first.min(recheck) / base / drift);
    }

    // Determinism guard: the conservative-parallel executor must return
    // byte-identical results to the sequential loop (1.0 = identical;
    // anything else aborts the bench).
    let seq_run = Simulation::new(&big).detailed().with_threads(1).run(&many);
    let par_run = Simulation::new(&big).detailed().with_threads(8).run(&many);
    assert_eq!(
        seq_run, par_run,
        "parallel run diverged from sequential on the 20k-flow suite"
    );
    h.record_value("guard/eventloop_parallel_vs_seq", 1.0);

    // Congestion-mode guard: `CongestionMode::Ideal` is the default link
    // model, so an explicit ideal-mode builder must price identically to
    // the plain cold run. Same protocol as the PR-3 trace guard — fastest
    // samples, calibration-normalized against the PR-9 baseline's cold
    // case; values > 1.05 mean naming the model taxed the run.
    h.bench("netsim/20k-flows-512-torus/ideal-mode", || {
        Simulation::new(&big)
            .with_congestion(CreditConfig::default())
            .run(std::hint::black_box(&many))
    });
    if let (Some(base), Some(ideal)) = (
        recorded_stat("HFAST_BENCH_BASELINE", COLD, "min_ns"),
        h.min_ns("netsim/20k-flows-512-torus/ideal-mode"),
    ) {
        let drift = match (
            recorded_stat("HFAST_BENCH_BASELINE", CALIBRATION, "min_ns"),
            recorded_stat("HFAST_BENCH_JSON", CALIBRATION, "min_ns"),
        ) {
            (Some(cal_base), Some(cal_now)) => cal_now / cal_base,
            _ => 1.0,
        };
        h.record_value("guard/congestion_ideal_vs_pr9", ideal / base / drift);
    }

    // Credit-mode cost and the headline congestion-spread rows: the
    // incast scenario replayed under credit flow control on a fat tree
    // and on an HFAST fabric provisioned for it, compared on each
    // fabric's worst congestion-tree spread ratio — the paper's
    // isolation claim says hfast/fat-tree stays well below 1.
    let incast = Scenario::preset(ScenarioKind::Incast, n, 0xC0DE);
    let incast_flows = incast.generate();
    h.bench("netsim/credit/incast-64-fat-tree", || {
        Simulation::new(&ft)
            .with_congestion(CreditConfig::credit(1))
            .run(std::hint::black_box(&incast_flows))
    });
    let spread = |fabric: &dyn Fabric| -> f64 {
        let rec = TraceRecorder::new();
        Simulation::new(fabric)
            .with_congestion(CreditConfig::credit(1))
            .with_trace(&rec)
            .run(&incast_flows);
        congestion_trees(&rec.snapshot())
            .iter()
            .map(|t| t.spread_ratio)
            .fold(0.0, f64::max)
    };
    let hf_incast = HfastFabric::provisioned(
        &incast.comm_graph(),
        ProvisionConfig::default(),
        Strategy::PaperLinear,
    );
    let (hf_spread, ft_spread) = (spread(&hf_incast), spread(&ft));
    assert!(
        ft_spread > 0.0,
        "fat-tree incast formed no congestion tree — spread ratio undefined"
    );
    h.record_value("congestion/spread_hfast_vs_fattree", hf_spread / ft_spread);
    // The same claim as a factor > 1: the direct ratio (~0.04) rounds to
    // 0.0 in the JSONL's one-decimal format, so the inverse is the row
    // baselines can actually compare. An hfast spread of zero (perfect
    // isolation) would make it infinite; floor the denominator so the
    // row stays finite JSON.
    h.record_value(
        "congestion/isolation_fattree_vs_hfast",
        ft_spread / hf_spread.max(0.01),
    );

    h.finish();
}
