//! The benchmark's vocabulary in one place: workload names with their
//! reasons, end-to-end metrics with their bounds, per-layer metrics.
//! `BENCHMARK.json` is generated from these tables (`manifest`) and a unit
//! test keeps the two from drifting apart.

use crate::json::Value;

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5C05_2005;

/// Version of the result-file layout `run` writes and `compare` reads.
pub const SCHEMA_VERSION: u32 = 1;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 8] = [
    WorkloadInfo {
        name: "paper_grid",
        why: "The paper's own pipeline over the 12 Table-3 cells; >95% is mpi/ipm/apps (P OS threads), so runtime and profiler work shows here and analysis work must not.",
    },
    WorkloadInfo {
        name: "scale_projection",
        why: "Analysis half: torus/mesh/hypercube/complete at P=512 x three provisioners plus one dense P=2048 pipeline (CSR, TDC sweep, provision, 1% reprovision); topology+core only; dense-graph RSS lives here.",
    },
    WorkloadInfo {
        name: "replay_static",
        why: "Fault-free Simulation::run over eleven flow sets (cold and warm routes): the lean calendar-queue loop, separating a faster loop from faster route resolution.",
    },
    WorkloadInfo {
        name: "replay_faulted",
        why: "Same flows under seeded link outages with retries and HFAST mid-run reprovision: the FaultRun loop; a one-loop-core change should gain here and not on replay_static.",
    },
    WorkloadInfo {
        name: "replay_credit",
        why: "Credit flow control (2 slots/link) on the 20k-flow torus case and five adversarial presets: the third, heap-based loop; its ratio to replay_static is the credit cost.",
    },
    WorkloadInfo {
        name: "replay_observed",
        why: "replay_static's calls with EngineObs and a fresh TraceRecorder attached: telemetry-on cost; a telemetry change must move this and leave replay_static flat.",
    },
    WorkloadInfo {
        name: "serve_hot",
        why: "Closed loop, 2 loopback clients, seeded draws from 24 warmed requests (~100% cache hits): frame+protocol+cache+conn threads are the whole cost, handlers bypassed.",
    },
    WorkloadInfo {
        name: "serve_compute",
        why: "Same daemon and loop, every request distinct (0% hits), each kind x app equally often: queue, worker, execute, netsim/core dominate, protocol <5%, so a codec change stays flat.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute change below which a worsening is never a regression.
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
];

/// How a per-layer metric is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Self time of the spans of this name, summed over a pass, in ms.
    TotalMs,
    /// Self time of the spans of this name, mean per span, in µs.
    MeanUs,
    /// An exact count the program returns; must repeat pass to pass.
    Count,
    /// A value a workload computes itself (ratios, probe timings).
    Probe,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
    }
}

/// Every per-layer metric, `<crate>.<metric>`. A traced run prints all of
/// them; one a workload's path never touches reads 0.
pub const PER_LAYER: [Layer; 54] = [
    layer("mpi.spawn_ms", "ms", "lower", Kind::Probe),
    layer("mpi.bare_ms", "ms", "lower", Kind::Probe),
    layer("ipm.hook_ms", "ms", "lower", Kind::Probe),
    layer("ipm.reduce_ms", "ms", "lower", Kind::TotalMs),
    layer("ipm.calls", "count", "lower", Kind::Count),
    layer("apps.profile_ms", "ms", "lower", Kind::TotalMs),
    layer("par.grid_speedup", "ratio", "higher", Kind::Probe),
    layer("topology.graph_ms", "ms", "lower", Kind::TotalMs),
    layer("topology.csr_ms", "ms", "lower", Kind::TotalMs),
    layer("topology.sweep_ms", "ms", "lower", Kind::TotalMs),
    layer("topology.edges", "count", "lower", Kind::Count),
    layer(
        "core.provision_ms.paper_linear",
        "ms",
        "lower",
        Kind::TotalMs,
    ),
    layer(
        "core.provision_ms.bff_circuit",
        "ms",
        "lower",
        Kind::TotalMs,
    ),
    layer(
        "core.provision_ms.demand_decomp",
        "ms",
        "lower",
        Kind::TotalMs,
    ),
    layer("core.reprovision_ms", "ms", "lower", Kind::TotalMs),
    layer("core.validate_ms", "ms", "lower", Kind::TotalMs),
    layer("core.cost_us", "us", "lower", Kind::MeanUs),
    layer("core.blocks", "count", "lower", Kind::Count),
    layer("netsim.fabric_build_ms", "ms", "lower", Kind::Probe),
    layer("netsim.run_ms", "ms", "lower", Kind::TotalMs),
    layer("netsim.resolve_ms", "ms", "lower", Kind::Probe),
    layer("netsim.loop_ms", "ms", "lower", Kind::Probe),
    layer("netsim.rest_ms", "ms", "lower", Kind::Probe),
    layer("netsim.ns_per_event", "ns", "lower", Kind::Probe),
    layer("netsim.windows_speedup", "ratio", "higher", Kind::Probe),
    layer("netsim.events", "count", "lower", Kind::Count),
    layer("netsim.retries", "count", "lower", Kind::Count),
    layer("netsim.reprovisions", "count", "lower", Kind::Count),
    layer("netsim.makespan_ns", "ns", "lower", Kind::Count),
    layer("netsim.delivered_bytes", "bytes", "higher", Kind::Count),
    layer("netsim.observe_ratio", "ratio", "lower", Kind::Probe),
    layer("trace.spans", "count", "lower", Kind::Count),
    layer("trace.analyze_ms", "ms", "lower", Kind::Probe),
    layer("trace.export_ms", "ms", "lower", Kind::Probe),
    layer("serve.encode_req_us", "us", "lower", Kind::MeanUs),
    layer("serve.frame_us", "us", "lower", Kind::MeanUs),
    layer("serve.decode_req_us", "us", "lower", Kind::MeanUs),
    layer("serve.key_us", "us", "lower", Kind::MeanUs),
    layer("serve.cache_get_us", "us", "lower", Kind::MeanUs),
    layer("serve.execute_us.tdc", "us", "lower", Kind::MeanUs),
    layer("serve.execute_us.provision", "us", "lower", Kind::MeanUs),
    layer("serve.execute_us.cost", "us", "lower", Kind::MeanUs),
    layer("serve.execute_us.simulate", "us", "lower", Kind::MeanUs),
    layer("serve.encode_resp_us", "us", "lower", Kind::MeanUs),
    layer("serve.cache_put_us", "us", "lower", Kind::MeanUs),
    layer("serve.decode_resp_us", "us", "lower", Kind::MeanUs),
    layer("serve.transport_us", "us", "lower", Kind::Probe),
    layer("serve.cache_hit_share", "ratio", "higher", Kind::Probe),
    layer("serve.busy", "count", "lower", Kind::Probe),
    layer("serve.errors", "count", "lower", Kind::Probe),
    layer("serve.registry_fabrics", "count", "lower", Kind::Probe),
    layer("bench.op_tail_us", "us", "lower", Kind::Probe),
    layer("bench.trace_overhead", "ratio", "lower", Kind::Probe),
    layer("bench.stage_sum_share", "ratio", "higher", Kind::Probe),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::Str(m.name.into())),
                            ("unit", Value::Str(m.unit.into())),
                            ("better", Value::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_meet_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&on_disk).expect("valid JSON"),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest`"
        );
    }
}
