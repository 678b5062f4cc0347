//! The four `replay_*` workloads: `Simulation::run` over fixed flow sets,
//! one variant per event loop (and one with telemetry attached).
//!
//! One op is one flow; one call is one `Simulation::run`. Every variant
//! replays 20 000 uniform-random flows on an 8×8×8 torus; around that:
//!
//! * `replay_static` — that case cold and with a warm `PathCache`,
//!   alltoall-64 on fat tree / torus / HFAST, and the six paper-app graphs
//!   (P=64) each on the HFAST fabric provisioned for it;
//! * `replay_observed` — the same calls with `EngineObs` and a fresh
//!   `TraceRecorder` attached;
//! * `replay_faulted` — the cold calls under a seeded 12-link outage plan
//!   (500 µs downtime) with the default retry policy, HFAST fabrics
//!   re-provisioning mid-run;
//! * `replay_credit` — the torus case and the five scenario presets (64
//!   nodes, fat tree and HFAST) under credit flow control, 2 slots/link.
//!
//! Calls differ in size by two orders of magnitude, so the latency
//! percentiles of a pass fall inside one case's cluster. The per-rep
//! weights below put `op_p50_us` and `bench.op_tail_us` well inside a cluster
//! rather than on a boundary between two.

use std::time::Instant;

use hfast_apps::{all_apps, profile_app};
use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::engine::PathCache;
use hfast_netsim::{
    traffic, transit_links, CreditConfig, EngineObs, Fabric, FatTreeFabric, FaultPlan, Flow,
    HfastFabric, RetryPolicy, Scenario, ScenarioKind, SimOutput, Simulation, TorusFabric,
};
use hfast_topology::generators::{balanced_dims3, torus3d_graph};
use hfast_topology::{CommGraph, BDP_CUTOFF};
use hfast_trace::{congestion_trees, rank_hotspots, TraceRecorder};

use super::{wall_ms, PassOutput, Probes, Recorder, Rng, Workload};
use crate::stats::{median, Fnv};

const BIG_NODES: usize = 512;
const BIG_FLOWS: usize = 20_000;
const SMALL_NODES: usize = 64;
const OUTAGES: usize = 12;
const DOWNTIME_NS: u64 = 500_000;
/// Sync-point spacing for HFAST mid-run re-provisioning.
const REPROVISION_NS: u64 = 100_000;
const CREDITS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Static,
    Faulted,
    Credit,
    Observed,
}

impl Variant {
    /// Reps of the weighted case list per pass: sized for a pass of 1–2 s
    /// with at least 100 calls.
    fn reps(self) -> usize {
        match self {
            Variant::Static => 24,
            Variant::Faulted => 19,
            Variant::Credit => 9,
            Variant::Observed => 8,
        }
    }

    fn salt(self) -> u64 {
        0x7265_706c_0000 + self as u64
    }
}

/// The seed-determined inputs: flows, payload sizes, fault and scenario
/// seeds. The paper-app flow sets are not here — they are what profiling
/// the six kernels yields, the same for every seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub variant: Variant,
    pub uniform: Vec<Flow>,
    pub alltoall_bytes: u64,
    pub fault_seed: u64,
    pub scenario_seed: u64,
    pub order_seed: u64,
}

impl Plan {
    pub fn new(variant: Variant, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ variant.salt());
        let uniform = (0..BIG_FLOWS)
            .map(|_| {
                let src = rng.below(BIG_NODES as u64) as usize;
                let mut dst = rng.below(BIG_NODES as u64 - 1) as usize;
                if dst >= src {
                    dst += 1;
                }
                Flow {
                    src,
                    dst,
                    bytes: 4096,
                    start_ns: rng.below(1_000_000),
                }
            })
            .collect();
        Plan {
            variant,
            uniform,
            alltoall_bytes: (32 << 10) + rng.below(1 << 10),
            fault_seed: rng.next_u64(),
            scenario_seed: rng.next_u64(),
            order_seed: rng.next_u64(),
        }
    }

    pub fn bytes(&self) -> Vec<u8> {
        let mut out = vec![self.variant as u8];
        for f in &self.uniform {
            for v in [f.src as u64, f.dst as u64, f.bytes, f.start_ns] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for v in [
            self.alltoall_bytes,
            self.fault_seed,
            self.scenario_seed,
            self.order_seed,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

enum Mode {
    Plain,
    Observed,
    Faulted { plan: FaultPlan, reprovision: bool },
    Credit,
}

struct Case {
    fabric: usize,
    flows: Vec<Flow>,
    mode: Mode,
    /// A caller-owned route cache, primed in set-up (the "warm" cases).
    cache: Option<PathCache>,
    /// Calls per rep.
    weight: usize,
}

pub struct Replay {
    plan: Plan,
    fabrics: Vec<Box<dyn Fabric>>,
    cases: Vec<Case>,
    /// Case index per call, in seeded order.
    order: Vec<usize>,
    obs: EngineObs,
    fabric_build_ms: f64,
    /// Σ `perf.loop_ns` and Σ `perf.events` of the latest pass.
    last_loop_ns: u64,
    last_events: u64,
}

/// A link-outage plan drawn by the benchmark's own generator: `OUTAGES`
/// distinct transit links fail inside `window` and recover `DOWNTIME_NS`
/// later.
fn outage_plan(fabric: &dyn Fabric, flows: &[Flow], seed: u64, window: u64) -> FaultPlan {
    let mut eligible = transit_links(fabric, flows);
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut eligible);
    let mut builder = FaultPlan::builder();
    for &link in eligible.iter().take(OUTAGES) {
        let at = rng.below(window);
        builder = builder
            .fail_link(at, link)
            .recover_link(at + DOWNTIME_NS, link);
    }
    builder.build(fabric).expect("links come from the fabric")
}

fn paper_app_graphs() -> Vec<CommGraph> {
    all_apps()
        .iter()
        .map(|app| {
            profile_app(app.as_ref(), SMALL_NODES)
                .expect("paper kernels run at P=64")
                .steady
                .comm_graph()
        })
        .collect()
}

impl Replay {
    /// Generates the flows, profiles the six kernels where the variant
    /// replays them, builds fabrics, fault plans and warm caches, and runs
    /// every case once untimed.
    pub fn setup(variant: Variant, seed: u64) -> Replay {
        let plan = Plan::new(variant, seed);
        let mut fabrics: Vec<Box<dyn Fabric>> = Vec::new();
        let mut cases: Vec<Case> = Vec::new();
        let mut fabric_build_ms = 0.0;
        let mut add_fabric = |fabrics: &mut Vec<Box<dyn Fabric>>,
                              build: &dyn Fn() -> Box<dyn Fabric>| {
            let t = Instant::now();
            fabrics.push(build());
            fabric_build_ms += t.elapsed().as_secs_f64() * 1e3;
            fabrics.len() - 1
        };
        let config = ProvisionConfig::default();
        let mut fault_rng = Rng::new(plan.fault_seed);
        let mode_for =
            |fabric: &dyn Fabric, flows: &[Flow], window: u64, rng: &mut Rng| match variant {
                Variant::Static => Mode::Plain,
                Variant::Observed => Mode::Observed,
                Variant::Credit => Mode::Credit,
                Variant::Faulted => Mode::Faulted {
                    plan: outage_plan(fabric, flows, rng.next_u64(), window),
                    reprovision: fabric.supports_reprovision(),
                },
            };

        let big = add_fabric(&mut fabrics, &|| {
            Box::new(TorusFabric::new((8, 8, 8)).expect("valid torus"))
        });
        cases.push(Case {
            fabric: big,
            mode: mode_for(
                fabrics[big].as_ref(),
                &plan.uniform,
                1_000_000,
                &mut fault_rng,
            ),
            flows: plan.uniform.clone(),
            cache: None,
            weight: 2,
        });
        if matches!(variant, Variant::Static | Variant::Observed) {
            let mut cache = PathCache::new();
            Simulation::new(fabrics[big].as_ref())
                .with_cache(&mut cache)
                .run(&plan.uniform);
            cases.push(Case {
                fabric: big,
                mode: mode_for(
                    fabrics[big].as_ref(),
                    &plan.uniform,
                    1_000_000,
                    &mut fault_rng,
                ),
                flows: plan.uniform.clone(),
                cache: Some(cache),
                weight: 2,
            });
        }

        if variant == Variant::Credit {
            let ft = add_fabric(&mut fabrics, &|| {
                Box::new(FatTreeFabric::new(SMALL_NODES, 8).expect("valid fat tree"))
            });
            for kind in ScenarioKind::ALL {
                let scenario = Scenario::preset(kind, SMALL_NODES, plan.scenario_seed);
                let flows = scenario.generate();
                let graph = scenario.comm_graph();
                let hf = add_fabric(&mut fabrics, &|| {
                    Box::new(HfastFabric::provisioned(
                        &graph,
                        config,
                        Strategy::PaperLinear,
                    ))
                });
                for fabric in [ft, hf] {
                    cases.push(Case {
                        fabric,
                        flows: flows.clone(),
                        mode: Mode::Credit,
                        cache: None,
                        weight: 1,
                    });
                }
            }
        } else {
            let alltoall = traffic::alltoall(SMALL_NODES, plan.alltoall_bytes);
            let dims = balanced_dims3(SMALL_NODES);
            let stencil = torus3d_graph(dims, 1 << 20);
            let small: [&dyn Fn() -> Box<dyn Fabric>; 3] = [
                &|| Box::new(FatTreeFabric::new(SMALL_NODES, 8).expect("valid fat tree")),
                &|| Box::new(TorusFabric::new(dims).expect("valid torus")),
                &|| {
                    Box::new(HfastFabric::provisioned(
                        &stencil,
                        config,
                        Strategy::PaperLinear,
                    ))
                },
            ];
            for build in small {
                let fabric = add_fabric(&mut fabrics, build);
                cases.push(Case {
                    fabric,
                    mode: mode_for(fabrics[fabric].as_ref(), &alltoall, 200_000, &mut fault_rng),
                    flows: alltoall.clone(),
                    cache: None,
                    weight: 1,
                });
            }
            for graph in paper_app_graphs() {
                let flows = traffic::flows_from_graph(&graph, BDP_CUTOFF);
                let fabric = add_fabric(&mut fabrics, &|| {
                    Box::new(HfastFabric::provisioned(
                        &graph,
                        config,
                        Strategy::PaperLinear,
                    ))
                });
                cases.push(Case {
                    fabric,
                    mode: mode_for(fabrics[fabric].as_ref(), &flows, 200_000, &mut fault_rng),
                    flows,
                    cache: None,
                    weight: 1,
                });
            }
        }

        let mut order: Vec<usize> = cases
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight * variant.reps()))
            .collect();
        Rng::new(plan.order_seed).shuffle(&mut order);

        let mut replay = Replay {
            plan,
            fabrics,
            cases,
            order,
            obs: EngineObs::with_timeline_capacity(4096),
            fabric_build_ms,
            last_loop_ns: 0,
            last_events: 0,
        };
        for case in 0..replay.cases.len() {
            std::hint::black_box(replay.run_case(case));
        }
        replay
    }

    /// One `Simulation::run`; the second value is the span count when a
    /// recorder was attached.
    fn run_case(&mut self, case: usize) -> (SimOutput, u64) {
        let Case {
            fabric,
            flows,
            mode,
            cache,
            ..
        } = &mut self.cases[case];
        let sim = Simulation::new(self.fabrics[*fabric].as_ref());
        let sim = match cache {
            Some(cache) => sim.with_cache(cache),
            None => sim,
        };
        match mode {
            Mode::Plain => (sim.run(flows), 0),
            Mode::Observed => {
                let rec = TraceRecorder::new();
                let out = sim.with_obs(&self.obs).with_trace(&rec).run(flows);
                (out, rec.len() as u64)
            }
            Mode::Faulted { plan, reprovision } => {
                let sim = sim.with_faults(plan).with_retry(RetryPolicy::default());
                let sim = if *reprovision {
                    sim.with_reprovision(REPROVISION_NS)
                } else {
                    sim
                };
                (sim.run(flows), 0)
            }
            Mode::Credit => {
                let sim = sim.with_congestion(CreditConfig::credit(CREDITS));
                (sim.run(flows), 0)
            }
        }
    }

    /// Median wall time in ms of `runs` calls of `f`.
    fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..runs).map(|_| wall_ms(&mut f)).collect();
        median(&samples)
    }
}

fn fold_output(h: &mut Fnv, out: &SimOutput) {
    let s = &out.stats;
    for v in [
        s.completed as u64,
        s.unrouted as u64,
        s.abandoned as u64,
        s.total_retries,
        s.delivered_bytes,
        s.makespan_ns,
        s.p50_latency_ns,
        s.p95_latency_ns,
        s.max_latency_ns,
        s.avg_hops.to_bits(),
        s.max_link_utilization.to_bits(),
        s.throughput.to_bits(),
        out.reprovisions.len() as u64,
    ] {
        h.u64(v);
    }
}

impl Workload for Replay {
    fn op_list_bytes(&self) -> Vec<u8> {
        self.plan.bytes()
    }

    fn pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        let (mut loop_ns, mut events) = (0, 0);
        let must_deliver = self.plan.variant != Variant::Faulted;
        for i in 0..self.order.len() {
            let case = self.order[i];
            let (sim, spans) = rec.call(|sp| sp.time("netsim.run_ms", || self.run_case(case)));
            let flows = self.cases[case].flows.len() as u64;
            out.ops += flows;
            if must_deliver {
                out.failed += flows - sim.stats.completed as u64;
            }
            fold_output(&mut h, &sim);
            loop_ns += sim.perf.loop_ns;
            events += sim.perf.events;
            out.count("netsim.events", sim.perf.events);
            out.count("netsim.retries", sim.stats.total_retries);
            out.count("netsim.reprovisions", sim.reprovisions.len() as u64);
            out.count("netsim.makespan_ns", sim.stats.makespan_ns);
            out.count("netsim.delivered_bytes", sim.stats.delivered_bytes);
            out.count("trace.spans", spans);
        }
        (self.last_loop_ns, self.last_events) = (loop_ns, events);
        out.digest = h.0;
        out
    }

    fn probes(&mut self, spans: &Probes, out: &mut Probes) {
        const RUNS: usize = 7;
        let variant = self.plan.variant;
        out.insert("netsim.fabric_build_ms", self.fabric_build_ms);
        let loop_ms = self.last_loop_ns as f64 / 1e6;
        out.insert("netsim.loop_ms", loop_ms);
        out.insert(
            "netsim.ns_per_event",
            self.last_loop_ns as f64 / self.last_events.max(1) as f64,
        );

        // Route resolution = cold − warm on the 20k-flow torus case, times
        // the cold calls of that case in a pass. The credit loop takes no
        // cache, so it has no such split.
        let big = self.fabrics[self.cases[0].fabric].as_ref();
        let flows = &self.plan.uniform;
        let mut resolve_ms = 0.0;
        if variant != Variant::Credit {
            let cold = Self::median_ms(RUNS, || {
                std::hint::black_box(Simulation::new(big).run(flows));
            });
            let mut cache = PathCache::new();
            Simulation::new(big).with_cache(&mut cache).run(flows);
            let warm = Self::median_ms(RUNS, || {
                std::hint::black_box(Simulation::new(big).with_cache(&mut cache).run(flows));
            });
            resolve_ms = (cold - warm) * (self.cases[0].weight * variant.reps()) as f64;

            // ROADMAP 1(d): lookahead windows on two workers against the
            // sequential loop, same warm routes.
            let two = Self::median_ms(RUNS, || {
                let sim = Simulation::new(big).with_cache(&mut cache).with_threads(2);
                std::hint::black_box(sim.run(flows));
            });
            out.insert("netsim.windows_speedup", warm / two);

            if variant == Variant::Observed {
                let obs = &self.obs;
                let observed = Self::median_ms(RUNS, || {
                    let rec = TraceRecorder::new();
                    let sim = Simulation::new(big).with_obs(obs).with_trace(&rec);
                    std::hint::black_box(sim.run(flows));
                });
                out.insert("netsim.observe_ratio", observed / cold);
                let rec = TraceRecorder::new();
                Simulation::new(big).with_trace(&rec).run(flows);
                let snapshot = rec.snapshot();
                out.insert(
                    "trace.analyze_ms",
                    Self::median_ms(3, || {
                        std::hint::black_box(congestion_trees(&snapshot));
                        std::hint::black_box(rank_hotspots(&snapshot));
                    }),
                );
                out.insert(
                    "trace.export_ms",
                    Self::median_ms(3, || {
                        std::hint::black_box(hfast_trace::export(&snapshot));
                    }),
                );
            }
        }
        out.insert("netsim.resolve_ms", resolve_ms);
        let run_ms = spans.get("netsim.run_ms").copied().unwrap_or(0.0);
        out.insert("netsim.rest_ms", run_ms - loop_ms - resolve_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_flows_stay_on_the_torus() {
        let plan = Plan::new(Variant::Static, 21);
        assert_eq!(plan.uniform.len(), BIG_FLOWS);
        assert!(plan
            .uniform
            .iter()
            .all(|f| f.src < BIG_NODES && f.dst < BIG_NODES && f.src != f.dst));
        assert_ne!(
            Plan::new(Variant::Static, 21).uniform,
            Plan::new(Variant::Faulted, 21).uniform,
            "variants draw their own streams"
        );
    }

    #[test]
    fn outage_plans_fail_and_recover_distinct_links() {
        let torus = TorusFabric::new((4, 4, 4)).unwrap();
        let flows = traffic::alltoall(64, 4096);
        let plan = outage_plan(&torus, &flows, 3, 10_000);
        assert_eq!(plan.len(), 2 * OUTAGES);
        assert_eq!(
            plan.events(),
            outage_plan(&torus, &flows, 3, 10_000).events()
        );
        assert_ne!(
            plan.events(),
            outage_plan(&torus, &flows, 4, 10_000).events()
        );
    }
}
