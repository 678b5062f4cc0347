//! Pure request execution: `Request` in, `Response` out.
//!
//! Everything here is a deterministic function of the request plus the
//! (memoizing, but semantically transparent) [`Registry`] — which is what
//! makes the response cache sound and permit-count invariance testable.
//! Server-level concerns (health, stats, metrics, shutdown, admission)
//! never reach this module.

use std::sync::Arc;

use hfast_core::{CostComparison, CostModel, ProvisionConfig, Provisioning, Strategy};
use hfast_netsim::traffic::flows_from_graph;
use hfast_netsim::{transit_links_from, CreditConfig, FabricSpec, FaultPlan, Scenario, Simulation};
use hfast_topology::tdc_sweep;
use hfast_trace::{congestion_trees, rank_hotspots, utilization_spread, TraceRecorder};

use crate::protocol::{AppSpec, FaultSpec, Request, Response, TdcRow};
use crate::registry::{Registry, MAX_PROCS};

/// Upper bound on cutoffs per TDC request (keeps one request's work and
/// response size proportionate to everyone else's).
pub(crate) const MAX_TDC_CUTOFFS: usize = 64;

/// Upper bound on flows per scenario request (keeps one credit-mode
/// replay's work proportionate to everyone else's).
pub(crate) const MAX_SCENARIO_FLOWS: usize = 65_536;

fn err(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

#[allow(clippy::result_large_err)] // the Err is the wire response
fn provision_for(
    reg: &Registry,
    app: &AppSpec,
    block_ports: usize,
    cutoff: u64,
    strategy: Strategy,
) -> Result<(usize, Provisioning), Response> {
    if block_ports < 2 {
        return Err(err(format!(
            "block_ports must be at least 2, got {block_ports}"
        )));
    }
    let graph = reg.graph(app).map_err(err)?;
    reg.note_strategy(strategy);
    let prov = strategy.provisioner().provision(
        &graph,
        ProvisionConfig {
            block_ports,
            cutoff,
        },
    );
    Ok((graph.n(), prov))
}

fn simulate_for(
    reg: &Registry,
    app: &AppSpec,
    fabric: FabricSpec,
    cutoff: u64,
    faults: &Option<FaultSpec>,
    strategy: Strategy,
) -> Response {
    let graph = match reg.graph(app) {
        Ok(g) => g,
        Err(e) => return err(e),
    };
    let block_ports = ProvisionConfig::default().block_ports;
    let entry = match reg.fabric(&graph, fabric, block_ports, cutoff, strategy) {
        Ok(e) => e,
        Err(e) => return err(e),
    };
    let flows = flows_from_graph(&graph, cutoff);
    let snap = entry.warm.warm(entry.fabric.as_ref(), &flows);
    let sim = Simulation::new(entry.fabric.as_ref())
        .with_snapshot(&snap)
        .with_obs(reg.sim_obs());
    let out = if let Some(spec) = faults {
        // Fault runs read the snapshot too (detours live in the run's own
        // overlay), and the links they may fail come from its routes, so
        // no pair is routed again per request.
        let eligible = transit_links_from(entry.fabric.as_ref(), &snap, &flows);
        let plan = match FaultPlan::builder()
            .random_link_failures(
                spec.seed,
                spec.count,
                &eligible,
                spec.window,
                spec.downtime_ns,
            )
            .build(entry.fabric.as_ref())
        {
            Ok(p) => p,
            Err(e) => return err(format!("fault plan: {e}")),
        };
        sim.with_faults(&plan).run(&flows)
    } else {
        sim.run(&flows)
    };
    Response::SimReport {
        completed: out.stats.completed,
        unrouted: out.stats.unrouted,
        abandoned: out.stats.abandoned,
        delivered_bytes: out.stats.delivered_bytes,
        max_latency_ns: out.stats.max_latency_ns,
        makespan_ns: out.stats.makespan_ns,
        total_retries: out.stats.total_retries,
        reprovisions: out.reprovisions.len(),
    }
}

/// Handles [`Request::Provision`]: builds the provisioning and reports
/// its port math. Row handler in [`crate::protocol::VERBS`].
pub(crate) fn provision(req: &Request, reg: &Registry) -> Response {
    let Request::Provision {
        app,
        block_ports,
        cutoff,
        strategy,
    } = req
    else {
        return wrong_verb(req, "provision");
    };
    match provision_for(
        reg,
        app,
        *block_ports,
        *cutoff,
        strategy.unwrap_or(Strategy::PaperLinear),
    ) {
        Ok((n, prov)) => Response::Provisioned {
            n,
            blocks: prov.total_blocks(),
            total_block_ports: prov.total_block_ports(),
            circuit_ports: prov.circuit_ports_used(),
            ports_per_node: prov.block_ports_per_node(),
            max_switch_hops: prov.max_route().map_or(0, |r| r.switch_hops),
        },
        Err(resp) => resp,
    }
}

/// Handles [`Request::Cost`]: provisions with the paper strategy and
/// compares against an equivalent fat tree.
pub(crate) fn cost(req: &Request, reg: &Registry) -> Response {
    let Request::Cost {
        app,
        block_ports,
        cutoff,
    } = req
    else {
        return wrong_verb(req, "cost");
    };
    match provision_for(reg, app, *block_ports, *cutoff, Strategy::PaperLinear) {
        Ok((_, prov)) => {
            let cmp = CostComparison::of(&prov, &CostModel::default());
            Response::CostReport {
                hfast: cmp.hfast,
                fat_tree: cmp.fat_tree,
                ratio: cmp.ratio(),
                hfast_wins: cmp.hfast_wins(),
                hfast_ports_per_node: cmp.hfast_ports_per_node,
                fat_tree_ports_per_node: cmp.fat_tree_ports_per_node,
            }
        }
        Err(resp) => resp,
    }
}

/// Handles [`Request::Tdc`]: thresholded-degree sweep over the request's
/// cutoff list, rows in request order.
pub(crate) fn tdc(req: &Request, reg: &Registry) -> Response {
    let Request::Tdc { app, cutoffs } = req else {
        return wrong_verb(req, "tdc");
    };
    if cutoffs.is_empty() || cutoffs.len() > MAX_TDC_CUTOFFS {
        return err(format!(
            "tdc wants 1..={MAX_TDC_CUTOFFS} cutoffs, got {}",
            cutoffs.len()
        ));
    }
    match reg.graph(app) {
        Ok(graph) => Response::TdcReport {
            rows: tdc_sweep(&graph, cutoffs)
                .into_iter()
                .map(|(cutoff, s)| TdcRow {
                    cutoff,
                    max: s.max,
                    min: s.min,
                    avg: s.avg,
                    median: s.median,
                })
                .collect(),
        },
        Err(e) => err(e),
    }
}

/// Handles [`Request::Simulate`]: full traffic replay with optional fault
/// injection on the requested fabric.
pub(crate) fn simulate(req: &Request, reg: &Registry) -> Response {
    let Request::Simulate {
        app,
        fabric,
        cutoff,
        faults,
        strategy,
    } = req
    else {
        return wrong_verb(req, "simulate");
    };
    simulate_for(
        reg,
        app,
        *fabric,
        *cutoff,
        faults,
        strategy.unwrap_or(Strategy::PaperLinear),
    )
}

/// Handles [`Request::Scenario`]: generates the seeded adversarial
/// traffic, replays it under credit-based flow control on the requested
/// fabric (HFAST is provisioned from the scenario's own communication
/// graph), and folds the trace into its congestion-tree report.
pub(crate) fn scenario(req: &Request, reg: &Registry) -> Response {
    let Request::Scenario {
        kind,
        nodes,
        flows,
        bytes,
        seed,
        fabric,
        strategy,
        credits,
    } = req
    else {
        return wrong_verb(req, "scenario");
    };
    // `Scenario::new` and `CreditConfig::credit` assert their invariants;
    // a network request must fail structurally, never panic a handler.
    if *nodes < 2 || *nodes > MAX_PROCS {
        return err(format!("nodes must be in 2..={MAX_PROCS}, got {nodes}"));
    }
    if flows.is_some_and(|f| f == 0 || f > MAX_SCENARIO_FLOWS) {
        return err(format!(
            "flows must be in 1..={MAX_SCENARIO_FLOWS}, got {flows:?}"
        ));
    }
    if bytes.is_some_and(|b| b == 0) {
        return err("bytes must be positive");
    }
    let credits = credits.unwrap_or(hfast_netsim::DEFAULT_CREDITS);
    if credits == 0 {
        return err("credits must be positive (links need a buffer slot)");
    }
    let preset = Scenario::preset(*kind, *nodes, *seed);
    let scenario = Scenario::new(
        *kind,
        *nodes,
        flows.unwrap_or(preset.flows),
        bytes.unwrap_or(preset.bytes),
        *seed,
    );
    let generated = scenario.generate();
    // The fabric rides the registry's memoized entries, keyed by the
    // scenario graph's content — repeats (and other verbs naming the same
    // traffic) share construction, while the response cache above this
    // handler absorbs exact repeats entirely.
    let graph = Arc::new(scenario.comm_graph());
    let config = ProvisionConfig::default();
    let entry = match reg.fabric(
        &graph,
        *fabric,
        config.block_ports,
        config.cutoff,
        strategy.unwrap_or(Strategy::PaperLinear),
    ) {
        Ok(e) => e,
        Err(e) => return err(e),
    };
    if let Err(e) = scenario.validate_for(entry.fabric.as_ref()) {
        return err(format!("scenario does not fit the fabric: {e}"));
    }
    reg.note_scenario(*kind);
    let rec = TraceRecorder::new();
    let out = Simulation::new(entry.fabric.as_ref())
        .with_congestion(CreditConfig::credit(credits))
        .with_obs(reg.sim_obs())
        .with_trace(&rec)
        .run(&generated);
    let spans = rec.snapshot();
    let trees = congestion_trees(&spans);
    let spread_stats = utilization_spread(&rank_hotspots(&spans));
    Response::ScenarioReport {
        flows: generated.len(),
        completed: out.stats.completed,
        unrouted: out.stats.unrouted,
        makespan_ns: out.stats.makespan_ns,
        p95_latency_ns: out.stats.p95_latency_ns,
        trees: trees.len(),
        deepest: trees.iter().map(|t| t.depth).max().unwrap_or(0),
        stall_ns: trees.iter().map(|t| t.stall_ns).sum(),
        spread: trees.iter().map(|t| t.spread_ratio).fold(0.0, f64::max),
        off_root_victims: trees.iter().map(|t| t.off_root_victims).sum(),
        max_over_mean: spread_stats.max_over_mean,
        gini: spread_stats.gini,
    }
}

/// Handles [`Request::DebugPanic`].
///
/// # Panics
/// Always — this endpoint exists to prove panic isolation. Callers run
/// it under `catch_unwind`.
pub(crate) fn debug_panic(req: &Request, _reg: &Registry) -> Response {
    if !matches!(req, Request::DebugPanic) {
        return wrong_verb(req, "debug_panic");
    }
    panic!("debug_panic endpoint exercised")
}

fn wrong_verb(req: &Request, expected: &str) -> Response {
    err(format!(
        "handler {expected} dispatched for {}",
        req.endpoint()
    ))
}

/// Executes one compute request against the registry by dispatching
/// through the verb table.
///
/// # Panics
/// [`Request::DebugPanic`] panics by design — callers run this under
/// `catch_unwind` and must survive (that is the point of the endpoint).
pub fn execute(req: &Request, reg: &Registry) -> Response {
    match req.spec().handler {
        crate::protocol::VerbHandler::Compute(f) => f(req, reg),
        crate::protocol::VerbHandler::Server => err(format!(
            "{} is answered by the server, not computed",
            req.endpoint()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> AppSpec {
        AppSpec::Inline {
            n,
            edges: (0..n)
                .map(|i| (i, (i + 1) % n, 64 * 1024, 16, 4096))
                .collect(),
        }
    }

    #[test]
    fn provision_reports_port_math() {
        let reg = Registry::new();
        let resp = execute(
            &Request::Provision {
                app: ring(8),
                block_ports: 16,
                cutoff: 2048,
                strategy: None,
            },
            &reg,
        );
        let Response::Provisioned {
            n,
            blocks,
            total_block_ports,
            ..
        } = resp
        else {
            panic!("expected Provisioned, got {resp:?}");
        };
        assert_eq!(n, 8);
        assert!(blocks > 0);
        assert_eq!(total_block_ports, blocks * 16);
    }

    #[test]
    fn cost_ratio_is_consistent() {
        let reg = Registry::new();
        let resp = execute(
            &Request::Cost {
                app: ring(16),
                block_ports: 16,
                cutoff: 2048,
            },
            &reg,
        );
        let Response::CostReport {
            hfast,
            fat_tree,
            ratio,
            hfast_wins,
            ..
        } = resp
        else {
            panic!("expected CostReport, got {resp:?}");
        };
        assert!((ratio - hfast / fat_tree).abs() < 1e-12);
        assert_eq!(hfast_wins, hfast < fat_tree);
    }

    #[test]
    fn tdc_rows_follow_request_order() {
        let reg = Registry::new();
        let resp = execute(
            &Request::Tdc {
                app: ring(8),
                cutoffs: vec![0, 2048, 1 << 20],
            },
            &reg,
        );
        let Response::TdcReport { rows } = resp else {
            panic!("expected TdcReport, got {resp:?}");
        };
        assert_eq!(
            rows.iter().map(|r| r.cutoff).collect::<Vec<_>>(),
            vec![0, 2048, 1 << 20]
        );
        // A 4 KiB max message passes the 2 KiB cutoff but not 1 MiB.
        assert_eq!(rows[0].max, 2);
        assert_eq!(rows[1].max, 2);
        assert_eq!(rows[2].max, 0);
    }

    #[test]
    fn simulate_delivers_all_ring_flows() {
        let reg = Registry::new();
        let resp = execute(
            &Request::Simulate {
                app: ring(8),
                fabric: FabricSpec::FatTree { ports: 8 },
                cutoff: 0,
                faults: None,
                strategy: None,
            },
            &reg,
        );
        let Response::SimReport {
            completed,
            unrouted,
            delivered_bytes,
            ..
        } = resp
        else {
            panic!("expected SimReport, got {resp:?}");
        };
        // Two flows per undirected ring edge, each at the edge's mean
        // message size (64 KiB over 16 messages = 4 KiB).
        assert_eq!(completed, 16);
        assert_eq!(unrouted, 0);
        assert_eq!(delivered_bytes, 16 * 4096);
    }

    #[test]
    fn simulate_is_deterministic_with_and_without_warm_cache() {
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        let req = Request::Simulate {
            app: ring(12),
            fabric: FabricSpec::Torus { dims: (3, 2, 2) },
            cutoff: 0,
            faults: Some(FaultSpec {
                seed: 7,
                count: 2,
                window: (0, 50_000),
                downtime_ns: Some(100_000),
            }),
            strategy: None,
        };
        let a = execute(&req, &reg_a);
        // Second registry: cold caches, same answer. Run twice on reg_a
        // too so the warmed path is also covered.
        let b = execute(&req, &reg_b);
        let c = execute(&req, &reg_a);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn validation_failures_are_structured_errors() {
        let reg = Registry::new();
        for req in [
            Request::Provision {
                app: ring(4),
                block_ports: 1,
                cutoff: 0,
                strategy: None,
            },
            Request::Tdc {
                app: ring(4),
                cutoffs: vec![],
            },
            Request::Simulate {
                app: ring(9),
                fabric: FabricSpec::Torus { dims: (2, 2, 2) },
                cutoff: 0,
                faults: None,
                strategy: None,
            },
            Request::Provision {
                app: AppSpec::Named {
                    name: "NoSuchApp".into(),
                    procs: 8,
                },
                block_ports: 16,
                cutoff: 2048,
                strategy: None,
            },
        ] {
            assert!(
                matches!(execute(&req, &reg), Response::Error { .. }),
                "{req:?} should be a structured error"
            );
        }
    }

    /// An inline graph is wire input: a task count no real graph has and
    /// an endpoint past `n` are both refused before any graph is built,
    /// instead of exhausting memory or panicking a handler.
    #[test]
    fn hostile_inline_graphs_are_structured_errors() {
        let reg = Registry::new();
        let huge = AppSpec::Inline {
            n: 60_000_000,
            edges: vec![],
        };
        let dangling = AppSpec::Inline {
            n: 4,
            edges: vec![(0, 1, 4096, 1, 4096), (2, 4, 4096, 1, 4096)],
        };
        for app in [huge, dangling] {
            for req in [
                Request::Tdc {
                    app: app.clone(),
                    cutoffs: vec![0, 2048],
                },
                Request::Simulate {
                    app: app.clone(),
                    fabric: FabricSpec::Hfast,
                    cutoff: 2048,
                    faults: None,
                    strategy: None,
                },
            ] {
                let Response::Error { message } = execute(&req, &reg) else {
                    panic!("{req:?} should be refused");
                };
                assert!(message.starts_with("inline "), "{message}");
            }
        }
    }
}
