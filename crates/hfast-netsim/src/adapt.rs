//! Online adaptive replay: windowed simulation with incremental
//! re-provisioning at synchronization points.
//!
//! §2.3 of the paper sketches a runtime that measures traffic between
//! synchronization points and repatches the MEMS crossbar to match.
//! [`AdaptiveReplay`] is that runtime over the simulator, and the one
//! driver that changes a live fabric at a sync point. Every adaptation
//! goes through [`adapt`](AdaptiveReplay::adapt): the observed
//! communication graph replaces the running view, the configured
//! [`Provisioner`] strategy re-provisions **incrementally** over the
//! difference, the outcome is applied to the live [`HfastFabric`], and
//! exactly the cached routes it touched are evicted. Strategies that
//! cannot adapt incrementally fall back to a full rebuild (and a full
//! cache clear) transparently. [`window`](AdaptiveReplay::window) replays
//! one bulk-synchronous phase on the current fabric, then adapts to that
//! phase's traffic folded into the view.
//!
//! ```
//! use hfast_core::{ProvisionConfig, Strategy};
//! use hfast_netsim::AdaptiveReplay;
//! use hfast_netsim::traffic::flows_from_graph;
//! use hfast_topology::generators::ring_graph;
//!
//! let g = ring_graph(16, 1 << 20);
//! let mut replay = AdaptiveReplay::builder(16, ProvisionConfig::default())
//!     .strategy(Strategy::PaperLinear)
//!     .initial_graph(&g)
//!     .build();
//! let report = replay.window(&flows_from_graph(&g, 2048));
//! assert_eq!(report.stats.unrouted, 0);
//! assert_eq!(report.step.edges_touched, 0); // traffic matched the forecast
//! ```

use hfast_core::{GraphDelta, ProvisionConfig, Provisioner, ReconfigStep, Strategy};
use hfast_topology::CommGraph;

use crate::engine::{PathCache, Simulation};
use crate::hfast::{AdaptScope, HfastFabric};
use crate::stats::RunStats;
use crate::traffic::Flow;

/// Builder for [`AdaptiveReplay`]: pick the node count, provisioning
/// config, strategy, and (optionally) an initial traffic forecast.
#[derive(Debug)]
pub struct AdaptiveReplayBuilder {
    n: usize,
    config: ProvisionConfig,
    strategy: Strategy,
    initial: CommGraph,
}

impl AdaptiveReplayBuilder {
    /// Selects the provisioner strategy (default: the paper's linear
    /// heuristic, the only one with a native incremental path).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Seeds the initial provisioning from a traffic forecast instead of
    /// an empty graph (which would start every pair on the slow tree).
    /// §2.3's "densely-packed 3D mesh" start is
    /// `initial_graph(&mesh3d_graph(balanced_dims3(n), cutoff))`.
    pub fn initial_graph(mut self, graph: &CommGraph) -> Self {
        self.initial = graph.clone();
        self
    }

    /// Provisions the initial fabric and returns the replay driver.
    ///
    /// # Panics
    /// If the initial graph's task count disagrees with the builder's `n`.
    pub fn build(self) -> AdaptiveReplay {
        assert_eq!(self.initial.n(), self.n, "forecast must cover all nodes");
        let provisioner = self.strategy.provisioner();
        let fabric = HfastFabric::new(provisioner.provision(&self.initial, self.config));
        AdaptiveReplay {
            fabric,
            cache: PathCache::new(),
            provisioner,
            config: self.config,
            observed: self.initial,
        }
    }
}

/// What one synchronization window did: replay stats plus the
/// reconfiguration step it triggered.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Simulation stats for the window's flows.
    pub stats: RunStats,
    /// The adaptation at the window's closing sync point.
    pub step: ReconfigStep,
}

/// Windowed sync-point replay with online incremental re-provisioning.
///
/// Construct with [`AdaptiveReplay::builder`]; drive with
/// [`window`](AdaptiveReplay::window) once per bulk-synchronous phase, or
/// with [`adapt`](AdaptiveReplay::adapt) when the observation is already a
/// graph.
#[derive(Debug)]
pub struct AdaptiveReplay {
    fabric: HfastFabric,
    cache: PathCache,
    provisioner: Box<dyn Provisioner>,
    config: ProvisionConfig,
    /// The running view of the application's traffic.
    observed: CommGraph,
}

impl AdaptiveReplay {
    /// A builder for `n` nodes under `config`.
    pub fn builder(n: usize, config: ProvisionConfig) -> AdaptiveReplayBuilder {
        AdaptiveReplayBuilder {
            n,
            config,
            strategy: Strategy::PaperLinear,
            initial: CommGraph::new(n),
        }
    }

    /// Fraction of `observed`'s above-cutoff bytes whose endpoints have a
    /// dedicated route on the live fabric (1.0 when there are none).
    pub fn coverage(&self, observed: &CommGraph) -> f64 {
        let prov = self.fabric.provisioning();
        let (mut covered, mut total) = (0u64, 0u64);
        for (a, b, e) in observed.edges() {
            if e.max_msg < self.config.cutoff {
                continue;
            }
            total += e.bytes;
            if prov.route(a, b).is_some() {
                covered += e.bytes;
            }
        }
        if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Replays one window of flows on the current fabric, then adapts the
    /// provisioning to the view with the window's traffic folded in.
    ///
    /// The flows run against routes provisioned from *previous* windows —
    /// exactly the runtime's position at a sync point — and the fabric the
    /// *next* window sees reflects this one's traffic. Cached routes for
    /// untouched pairs survive the adaptation.
    pub fn window(&mut self, flows: &[Flow]) -> WindowReport {
        let stats = Simulation::new(&self.fabric)
            .with_cache(&mut self.cache)
            .run(flows)
            .stats;
        let mut next = self.observed.clone();
        for f in flows {
            next.add_message(f.src, f.dst, f.bytes);
        }
        let step = self.adapt(&next);
        WindowReport { stats, step }
    }

    /// Synchronization point: `observed` replaces the running view, the
    /// strategy re-provisions over the difference, and the live fabric and
    /// route cache follow.
    ///
    /// `circuits_changed` is the crossbar diff on a full rebuild and the
    /// re-patched edge count when incremental; coverage is of `observed`
    /// before and after. An observation equal to the view is free: the
    /// strategy is not consulted and nothing moves.
    pub fn adapt(&mut self, observed: &CommGraph) -> ReconfigStep {
        let delta = GraphDelta::diff(&self.observed, observed);
        self.observed = observed.clone();
        let coverage_before = self.coverage(&self.observed);
        if delta.is_empty() {
            let name = self.provisioner.name();
            return ReconfigStep::new(name, coverage_before, coverage_before, 0, 0);
        }
        let prev = self.fabric.provisioning().clone();
        let out = self.provisioner.reprovision(prev, &self.observed, &delta);
        let circuits_changed = if out.full_rebuild {
            let before = self.fabric.provisioning().circuit();
            before.circuits_changed(out.provisioning.circuit())
        } else {
            out.edges_touched
        };
        match self.fabric.adapt(&out) {
            AdaptScope::Full => self.cache.clear(),
            AdaptScope::Pairs(pairs) => {
                self.cache.invalidate_pairs(&pairs);
            }
        }
        ReconfigStep::new(
            out.strategy,
            coverage_before,
            self.coverage(&self.observed),
            circuits_changed,
            out.edges_touched,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::traffic::flows_from_graph;
    use hfast_core::CircuitSwitch;
    use hfast_topology::generators::{balanced_dims3, mesh3d_graph, ring_graph};

    fn cfg() -> ProvisionConfig {
        ProvisionConfig::default()
    }

    /// §2.3's start: the fabric provisioned for a densely packed 3D mesh.
    fn initial_mesh(n: usize) -> AdaptiveReplay {
        AdaptiveReplay::builder(n, cfg())
            .initial_graph(&mesh3d_graph(balanced_dims3(n), cfg().cutoff))
            .build()
    }

    fn chord(a: usize, b: usize) -> Flow {
        Flow {
            src: a,
            dst: b,
            bytes: 1 << 20,
            start_ns: 0,
        }
    }

    /// A drifting workload: each window's phase adds one fresh chord. The
    /// driver must keep adapting incrementally — never a full rebuild
    /// under PaperLinear, so the route cache is never flushed — and each
    /// new chord must ride a circuit by the window after it first appears.
    #[test]
    fn drifting_chords_adapt_incrementally() {
        let n = 32;
        let base = ring_graph(n, 1 << 20);
        let mut replay = AdaptiveReplay::builder(n, cfg())
            .initial_graph(&base)
            .build();

        for w in 0..4 {
            let (a, b) = (w, (w + n / 2) % n);
            let mut flows = flows_from_graph(&base, 2048);
            flows.push(chord(a, b));
            let report = replay.window(&flows);
            assert_eq!(report.stats.unrouted, 0);
            assert!(!replay.cache.is_empty(), "paper heuristic adapts in place");
            assert_eq!(report.step.strategy, "paper_linear");
            assert!(report.step.edges_touched >= 1, "the chord is new traffic");
            // Next window: the chord now rides a dedicated circuit.
            let path = replay.fabric.path(a, b).unwrap();
            assert_eq!(path.len(), 3, "window {w} chord got a circuit");
        }
    }

    /// Strategies without a native incremental path still work through
    /// the same driver — every sync point is a (correct) full rebuild.
    #[test]
    fn scratch_strategies_fall_back_to_full_rebuild() {
        let n = 16;
        let base = ring_graph(n, 1 << 20);
        let mut replay = AdaptiveReplay::builder(n, cfg())
            .strategy(Strategy::BffCircuit)
            .initial_graph(&base)
            .build();
        let mut flows = flows_from_graph(&base, 2048);
        flows.push(chord(2, 9));
        let report = replay.window(&flows);
        assert_eq!(report.stats.unrouted, 0);
        assert!(replay.cache.is_empty(), "a full rebuild flushes the cache");
        assert_eq!(report.step.strategy, "bff_circuit");
        // The rebuilt fabric routes the new pair off the slow tree (BFF
        // may even marry the two onto one shared chain).
        let p = replay.fabric.path(2, 9).unwrap();
        assert_eq!(replay.fabric.link_class(p[0]), "fiber");
        // Another window of identical traffic: the cumulative byte counts
        // still shift, so a scratch strategy rebuilds again — correct but
        // paying the full cost the incremental path avoids.
        let second = replay.window(&flows);
        assert_eq!(second.stats.unrouted, 0);
        assert!(replay.cache.is_empty());
    }

    /// A chord that disappears at a sync point loses its circuit: its
    /// pair falls back to the tree and its cached route is evicted, while
    /// a pair the removal did not touch keeps its exact cached links.
    #[test]
    fn removed_chord_falls_back_and_evicts_only_its_route() {
        let n = 16;
        let ring = ring_graph(n, 1 << 20);
        let mut with_chord = ring.clone();
        with_chord.add_message(3, 11, 1 << 20);
        let mut replay = AdaptiveReplay::builder(n, cfg())
            .initial_graph(&with_chord)
            .build();
        let mut flows = flows_from_graph(&ring, 2048);
        flows.push(chord(3, 11));
        replay.window(&flows);
        let chord_path = replay.fabric.path(3, 11).unwrap();
        assert_eq!(chord_path.len(), 3, "the chord rides a circuit");
        assert_eq!(replay.cache.cached(3, 11), Some(Some(&chord_path[..])));
        let stable = replay.fabric.path(6, 7).unwrap();
        assert_eq!(replay.cache.cached(6, 7), Some(Some(&stable[..])));

        let step = replay.adapt(&ring);
        assert!(step.edges_touched >= 1, "the chord's circuit came down");
        assert!(!replay.cache.is_empty(), "removal stays incremental");
        let fallback = replay.fabric.path(3, 11).unwrap();
        assert_eq!(fallback.len(), 2);
        assert_eq!(replay.fabric.link_class(fallback[0]), "tree");
        assert_eq!(replay.cache.cached(3, 11), None, "chord route evicted");
        assert_eq!(replay.cache.cached(6, 7), Some(Some(&stable[..])));
        assert_eq!(replay.fabric.path(6, 7).unwrap(), stable);
    }

    #[test]
    fn initial_mesh_covers_mesh_traffic() {
        let replay = initial_mesh(64);
        let observed = mesh3d_graph((4, 4, 4), 300 << 10);
        assert!(
            (replay.coverage(&observed) - 1.0).abs() < 1e-12,
            "a mesh application needs no adaptation"
        );
    }

    #[test]
    fn empty_observation_is_fully_covered() {
        assert_eq!(initial_mesh(8).coverage(&CommGraph::new(8)), 1.0);
    }

    #[test]
    fn scattered_pattern_starts_uncovered_then_adapts() {
        // LBMHD-like scattered partners do not match the default mesh.
        let n = 64;
        let mut observed = CommGraph::new(n);
        for v in 0..n {
            for j in [11usize, 17, 23] {
                observed.add_message(v, (v + j) % n, 800 << 10);
            }
        }
        let mut replay = initial_mesh(n);
        let before = replay.coverage(&observed);
        assert!(
            before < 0.5,
            "mesh default misses scattered traffic: {before}"
        );
        let step = replay.adapt(&observed);
        assert_eq!(step.coverage_before, before);
        assert!((step.coverage_after - 1.0).abs() < 1e-12);
        assert!(step.circuits_changed > 0);
        assert_eq!(step.reconfig_time_ns, CircuitSwitch::RECONFIG_LATENCY_NS);
        assert_eq!(step.strategy, "paper_linear");
        assert!(step.edges_touched > 0);
    }

    #[test]
    fn stable_pattern_converges_to_zero_changes() {
        let observed = ring_graph(32, 1 << 20);
        let mut replay = initial_mesh(32);
        replay.adapt(&observed);
        let second = replay.adapt(&observed);
        assert_eq!(second.circuits_changed, 0, "fixed point reached");
        assert_eq!(second.reconfig_time_ns, 0);
        assert_eq!(second.edges_touched, 0);
        assert!((second.coverage_before - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_strategy_adapts_to_full_coverage() {
        let n = 16;
        let ring = ring_graph(n, 1 << 20);
        for s in Strategy::ALL {
            let mut replay = AdaptiveReplay::builder(n, cfg())
                .strategy(s)
                .initial_graph(&mesh3d_graph(balanced_dims3(n), cfg().cutoff))
                .build();
            let step = replay.adapt(&ring);
            assert_eq!(step.strategy, s.as_str());
            assert!(
                (step.coverage_after - 1.0).abs() < 1e-12,
                "{s} covers a ring"
            );
            replay.fabric.provisioning().validate(&ring).unwrap();
        }
    }

    #[test]
    fn adaptation_tracks_phase_changes() {
        // Phase 1: ring. Phase 2: shifted pattern. Both adapt to full
        // coverage; the second adaptation changes circuits again.
        let n = 16;
        let mut replay = initial_mesh(n);
        let s1 = replay.adapt(&ring_graph(n, 1 << 20));
        assert!((s1.coverage_after - 1.0).abs() < 1e-12);
        let mut shifted = CommGraph::new(n);
        for v in 0..n {
            shifted.add_message(v, (v + 5) % n, 1 << 20);
        }
        let s2 = replay.adapt(&shifted);
        assert!(s2.circuits_changed > 0);
        assert!((s2.coverage_after - 1.0).abs() < 1e-12);
    }
}
