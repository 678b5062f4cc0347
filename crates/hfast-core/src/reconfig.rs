//! Runtime topology adaptation (paper §2.3).
//!
//! "Initially, the circuit switches can be used to provision densely-packed
//! 3D mesh communication topologies … as data about messaging patterns is
//! accumulated, the topology can be adjusted at discrete synchronization
//! points to better match the measured communication requirements."
//!
//! [`ReconfigEngine`] starts from that default mesh provisioning, measures
//! how much of the observed above-cutoff traffic actually has a dedicated
//! circuit, and re-provisions at synchronization points through a pluggable
//! [`Provisioner`] strategy. Traffic observed between sync points
//! accumulates as a [`GraphDelta`], so strategies with an incremental
//! `reprovision` path (the default [`Strategy::PaperLinear`]) adapt in
//! O(changed edges) rather than O(graph).

use std::sync::Arc;

use hfast_topology::generators::{balanced_dims3, mesh3d_graph};
use hfast_topology::CommGraph;
use hfast_trace::{engine_span_id, TraceRecorder, Track};

use crate::obs::ReconfigObs;
use crate::provision::{ProvisionConfig, Provisioning};
use crate::provisioner::{GraphDelta, Provisioner, Strategy};
use crate::switch::CircuitSwitch;

/// One adaptation step's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigStep {
    /// Fraction of observed above-cutoff bytes with a dedicated route
    /// before adapting.
    pub coverage_before: f64,
    /// The same fraction after adapting (1.0 unless capacity was exceeded).
    pub coverage_after: f64,
    /// Circuits torn down plus circuits newly patched. Full rebuilds diff
    /// the complete crossbar state; incremental steps count re-patched
    /// edge circuits.
    pub circuits_changed: usize,
    /// Reconfiguration latency paid at the synchronization point.
    pub reconfig_time_ns: u64,
    /// Which [`Provisioner`] produced the step (`"repatch"` for
    /// fault-driven mid-run repairs).
    pub strategy: &'static str,
    /// Provisioned edges whose circuits were added, removed, or moved.
    pub edges_touched: usize,
}

impl ReconfigStep {
    /// The outcome of a *fault-driven* mid-run re-provisioning: `circuits`
    /// failed circuits are repatched through spare switch ports at a
    /// synchronization point, paying one parallel
    /// [`CircuitSwitch::RECONFIG_LATENCY_NS`] when anything moved at all.
    ///
    /// [`observe_and_adapt`](ReconfigEngine::observe_and_adapt) covers the
    /// planned case (traffic drifted, re-match the measured graph); this
    /// constructor covers the unplanned one (a component died mid-run) with
    /// the same accounting, so the simulator's runtime fault events and the
    /// engine's sync-point steps export through one `ReconfigStep` shape.
    pub fn repatch(circuits: usize, coverage_before: f64, coverage_after: f64) -> ReconfigStep {
        ReconfigStep {
            coverage_before,
            coverage_after,
            circuits_changed: circuits,
            reconfig_time_ns: if circuits > 0 {
                CircuitSwitch::RECONFIG_LATENCY_NS
            } else {
                0
            },
            strategy: "repatch",
            edges_touched: circuits,
        }
    }
}

impl hfast_obs::ToJsonl for ReconfigStep {
    fn to_jsonl(&self) -> String {
        hfast_obs::JsonObj::new()
            .str("event", "reconfig_step")
            .str("strategy", self.strategy)
            .f64_p("coverage_before", self.coverage_before, 4)
            .f64_p("coverage_after", self.coverage_after, 4)
            .usize("circuits_changed", self.circuits_changed)
            .usize("edges_touched", self.edges_touched)
            .u64("reconfig_time_ns", self.reconfig_time_ns)
            .finish()
    }
}

/// How much cached routing state an adaptation step invalidated: everything,
/// or just the listed node pairs (the payoff of an incremental
/// [`Provisioner::reprovision`] — netsim's `PathCache` can evict exactly
/// these pairs instead of flushing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptScope {
    /// The provisioning was rebuilt from scratch; all routes may differ.
    Full,
    /// Only these `(min, max)` pairs' routes may differ.
    Pairs(Vec<(usize, usize)>),
}

/// Span-id namespace for sync-point adaptation spans: offset far past any
/// simulator flow or repatch index, so one [`TraceRecorder`] can hold a
/// reconfig engine and a netsim replay without id collisions.
const ADAPT_SPAN_OFFSET: u64 = 1 << 48;

/// Builds a [`ReconfigEngine`]: one path folding the strategy selection,
/// observability, and tracing options that used to be scattered across
/// `with_*` methods.
///
/// ```
/// use hfast_core::{ProvisionConfig, ReconfigEngine, Strategy};
/// let engine = ReconfigEngine::builder(64, ProvisionConfig::default())
///     .strategy(Strategy::PaperLinear)
///     .build();
/// assert_eq!(engine.strategy_name(), "paper_linear");
/// ```
#[derive(Debug)]
pub struct ReconfigBuilder {
    n: usize,
    config: ProvisionConfig,
    provisioner: Box<dyn Provisioner>,
    obs: Option<ReconfigObs>,
    trace: Option<Arc<TraceRecorder>>,
}

impl ReconfigBuilder {
    /// Selects a built-in strategy (default: [`Strategy::PaperLinear`], the
    /// paper's heuristic).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.provisioner = strategy.provisioner();
        self
    }

    /// Installs a custom [`Provisioner`] implementation.
    pub fn provisioner(mut self, provisioner: Box<dyn Provisioner>) -> Self {
        self.provisioner = provisioner;
        self
    }

    /// Attaches an explicit [`ReconfigObs`] regardless of the `HFAST_OBS`
    /// switch (overwrites any implicit one).
    pub fn obs(mut self, obs: ReconfigObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Records one `adapt` span per synchronization point into `recorder`
    /// on the reconfig track: `t_ns` is the sync-point index (the engine's
    /// logical clock — it has no wall clock), the duration is the
    /// reconfiguration latency paid, and the fields carry circuit-change
    /// and coverage figures. Span ids derive from the sync-point index, so
    /// identical adaptation sequences trace identically.
    pub fn trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Provisions §2.3's initial densely-packed 3D mesh assumption through
    /// the selected strategy and returns the ready engine.
    pub fn build(self) -> ReconfigEngine {
        let dims = balanced_dims3(self.n);
        // Provision as though the application were a mesh of large messages.
        let assumed = mesh3d_graph(dims, self.config.cutoff.max(1));
        let current = self.provisioner.provision(&assumed, self.config);
        ReconfigEngine {
            config: self.config,
            provisioner: self.provisioner,
            current,
            observed: assumed,
            pending: GraphDelta::new(),
            steps: Vec::new(),
            obs: self
                .obs
                .or_else(|| hfast_obs::enabled().then(ReconfigObs::new)),
            trace: self.trace,
        }
    }
}

/// Adaptive provisioning engine.
#[derive(Debug, Clone)]
pub struct ReconfigEngine {
    config: ProvisionConfig,
    provisioner: Box<dyn Provisioner>,
    current: Provisioning,
    /// The engine's running view of the application's traffic: the last
    /// full observation plus everything [`ingest`](Self::ingest)ed since.
    observed: CommGraph,
    /// Changes accumulated since the last synchronization point.
    pending: GraphDelta,
    steps: Vec<ReconfigStep>,
    obs: Option<ReconfigObs>,
    trace: Option<Arc<TraceRecorder>>,
}

impl ReconfigEngine {
    /// One builder path for strategy, observability, and tracing.
    pub fn builder(n: usize, config: ProvisionConfig) -> ReconfigBuilder {
        ReconfigBuilder {
            n,
            config,
            provisioner: Strategy::PaperLinear.provisioner(),
            obs: None,
            trace: None,
        }
    }

    /// Starts with the default densely-packed 3D mesh provisioning for `n`
    /// nodes (§2.3's initial state) under the default strategy — shorthand
    /// for `ReconfigEngine::builder(n, config).build()`.
    pub fn initial_mesh(n: usize, config: ProvisionConfig) -> Self {
        Self::builder(n, config).build()
    }

    /// The attached observability, if any.
    pub fn obs(&self) -> Option<&ReconfigObs> {
        self.obs.as_ref()
    }

    /// The active provisioning.
    pub fn current(&self) -> &Provisioning {
        &self.current
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.provisioner.name()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> &[ReconfigStep] {
        &self.steps
    }

    /// Fraction of `observed`'s above-cutoff bytes whose endpoints have a
    /// dedicated route in the current provisioning.
    pub fn coverage(&self, observed: &CommGraph) -> f64 {
        let mut covered = 0u64;
        let mut total = 0u64;
        for (a, b, e) in observed.edges() {
            if e.max_msg < self.config.cutoff {
                continue;
            }
            total += e.bytes;
            if self.current.route(a, b).is_some() {
                covered += e.bytes;
            }
        }
        if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Folds one observed message into the engine's running comm graph and
    /// the delta pending for the next [`sync`](Self::sync) point.
    pub fn ingest(&mut self, a: usize, b: usize, bytes: u64) {
        if a == b || a >= self.observed.n() || b >= self.observed.n() {
            return;
        }
        self.observed.add_message(a, b, bytes);
        self.pending.note(a, b, *self.observed.edge(a, b));
    }

    /// Synchronization point: adapts the provisioning to everything
    /// [`ingest`](Self::ingest)ed since the last sync, through the
    /// strategy's incremental path when it has one. Returns the step and
    /// the route-invalidation scope (the pairs a path cache must evict).
    pub fn sync(&mut self) -> (ReconfigStep, AdaptScope) {
        let delta = std::mem::take(&mut self.pending);
        self.adapt_with(&delta)
    }

    /// Adapts the provisioning to an observed communication graph at a
    /// synchronization point.
    ///
    /// The observation replaces the engine's running view; the difference
    /// between the two feeds the strategy's incremental path. The
    /// circuit-change count models the MEMS mirrors that must move: each
    /// changed circuit pays [`CircuitSwitch::RECONFIG_LATENCY_NS`], though
    /// mirrors move in parallel so wall-clock cost is one reconfiguration
    /// latency when anything changed at all — both figures are reported.
    pub fn observe_and_adapt(&mut self, observed: &CommGraph) -> ReconfigStep {
        let delta = GraphDelta::diff(&self.observed, observed);
        self.observed = observed.clone();
        self.pending = GraphDelta::new();
        self.adapt_with(&delta).0
    }

    fn adapt_with(&mut self, delta: &GraphDelta) -> (ReconfigStep, AdaptScope) {
        let coverage_before = self.coverage(&self.observed);
        let placeholder =
            crate::provision::build_clustered(&CommGraph::new(0), self.config, Vec::new());
        let prev = std::mem::replace(&mut self.current, placeholder);
        let (circuits_changed, outcome) = if delta.is_empty() {
            // Nothing moved; skip the strategy entirely.
            self.current = prev;
            (0, None)
        } else {
            let before = prev.circuit.clone();
            let out = self.provisioner.reprovision(prev, &self.observed, delta);
            let changed = if out.full_rebuild {
                before.circuits_changed(&out.provisioning.circuit)
            } else {
                out.edges_touched
            };
            self.current = out.provisioning.clone();
            (changed, Some(out))
        };
        let coverage_after = self.coverage(&self.observed);
        let (strategy, edges_touched, scope) = match outcome {
            None => (self.provisioner.name(), 0, AdaptScope::Pairs(Vec::new())),
            Some(out) if out.full_rebuild => (out.strategy, out.edges_touched, AdaptScope::Full),
            Some(out) => (
                out.strategy,
                out.edges_touched,
                AdaptScope::Pairs(out.touched_pairs),
            ),
        };
        let step = ReconfigStep {
            coverage_before,
            coverage_after,
            circuits_changed,
            reconfig_time_ns: if circuits_changed > 0 {
                CircuitSwitch::RECONFIG_LATENCY_NS
            } else {
                0
            },
            strategy,
            edges_touched,
        };
        self.steps.push(step);
        let idx = self.steps.len() as u64 - 1;
        if let Some(obs) = &self.obs {
            obs.record_step(idx, &step);
        }
        if let Some(tr) = &self.trace {
            tr.record_span(
                Track::Reconfig,
                "adapt",
                idx,
                step.reconfig_time_ns,
                engine_span_id(ADAPT_SPAN_OFFSET + idx),
                0,
                vec![
                    ("circuits_changed", step.circuits_changed as u64),
                    ("edges_touched", step.edges_touched as u64),
                    (
                        "coverage_before_permille",
                        (step.coverage_before * 1000.0) as u64,
                    ),
                    (
                        "coverage_after_permille",
                        (step.coverage_after * 1000.0) as u64,
                    ),
                ],
            );
        }
        (step, scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::{mesh3d_graph, ring_graph};

    fn cfg() -> ProvisionConfig {
        ProvisionConfig::default()
    }

    #[test]
    fn repatch_step_accounts_like_adaptation() {
        let step = ReconfigStep::repatch(3, 0.4, 1.0);
        assert_eq!(step.circuits_changed, 3);
        assert_eq!(step.reconfig_time_ns, CircuitSwitch::RECONFIG_LATENCY_NS);
        assert!((step.coverage_after - 1.0).abs() < 1e-12);
        assert_eq!(step.strategy, "repatch");
        assert_eq!(step.edges_touched, 3);
        let noop = ReconfigStep::repatch(0, 1.0, 1.0);
        assert_eq!(noop.reconfig_time_ns, 0, "nothing moved, nothing paid");
    }

    #[test]
    fn initial_mesh_covers_mesh_traffic() {
        let engine = ReconfigEngine::initial_mesh(64, cfg());
        let observed = mesh3d_graph((4, 4, 4), 300 << 10);
        assert!(
            (engine.coverage(&observed) - 1.0).abs() < 1e-12,
            "a mesh application needs no adaptation"
        );
    }

    #[test]
    fn scattered_pattern_starts_uncovered_then_adapts() {
        // LBMHD-like scattered partners do not match the default mesh.
        let n = 64;
        let mut observed = CommGraph::new(n);
        for v in 0..n {
            for j in [11usize, 17, 23] {
                let u = (v + j) % n;
                observed.add_message(v, u, 800 << 10);
            }
        }
        let mut engine = ReconfigEngine::initial_mesh(n, cfg());
        let before = engine.coverage(&observed);
        assert!(
            before < 0.5,
            "mesh default misses scattered traffic: {before}"
        );
        let step = engine.observe_and_adapt(&observed);
        assert!((step.coverage_after - 1.0).abs() < 1e-12);
        assert!(step.circuits_changed > 0);
        assert!(step.reconfig_time_ns > 0);
        assert_eq!(step.strategy, "paper_linear");
        assert!(step.edges_touched > 0);
        assert_eq!(engine.steps().len(), 1);
    }

    #[test]
    fn stable_pattern_converges_to_zero_changes() {
        let observed = ring_graph(32, 1 << 20);
        let mut engine = ReconfigEngine::initial_mesh(32, cfg());
        engine.observe_and_adapt(&observed);
        let second = engine.observe_and_adapt(&observed);
        assert_eq!(second.circuits_changed, 0, "fixed point reached");
        assert_eq!(second.reconfig_time_ns, 0);
        assert_eq!(second.edges_touched, 0);
        assert!((second.coverage_before - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ingest_then_sync_adapts_incrementally() {
        let n = 32;
        let ring = ring_graph(n, 1 << 20);
        let mut engine = ReconfigEngine::initial_mesh(n, cfg());
        engine.observe_and_adapt(&ring);
        // A new heavy chord appears between sync points.
        engine.ingest(3, 19, 1 << 20);
        assert_eq!(engine.pending.len(), 1);
        let (step, scope) = engine.sync();
        assert_eq!(engine.pending.len(), 0);
        assert!(step.edges_touched >= 1);
        assert_eq!(step.strategy, "paper_linear");
        match scope {
            AdaptScope::Pairs(pairs) => {
                assert!(pairs.contains(&(3, 19)), "touched pairs include the chord")
            }
            AdaptScope::Full => panic!("one chord must not trigger a full rebuild"),
        }
        assert!(engine.current().route(3, 19).is_some());
        // An idle sync is free.
        let (idle, idle_scope) = engine.sync();
        assert_eq!(idle.circuits_changed, 0);
        assert_eq!(idle_scope, AdaptScope::Pairs(Vec::new()));
    }

    #[test]
    fn builder_selects_strategy() {
        let n = 16;
        let ring = ring_graph(n, 1 << 20);
        for s in Strategy::ALL {
            let mut engine = ReconfigEngine::builder(n, cfg()).strategy(s).build();
            assert_eq!(engine.strategy_name(), s.as_str());
            let step = engine.observe_and_adapt(&ring);
            assert_eq!(step.strategy, s.as_str());
            assert!(
                (step.coverage_after - 1.0).abs() < 1e-12,
                "{s} covers a ring"
            );
            engine.current().validate(&ring).unwrap();
        }
    }

    #[test]
    fn attached_obs_records_each_sync_point() {
        let n = 16;
        let mut engine = ReconfigEngine::builder(n, cfg())
            .obs(crate::obs::ReconfigObs::new())
            .build();
        let ring = ring_graph(n, 1 << 20);
        engine.observe_and_adapt(&ring);
        engine.observe_and_adapt(&ring);
        let obs = engine.obs().expect("explicitly attached");
        assert_eq!(obs.adapts.get(), 2);
        assert_eq!(
            obs.circuits_changed.get() as usize,
            engine.steps()[0].circuits_changed
        );
        let evs = obs.timeline.snapshot();
        assert_eq!(evs[0].t_ns, 0, "timeline stamped with sync-point index");
        assert_eq!(evs[1].t_ns, 1);
    }

    #[test]
    fn attached_trace_records_adapt_spans() {
        let n = 16;
        let rec = Arc::new(TraceRecorder::new());
        let mut engine = ReconfigEngine::builder(n, cfg())
            .trace(Arc::clone(&rec))
            .build();
        let ring = ring_graph(n, 1 << 20);
        engine.observe_and_adapt(&ring);
        engine.observe_and_adapt(&ring);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.track == Track::Reconfig));
        assert_eq!(spans[0].name, "adapt");
        assert_eq!(spans[0].t_ns, 0, "stamped with sync-point index");
        assert_eq!(spans[1].t_ns, 1);
        assert_eq!(spans[0].span_id, engine_span_id(ADAPT_SPAN_OFFSET));
        assert!(spans[0].dur_ns > 0, "first adaptation moved circuits");
        assert_eq!(spans[1].dur_ns, 0, "fixed point pays nothing");
        let circuits = spans[0]
            .fields
            .iter()
            .find(|(k, _)| *k == "circuits_changed")
            .expect("field present")
            .1;
        assert_eq!(circuits as usize, engine.steps()[0].circuits_changed);
    }

    #[test]
    fn empty_observation_is_fully_covered() {
        let engine = ReconfigEngine::initial_mesh(8, cfg());
        assert_eq!(engine.coverage(&CommGraph::new(8)), 1.0);
    }

    #[test]
    fn adaptation_tracks_phase_changes() {
        // Phase 1: ring. Phase 2: shifted pattern. Both adapt to full
        // coverage; the second adaptation changes circuits again.
        let n = 16;
        let mut engine = ReconfigEngine::initial_mesh(n, cfg());
        let ring = ring_graph(n, 1 << 20);
        let s1 = engine.observe_and_adapt(&ring);
        assert!((s1.coverage_after - 1.0).abs() < 1e-12);
        let mut shifted = CommGraph::new(n);
        for v in 0..n {
            shifted.add_message(v, (v + 5) % n, 1 << 20);
        }
        let s2 = engine.observe_and_adapt(&shifted);
        assert!(s2.circuits_changed > 0);
        assert!((s2.coverage_after - 1.0).abs() < 1e-12);
    }
}
