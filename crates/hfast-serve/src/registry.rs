//! Deduplicated construction of expensive request inputs.
//!
//! Profiling a paper application (running its communication kernel over
//! the simulated MPI runtime) and building a fabric with a warm route
//! cache are orders of magnitude more expensive than any single response.
//! When many connections name the same app × scale, the work must happen
//! once: each registry entry is an `Arc<OnceLock<…>>` — the map lock is
//! held only to clone the entry's `Arc`, and `get_or_init` then blocks
//! *only* requesters of the same key while the first one computes.
//!
//! Keys are client-chosen (every named app × procs is a new graph key;
//! every distinct inline graph, cutoff or strategy a new fabric key), so
//! each map is an [`LruMap`] that holds at most [`MAX_GRAPHS`] or
//! [`MAX_FABRICS`] entries and evicts the least recently used one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hfast_apps::{all_apps, profile_app};
use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::{EngineObs, Fabric, FabricSpec, ScenarioKind, SharedPathCache};
use hfast_topology::CommGraph;

use crate::protocol::AppSpec;

/// Sanity bound on profiling scale: the six kernels spawn one thread per
/// rank, so an unbounded `procs` would let one request exhaust the host.
pub(crate) const MAX_PROCS: usize = 1024;

/// Sanity bound on an inline graph's task count, and on a torus's node
/// count. An empty graph costs one row header per task (1.5 MB here), and
/// a simulation one slot per link (six per torus node), so a few bytes of
/// request can never ask the daemon for more than that; 65 536 is the
/// paper's ultra-scale tier.
pub(crate) const MAX_INLINE_TASKS: usize = 1 << 16;

/// Most profiled graphs the registry keeps resident: room for the six
/// paper apps at two scales each. Past it the least recently used graph
/// is dropped; a request holding it keeps its own `Arc`.
pub(crate) const MAX_GRAPHS: usize = 12;

/// Most fabrics the registry keeps resident. Past it the least recently
/// used entry is dropped from the map; a request still running on it
/// holds its own `Arc`, so eviction never pulls a fabric out from under
/// a simulation.
pub(crate) const MAX_FABRICS: usize = 256;

type GraphResult = Result<Arc<CommGraph>, String>;

/// A fabric built for one (app, fabric-spec, cutoff) key, with the warm
/// shared route cache every simulate request on that key reuses.
pub(crate) struct FabricEntry {
    /// The fabric (immutable; `Fabric: Sync` by trait contract).
    pub(crate) fabric: Box<dyn Fabric + Send>,
    /// Warm routes shared by concurrent runs over this fabric.
    pub(crate) warm: SharedPathCache,
}

type FabricResult = Result<Arc<FabricEntry>, String>;

/// A map of memoized slots holding at most `CAP` entries, each stamped
/// with the lookup that last used it.
struct LruMap<V, const CAP: usize> {
    entries: HashMap<String, (Arc<OnceLock<V>>, u64)>,
    /// Lookups so far; an entry's stamp is the value at its last use.
    clock: u64,
}

impl<V, const CAP: usize> Default for LruMap<V, CAP> {
    fn default() -> Self {
        LruMap {
            entries: HashMap::new(),
            clock: 0,
        }
    }
}

impl<V, const CAP: usize> LruMap<V, CAP> {
    /// The slot for `key`, created (evicting the least recently used
    /// entry when the map is full) if absent.
    fn entry(&mut self, key: &str) -> Arc<OnceLock<V>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((slot, used)) = self.entries.get_mut(key) {
            *used = clock;
            return Arc::clone(slot);
        }
        if self.entries.len() >= CAP {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("a full map has entries");
            self.entries.remove(&oldest);
        }
        let slot = Arc::new(OnceLock::new());
        self.entries
            .insert(key.to_string(), (Arc::clone(&slot), clock));
        slot
    }
}

/// The server-wide registry of profiled graphs and built fabrics.
#[derive(Default)]
pub struct Registry {
    graphs: Mutex<LruMap<GraphResult, MAX_GRAPHS>>,
    fabrics: Mutex<LruMap<FabricResult, MAX_FABRICS>>,
    /// Engine observability every simulate request records into; the
    /// `stats` verb reports simulator event counts and loop throughput
    /// from here. Wall-clock feeds only the throughput gauge, never
    /// simulated results, so responses stay byte-identical across permit
    /// counts.
    sim_obs: EngineObs,
    /// Provisioner executions per strategy, in [`Strategy::ALL`] order.
    /// Response-cache hits never reach the handlers, so these count real
    /// provisioning work, not request traffic.
    strategy_hits: [AtomicU64; 3],
    /// Scenario replays per generator kind, in [`ScenarioKind::ALL`]
    /// order. Cache hits never reach the handler, so these count real
    /// credit-mode replays.
    scenario_hits: [AtomicU64; 5],
}

fn profile_named(name: &str, procs: usize) -> GraphResult {
    if procs == 0 || procs > MAX_PROCS {
        return Err(format!("procs must be in 1..={MAX_PROCS}, got {procs}"));
    }
    let apps = all_apps();
    let app = apps
        .iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| format!("unknown application {name:?}"))?;
    let outcome = profile_app(app.as_ref(), procs)
        .map_err(|e| format!("profiling {name} at {procs} ranks failed: {e:?}"))?;
    Ok(Arc::new(outcome.steady.comm_graph()))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The engine observability sink shared by every simulate run.
    pub(crate) fn sim_obs(&self) -> &EngineObs {
        &self.sim_obs
    }

    /// Records one provisioner execution under `strategy`.
    pub(crate) fn note_strategy(&self, strategy: Strategy) {
        let idx = Strategy::ALL
            .iter()
            .position(|s| *s == strategy)
            .expect("every strategy is listed");
        self.strategy_hits[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// How many memoized (graph, fabric) entries are resident — reported
    /// by the stats verb so operators can watch registry growth.
    pub(crate) fn entry_counts(&self) -> (u64, u64) {
        let graphs = self.graphs.lock().expect("graphs poisoned").entries.len() as u64;
        let fabrics = self.fabrics.lock().expect("fabrics poisoned").entries.len() as u64;
        (graphs, fabrics)
    }

    /// Per-strategy execution counts, in [`Strategy::ALL`] order.
    pub(crate) fn strategy_hits(&self) -> [u64; 3] {
        [
            self.strategy_hits[0].load(Ordering::Relaxed),
            self.strategy_hits[1].load(Ordering::Relaxed),
            self.strategy_hits[2].load(Ordering::Relaxed),
        ]
    }

    /// Records one scenario replay of `kind`.
    pub(crate) fn note_scenario(&self, kind: ScenarioKind) {
        let idx = ScenarioKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("every kind is listed");
        self.scenario_hits[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-kind scenario replay counts, in [`ScenarioKind::ALL`] order.
    pub(crate) fn scenario_hits(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for (slot, counter) in out.iter_mut().zip(self.scenario_hits.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }

    /// The communication graph of an app spec: inline graphs are checked
    /// (they arrive straight off the wire) and materialize directly
    /// (cheap), named apps profile once per (name, procs) and every later
    /// request — concurrent or not — reuses the result.
    pub(crate) fn graph(&self, app: &AppSpec) -> GraphResult {
        match app {
            AppSpec::Inline { n, edges } => {
                if !(1..=MAX_INLINE_TASKS).contains(n) {
                    return Err(format!(
                        "inline graph needs n in 1..={MAX_INLINE_TASKS}, got {n}"
                    ));
                }
                if let Some(&(a, b, ..)) = edges.iter().find(|&&(a, b, ..)| a >= *n || b >= *n) {
                    return Err(format!(
                        "inline edge ({a}, {b}) names a task outside 0..{n}"
                    ));
                }
                Ok(Arc::new(app.inline_graph().expect("an inline spec")))
            }
            AppSpec::Named { name, procs } => {
                let key = format!("{name}\u{1}{procs}");
                let slot = self.graphs.lock().expect("registry poisoned").entry(&key);
                slot.get_or_init(|| profile_named(name, *procs)).clone()
            }
        }
    }

    /// The fabric (plus warm cache) for a simulate key. Keyed by the
    /// graph's content hash rather than the app spec, so an inline graph
    /// identical to a profiled one shares the same entry; the provisioner
    /// strategy is part of the key, so two strategies on one graph never
    /// share a (differently provisioned) fabric.
    pub(crate) fn fabric(
        &self,
        graph: &Arc<CommGraph>,
        spec: FabricSpec,
        block_ports: usize,
        cutoff: u64,
        strategy: Strategy,
    ) -> FabricResult {
        if let FabricSpec::Torus { dims: (x, y, z) } = spec {
            let nodes = x.checked_mul(y).and_then(|xy| xy.checked_mul(z));
            if nodes.is_none_or(|nodes| nodes > MAX_INLINE_TASKS) {
                return Err(format!(
                    "torus {:?} holds more than {MAX_INLINE_TASKS} nodes",
                    (x, y, z)
                ));
            }
        }
        let key = format!(
            "{:016x}\u{1}{spec:?}\u{1}{block_ports}\u{1}{cutoff}\u{1}{strategy}",
            graph.content_hash()
        );
        let slot = self.fabrics.lock().expect("registry poisoned").entry(&key);
        slot.get_or_init(|| {
            if spec == FabricSpec::Hfast {
                self.note_strategy(strategy);
            }
            let config = ProvisionConfig {
                block_ports,
                cutoff,
            };
            // A fat tree's shape error is prefixed with its family on the
            // wire (pinned in tests/properties.rs); a torus's names itself.
            let fabric = spec
                .build(graph, config, strategy)
                .map_err(|e| match spec {
                    FabricSpec::FatTree { .. } => format!("fat tree: {e}"),
                    _ => e.to_string(),
                })?;
            Ok(Arc::new(FabricEntry {
                fabric,
                warm: SharedPathCache::new(),
            }))
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_graphs_bypass_the_registry() {
        let reg = Registry::new();
        let spec = AppSpec::Inline {
            n: 4,
            edges: vec![(0, 1, 4096, 1, 4096)],
        };
        let g = reg.graph(&spec).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge(0, 1).bytes, 4096);
        assert!(reg.graphs.lock().unwrap().entries.is_empty());
    }

    #[test]
    fn named_graphs_are_memoized() {
        let reg = Registry::new();
        let spec = AppSpec::Named {
            name: "Cactus".into(),
            procs: 8,
        };
        let a = reg.graph(&spec).unwrap();
        let b = reg.graph(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request reused the profile");
        assert_eq!(reg.graphs.lock().unwrap().entries.len(), 1);
    }

    #[test]
    fn unknown_app_and_bad_procs_are_errors() {
        let reg = Registry::new();
        let bad_name = AppSpec::Named {
            name: "NotAnApp".into(),
            procs: 8,
        };
        assert!(reg.graph(&bad_name).is_err());
        let bad_procs = AppSpec::Named {
            name: "GTC".into(),
            procs: MAX_PROCS + 1,
        };
        assert!(reg.graph(&bad_procs).is_err());
    }

    #[test]
    fn fabric_entries_are_shared_by_graph_content() {
        let reg = Registry::new();
        let spec = AppSpec::Inline {
            n: 8,
            edges: vec![(0, 1, 4096, 1, 4096), (2, 3, 8192, 2, 4096)],
        };
        let g1 = reg.graph(&spec).unwrap();
        let g2 = reg.graph(&spec).unwrap();
        assert!(!Arc::ptr_eq(&g1, &g2), "inline graphs rebuild");
        let f1 = reg
            .fabric(
                &g1,
                FabricSpec::Torus { dims: (2, 2, 2) },
                16,
                2048,
                Strategy::PaperLinear,
            )
            .unwrap();
        let f2 = reg
            .fabric(
                &g2,
                FabricSpec::Torus { dims: (2, 2, 2) },
                16,
                2048,
                Strategy::PaperLinear,
            )
            .unwrap();
        assert!(
            Arc::ptr_eq(&f1, &f2),
            "same content, same fabric + warm cache"
        );
        assert_eq!(f1.fabric.nodes(), 8);
    }

    #[test]
    fn strategies_get_separate_fabrics_and_are_counted() {
        let reg = Registry::new();
        let g = reg
            .graph(&AppSpec::Inline {
                n: 4,
                edges: vec![(0, 1, 4096, 1, 4096), (2, 3, 8192, 2, 4096)],
            })
            .unwrap();
        let a = reg
            .fabric(&g, FabricSpec::Hfast, 16, 2048, Strategy::PaperLinear)
            .unwrap();
        let b = reg
            .fabric(&g, FabricSpec::Hfast, 16, 2048, Strategy::BffCircuit)
            .unwrap();
        let a2 = reg
            .fabric(&g, FabricSpec::Hfast, 16, 2048, Strategy::PaperLinear)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "strategies provision differently");
        assert!(Arc::ptr_eq(&a, &a2), "same strategy reuses the entry");
        // Memoized rebuilds don't re-count: one execution per strategy.
        assert_eq!(reg.strategy_hits(), [1, 1, 0]);
    }

    #[test]
    fn the_fabric_map_is_capped_and_keeps_what_is_in_use() {
        let reg = Registry::new();
        let g = reg
            .graph(&AppSpec::Inline {
                n: 8,
                edges: vec![(0, 1, 4096, 1, 4096)],
            })
            .unwrap();
        let torus = FabricSpec::Torus { dims: (2, 2, 2) };
        // Each cutoff is a distinct key; cutoff 0 is used throughout.
        let fabric = |cutoff| {
            reg.fabric(&g, torus, 16, cutoff, Strategy::PaperLinear)
                .unwrap()
        };
        let hot = fabric(0);
        let first = fabric(1);
        for cutoff in 2..=(MAX_FABRICS as u64 + 8) {
            fabric(cutoff);
            assert!(Arc::ptr_eq(&hot, &fabric(0)), "the hot key stays resident");
        }
        assert!(reg.entry_counts().1 <= MAX_FABRICS as u64);
        // The evicted entry still serves the caller holding it, and a new
        // request for its key builds afresh.
        assert_eq!(first.fabric.nodes(), 8);
        assert!(!Arc::ptr_eq(&first, &fabric(1)), "the cold key was evicted");
    }

    #[test]
    fn the_graph_map_is_capped_and_keeps_what_is_in_use() {
        let reg = Registry::new();
        let graph = |name: &str, procs| {
            reg.graph(&AppSpec::Named {
                name: name.into(),
                procs,
            })
        };
        let hot = graph("Cactus", 8).unwrap();
        let first = graph("Cactus", 4).unwrap();
        // Unknown names are cheap keys: each memoizes its error.
        for procs in 1..=MAX_GRAPHS + 8 {
            assert!(graph("NotAnApp", procs).is_err());
            let again = graph("Cactus", 8).unwrap();
            assert!(Arc::ptr_eq(&hot, &again), "the hot key stays resident");
        }
        assert!(reg.entry_counts().0 <= MAX_GRAPHS as u64);
        // The evicted graph still serves the caller holding it, and a new
        // request for its key profiles afresh.
        assert_eq!(first.n(), 4);
        let again = graph("Cactus", 4).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "the cold key was evicted");
    }

    /// A torus is wire input: one whose node count passes the bound, or
    /// overflows `usize`, is refused before anything is built for it.
    #[test]
    fn oversized_torus_is_refused_before_it_is_built() {
        let reg = Registry::new();
        let g = reg
            .graph(&AppSpec::Inline {
                n: 8,
                edges: vec![(0, 1, 4096, 1, 4096)],
            })
            .unwrap();
        for (dims, text) in [
            (
                (1024, 1024, 1024),
                "torus (1024, 1024, 1024) holds more than 65536 nodes",
            ),
            (
                (usize::MAX, 2, 1),
                &format!("torus ({}, 2, 1) holds more than 65536 nodes", usize::MAX),
            ),
        ] {
            let spec = FabricSpec::Torus { dims };
            let got = reg.fabric(&g, spec, 16, 2048, Strategy::PaperLinear);
            assert_eq!(got.err().as_deref(), Some(text));
        }
        assert_eq!(reg.entry_counts().1, 0, "no slot was taken");
        let largest = FabricSpec::Torus { dims: (64, 64, 16) };
        assert!(reg
            .fabric(&g, largest, 16, 2048, Strategy::PaperLinear)
            .is_ok());
    }

    #[test]
    fn undersized_torus_is_rejected() {
        let reg = Registry::new();
        let g = reg
            .graph(&AppSpec::Inline {
                n: 9,
                edges: vec![(0, 8, 4096, 1, 4096)],
            })
            .unwrap();
        assert!(reg
            .fabric(
                &g,
                FabricSpec::Torus { dims: (2, 2, 2) },
                16,
                2048,
                Strategy::PaperLinear,
            )
            .is_err());
    }
}
