//! `paper_grid`: the paper's own pipeline over the twelve Table-3 cells.
//!
//! One op is one cell — an application at P ranks — taken through
//! `profile` → `comm_graph` → `tdc_sweep` (16 cutoffs) →
//! `PaperLinear.provision` → `validate` → `CostComparison`. Almost all of
//! it is P OS threads exchanging messages under the IPM hook, so the
//! runtime and profiler layers show here and the analysis layers must not.

use std::sync::Arc;
use std::time::Duration;

use hfast_apps::{all_apps, profile_app_with, CommKernel, STUDY_SIZES};
use hfast_core::{CostComparison, CostModel, ProvisionConfig, Provisioning, Strategy};
use hfast_ipm::{CommProfile, IpmProfiler};
use hfast_mpi::{CommHook, World, WorldConfig};
use hfast_topology::{tdc_sweep, CommGraph, TdcSummary};

use super::{wall_ms, PassOutput, Probes, Recorder, Rng, Workload};
use crate::spans::Spans;
use crate::stats::Fnv;

/// Cutoffs per sweep.
const CUTOFFS: usize = 16;

fn world_config(procs: usize) -> WorldConfig {
    WorldConfig::new(procs).timeout(Duration::from_secs(60))
}

/// The seed-determined op list: cell order and the sweep's cutoffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `(index into all_apps(), procs)`, in run order.
    pub cells: Vec<(usize, usize)>,
    pub cutoffs: Vec<u64>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x6772_6964);
        let mut cells: Vec<(usize, usize)> = STUDY_SIZES
            .iter()
            .flat_map(|&p| (0..6).map(move |a| (a, p)))
            .collect();
        rng.shuffle(&mut cells);
        Plan {
            cells,
            cutoffs: seeded_cutoffs(&mut rng, CUTOFFS),
        }
    }

    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &(a, p) in &self.cells {
            out.extend_from_slice(&(a as u64).to_le_bytes());
            out.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for c in &self.cutoffs {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }
}

/// `n` distinct cutoffs, log-uniform between 64 B and 1 MiB, ascending.
pub fn seeded_cutoffs(rng: &mut Rng, n: usize) -> Vec<u64> {
    let mut cutoffs = std::collections::BTreeSet::new();
    while cutoffs.len() < n {
        let octave = rng.range(6, 20);
        cutoffs.insert((1u64 << octave) + rng.below(1 << octave));
    }
    cutoffs.into_iter().collect()
}

pub fn fold_sweep(h: &mut Fnv, rows: &[(u64, TdcSummary)]) {
    for (cutoff, s) in rows {
        h.u64(*cutoff);
        h.u64(s.max as u64);
        h.u64(s.min as u64);
        h.u64(s.avg.to_bits());
        h.u64(s.median as u64);
    }
}

fn provision_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::PaperLinear => "core.provision_ms.paper_linear",
        Strategy::BffCircuit => "core.provision_ms.bff_circuit",
        Strategy::DemandDecomp => "core.provision_ms.demand_decomp",
    }
}

/// `provision` → `validate`, folded into the digest; an invalid
/// provisioning marks the op failed. Shared with `scale_projection`.
pub fn provision_checked(
    sp: &mut Spans,
    strategy: Strategy,
    graph: &CommGraph,
    config: ProvisionConfig,
    h: &mut Fnv,
    failed: &mut bool,
) -> Provisioning {
    let provisioner = strategy.provisioner();
    let prov = sp.time(provision_span(strategy), || {
        provisioner.provision(graph, config)
    });
    validate_into(sp, &prov, graph, h, failed);
    prov
}

pub fn validate_into(
    sp: &mut Spans,
    prov: &Provisioning,
    graph: &CommGraph,
    h: &mut Fnv,
    failed: &mut bool,
) {
    if sp
        .time("core.validate_ms", || prov.validate(graph))
        .is_err()
    {
        *failed = true;
    }
    h.u64(prov.digest());
}

pub fn cost_into(sp: &mut Spans, prov: &Provisioning, h: &mut Fnv) {
    let cost = sp.time("core.cost_us", || {
        CostComparison::of(prov, &CostModel::default())
    });
    h.u64(cost.hfast.to_bits());
    h.u64(cost.fat_tree.to_bits());
}

/// What `profile_app_with` does, opened up so the traced pass can put a
/// span around the profile reduction. The digest check proves the two
/// agree.
fn profile_replica(sp: &mut Spans, app: &dyn CommKernel, procs: usize) -> Option<CommProfile> {
    let profiler = Arc::new(IpmProfiler::new(procs));
    let hook = Arc::clone(&profiler) as Arc<dyn CommHook>;
    let ran = World::run_with(world_config(procs).hook(hook), |comm| {
        app.run(comm, &profiler)
    });
    let all_ok = ran.is_ok_and(|ranks| ranks.iter().all(Result::is_ok));
    all_ok.then(|| {
        sp.time("ipm.reduce_ms", || {
            std::hint::black_box(profiler.profile());
            profiler.region_profile("steady")
        })
    })
}

pub struct PaperGrid {
    plan: Plan,
    apps: Vec<Box<dyn CommKernel>>,
}

impl PaperGrid {
    /// Builds the op list and runs the six P=64 cells once, untimed, so
    /// thread stacks and allocator arenas are warm before the first pass.
    pub fn setup(seed: u64) -> PaperGrid {
        let grid = PaperGrid {
            plan: Plan::new(seed),
            apps: all_apps(),
        };
        let mut sp = Spans::new(false);
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        for app in 0..grid.apps.len() {
            grid.cell(&mut sp, (app, STUDY_SIZES[0]), &mut out, &mut h);
        }
        std::hint::black_box((out, h));
        grid
    }

    fn cell(
        &self,
        sp: &mut Spans,
        (app, procs): (usize, usize),
        out: &mut PassOutput,
        h: &mut Fnv,
    ) {
        let app = self.apps[app].as_ref();
        out.ops += 1;
        let open = sp.enter("apps.profile_ms");
        let steady = if sp.is_on() {
            profile_replica(sp, app, procs)
        } else {
            profile_app_with(app, procs, world_config(procs))
                .ok()
                .map(|o| o.steady)
        };
        sp.exit(open);
        let Some(steady) = steady else {
            out.failed += 1;
            return;
        };
        out.count("ipm.calls", steady.total_calls());
        let graph = sp.time("topology.graph_ms", || steady.comm_graph());
        out.count("topology.edges", graph.edge_count() as u64);
        h.u64(graph.content_hash());
        let rows = sp.time("topology.sweep_ms", || {
            tdc_sweep(&graph, &self.plan.cutoffs)
        });
        fold_sweep(h, &rows);
        let mut failed = false;
        let prov = provision_checked(
            sp,
            Strategy::PaperLinear,
            &graph,
            ProvisionConfig::default(),
            h,
            &mut failed,
        );
        out.count("core.blocks", prov.total_blocks() as u64);
        cost_into(sp, &prov, h);
        out.failed += u64::from(failed);
    }
}

impl Workload for PaperGrid {
    fn op_list_bytes(&self) -> Vec<u8> {
        self.plan.bytes()
    }

    fn pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        for &cell in &self.plan.cells {
            rec.call(|sp| self.cell(sp, cell, &mut out, &mut h));
        }
        out.digest = h.0;
        out
    }

    fn probes(&mut self, spans: &Probes, out: &mut Probes) {
        // Thread spawn/join alone, and the kernels with no hook installed,
        // over the whole grid: profiled − bare is what the IPM hook costs.
        let spawn = wall_ms(|| {
            for &(_, procs) in &self.plan.cells {
                World::run(procs, |_| ()).expect("empty world");
            }
        });
        out.insert("mpi.spawn_ms", spawn);
        let bare = wall_ms(|| {
            for &(app, procs) in &self.plan.cells {
                let idle = IpmProfiler::new(procs);
                World::run_with(world_config(procs), |comm| self.apps[app].run(comm, &idle))
                    .expect("bare kernel run");
            }
        });
        out.insert("mpi.bare_ms", bare);
        out.insert(
            "ipm.hook_ms",
            spans.get("apps.profile_ms").copied().unwrap_or(0.0) - bare,
        );

        // ROADMAP 1(d): do two cells at once beat one after the other?
        // Measured on the P=64 cells to keep the probe short.
        let run = |app: usize| {
            let app = self.apps[app].as_ref();
            let procs = STUDY_SIZES[0];
            std::hint::black_box(profile_app_with(app, procs, world_config(procs)).ok());
        };
        let cells: Vec<usize> = (0..self.apps.len()).collect();
        let sequential = wall_ms(|| cells.iter().copied().for_each(run));
        let parallel = wall_ms(|| {
            hfast_par::par_map(cells.clone(), run);
        });
        out.insert("par.grid_speedup", sequential / parallel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_the_twelve_cells_once() {
        let plan = Plan::new(3);
        let mut cells = plan.cells.clone();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 12);
        assert_eq!(plan.cutoffs.len(), CUTOFFS);
        assert!(plan.cutoffs.windows(2).all(|w| w[0] < w[1]));
        assert!(plan.cutoffs.iter().all(|c| (64..2 << 20).contains(c)));
    }
}
