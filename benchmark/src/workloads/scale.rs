//! `scale_projection`: the "ultra-scale" half of the paper, where
//! `hfast-topology` and `hfast-core` do all the work and `hfast-mpi` none.
//!
//! One op is one (graph, strategy) pipeline: generator →
//! `CsrGraph::from_graph` → `tdc_sweep_csr` (32 cutoffs) → `provision` →
//! `validate` → `reprovision` on a 1 % `GraphDelta` → cost. Torus, mesh,
//! hypercube and complete graphs at P=512 run under every `Strategy`, and
//! one torus at P=2048 under the paper's linear-time provisioner.
//! `CommGraph` is dense (P=2048 ≈ 100 MB), so `peak_rss_mb` here is the
//! number a sparse-graph change would claim.
//!
//! Only one op is ultra-scale because a P=2048 pipeline is a handful of
//! scans of that 100 MB matrix, and on this shared host their speed follows
//! the neighbours' use of the last-level cache: with nine such ops a pass,
//! the same binary's `op_p50_us` moved 48 % and `ops_per_s` 20 % between
//! ten-run sets an hour apart. One keeps them under a tenth of the pass.

use hfast_core::{GraphDelta, ProvisionConfig, Strategy};
use hfast_topology::generators::{
    balanced_dims3, complete_graph, hypercube_graph, mesh3d_graph, torus3d_graph,
};
use hfast_topology::{tdc_sweep_csr, CommGraph, CsrGraph};

use super::grid::{cost_into, fold_sweep, provision_checked, seeded_cutoffs, validate_into};
use super::{PassOutput, Recorder, Rng, Workload};
use crate::spans::Spans;
use crate::stats::Fnv;

const CUTOFFS: usize = 32;
const BAKE_OFF_NODES: usize = 512;
const ULTRA_NODES: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Torus,
    Mesh,
    Hypercube,
    Complete,
}

impl Shape {
    const ALL: [Shape; 4] = [Shape::Torus, Shape::Mesh, Shape::Hypercube, Shape::Complete];

    fn generate(self, n: usize, msg_bytes: u64) -> CommGraph {
        match self {
            Shape::Torus => torus3d_graph(balanced_dims3(n), msg_bytes),
            Shape::Mesh => mesh3d_graph(balanced_dims3(n), msg_bytes),
            Shape::Hypercube => hypercube_graph(n, msg_bytes),
            Shape::Complete => complete_graph(n, msg_bytes),
        }
    }
}

/// One (graph, strategy) pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub shape: Shape,
    pub nodes: usize,
    pub strategy: Strategy,
    pub msg_bytes: u64,
    /// Seeds the 1 % delta drawn once the graph exists.
    pub delta_seed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub ops: Vec<Op>,
    pub cutoffs: Vec<u64>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x7363_616c);
        let mut ops = Vec::new();
        for shape in Shape::ALL {
            // One message size per shape, so the three strategies see the
            // same graph.
            let msg_bytes = (1 << 20) + rng.below(1 << 16);
            for strategy in Strategy::ALL {
                ops.push(Op {
                    shape,
                    nodes: BAKE_OFF_NODES,
                    strategy,
                    msg_bytes,
                    delta_seed: rng.next_u64(),
                });
            }
        }
        ops.push(Op {
            shape: Shape::Torus,
            nodes: ULTRA_NODES,
            strategy: Strategy::PaperLinear,
            msg_bytes: (1 << 20) + rng.below(1 << 16),
            delta_seed: rng.next_u64(),
        });
        rng.shuffle(&mut ops);
        Plan {
            ops,
            cutoffs: seeded_cutoffs(&mut rng, CUTOFFS),
        }
    }

    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for op in &self.ops {
            out.push(op.shape as u8);
            out.extend_from_slice(&(op.nodes as u64).to_le_bytes());
            out.extend_from_slice(op.strategy.as_str().as_bytes());
            out.extend_from_slice(&op.msg_bytes.to_le_bytes());
            out.extend_from_slice(&op.delta_seed.to_le_bytes());
        }
        for c in &self.cutoffs {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }
}

/// Adds traffic on 1 % as many pairs as the graph has edges — random
/// pairs, so on the sparse shapes most are new circuits — and notes each
/// in the delta.
fn grow_by_one_percent(graph: &mut CommGraph, edges: usize, op: &Op) -> GraphDelta {
    let mut rng = Rng::new(op.delta_seed);
    let n = graph.n() as u64;
    let mut delta = GraphDelta::new();
    for _ in 0..(edges / 100).max(1) {
        let a = rng.below(n) as usize;
        let b = rng.below(n) as usize;
        if a != b {
            graph.add_message(a, b, op.msg_bytes);
            delta.note(a, b, *graph.edge(a, b));
        }
    }
    delta
}

pub struct ScaleProjection {
    plan: Plan,
}

impl ScaleProjection {
    /// Builds the op list and runs the complete-512 and the P=2048
    /// pipeline under `PaperLinear`, untimed, so the allocator has mapped
    /// and released a full-size graph before the first pass.
    pub fn setup(seed: u64) -> ScaleProjection {
        let scale = ScaleProjection {
            plan: Plan::new(seed),
        };
        let mut sp = Spans::new(false);
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        for (shape, nodes) in [
            (Shape::Complete, BAKE_OFF_NODES),
            (Shape::Torus, ULTRA_NODES),
        ] {
            let op = scale
                .plan
                .ops
                .iter()
                .find(|o| (o.shape, o.nodes, o.strategy) == (shape, nodes, Strategy::PaperLinear))
                .expect("the plan holds both");
            scale.op(&mut sp, op, &mut out, &mut h);
        }
        std::hint::black_box((out, h));
        scale
    }

    fn op(&self, sp: &mut Spans, op: &Op, out: &mut PassOutput, h: &mut Fnv) {
        out.ops += 1;
        let config = ProvisionConfig::default();
        let mut graph = sp.time("topology.graph_ms", || {
            op.shape.generate(op.nodes, op.msg_bytes)
        });
        let csr = sp.time("topology.csr_ms", || {
            CsrGraph::from_graph(&graph, config.cutoff)
        });
        let edges = csr.nnz() / 2;
        out.count("topology.edges", edges as u64);
        let rows = sp.time("topology.sweep_ms", || {
            tdc_sweep_csr(&csr, &self.plan.cutoffs)
        });
        fold_sweep(h, &rows);
        let mut failed = false;
        let prov = provision_checked(sp, op.strategy, &graph, config, h, &mut failed);
        let delta = sp.time("topology.graph_ms", || {
            grow_by_one_percent(&mut graph, edges, op)
        });
        let provisioner = op.strategy.provisioner();
        let grown = sp.time("core.reprovision_ms", || {
            provisioner.reprovision(prov, &graph, &delta)
        });
        h.u64(grown.edges_touched as u64);
        validate_into(sp, &grown.provisioning, &graph, h, &mut failed);
        out.count("core.blocks", grown.provisioning.total_blocks() as u64);
        cost_into(sp, &grown.provisioning, h);
        out.failed += u64::from(failed);
    }
}

impl Workload for ScaleProjection {
    fn op_list_bytes(&self) -> Vec<u8> {
        self.plan.bytes()
    }

    fn pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        for op in &self.plan.ops {
            rec.call(|sp| self.op(sp, op, &mut out, &mut h));
        }
        out.digest = h.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_crosses_every_shape_with_every_strategy() {
        let plan = Plan::new(5);
        assert_eq!(plan.ops.len(), 13);
        let ultra: Vec<&Op> = plan.ops.iter().filter(|o| o.nodes == ULTRA_NODES).collect();
        assert_eq!(ultra.len(), 1);
        assert_eq!(ultra[0].strategy, Strategy::PaperLinear);
        for shape in Shape::ALL {
            let sizes: Vec<u64> = plan
                .ops
                .iter()
                .filter(|o| o.shape == shape && o.nodes == BAKE_OFF_NODES)
                .map(|o| o.msg_bytes)
                .collect();
            assert_eq!(sizes.len(), 3);
            assert!(
                sizes.windows(2).all(|w| w[0] == w[1]),
                "one graph per shape"
            );
        }
        assert_eq!(plan.cutoffs.len(), CUTOFFS);
    }

    #[test]
    fn the_delta_is_one_percent_and_noted_post_change() {
        let op = Op {
            shape: Shape::Torus,
            nodes: 64,
            strategy: Strategy::PaperLinear,
            msg_bytes: 4096,
            delta_seed: 9,
        };
        let mut g = torus3d_graph((4, 4, 4), 4096);
        let edges = g.edge_count();
        let before = g.clone();
        let delta = grow_by_one_percent(&mut g, edges, &op);
        assert_eq!(edges / 100, 1);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta, GraphDelta::diff(&before, &g));
    }
}
