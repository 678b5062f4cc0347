//! The paper's comparison cell (§5, §5.3): one application profiled at P
//! ranks, its steady-state communication graph, the traffic replayed from
//! that graph, and the three fabrics the traffic is put on.
//!
//! Every experiment that replays application traffic builds it here, so
//! the traffic model ([`traffic::flows_from_graph`]: one mean-size flow
//! each way along every edge whose largest message reaches the 2 KB
//! cutoff) and the fabric shapes (an 8-port fat tree, the balanced 3D
//! torus, `PaperLinear` HFAST) are decided once.

use hfast_apps::{profile_app, CommKernel};
use hfast_core::{ProvisionConfig, Strategy};
use hfast_netsim::{traffic, Fabric, FabricSpec, Flow, HfastFabric};
use hfast_topology::generators::balanced_dims3;
use hfast_topology::{CommGraph, BDP_CUTOFF};

/// Ranks every replay experiment profiles an application at.
pub const PROCS: usize = 64;

/// The paper's fat tree (§5.3): 8-port switches, sized to the cell.
pub(crate) const FAT_TREE: FabricSpec = FabricSpec::FatTree { ports: 8 };

/// One application's traffic at one scale.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application name.
    pub name: &'static str,
    /// The steady-state communication graph.
    pub graph: CommGraph,
    /// The graph's edges above the 2 KB cutoff, as replayable flows.
    pub flows: Vec<Flow>,
}

/// Profiles `app` at `procs` ranks and takes its steady-state traffic.
pub fn cell(app: &dyn CommKernel, procs: usize) -> Cell {
    let outcome = profile_app(app, procs).unwrap_or_else(|e| {
        panic!("{} at P={procs} failed: {e}", app.name());
    });
    Cell::new(app.name(), outcome.steady.comm_graph())
}

/// `spec` built for `graph`, HFAST provisioned by `PaperLinear` under
/// the default config.
pub(crate) fn fabric(spec: FabricSpec, graph: &CommGraph) -> Box<dyn Fabric + Send> {
    spec.build(graph, ProvisionConfig::default(), Strategy::PaperLinear)
        .unwrap_or_else(|e| panic!("{spec:?}: {e}"))
}

impl Cell {
    /// The cell of an already measured graph.
    pub(crate) fn new(name: &'static str, graph: CommGraph) -> Cell {
        let flows = traffic::flows_from_graph(&graph, BDP_CUTOFF);
        Cell { name, graph, flows }
    }

    /// The paper's three fabrics in the order the tables print them: the
    /// 8-port fat tree, the balanced 3D torus and `PaperLinear` HFAST.
    pub fn fabrics(&self) -> [Box<dyn Fabric + Send>; 3] {
        let torus = FabricSpec::Torus {
            dims: balanced_dims3(self.graph.n()),
        };
        [FAT_TREE, torus, FabricSpec::Hfast].map(|spec| fabric(spec, &self.graph))
    }

    /// The 8-port fat tree.
    pub(crate) fn fat_tree(&self) -> Box<dyn Fabric + Send> {
        fabric(FAT_TREE, &self.graph)
    }

    /// HFAST provisioned by `strategy`, concrete so that callers can ask
    /// for [`HfastFabric::link_class`] and the provisioning.
    pub fn hfast(&self, strategy: Strategy) -> HfastFabric {
        HfastFabric::provisioned(&self.graph, ProvisionConfig::default(), strategy)
    }
}
