//! # hfast-core — the Hybrid Flexibly Assignable Switch Topology
//!
//! The paper's primary contribution (Shalf, Kamil, Oliker, Skinner, SC|05):
//! an interconnect that places a passive circuit-switch crossbar between
//! compute nodes and a pool of commodity packet-switch blocks, provisioning
//! blocks to match each application's *measured* communication topology
//! instead of paying for a fully connected network.
//!
//! * [`bdp`] — bandwidth-delay products and the 2 KB circuit-worthiness
//!   threshold (Table 1).
//! * [`switch`] — the circuit-switch crossbar and packet-switch block
//!   component models.
//! * [`provision`] — the §5.3 linear-time block-assignment algorithm and the
//!   resulting routed fabric.
//! * [`clique`] — the clique-aware clustering heuristic the paper proposes
//!   as future work, which shares blocks inside tightly coupled node groups.
//! * [`icn`] — the bounded-degree Interconnection Cached Network the paper
//!   compares against (embeds case-ii codes, overflows on case iii).
//! * [`anneal`] — iterative embedding refinement (§6's adaptive
//!   optimization direction).
//! * [`smp`] — SMP-node bandwidth localization (§5's deferred analysis).
//! * [`cost`] — fat-tree versus HFAST cost models and comparisons.
//! * [`classify`](mod@classify) — the §2.5 case i-iv application taxonomy.
//! * [`reconfig`] — the outcome of one crossbar reconfiguration.
//! * [`fault`] — node-failure impact, mesh/torus versus HFAST.
//!
//! ```
//! use hfast_core::{CostModel, PaperLinear, ProvisionConfig, Provisioner};
//! use hfast_core::cost::AnalyticHfast;
//! use hfast_topology::generators::mesh3d_graph;
//!
//! // A Cactus-like stencil topology at P = 512.
//! let graph = mesh3d_graph((8, 8, 8), 300 << 10);
//! let prov = PaperLinear.provision(&graph, ProvisionConfig::default());
//! assert_eq!(prov.total_blocks(), 512); // one 16-port block per node
//!
//! // At ultra scale, HFAST's linear packet-port cost undercuts the fat tree.
//! let config = ProvisionConfig { block_ports: 8, cutoff: 2048 };
//! let crossover = AnalyticHfast::crossover_p(6, config, &CostModel::default());
//! assert!(crossover.is_some());
//! ```

#![warn(missing_docs)]

pub mod anneal;
pub mod bdp;
pub mod classify;
pub mod clique;
pub mod cost;
pub mod fault;
pub mod icn;
pub mod provision;
pub mod provisioner;
pub mod reconfig;
pub mod smp;
pub mod switch;
#[cfg(test)]
mod switch_oracle;

pub use anneal::{optimize_clusters, AnnealOutcome};
pub use bdp::{InterconnectSpec, TABLE1_SYSTEMS, TARGET_BDP_BYTES};
pub use classify::{classify, CaseClass, Classification, ClassifyConfig};
pub use clique::cluster_nodes;
pub use cost::{hfast_cost, AnalyticHfast, CostComparison, CostModel, FatTree};
pub use fault::{hfast_fault_impact, remove_nodes, seeded_failures, torus_fault_impact};
pub use icn::{embed as icn_embed, IcnConfig, IcnEmbedding, IcnError};
pub use provision::{ProvisionConfig, Provisioning, Route, Walk};
pub use provisioner::{
    BffCircuit, Clustered, DemandDecomp, GraphDelta, PaperLinear, Provisioner, ReprovisionOutcome,
    Strategy,
};
pub use reconfig::ReconfigStep;
pub use smp::{localize, SmpAssignment};
pub use switch::{CircuitSwitch, Endpoint, SwitchBlock, SwitchError};
