//! # hfast-netsim — discrete-event interconnect simulation
//!
//! The paper argues analytically that HFAST reduces the number of packet
//! switches a worst-case message traverses compared with a deep fat tree
//! (§2.3, §5.3). This crate substantiates the argument with a small
//! discrete-event simulator: messages are replayed over explicit fabric
//! models — fat tree, 3D torus, and an HFAST fabric built from a
//! [`hfast_core::Provisioning`] — with per-link FIFO serialization, and the
//! resulting latency/throughput distributions are compared.
//!
//! Two link models are available. The default ([`CongestionMode::Ideal`])
//! is deliberately simple — virtual cut-through with ideal FIFO links,
//! fixed per-link latency + `bytes / bandwidth` serialization: enough to
//! rank fabrics and expose contention, without modeling virtual channels
//! or flow control. [`CongestionMode::Credit`] (see [`CreditConfig`]) adds
//! credit-based flow control with finite per-link buffers, so saturation
//! backs up into upstream links and congestion *trees* form — the
//! mechanism the scenario generator ([`Scenario`]) stresses. DESIGN.md
//! records both substitutions.
//!
//! Runtime faults are first-class: a seeded [`FaultPlan`] schedules link
//! and node failures (and recoveries) at simulated timestamps, the event
//! loop kills flows on dead paths and re-admits them under a
//! [`RetryPolicy`], and HFAST fabrics additionally repair failed circuits
//! mid-run at synchronization points.
//!
//! ```
//! use hfast_netsim::{FatTreeFabric, Simulation, TorusFabric, traffic};
//! use hfast_topology::generators::ring_graph;
//!
//! let graph = ring_graph(16, 1 << 20);
//! let flows = traffic::flows_from_graph(&graph, 0);
//! let ft = FatTreeFabric::new(16, 8).expect("valid shape");
//! let stats = Simulation::new(&ft).run(&flows).stats;
//! assert_eq!(stats.completed, flows.len());
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod adapt;
mod congestion;
pub mod engine;
mod error;
mod fabric;
mod fattree;
mod faultplan;
mod hfast;
mod obs;
mod queue;
mod scenario;
mod stats;
mod torus;
pub mod traffic;
mod warm;

pub use adapt::{AdaptiveReplay, AdaptiveReplayBuilder, WindowReport};
pub use congestion::{CongestionMode, CreditConfig, DEFAULT_CREDITS};
pub use engine::{FlowRecord, LoopPerf, PathCache, SimOutput, Simulation};
pub use error::NetsimError;
pub use fabric::{Fabric, FabricSpec, LinkId, LinkSpec};
pub use fattree::FatTreeFabric;
pub use faultplan::{
    transit_links, transit_links_from, FaultAction, FaultEvent, FaultPlan, FaultPlanBuilder,
    FaultState, FaultTarget, RetryPolicy,
};
pub use hfast::{AdaptScope, HfastFabric};
pub use obs::EngineObs;
pub use scenario::{tenant_slowdown, Scenario, ScenarioKind, TenantSlowdown};
pub use stats::RunStats;
pub use torus::TorusFabric;
pub use traffic::Flow;
pub use warm::SharedPathCache;
