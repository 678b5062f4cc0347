//! # hfast-apps — the six SC'05 study applications
//!
//! Communication-kernel replicas of the applications profiled in the paper
//! (Table 2): Cactus, LBMHD, GTC, SuperLU, PMEMD, and PARATEC. The paper's
//! analysis consumes only each code's *messaging behaviour* — which ranks
//! exchange messages, of what sizes, through which MPI calls — so each
//! kernel here reproduces that behaviour (the decomposition geometry, the
//! partner structure, the buffer-size distribution, and the call mix of
//! paper Figure 2), calibrated against the published numbers in Table 3 and
//! Figures 2-10.
//!
//! The kernels run on the [`hfast_mpi`] simulated runtime and are profiled
//! through [`hfast_ipm`], exactly as the real codes ran under MPI + IPM on
//! Seaborg.
//!
//! ```
//! use hfast_apps::{Cactus, profile_app};
//!
//! let outcome = profile_app(&Cactus::default(), 64).unwrap();
//! let graph = outcome.steady.comm_graph();
//! let tdc = hfast_topology::tdc(&graph, 2048);
//! assert_eq!(tdc.max, 6); // 3D stencil: six faces
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]

mod cactus;
mod common;
mod gtc;
mod lbmhd;
mod meta;
mod paratec;
mod pmemd;
mod runner;
mod superlu;
mod synthetic;

pub use cactus::Cactus;
pub use gtc::Gtc;
pub use lbmhd::Lbmhd;
pub use meta::{AppMeta, TABLE2};
pub use paratec::Paratec;
pub use pmemd::{Pmemd, HOT_RANK};
pub use runner::{profile_app, profile_app_with, AppOutcome};
pub use superlu::SuperLu;
pub use synthetic::Synthetic;

use hfast_ipm::IpmProfiler;
use hfast_mpi::Comm;

/// A runnable application communication kernel.
pub trait CommKernel: Sync {
    /// Short name as used in the paper's tables and figures.
    fn name(&self) -> &'static str;

    /// Table 2 metadata for the application.
    fn meta(&self) -> AppMeta;

    /// Executes the kernel on one rank. Implementations bracket their
    /// steady-state phase in the profiler's `"steady"` region (and any
    /// initialization in `"init"`), mirroring how the paper separates
    /// SuperLU's setup traffic from its solve phase.
    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> hfast_mpi::Result<()>;
}

/// All six study applications with their calibrated default step counts.
pub fn all_apps() -> Vec<Box<dyn CommKernel>> {
    vec![
        Box::new(Cactus::default()),
        Box::new(Lbmhd::default()),
        Box::new(Gtc::default()),
        Box::new(SuperLu::default()),
        Box::new(Pmemd::default()),
        Box::new(Paratec::default()),
    ]
}

/// The processor counts studied in the paper.
pub const STUDY_SIZES: [usize; 2] = [64, 256];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_six() {
        let apps = all_apps();
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"]
        );
    }
}
