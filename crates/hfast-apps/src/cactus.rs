//! Cactus — 3D finite-difference ghost-zone exchange (paper Figure 6).
//!
//! Cactus solves Einstein's equations by finite differencing on a regular
//! 3D grid, block-decomposed over ranks. Each rank exchanges ~300 KB ghost
//! faces with up to six axis neighbours per iteration through nonblocking
//! sends/receives, plus a tiny global reduction every few iterations.
//!
//! Calibration targets (paper Table 3 / Figures 2, 6):
//! * TDC (max, avg) ≈ (6, 5) at both P = 64 and 256, insensitive to the
//!   message-size cutoff.
//! * Call mix ≈ Irecv 26.8 %, Isend 26.8 %, Wait 39.3 %, Waitall 6.5 %.
//! * Median PTP buffer ≈ 300 KB; collectives ≈ 0.5 % of calls at 8 bytes.

use hfast_ipm::IpmProfiler;
use hfast_mpi::{Comm, Payload, ReduceOp, Result};
use hfast_topology::generators::{balanced_dims3, mesh3d_neighbors};

use crate::common::{halo_exchange, tags};
use crate::meta::{lookup, AppMeta};
use crate::CommKernel;

/// Ghost-face size: Table 3 reports 299-300 KB medians.
pub(crate) const FACE_BYTES: usize = 300 << 10;

/// The Cactus communication kernel.
#[derive(Debug, Clone, Copy)]
pub struct Cactus {
    /// Evolution iterations to run.
    pub steps: usize,
}

impl Cactus {
    /// Kernel with an explicit iteration count.
    pub fn new(steps: usize) -> Self {
        Cactus { steps }
    }

    /// Axis neighbours of `rank` in the non-periodic 3D block decomposition.
    pub fn partners(procs: usize, rank: usize) -> Vec<usize> {
        mesh3d_neighbors(balanced_dims3(procs), rank)
    }
}

impl Default for Cactus {
    /// 16 iterations: two full 8-step reduction cycles.
    fn default() -> Self {
        Cactus::new(16)
    }
}

impl CommKernel for Cactus {
    fn name(&self) -> &'static str {
        "Cactus"
    }

    fn meta(&self) -> AppMeta {
        lookup("Cactus").expect("Cactus is in Table 2")
    }

    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> Result<()> {
        let partners = Self::partners(comm.size(), comm.rank());
        profiler.enter_region(comm.rank(), "steady");
        for step in 0..self.steps {
            // Ghost exchange: wait each receive and half the sends
            // individually, sweep the rest with one waitall — this is what
            // produces Cactus's measured Wait/Waitall split.
            halo_exchange(comm, &partners, FACE_BYTES, tags::HALO, partners.len() / 2)?;
            // Constraint-norm reduction every 8 iterations (tiny payload).
            if step % 8 == 0 {
                comm.allreduce(Payload::synthetic(8), ReduceOp::Max)?;
            }
        }
        profiler.exit_region(comm.rank());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::profile_app;
    use hfast_mpi::CallKind;
    use hfast_topology::{detect_structure, tdc, StructureClass, BDP_CUTOFF};

    #[test]
    fn tdc_matches_paper() {
        let out = profile_app(&Cactus::default(), 64).unwrap();
        let g = out.steady.comm_graph();
        let uncut = tdc(&g, 0);
        assert_eq!(uncut.max, 6);
        assert!(
            (uncut.avg - 4.5).abs() < 0.01,
            "4x4x4 mesh avg: {}",
            uncut.avg
        );
        // Insensitive to thresholding (all faces ≫ 2 KB).
        let cut = tdc(&g, BDP_CUTOFF);
        assert_eq!(cut.max, uncut.max);
        assert_eq!(cut.avg, uncut.avg);
    }

    #[test]
    fn topology_is_a_mesh() {
        let out = profile_app(&Cactus::new(2), 64).unwrap();
        let g = out.steady.comm_graph();
        assert_eq!(
            detect_structure(&g, BDP_CUTOFF),
            StructureClass::Mesh3D(4, 4, 4)
        );
    }

    #[test]
    fn call_mix_matches_figure2() {
        let out = profile_app(&Cactus::default(), 64).unwrap();
        let mix: std::collections::BTreeMap<_, _> = out.steady.call_mix().into_iter().collect();
        // Paper: Irecv 26.8, Isend 26.8, Wait 39.3, Waitall 6.5, Other 0.6.
        assert!((mix[&CallKind::Irecv] - 26.8).abs() < 2.0, "{mix:?}");
        assert!((mix[&CallKind::Isend] - 26.8).abs() < 2.0);
        assert!((mix[&CallKind::Wait] - 39.3).abs() < 3.0);
        assert!((mix[&CallKind::Waitall] - 6.5).abs() < 2.5);
        assert!(out.steady.ptp_call_fraction() > 0.99);
    }

    #[test]
    fn buffers_match_table3() {
        let out = profile_app(&Cactus::new(8), 64).unwrap();
        let ptp = out.steady.ptp_buffer_histogram();
        assert_eq!(ptp.median(), Some(FACE_BYTES as u64));
        let col = out.steady.collective_buffer_histogram();
        assert_eq!(col.median(), Some(8));
    }

    #[test]
    fn non_power_of_two_sizes_run() {
        let out = profile_app(&Cactus::new(2), 27).unwrap();
        let g = out.steady.comm_graph();
        assert_eq!(tdc(&g, 0).max, 6, "3x3x3 interior nodes have 6 partners");
    }
}
