//! SuperLU — sparse LU factorization on a 2D process grid (paper Figure 8).
//!
//! SuperLU-DIST arranges ranks in a √P × √P grid; panel factorization sends
//! L/U blocks along process rows and columns (the partners that matter at
//! the bandwidth-delay cutoff: `2(√P − 1)` of them, so the thresholded TDC
//! scales with √P), while pivot/symbolic bookkeeping trickles tiny blocking
//! messages to *every* rank over the course of the solve (unthresholded
//! connectivity = P). Initialization redistributes the input matrix from
//! rank 0 — traffic the paper explicitly excludes via IPM regions.
//!
//! Calibration targets:
//! * TDC @ 2 KB = (14, 14) at P = 64 and (30, 30) at P = 256 — `2(√P−1)`.
//! * Unthresholded connectivity ≈ P.
//! * Call mix ≈ Wait 30.6 %, Isend 16.4 %, Irecv 15.7 %, Recv 15.4 %,
//!   Send 14.7 %, Bcast 5.3 %.
//! * Median PTP buffer 64 B (P=64) / 48 B (P=256); median collective 24 B.

use hfast_ipm::IpmProfiler;
use hfast_mpi::{Comm, Group, Payload, Result, SrcSel, Tag, TagSel};

use crate::common::{grid2d, tags};
use crate::meta::{lookup, AppMeta};
use crate::CommKernel;

/// L/U block sizes cycled through panel updates (all above the cutoff).
pub(crate) const BLOCK_BYTES: [usize; 4] = [4 << 10, 8 << 10, 16 << 10, 32 << 10];
/// Row/column broadcast payload (Table 3: 24 B median collective buffer).
pub(crate) const BCAST_BYTES: usize = 24;
/// Matrix redistribution chunk during initialization.
pub(crate) const INIT_BYTES: usize = 1 << 20;

/// The SuperLU communication kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuperLu {
    /// Panel steps; `None` runs `P − 1` steps so the pivot bookkeeping
    /// touches every rank pair (the unthresholded connectivity-of-P
    /// behaviour the paper reports).
    pub steps: Option<usize>,
}

impl SuperLu {
    /// Tiny bookkeeping message size (Table 3 medians: 64 B / 48 B).
    pub(crate) fn tiny_bytes(procs: usize) -> usize {
        if procs >= 256 {
            48
        } else {
            64
        }
    }
}

impl CommKernel for SuperLu {
    fn name(&self) -> &'static str {
        "SuperLU"
    }

    fn meta(&self) -> AppMeta {
        lookup("SuperLU").expect("SuperLU is in Table 2")
    }

    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> Result<()> {
        let p = comm.size();
        let rank = comm.rank();
        let (rows, cols) = grid2d(p);
        let (row, col) = (rank / cols, rank % cols);
        let steps = self.steps.unwrap_or(p.saturating_sub(1)).max(1);
        let tiny = Self::tiny_bytes(p);
        let row_group = Group::new((0..cols).map(|c| row * cols + c).collect())?;
        let row_root = row * cols;

        // Initialization: rank 0 redistributes the input matrix — the
        // traffic the paper's steady-state analysis excludes (§3.2).
        profiler.enter_region(rank, "init");
        for _ in 0..2 {
            let payload = (rank == 0).then(|| Payload::synthetic(INIT_BYTES));
            comm.bcast(0, payload)?;
        }
        profiler.exit_region(rank);

        profiler.enter_region(rank, "steady");
        for s in 0..steps {
            // Panel block transfer: shift along the row on even steps,
            // along the column on odd steps (covers all 2(√P−1) partners).
            let bytes = BLOCK_BYTES[s % BLOCK_BYTES.len()];
            let (to, from) = if s % 2 == 0 && cols > 1 {
                let off = 1 + (s / 2) % (cols - 1);
                (
                    row * cols + (col + off) % cols,
                    row * cols + (col + cols - off) % cols,
                )
            } else if rows > 1 {
                let off = 1 + (s / 2) % (rows - 1);
                (
                    ((row + off) % rows) * cols + col,
                    ((row + rows - off) % rows) * cols + col,
                )
            } else {
                let off = 1 + (s / 2) % (cols.max(2) - 1);
                (
                    row * cols + (col + off) % cols,
                    row * cols + (col + cols - off) % cols,
                )
            };
            let rreq = comm.irecv(SrcSel::Rank(from), TagSel::Tag(tags::BLOCK), bytes)?;
            let sreq = comm.isend(to, tags::BLOCK, Payload::synthetic(bytes))?;
            comm.wait(rreq)?;
            comm.wait(sreq)?;

            // Pivot bookkeeping: one tiny blocking exchange per step with a
            // rotating partner — over P−1 steps this touches every rank.
            let off = 1 + s % (p - 1).max(1);
            let to_tiny = (rank + off) % p;
            let from_tiny = (rank + p - off) % p;
            comm.send(
                to_tiny,
                Tag(tags::CONTROL.0 + (s % 7) as u32),
                Payload::synthetic(tiny),
            )?;
            comm.recv(from_tiny, Tag(tags::CONTROL.0 + (s % 7) as u32))?;

            // Panel description broadcast along the process row.
            if s % 3 == 0 {
                let payload = (rank == row_root).then(|| Payload::synthetic(BCAST_BYTES));
                comm.bcast_in(&row_group, row_root, payload)?;
            }
            // Pivot-growth barrier every fourth step.
            if s % 4 == 3 {
                comm.barrier()?;
            }
        }
        profiler.exit_region(rank);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::profile_app;
    use hfast_mpi::CallKind;
    use hfast_topology::{tdc, BDP_CUTOFF};

    #[test]
    fn thresholded_tdc_is_row_plus_col() {
        let out = profile_app(&SuperLu::default(), 64).unwrap();
        let g = out.steady.comm_graph();
        let cut = tdc(&g, BDP_CUTOFF);
        assert_eq!((cut.max, cut.min), (14, 14), "2(√64 − 1) = 14");
        assert!((cut.avg - 14.0).abs() < 1e-9);
    }

    #[test]
    fn unthresholded_connectivity_is_full() {
        let out = profile_app(&SuperLu::default(), 64).unwrap();
        let g = out.steady.comm_graph();
        let uncut = tdc(&g, 0);
        assert_eq!(uncut.max, 63, "tiny pivot traffic touches every pair");
        assert_eq!(uncut.min, 63);
    }

    #[test]
    fn tdc_scales_with_sqrt_p() {
        // 16 ranks: 2(√16 − 1) = 6.
        let out = profile_app(&SuperLu::default(), 16).unwrap();
        let g = out.steady.comm_graph();
        assert_eq!(tdc(&g, BDP_CUTOFF).max, 6);
    }

    #[test]
    fn call_mix_matches_figure2() {
        let out = profile_app(&SuperLu::default(), 64).unwrap();
        let mix: std::collections::BTreeMap<_, _> = out.steady.call_mix().into_iter().collect();
        // Paper: Wait 30.6, Isend 16.4, Irecv 15.7, Recv 15.4, Send 14.7,
        // Bcast 5.3 (+ Other 1.9, here the barrier slice).
        assert!((mix[&CallKind::Wait] - 30.6).abs() < 2.0, "{mix:?}");
        assert!((mix[&CallKind::Isend] - 16.4).abs() < 2.0);
        assert!((mix[&CallKind::Irecv] - 15.7).abs() < 2.0);
        assert!((mix[&CallKind::Send] - 14.7).abs() < 2.0);
        assert!((mix[&CallKind::Recv] - 15.4).abs() < 2.0);
        assert!((mix[&CallKind::Bcast] - 5.3).abs() < 1.5);
    }

    #[test]
    fn medians_match_table3() {
        let out = profile_app(&SuperLu::default(), 64).unwrap();
        assert_eq!(out.steady.ptp_buffer_histogram().median(), Some(64));
        assert_eq!(out.steady.collective_buffer_histogram().median(), Some(24));
        assert_eq!(SuperLu::tiny_bytes(256), 48);
    }

    #[test]
    fn init_traffic_is_excluded_from_steady_state() {
        let out = profile_app(&SuperLu { steps: Some(4) }, 16).unwrap();
        let steady_max = out.steady.ptp_buffer_histogram().max().unwrap_or(0);
        assert!(steady_max < INIT_BYTES as u64);
        // The merged profile sees the 1 MB redistribution.
        let merged_col_max = out.merged.collective_buffer_histogram().max().unwrap();
        assert_eq!(merged_col_max, INIT_BYTES as u64);
    }
}
