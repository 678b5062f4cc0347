//! GTC — gyrokinetic toroidal particle-in-cell (paper Figure 5).
//!
//! GTC uses a one-dimensional domain decomposition across the toroidal
//! grid: each rank exchanges ~128 KB particle buffers with its two toroidal
//! neighbours via `MPI_Sendrecv`, plus a particle decomposition *within*
//! each toroidal plane that is served by gathers (GTC is the paper's most
//! collective-heavy code: ≈47 % `MPI_Gather`). At P = 256 (64 planes × 4
//! particle domains), the per-plane leader ranks additionally coordinate
//! with nearby planes' leaders, which drives the maximum TDC far above the
//! average — the paper's case-iii archetype.
//!
//! Calibration targets:
//! * P = 64: TDC (2, 2) — a pure ring.
//! * P = 256: TDC 17 max unthresholded → 10 max at the 2 KB cutoff, 4 avg.
//! * Call mix ≈ Gather 47.4 %, Sendrecv 40.8 %, Allreduce 10.9 %.
//! * Median PTP buffer 128 KB; median collective buffer 100 bytes.

use hfast_ipm::IpmProfiler;
use hfast_mpi::{Comm, Group, Payload, ReduceOp, Result, Tag};

use crate::common::tags;
use crate::meta::{lookup, AppMeta};
use crate::CommKernel;

/// Toroidal particle-shift buffer (Table 3: 128 KB median).
pub(crate) const SHIFT_BYTES: usize = 128 << 10;
/// Charge-deposition gather contribution per rank.
pub(crate) const GATHER_BYTES: usize = 100;
/// Full-grid deposition gather issued on every third step — the minority of
/// collective calls above the 2 KB threshold that gives Figure 3 its tail.
pub(crate) const GRID_GATHER_BYTES: usize = 4096;
/// Leader-to-leader coordination payload (above the 2 KB cutoff).
pub(crate) const LEADER_BYTES: usize = 4096;
/// Leader-to-leader bookkeeping payload (below the cutoff).
pub(crate) const LEADER_SMALL_BYTES: usize = 512;
/// Maximum toroidal planes (GTC production runs use 64 planes).
pub(crate) const MAX_PLANES: usize = 64;

/// The GTC communication kernel.
#[derive(Debug, Clone, Copy)]
pub struct Gtc {
    /// 15-step communication cycles to run.
    pub cycles: usize,
}

impl Gtc {
    /// Kernel with an explicit cycle count.
    pub(crate) fn new(cycles: usize) -> Self {
        Gtc { cycles }
    }

    /// Decomposition: (planes, particle domains per plane).
    pub(crate) fn decomposition(procs: usize) -> (usize, usize) {
        let planes = procs.min(MAX_PLANES);
        assert!(
            procs.is_multiple_of(planes),
            "GTC needs a processor count divisible into {planes} planes"
        );
        (planes, procs / planes)
    }
}

impl Default for Gtc {
    /// One full 15-step cycle.
    fn default() -> Self {
        Gtc::new(1)
    }
}

impl CommKernel for Gtc {
    fn name(&self) -> &'static str {
        "GTC"
    }

    fn meta(&self) -> AppMeta {
        lookup("GTC").expect("GTC is in Table 2")
    }

    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> Result<()> {
        let p = comm.size();
        let (planes, domains) = Self::decomposition(p);
        let rank = comm.rank();
        let plane = rank / domains;
        let domain = rank % domains;
        let at = |pl: usize, dom: usize| (pl % planes) * domains + dom;
        let right = at(plane + 1, domain);
        let left = at(plane + planes - 1, domain);
        let plane_group = Group::new((0..domains).map(|d| at(plane, d)).collect())?;
        let plane_root = at(plane, 0);
        let is_leader = domain == 0 && domains > 1;

        profiler.enter_region(rank, "steady");
        for _cycle in 0..self.cycles {
            for step in 0..15usize {
                // Particle shift: forward then backward, 128 KB each.
                comm.sendrecv(
                    right,
                    tags::SHIFT,
                    Payload::synthetic(SHIFT_BYTES),
                    left,
                    tags::SHIFT,
                )?;
                comm.sendrecv(
                    left,
                    Tag(tags::SHIFT.0 + 1),
                    Payload::synthetic(SHIFT_BYTES),
                    right,
                    Tag(tags::SHIFT.0 + 1),
                )?;
                // Charge deposition gathers within the plane: two per step,
                // three every third step (35 per 15-step cycle).
                let gathers = if step % 3 == 2 { 3 } else { 2 };
                for g in 0..gathers {
                    // The third gather of a 3-gather step moves the full
                    // deposition grid rather than per-particle moments.
                    let bytes = if g == 2 {
                        GRID_GATHER_BYTES
                    } else {
                        GATHER_BYTES
                    };
                    comm.gather_in(&plane_group, plane_root, Payload::synthetic(bytes))?;
                }
                // Field solve residual reductions on 8 of 15 steps.
                if step % 2 == 0 {
                    comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)?;
                }
            }
            // Leader coordination once per cycle: plane leaders exchange
            // flux-surface data with nearby planes' leaders. This is the
            // non-mesh-isomorphic component that inflates GTC's max TDC.
            if is_leader {
                // ±1..5: above-cutoff payloads. The ±1 partners coincide
                // with the leaders' own ring neighbours, so the thresholded
                // partner set is exactly {±1..5} → max TDC 10 at the 2 KB
                // cutoff.
                for d in 1..=5usize {
                    let ahead = at(plane + d, 0);
                    let behind = at(plane + planes - d, 0);
                    comm.sendrecv(
                        ahead,
                        Tag(tags::SHIFT.0 + 10 + d as u32),
                        Payload::synthetic(LEADER_BYTES),
                        behind,
                        Tag(tags::SHIFT.0 + 10 + d as u32),
                    )?;
                }
                // ±6..8 plus the antipodal plane: small bookkeeping →
                // unthresholded max TDC reaches 10+6+1 = 17.
                for d in 6..=8usize {
                    let ahead = at(plane + d, 0);
                    let behind = at(plane + planes - d, 0);
                    comm.sendrecv(
                        ahead,
                        Tag(tags::SHIFT.0 + 10 + d as u32),
                        Payload::synthetic(LEADER_SMALL_BYTES),
                        behind,
                        Tag(tags::SHIFT.0 + 10 + d as u32),
                    )?;
                }
                let opposite = at(plane + planes / 2, 0);
                comm.sendrecv(
                    opposite,
                    Tag(tags::SHIFT.0 + 30),
                    Payload::synthetic(LEADER_SMALL_BYTES),
                    opposite,
                    Tag(tags::SHIFT.0 + 30),
                )?;
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
    fn p64_is_a_pure_ring() {
        let out = profile_app(&Gtc::default(), 64).unwrap();
        let g = out.steady.comm_graph();
        let s = tdc(&g, BDP_CUTOFF);
        assert_eq!((s.max, s.avg), (2, 2.0), "paper Table 3: (2, 2)");
        assert_eq!(tdc(&g, 0).max, 2, "no sub-cutoff extras at P=64");
    }

    #[test]
    fn call_mix_is_gather_heavy() {
        let out = profile_app(&Gtc::default(), 64).unwrap();
        let mix: std::collections::BTreeMap<_, _> = out.steady.call_mix().into_iter().collect();
        // Paper: Gather 47.4, Sendrecv 40.8, Allreduce 10.9.
        assert!((mix[&CallKind::Gather] - 47.4).abs() < 2.0, "{mix:?}");
        assert!((mix[&CallKind::Sendrecv] - 40.8).abs() < 2.0);
        assert!((mix[&CallKind::Allreduce] - 10.9).abs() < 1.5);
        assert!(out.steady.collective_call_fraction() > 0.55);
    }

    #[test]
    fn buffers_match_table3() {
        let out = profile_app(&Gtc::default(), 64).unwrap();
        assert_eq!(
            out.steady.ptp_buffer_histogram().median(),
            Some(SHIFT_BYTES as u64)
        );
        assert_eq!(
            out.steady.collective_buffer_histogram().median(),
            Some(GATHER_BYTES as u64)
        );
    }

    #[test]
    fn decomposition_shapes() {
        assert_eq!(Gtc::decomposition(64), (64, 1));
        assert_eq!(Gtc::decomposition(256), (64, 4));
        assert_eq!(Gtc::decomposition(128), (64, 2));
        assert_eq!(Gtc::decomposition(32), (32, 1));
    }

    #[test]
    fn p128_leaders_inflate_max_tdc() {
        // Same mechanism as the paper's P=256 case at a cheaper test size:
        // 64 planes × 2 domains; leaders reach 17 partners unthresholded,
        // 10 at the cutoff; non-leaders stay at 2.
        let out = profile_app(&Gtc::default(), 128).unwrap();
        let g = out.steady.comm_graph();
        let uncut = tdc(&g, 0);
        let cut = tdc(&g, BDP_CUTOFF);
        assert_eq!(uncut.max, 17);
        assert_eq!(cut.max, 10);
        assert_eq!(cut.min, 2);
        // Leaders are half the ranks at P=128: avg = (10 + 2) / 2.
        assert!((cut.avg - 6.0).abs() < 0.01, "avg {}", cut.avg);
    }
}
