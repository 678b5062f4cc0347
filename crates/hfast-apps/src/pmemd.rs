//! PMEMD — particle mesh Ewald molecular dynamics (paper Figure 9).
//!
//! PMEMD spatially decomposes the molecule; the data a rank exchanges with
//! another "drops off as their spatial regions become more distant", so the
//! volume matrix is a dense band that decays away from the diagonal. Every
//! rank still touches every other rank (sometimes with zero-byte messages
//! when "a communicating partner expects a message that is not necessary"),
//! so the unthresholded TDC is P while the thresholded TDC is governed by
//! the decay rate — and one "hot" rank holding the dense solute region
//! keeps the *maximum* TDC at P even after thresholding. The divergence of
//! maximum from average TDC makes PMEMD a case-iii code.
//!
//! Calibration targets:
//! * P = 64: TDC @ 2 KB = (63, 63) — everything above the cutoff.
//! * P = 256: TDC @ 2 KB = (255, ≈55).
//! * Call mix ≈ Isend 32.7 %, Irecv 29.3 %, Waitany 36.6 %.
//! * Median PTP buffer ≈ 6 KB (P=64) / 72 B (P=256); collectives ≈ 1 % at
//!   768 B.

use hfast_ipm::IpmProfiler;
use hfast_mpi::{Comm, Payload, ReduceOp, Request, Result, SrcSel, TagSel};

use crate::common::{ring_distance, tags};
use crate::meta::{lookup, AppMeta};
use crate::CommKernel;

/// Interaction-volume scale factor (bytes·ranks).
const VOLUME_SCALE: f64 = 758_000.0;
/// Spatial decay exponent (fraction-of-ring units).
const DECAY: f64 = 3.51;
/// Tiny bookkeeping payload for distant partners (Table 3: 72 B median at
/// P = 256).
pub(crate) const TINY_BYTES: usize = 72;
/// Reduction payload (Table 3: 768 B median collective buffer).
pub(crate) const COLLECTIVE_BYTES: usize = 768;
/// The rank holding the dense solute region (max TDC = P − 1 thresholded).
pub const HOT_RANK: usize = 0;

/// The PMEMD communication kernel.
#[derive(Debug, Clone, Copy)]
pub struct Pmemd {
    /// Force/energy evaluation steps.
    pub steps: usize,
}

impl Pmemd {
    /// Kernel with an explicit step count.
    pub fn new(steps: usize) -> Self {
        Pmemd { steps }
    }

    /// Ring distance up to which exchanges stay above the 2 KB cutoff:
    /// shrinks as the fixed molecule is split across more ranks.
    pub fn cutoff_distance(procs: usize) -> usize {
        (procs / 2).min(6912 / procs.max(1)).max(1)
    }

    /// Bytes rank `src` sends to rank `dst` per step.
    ///
    /// Within [`cutoff_distance`](Self::cutoff_distance), an exponentially
    /// decaying interaction volume clamped to stay circuit-worthy; beyond
    /// it, tiny bookkeeping. Pairs involving the hot rank always carry
    /// ≥ 4 KB.
    pub fn message_bytes(procs: usize, src: usize, dst: usize) -> usize {
        let d = ring_distance(src, dst, procs);
        if d == 0 {
            return 0;
        }
        let decayed = (VOLUME_SCALE / procs as f64) * (-DECAY * d as f64 / procs as f64).exp();
        if src == HOT_RANK || dst == HOT_RANK {
            return (decayed as usize).max(4096);
        }
        if d <= Self::cutoff_distance(procs) {
            (decayed as usize).max(2048)
        } else {
            TINY_BYTES
        }
    }

    /// Collectives issued per step (reductions of energies/virials); grows
    /// mildly with concurrency to track the paper's 0.9 → 1.4 % share.
    pub(crate) fn collectives_per_step(procs: usize) -> usize {
        (procs / 24).max(2)
    }
}

impl Default for Pmemd {
    /// Three force evaluations (each touches every pair, so the topology
    /// is complete after one).
    fn default() -> Self {
        Pmemd::new(3)
    }
}

impl CommKernel for Pmemd {
    fn name(&self) -> &'static str {
        "PMEMD"
    }

    fn meta(&self) -> AppMeta {
        lookup("PMEMD").expect("PMEMD is in Table 2")
    }

    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> Result<()> {
        let p = comm.size();
        let rank = comm.rank();
        profiler.enter_region(rank, "steady");
        for _step in 0..self.steps {
            // Post receives from every partner, then send to every partner.
            let mut pool: Vec<Request> = Vec::with_capacity(2 * p);
            for off in 1..p {
                let from = (rank + p - off) % p;
                pool.push(comm.irecv(
                    SrcSel::Rank(from),
                    TagSel::Tag(tags::FORCE),
                    Self::message_bytes(p, from, rank),
                )?);
            }
            let mut send_reqs: Vec<Request> = Vec::with_capacity(p);
            for off in 1..p {
                let to = (rank + off) % p;
                send_reqs.push(comm.isend(
                    to,
                    tags::FORCE,
                    Payload::synthetic(Self::message_bytes(p, rank, to)),
                )?);
            }
            // The "unnecessary message" case: a zero-byte send to the
            // antipodal partner that the receiver drains with the rest.
            if p > 2 {
                let opposite = (rank + p / 2) % p;
                send_reqs.push(comm.isend(opposite, tags::CONTROL, Payload::synthetic(0))?);
                pool.push(comm.irecv(
                    SrcSel::Rank((rank + p - p / 2) % p),
                    TagSel::Tag(tags::CONTROL),
                    0,
                )?);
            }
            // Drive completion with MPI_Waitany, folding in a quarter of
            // the send requests (PMEMD's measured mix shows slightly more
            // Waitany than Irecv).
            let fold = send_reqs.len() / 4;
            pool.extend(send_reqs.drain(..fold));
            while !pool.is_empty() {
                comm.waitany(&mut pool)?;
            }
            // Energy/virial reductions.
            for _ in 0..Self::collectives_per_step(p) {
                comm.allreduce(Payload::synthetic(COLLECTIVE_BYTES), ReduceOp::Sum)?;
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
    fn p64_everything_is_above_cutoff() {
        let out = profile_app(&Pmemd::new(1), 64).unwrap();
        let g = out.steady.comm_graph();
        let cut = tdc(&g, BDP_CUTOFF);
        assert_eq!((cut.max, cut.min), (63, 63), "paper Table 3: (63, 63)");
    }

    #[test]
    fn message_sizes_decay_with_distance() {
        let near = Pmemd::message_bytes(256, 10, 11);
        let mid = Pmemd::message_bytes(256, 10, 30);
        let far = Pmemd::message_bytes(256, 10, 150);
        assert!(near > mid, "{near} > {mid}");
        assert!(mid >= 2048);
        assert_eq!(far, TINY_BYTES);
        assert_eq!(Pmemd::message_bytes(256, 5, 5), 0);
        // Symmetric in distance.
        assert_eq!(
            Pmemd::message_bytes(256, 10, 30),
            Pmemd::message_bytes(256, 30, 10)
        );
    }

    #[test]
    fn hot_rank_is_circuit_worthy_to_everyone() {
        for dst in 1..256 {
            assert!(Pmemd::message_bytes(256, HOT_RANK, dst) >= 4096);
        }
    }

    #[test]
    fn cutoff_distance_shrinks_with_concurrency() {
        assert_eq!(Pmemd::cutoff_distance(64), 32, "whole ring at P=64");
        assert_eq!(Pmemd::cutoff_distance(256), 27);
        assert!(Pmemd::cutoff_distance(512) < Pmemd::cutoff_distance(256));
    }

    #[test]
    fn call_mix_is_waitany_driven() {
        let out = profile_app(&Pmemd::new(2), 32).unwrap();
        let mix: std::collections::BTreeMap<_, _> = out.steady.call_mix().into_iter().collect();
        // Paper: Isend 32.7, Irecv 29.3, Waitany 36.6.
        assert!((mix[&CallKind::Isend] - 32.7).abs() < 5.0, "{mix:?}");
        assert!((mix[&CallKind::Irecv] - 29.3).abs() < 5.0);
        assert!((mix[&CallKind::Waitany] - 36.6).abs() < 5.0);
        assert!(
            !mix.contains_key(&CallKind::Wait),
            "no plain MPI_Wait slice"
        );
    }

    #[test]
    fn median_buffer_is_6k_at_p64() {
        let out = profile_app(&Pmemd::new(1), 64).unwrap();
        let median = out.steady.ptp_buffer_histogram().median().unwrap();
        assert!(
            (4000..=8000).contains(&median),
            "paper: 6k median at P=64, got {median}"
        );
        assert_eq!(
            out.steady.collective_buffer_histogram().median(),
            Some(COLLECTIVE_BYTES as u64)
        );
    }

    #[test]
    fn zero_byte_messages_exist() {
        let out = profile_app(&Pmemd::new(1), 16).unwrap();
        let has_zero = out
            .steady
            .entries
            .iter()
            .any(|e| e.kind == CallKind::Isend && e.bytes == 0);
        assert!(has_zero, "PMEMD sends 0-byte buffers (paper Table 3 note)");
    }
}
