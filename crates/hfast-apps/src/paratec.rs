//! PARATEC — plane-wave DFT with 3D FFT transposes (paper Figure 10).
//!
//! PARATEC's 3D FFTs require two stages of global transposes. The first is
//! non-local: every rank exchanges similar-size (~32 KB) messages with
//! *every* other rank, producing the uniform all-to-all background of the
//! volume matrix. The second stage only touches neighbouring ranks,
//! producing extra traffic along the diagonal. Abundant small control
//! messages accompany the transposes (the 64 B median buffer of Table 3).
//! The communication fully utilizes an FCN's bisection — the paper's
//! case-iv archetype, where HFAST offers no advantage.
//!
//! Calibration targets:
//! * TDC = (P−1, P−1) at every cutoff up to 32 KB; only above 32 KB does
//!   the partner count collapse (to the diagonal neighbours).
//! * Call mix ≈ Isend 25.1 %, Irecv 24.8 %, Wait 49.6 %.
//! * Median PTP buffer 64 B; collectives ≤ 0.5 % at 4-8 B.

use hfast_ipm::IpmProfiler;
use hfast_mpi::{Comm, Payload, ReduceOp, Request, Result, SrcSel, Tag, TagSel};

use crate::common::tags;
use crate::meta::{lookup, AppMeta};
use crate::CommKernel;

/// First-stage transpose block (the uniform 32 KB background of Fig. 10a).
pub(crate) const TRANSPOSE_BYTES: usize = 32 << 10;
/// Second-stage neighbour exchange (the diagonal band, above 32 KB).
pub(crate) const DIAGONAL_BYTES: usize = 256 << 10;
/// Control/handshake payload (Table 3: 64 B median).
pub(crate) const CONTROL_BYTES: usize = 64;
/// Diagonal reach of the second transpose stage.
pub(crate) const DIAGONAL_REACH: usize = 2;

/// The PARATEC communication kernel.
#[derive(Debug, Clone, Copy)]
pub struct Paratec {
    /// SCF iterations (each performs both transpose stages).
    pub steps: usize,
}

impl Paratec {
    /// Kernel with an explicit iteration count.
    pub fn new(steps: usize) -> Self {
        Paratec { steps }
    }
}

impl Default for Paratec {
    /// Two SCF iterations.
    fn default() -> Self {
        Paratec::new(2)
    }
}

impl CommKernel for Paratec {
    fn name(&self) -> &'static str {
        "PARATEC"
    }

    fn meta(&self) -> AppMeta {
        lookup("PARATEC").expect("PARATEC is in Table 2")
    }

    fn run(&self, comm: &mut Comm, profiler: &IpmProfiler) -> Result<()> {
        let p = comm.size();
        let rank = comm.rank();
        profiler.enter_region(rank, "steady");
        // Initial convergence-criterion reduction (makes the collective
        // median 8 B, as Table 3 reports at P = 64).
        comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)?;
        for _step in 0..self.steps {
            // Stage 1: global transpose. Per partner: one 32 KB block and
            // two 64 B control messages, all nonblocking, each request
            // completed with an individual MPI_Wait — the 25/25/50 mix.
            let mut recvs: Vec<Request> = Vec::with_capacity(3 * (p - 1));
            for off in 1..p {
                let from = (rank + p - off) % p;
                recvs.push(comm.irecv(
                    SrcSel::Rank(from),
                    TagSel::Tag(tags::TRANSPOSE),
                    TRANSPOSE_BYTES,
                )?);
                for c in 0..2u32 {
                    recvs.push(comm.irecv(
                        SrcSel::Rank(from),
                        TagSel::Tag(Tag(tags::CONTROL.0 + c)),
                        CONTROL_BYTES,
                    )?);
                }
            }
            let mut sends: Vec<Request> = Vec::with_capacity(3 * (p - 1));
            for off in 1..p {
                let to = (rank + off) % p;
                sends.push(comm.isend(to, tags::TRANSPOSE, Payload::synthetic(TRANSPOSE_BYTES))?);
                for c in 0..2u32 {
                    sends.push(comm.isend(
                        to,
                        Tag(tags::CONTROL.0 + c),
                        Payload::synthetic(CONTROL_BYTES),
                    )?);
                }
            }
            for r in recvs {
                comm.wait(r)?;
            }
            for s in sends {
                comm.wait(s)?;
            }

            // Stage 2: neighbour transpose along the diagonal.
            if p > 2 * DIAGONAL_REACH {
                let mut reqs: Vec<Request> = Vec::new();
                for d in 1..=DIAGONAL_REACH {
                    let ahead = (rank + d) % p;
                    let behind = (rank + p - d) % p;
                    reqs.push(comm.irecv(
                        SrcSel::Rank(behind),
                        TagSel::Tag(Tag(tags::TRANSPOSE.0 + d as u32)),
                        DIAGONAL_BYTES,
                    )?);
                    reqs.push(comm.isend(
                        ahead,
                        Tag(tags::TRANSPOSE.0 + d as u32),
                        Payload::synthetic(DIAGONAL_BYTES),
                    )?);
                }
                for r in reqs {
                    comm.wait(r)?;
                }
            }

            // Convergence checks: tiny global reductions.
            comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)?;
            comm.allreduce(Payload::synthetic(4), ReduceOp::Max)?;
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
    use hfast_topology::tdc;

    #[test]
    fn tdc_is_full_and_cutoff_insensitive_to_32k() {
        let out = profile_app(&Paratec::new(1), 64).unwrap();
        let g = out.steady.comm_graph();
        for cutoff in [0u64, 2048, 16 << 10, 32 << 10] {
            let s = tdc(&g, cutoff);
            assert_eq!(
                (s.max, s.min),
                (63, 63),
                "TDC must be P−1 at cutoff {cutoff}"
            );
        }
        // Above 32 KB only the diagonal band survives.
        let above = tdc(&g, (32 << 10) + 1);
        assert_eq!(above.max, 2 * DIAGONAL_REACH);
    }

    #[test]
    fn call_mix_is_25_25_50() {
        let out = profile_app(&Paratec::new(1), 32).unwrap();
        let mix: std::collections::BTreeMap<_, _> = out.steady.call_mix().into_iter().collect();
        assert!((mix[&CallKind::Isend] - 25.1).abs() < 1.5, "{mix:?}");
        assert!((mix[&CallKind::Irecv] - 24.8).abs() < 1.5);
        assert!((mix[&CallKind::Wait] - 49.6).abs() < 1.5);
        assert!(out.steady.ptp_call_fraction() > 0.99);
    }

    #[test]
    fn median_buffer_is_tiny_despite_transposes() {
        let out = profile_app(&Paratec::new(1), 32).unwrap();
        assert_eq!(out.steady.ptp_buffer_histogram().median(), Some(64));
        let col = out.steady.collective_buffer_histogram();
        assert!(col.median().unwrap() <= 8);
    }

    #[test]
    fn diagonal_band_carries_extra_volume() {
        let out = profile_app(&Paratec::new(1), 16).unwrap();
        let g = out.steady.comm_graph();
        let near = g.edge(3, 4).bytes;
        let far = g.edge(3, 11).bytes;
        assert!(
            near > far,
            "diagonal neighbours exchange more: {near} vs {far}"
        );
        assert!(far > 0, "but the background is uniform and nonzero");
        assert_eq!(g.edge(3, 11).max_msg, TRANSPOSE_BYTES as u64);
    }
}
