//! Workload-level aggregation across applications.
//!
//! The paper's Figure 3 and §6 outlook ("the characterization of large and
//! diverse application workloads") aggregate over *many* profiled codes.
//! [`WorkloadStudy`] collects named profiles and answers the cross-code
//! questions: combined buffer-size distributions, the share of codes whose
//! topology fits a given interconnect class, and the switch-block demand of
//! running the whole workload on one HFAST machine.

use hfast_topology::{tdc, BufferHistogram};

use crate::profile::CommProfile;

/// A collection of named application profiles analyzed as one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStudy {
    profiles: Vec<(String, CommProfile)>,
}

impl WorkloadStudy {
    /// An empty study.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named profile.
    pub fn add(&mut self, name: impl Into<String>, profile: CommProfile) {
        self.profiles.push((name.into(), profile));
    }

    /// Number of profiles collected.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no profiles were added.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Combined collective buffer-size histogram (Figure 3, all codes).
    pub fn collective_histogram(&self) -> BufferHistogram {
        let mut hist = BufferHistogram::new();
        for (_, p) in &self.profiles {
            hist.merge(&p.collective_buffer_histogram());
        }
        hist
    }

    /// Combined point-to-point buffer-size histogram.
    pub fn ptp_histogram(&self) -> BufferHistogram {
        let mut hist = BufferHistogram::new();
        for (_, p) in &self.profiles {
            hist.merge(&p.ptp_buffer_histogram());
        }
        hist
    }

    /// Fraction of codes whose thresholded max TDC is at most `bound` —
    /// "how much of the workload fits a degree-`bound` interconnect".
    pub fn fraction_bounded_by(&self, bound: usize, cutoff: u64) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        let fit = self
            .profiles
            .iter()
            .filter(|(_, p)| tdc(&p.comm_graph(), cutoff).max <= bound)
            .count();
        fit as f64 / self.profiles.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IpmProfiler;
    use hfast_mpi::{CommHook, Payload, ReduceOp, Tag, World, WorldConfig};
    use std::sync::Arc;

    fn sample(size: usize, bytes: usize, rounds: usize) -> CommProfile {
        let prof = Arc::new(IpmProfiler::new(size));
        World::run_with(
            WorldConfig::new(size).hook(prof.clone() as Arc<dyn CommHook>),
            |comm| {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                for _ in 0..rounds {
                    comm.send(right, Tag(1), Payload::synthetic(bytes)).unwrap();
                    comm.recv(left, Tag(1)).unwrap();
                }
                comm.allreduce(Payload::synthetic(8), ReduceOp::Sum)
                    .unwrap();
            },
        )
        .unwrap();
        prof.profile()
    }

    #[test]
    fn study_aggregates_across_codes() {
        let mut study = WorkloadStudy::new();
        study.add("ring-small", sample(6, 512, 2));
        study.add("ring-large", sample(6, 100_000, 2));
        assert_eq!(study.len(), 2);
        let col = study.collective_histogram();
        assert_eq!(col.total(), 12, "one allreduce per rank per code");
        let ptp = study.ptp_histogram();
        assert!(ptp.total() > 0);
        // Both codes are rings (degree 2); the small ring's traffic is all
        // below the cutoff, so only it fits a degree-1 fabric at 2 KB.
        assert_eq!(study.fraction_bounded_by(1, 2048), 0.5);
        assert_eq!(study.fraction_bounded_by(2, 2048), 1.0);
        assert_eq!(
            study.fraction_bounded_by(1, 0),
            0.0,
            "uncut, both exceed degree 1"
        );
    }

    #[test]
    fn empty_study() {
        let study = WorkloadStudy::new();
        assert!(study.is_empty());
        assert_eq!(study.fraction_bounded_by(10, 0), 0.0);
        assert!(study.collective_histogram().is_empty());
    }
}
