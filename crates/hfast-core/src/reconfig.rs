//! The outcome of one reconfiguration of the MEMS crossbar (paper §2.3).
//!
//! "Initially, the circuit switches can be used to provision densely-packed
//! 3D mesh communication topologies … as data about messaging patterns is
//! accumulated, the topology can be adjusted at discrete synchronization
//! points to better match the measured communication requirements."
//!
//! The runtime that does this over a live fabric is `hfast-netsim`'s
//! `AdaptiveReplay`; the simulator's fault repatch reports through
//! [`ReconfigStep::repatch`]. Both build their steps with
//! [`ReconfigStep::new`], the one place the reconfiguration latency is
//! charged.

use crate::switch::CircuitSwitch;

/// One adaptation step's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigStep {
    /// Fraction of observed above-cutoff bytes with a dedicated route
    /// before adapting.
    pub coverage_before: f64,
    /// The same fraction after adapting (1.0 unless capacity was exceeded).
    pub coverage_after: f64,
    /// Circuits torn down plus circuits newly patched. Full rebuilds diff
    /// the complete crossbar state; incremental steps count re-patched
    /// edge circuits.
    pub circuits_changed: usize,
    /// Reconfiguration latency paid at the synchronization point.
    pub reconfig_time_ns: u64,
    /// Which [`Provisioner`](crate::Provisioner) produced the step
    /// (`"repatch"` for fault-driven mid-run repairs).
    pub strategy: &'static str,
    /// Provisioned edges whose circuits were added, removed, or moved.
    pub edges_touched: usize,
}

impl ReconfigStep {
    /// A step that moved `circuits_changed` circuits. Each changed circuit
    /// is one MEMS mirror to move, but the mirrors move in parallel, so
    /// the step pays one [`CircuitSwitch::RECONFIG_LATENCY_NS`] when
    /// anything moved at all and nothing otherwise.
    pub fn new(
        strategy: &'static str,
        coverage_before: f64,
        coverage_after: f64,
        circuits_changed: usize,
        edges_touched: usize,
    ) -> ReconfigStep {
        ReconfigStep {
            coverage_before,
            coverage_after,
            circuits_changed,
            reconfig_time_ns: if circuits_changed > 0 {
                CircuitSwitch::RECONFIG_LATENCY_NS
            } else {
                0
            },
            strategy,
            edges_touched,
        }
    }

    /// The outcome of a *fault-driven* mid-run re-provisioning: `circuits`
    /// failed circuits are repatched through spare switch ports at a
    /// synchronization point.
    ///
    /// A sync-point adaptation covers the planned case (traffic drifted,
    /// re-match the measured graph); this constructor covers the unplanned
    /// one (a component died mid-run) with the same accounting, so both
    /// export through one `ReconfigStep` shape.
    pub fn repatch(circuits: usize, coverage_before: f64, coverage_after: f64) -> ReconfigStep {
        ReconfigStep::new(
            "repatch",
            coverage_before,
            coverage_after,
            circuits,
            circuits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repatch_step_accounts_like_adaptation() {
        let step = ReconfigStep::repatch(3, 0.4, 1.0);
        assert_eq!(step.circuits_changed, 3);
        assert_eq!(step.reconfig_time_ns, CircuitSwitch::RECONFIG_LATENCY_NS);
        assert!((step.coverage_after - 1.0).abs() < 1e-12);
        assert_eq!(step.strategy, "repatch");
        assert_eq!(step.edges_touched, 3);
        let noop = ReconfigStep::repatch(0, 1.0, 1.0);
        assert_eq!(noop.reconfig_time_ns, 0, "nothing moved, nothing paid");
    }
}
