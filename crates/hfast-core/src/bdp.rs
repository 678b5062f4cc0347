//! Bandwidth-delay products (paper §2.4, Table 1).
//!
//! The bandwidth-delay product of a link is the number of bytes that must be
//! in flight to saturate it — equivalently, the smallest non-pipelined
//! message that can fully utilize the link. The paper uses 2 KB (the best of
//! the surveyed interconnects) as the threshold below which a message gains
//! nothing from a dedicated HFAST circuit.

/// Peak characteristics of an interconnect technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    /// System name.
    pub system: &'static str,
    /// Interconnect technology.
    pub technology: &'static str,
    /// MPI latency in microseconds.
    pub mpi_latency_us: f64,
    /// Peak unidirectional bandwidth per CPU in GB/s.
    pub peak_bandwidth_gbs: f64,
}

impl InterconnectSpec {
    /// Bandwidth-delay product in bytes: latency × bandwidth.
    pub fn bdp_bytes(&self) -> f64 {
        self.mpi_latency_us * 1e-6 * self.peak_bandwidth_gbs * 1e9
    }

    /// The vendor `N½` metric: the message size achieving half of peak
    /// bandwidth, typically half the bandwidth-delay product (§2.4).
    pub fn n_half_bytes(&self) -> f64 {
        self.bdp_bytes() / 2.0
    }
}

/// The five systems of Table 1.
pub const TABLE1_SYSTEMS: [InterconnectSpec; 5] = [
    InterconnectSpec {
        system: "SGI Altix",
        technology: "Numalink-4",
        mpi_latency_us: 1.1,
        peak_bandwidth_gbs: 1.9,
    },
    InterconnectSpec {
        system: "Cray X1",
        technology: "Cray Custom",
        mpi_latency_us: 7.3,
        peak_bandwidth_gbs: 6.3,
    },
    InterconnectSpec {
        system: "NEC Earth Simulator",
        technology: "NEC Custom",
        mpi_latency_us: 5.6,
        peak_bandwidth_gbs: 1.5,
    },
    InterconnectSpec {
        system: "Myrinet Cluster",
        technology: "Myrinet 2000",
        mpi_latency_us: 5.7,
        peak_bandwidth_gbs: 0.5,
    },
    InterconnectSpec {
        system: "Cray XD1",
        technology: "RapidArray/IB4x",
        mpi_latency_us: 1.7,
        peak_bandwidth_gbs: 2.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::BDP_CUTOFF;

    /// Paper Table 1's BDP column, in bytes (2 KB, 46 KB, 8.4 KB, 2.8 KB,
    /// 3.4 KB).
    const PAPER_BDP_KB: [f64; 5] = [2.0, 46.0, 8.4, 2.8, 3.4];

    #[test]
    fn bdp_matches_table1() {
        for (spec, &paper_kb) in TABLE1_SYSTEMS.iter().zip(&PAPER_BDP_KB) {
            let kb = spec.bdp_bytes() / 1024.0;
            // The paper rounds to 2 significant figures.
            assert!(
                (kb - paper_kb).abs() / paper_kb < 0.05,
                "{}: computed {kb:.2} KB vs paper {paper_kb} KB",
                spec.system
            );
        }
    }

    #[test]
    fn altix_is_the_best_and_near_2kb() {
        let best = TABLE1_SYSTEMS
            .iter()
            .min_by(|a, b| a.bdp_bytes().total_cmp(&b.bdp_bytes()))
            .unwrap();
        assert_eq!(best.system, "SGI Altix");
        assert!((best.bdp_bytes() - BDP_CUTOFF as f64).abs() < 100.0);
    }

    #[test]
    fn n_half_is_half_bdp() {
        let s = TABLE1_SYSTEMS[0];
        assert!((s.n_half_bytes() * 2.0 - s.bdp_bytes()).abs() < 1e-9);
    }
}
