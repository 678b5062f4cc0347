//! Interconnect cost models (paper §5.3).
//!
//! Fat trees built from N-port packet switches support `P = 2·(N/2)^L`
//! processors with `L` layers, consuming `1 + 2(L−1)` switch ports per
//! processor — superlinear total cost. HFAST buys `N_active` packet-switch
//! blocks (linear in P for bounded TDC), one circuit-switch port per patched
//! endpoint (cheap per port), and a low-bandwidth tree for collectives:
//!
//! ```text
//! Cost_HFAST = N_active·Cost_active + Cost_passive + Cost_collective
//! ```

use crate::provision::Provisioning;

/// Relative per-port / per-node component prices.
///
/// Only *ratios* matter for the paper's conclusions; the defaults encode the
/// paper's qualitative claims — circuit-switch ports are far cheaper than
/// leading-edge packet-switch ports (MEMS mirrors vs line-rate ASICs, §2.1),
/// and the collective tree uses "considerably less expensive hardware
/// components" (§2.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Price of one packet-switch port (normalized to 1.0).
    pub packet_port: f64,
    /// Price of one circuit-switch (MEMS) port.
    pub circuit_port: f64,
    /// Per-node price of the low-bandwidth collective tree network.
    pub collective_per_node: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            packet_port: 1.0,
            circuit_port: 0.25,
            collective_per_node: 0.25,
        }
    }
}

/// Fat-tree dimensioning for `p` processors built from `n_ports`-port
/// switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    /// Processors supported.
    pub p: usize,
    /// Switch port count per switch.
    pub n_ports: usize,
    /// Layers.
    pub layers: usize,
}

impl FatTree {
    /// Smallest fat tree of `n_ports`-port switches covering `p` processors:
    /// the minimum `L` with `2·(N/2)^L ≥ p` (paper §5.3 formula).
    pub fn for_processors(p: usize, n_ports: usize) -> Self {
        assert!(n_ports >= 4, "fat-tree switches need at least 4 ports");
        assert!(p >= 1);
        let half = n_ports / 2;
        let mut layers = 1;
        let mut capacity = 2 * half;
        while capacity < p {
            capacity = capacity.saturating_mul(half);
            layers += 1;
        }
        FatTree { p, n_ports, layers }
    }

    /// Processors a fat tree of `layers` layers supports: `2·(N/2)^L`.
    pub fn capacity(n_ports: usize, layers: usize) -> usize {
        let half = n_ports / 2;
        2usize.saturating_mul(half.saturating_pow(layers as u32))
    }

    /// Switch ports consumed per processor: `1 + 2(L−1)` (paper §5.3 —
    /// e.g. 11 ports per processor for a 6-layer tree of 8-port switches).
    pub fn ports_per_processor(&self) -> usize {
        1 + 2 * (self.layers - 1)
    }

    /// Total switch ports in the interconnect.
    pub(crate) fn total_ports(&self) -> usize {
        self.p * self.ports_per_processor()
    }

    /// Worst-case packet switches traversed: up `L` and down `L−1`.
    pub fn max_switch_hops(&self) -> usize {
        2 * self.layers - 1
    }

    /// Interconnect cost: every port is a packet-switch port.
    pub fn cost(&self, model: &CostModel) -> f64 {
        self.total_ports() as f64 * model.packet_port
    }
}

/// Closed-form HFAST resource estimate for a uniform-degree application at
/// scales too large to materialize a dense communication graph.
///
/// Matches `hfast_cost` exactly for regular topologies where every node
/// has the same thresholded TDC (verified by tests), which is how the
/// paper's §5.3 per-node scaling argument is framed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticHfast {
    /// Processors.
    pub p: usize,
    /// Thresholded TDC per node (uniform).
    pub tdc: usize,
    /// Provisioning parameters.
    pub config: crate::provision::ProvisionConfig,
}

impl AnalyticHfast {
    /// Packet-switch ports purchased: blocks per node × ports per block.
    pub fn packet_ports(&self) -> usize {
        self.p * self.config.blocks_needed(1, self.tdc) * self.config.block_ports
    }

    /// Circuit-switch ports in use: 2 per node attachment (node side +
    /// block side) plus 2 per provisioned edge (one block port each side),
    /// with `p·tdc/2` edges.
    pub(crate) fn circuit_ports(&self) -> usize {
        2 * self.p + self.p * self.tdc
    }

    /// Total cost under a component price model.
    pub fn cost(&self, model: &CostModel) -> f64 {
        self.packet_ports() as f64 * model.packet_port
            + self.circuit_ports() as f64 * model.circuit_port
            + self.p as f64 * model.collective_per_node
    }

    /// Smallest power-of-two processor count at which HFAST becomes cheaper
    /// than a fat tree of same-port-count switches, or `None` if it never
    /// does below 2³⁰ (a case-iv style workload).
    pub fn crossover_p(
        tdc: usize,
        config: crate::provision::ProvisionConfig,
        model: &CostModel,
    ) -> Option<usize> {
        let mut p = 2usize;
        while p <= (1 << 30) {
            let analytic = AnalyticHfast { p, tdc, config };
            let ft = FatTree::for_processors(p, config.block_ports);
            if analytic.cost(model) < ft.cost(model) {
                return Some(p);
            }
            p *= 2;
        }
        None
    }
}

/// Cost of an HFAST provisioning under a component price model.
pub(crate) fn hfast_cost(prov: &Provisioning, model: &CostModel) -> f64 {
    let active = prov.total_block_ports() as f64 * model.packet_port;
    // The passive crossbar provides a port for every patched endpoint
    // (nodes + block ports); it must be sized like an FCN, but at the
    // circuit-port price (§5.3: "the number of ports required for the
    // passive circuit switch grows by the same proportion as a full FCN …
    // the cost per port is far less").
    let passive = prov.circuit_ports_used() as f64 * model.circuit_port;
    let collective = prov.n_nodes() as f64 * model.collective_per_node;
    active + passive + collective
}

/// Side-by-side comparison for one application topology at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    /// HFAST total cost.
    pub hfast: f64,
    /// Fat-tree total cost.
    pub fat_tree: f64,
    /// Packet-switch ports per node under HFAST.
    pub hfast_ports_per_node: f64,
    /// Packet-switch ports per node under the fat tree.
    pub fat_tree_ports_per_node: usize,
}

impl CostComparison {
    /// Compares a provisioning against the equivalent fat tree built from
    /// switches of the same port count.
    pub fn of(prov: &Provisioning, model: &CostModel) -> Self {
        let ft = FatTree::for_processors(prov.n_nodes(), prov.config.block_ports);
        CostComparison {
            hfast: hfast_cost(prov, model),
            fat_tree: ft.cost(model),
            hfast_ports_per_node: prov.block_ports_per_node(),
            fat_tree_ports_per_node: ft.ports_per_processor(),
        }
    }

    /// True where the paper's thesis holds: HFAST is the cheaper build.
    pub fn hfast_wins(&self) -> bool {
        self.hfast < self.fat_tree
    }

    /// HFAST cost as a fraction of fat-tree cost.
    pub fn ratio(&self) -> f64 {
        self.hfast / self.fat_tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::ProvisionConfig;
    use crate::provisioner::{PaperLinear, Provisioner};
    use hfast_topology::generators::{complete_graph, mesh3d_graph};

    #[test]
    fn fat_tree_formula_examples() {
        // 2·(8/2)^L: L=1 → 8, L=2 → 32, … L=6 → 8192.
        assert_eq!(FatTree::capacity(8, 1), 8);
        assert_eq!(FatTree::capacity(8, 2), 32);
        assert_eq!(FatTree::capacity(8, 6), 8192);
        let ft = FatTree::for_processors(2048, 8);
        // NOTE: the paper's prose pairs "6 layers" with 2048 processors,
        // which its own formula does not produce (L=5 already covers 2048);
        // we implement the formula and document the delta in EXPERIMENTS.md.
        assert_eq!(ft.layers, 5);
        let ft6 = FatTree {
            p: 8192,
            n_ports: 8,
            layers: 6,
        };
        assert_eq!(
            ft6.ports_per_processor(),
            11,
            "the paper's 11 ports/processor example"
        );
    }

    #[test]
    fn fat_tree_ports_grow_superlinearly_per_node() {
        let small = FatTree::for_processors(64, 16);
        let big = FatTree::for_processors(65536, 16);
        assert!(big.ports_per_processor() > small.ports_per_processor());
    }

    #[test]
    fn fat_tree_hops() {
        let ft = FatTree::for_processors(64, 16);
        assert_eq!(ft.max_switch_hops(), 2 * ft.layers - 1);
    }

    #[test]
    fn hfast_beats_fat_tree_for_low_tdc_at_ultra_scale() {
        // The paper's peta-scale argument: HFAST's packet ports stay
        // constant per node while the fat tree's grow with log P. For a
        // TDC-6 stencil on 8-port components the crossover lands at
        // achievable machine sizes; at small P the fat tree is cheaper.
        let config = ProvisionConfig {
            block_ports: 8,
            cutoff: 2048,
        };
        let model = CostModel::default();
        let crossover =
            AnalyticHfast::crossover_p(6, config, &model).expect("low-TDC apps must cross over");
        assert!(
            crossover <= 1 << 17,
            "crossover {crossover} should be at ultra-scale sizes"
        );
        // Before the crossover the fat tree wins; after it, HFAST does.
        let small = AnalyticHfast {
            p: 64,
            tdc: 6,
            config,
        };
        let ft_small = FatTree::for_processors(64, 8);
        assert!(small.cost(&model) >= ft_small.cost(&model));
        let big = AnalyticHfast {
            p: crossover * 4,
            tdc: 6,
            config,
        };
        let ft_big = FatTree::for_processors(crossover * 4, 8);
        assert!(big.cost(&model) < ft_big.cost(&model));
    }

    #[test]
    fn analytic_matches_exact_provisioning_on_regular_graphs() {
        // A torus gives every node the same TDC (6): the closed form must
        // agree with the fully materialized provisioning.
        use hfast_topology::generators::torus3d_graph;
        let g = torus3d_graph((4, 4, 4), 300 << 10);
        let config = ProvisionConfig::default();
        let prov = PaperLinear.provision(&g, config);
        let analytic = AnalyticHfast {
            p: 64,
            tdc: 6,
            config,
        };
        assert_eq!(analytic.packet_ports(), prov.total_block_ports());
        assert_eq!(analytic.circuit_ports(), prov.circuit_ports_used());
        let model = CostModel::default();
        assert!((analytic.cost(&model) - hfast_cost(&prov, &model)).abs() < 1e-9);
    }

    #[test]
    fn fcn_class_apps_do_not_favor_hfast() {
        // PARATEC-like: fully connected at P=64 with big messages. The
        // per-node mapping needs block trees for degree 63 ≫ 15.
        let g = complete_graph(64, 32 << 10);
        let p = PaperLinear.provision(&g, ProvisionConfig::default());
        let cmp = CostComparison::of(&p, &CostModel::default());
        assert!(
            !cmp.hfast_wins(),
            "case-iv app: hfast {} vs fat tree {}",
            cmp.hfast,
            cmp.fat_tree
        );
    }

    #[test]
    fn hfast_packet_ports_scale_linearly() {
        // Same per-node TDC at two scales → identical ports/node.
        let small = PaperLinear.provision(
            &mesh3d_graph((4, 4, 4), 300 << 10),
            ProvisionConfig::default(),
        );
        let large = PaperLinear.provision(
            &mesh3d_graph((8, 8, 8), 300 << 10),
            ProvisionConfig::default(),
        );
        assert!((small.block_ports_per_node() - large.block_ports_per_node()).abs() < 1e-12);
    }

    #[test]
    fn cost_model_components_add_up() {
        let g = mesh3d_graph((2, 2, 2), 1 << 20);
        let prov = PaperLinear.provision(&g, ProvisionConfig::default());
        let model = CostModel {
            packet_port: 1.0,
            circuit_port: 0.0,
            collective_per_node: 0.0,
        };
        assert_eq!(hfast_cost(&prov, &model), prov.total_block_ports() as f64);
        let model2 = CostModel {
            packet_port: 0.0,
            circuit_port: 1.0,
            collective_per_node: 0.0,
        };
        assert_eq!(hfast_cost(&prov, &model2), prov.circuit_ports_used() as f64);
    }

    #[test]
    #[should_panic(expected = "at least 4 ports")]
    fn tiny_switches_rejected() {
        FatTree::for_processors(8, 2);
    }
}
