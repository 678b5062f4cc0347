//! Property-based tests for provisioning, clustering, and cost models.

use hfast_core::AnalyticHfast;
use hfast_core::{
    cluster_nodes, hfast_fault_impact, remove_nodes, Clustered, CostModel, FatTree, GraphDelta,
    PaperLinear, ProvisionConfig, Provisioner, Strategy,
};
use hfast_par::{forall, Rng64};
use hfast_topology::CommGraph;

fn random_graph(rng: &mut Rng64, n: usize, max_msgs: usize) -> CommGraph {
    let mut g = CommGraph::new(n);
    for _ in 0..rng.range(0, max_msgs) {
        let a = rng.range(0, n);
        let b = rng.range(0, n);
        if a != b {
            g.add_message(a, b, rng.range_u64(1, 2 << 20));
        }
    }
    g
}

#[test]
fn per_node_provisioning_always_validates() {
    forall("per_node_provisioning_always_validates", 64, |rng| {
        let g = random_graph(rng, 14, 120);
        let k = rng.range(4, 24);
        let config = ProvisionConfig {
            block_ports: k,
            cutoff: 2048,
        };
        let prov = PaperLinear.provision(&g, config);
        assert!(prov.validate(&g).is_ok());
        // Every above-cutoff pair routes with ≥2 hops; symmetric.
        for a in 0..14 {
            for (b, e) in g.neighbors(a) {
                if e.max_msg >= 2048 {
                    let r1 = prov.route(a, b).expect("routed");
                    let r2 = prov.route(b, a).expect("routed");
                    assert_eq!(r1, r2, "routes are symmetric");
                    assert!(r1.switch_hops >= 2);
                    assert!(r1.circuit_traversals == r1.switch_hops + 1);
                }
            }
        }
    });
}

#[test]
fn clustered_provisioning_always_validates() {
    forall("clustered_provisioning_always_validates", 64, |rng| {
        let g = random_graph(rng, 14, 120);
        let k = rng.range(6, 24);
        let config = ProvisionConfig {
            block_ports: k,
            cutoff: 2048,
        };
        let clusters = cluster_nodes(&g, &config);
        // Disjoint cover.
        let mut seen = [false; 14];
        for c in &clusters {
            for &v in c {
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let prov = Clustered::new(clusters).provision(&g, config);
        assert!(prov.validate(&g).is_ok());
    });
}

#[test]
fn clustering_never_needs_more_blocks_than_per_node() {
    forall(
        "clustering_never_needs_more_blocks_than_per_node",
        64,
        |rng| {
            let g = random_graph(rng, 12, 100);
            let config = ProvisionConfig::default();
            let clustered = Clustered::new(cluster_nodes(&g, &config)).provision(&g, config);
            let per_node = PaperLinear.provision(&g, config);
            assert!(
                clustered.total_blocks() <= per_node.total_blocks(),
                "sharing blocks can only reduce the pool: {} vs {}",
                clustered.total_blocks(),
                per_node.total_blocks()
            );
        },
    );
}

#[test]
fn fault_survivors_never_degrade() {
    forall("fault_survivors_never_degrade", 64, |rng| {
        let g = random_graph(rng, 12, 80);
        let mut failed: Vec<usize> = (0..rng.range(0, 4)).map(|_| rng.range(0, 12)).collect();
        failed.sort_unstable();
        failed.dedup();
        let report = hfast_fault_impact(&g, ProvisionConfig::default(), &failed);
        assert!(!report.survivors_degraded);
        assert_eq!(report.failed, failed.len());
        // Removing nodes never adds traffic.
        let cut = remove_nodes(&g, &failed);
        assert!(cut.total_bytes() <= g.total_bytes());
    });
}

#[test]
fn fat_tree_formula_invariants() {
    forall("fat_tree_formula_invariants", 64, |rng| {
        let p = rng.range(1, 100_000);
        let n_ports = rng.range(2, 17) * 2;
        let ft = FatTree::for_processors(p, n_ports);
        // The chosen layer count covers P but L−1 does not.
        assert!(FatTree::capacity(n_ports, ft.layers) >= p);
        if ft.layers > 1 {
            assert!(FatTree::capacity(n_ports, ft.layers - 1) < p);
        }
        assert_eq!(ft.ports_per_processor(), 1 + 2 * (ft.layers - 1));
        assert_eq!(ft.max_switch_hops(), 2 * ft.layers - 1);
    });
}

#[test]
fn analytic_cost_is_monotone_in_tdc() {
    forall("analytic_cost_is_monotone_in_tdc", 64, |rng| {
        let p = rng.range(16, 4096);
        let tdc_a = rng.range(1, 10);
        let extra = rng.range(1, 20);
        let config = ProvisionConfig::default();
        let model = CostModel::default();
        let low = AnalyticHfast {
            p,
            tdc: tdc_a,
            config,
        };
        let high = AnalyticHfast {
            p,
            tdc: tdc_a + extra,
            config,
        };
        assert!(low.cost(&model) <= high.cost(&model));
        assert!(low.packet_ports() <= high.packet_ports());
    });
}

#[test]
fn blocks_needed_capacity_is_sufficient_and_tight() {
    forall(
        "blocks_needed_capacity_is_sufficient_and_tight",
        64,
        |rng| {
            let attach = rng.range(1, 8);
            let external = rng.range(0, 200);
            let k = rng.range(4, 32);
            let config = ProvisionConfig {
                block_ports: k,
                cutoff: 2048,
            };
            let b = config.blocks_needed(attach, external);
            assert!(config.chain_capacity(b, attach) >= external as isize);
            if b > 1 {
                assert!(
                    config.chain_capacity(b - 1, attach) < external as isize,
                    "minimal block count"
                );
            }
        },
    );
}

#[test]
fn every_strategy_validates_on_random_graphs() {
    forall("every_strategy_validates_on_random_graphs", 48, |rng| {
        let n = rng.range(4, 20);
        let g = random_graph(rng, n, 100);
        let config = ProvisionConfig {
            block_ports: rng.range(4, 24),
            cutoff: 2048,
        };
        for s in Strategy::ALL {
            let prov = s.provisioner().provision(&g, config);
            assert!(
                prov.validate(&g).is_ok(),
                "{s} must produce a valid provisioning"
            );
        }
    });
}

/// Every strategy places every node of the graph in a cluster. `validate`
/// reads a node in no cluster as offline, so it cannot catch a strategy
/// that drops nodes; this property does.
#[test]
fn every_strategy_places_every_node() {
    forall("every_strategy_places_every_node", 48, |rng| {
        let n = rng.range(4, 24);
        let g = random_graph(rng, n, 160);
        let config = ProvisionConfig {
            block_ports: rng.range(4, 24),
            cutoff: 2048,
        };
        for s in Strategy::ALL {
            let prov = s.provisioner().provision(&g, config);
            for v in 0..n {
                assert!(
                    prov.cluster_of(v).is_some(),
                    "{s} left node {v} of {n} in no cluster"
                );
            }
        }
    });
}

/// The paper heuristic's incremental path must land on the exact structure
/// a from-scratch pass over the updated graph produces: same block count,
/// same circuit pairs, same below-cutoff ledger, and the same walk for every
/// ordered pair (which carries each circuit's chain positions) — over an
/// arbitrary sequence of traffic deltas, not just one step.
#[test]
fn incremental_reprovision_matches_scratch() {
    forall("incremental_reprovision_matches_scratch", 32, |rng| {
        let n = rng.range(6, 18);
        let mut g = random_graph(rng, n, 60);
        let config = ProvisionConfig {
            block_ports: rng.range(4, 24),
            cutoff: 2048,
        };
        let mut prov = PaperLinear.provision(&g, config);
        for _ in 0..rng.range(1, 6) {
            let mut next = g.clone();
            for _ in 0..rng.range(1, 8) {
                let a = rng.range(0, n);
                let b = rng.range(0, n);
                if a != b {
                    next.add_message(a, b, rng.range_u64(1, 2 << 20));
                }
            }
            let delta = GraphDelta::diff(&g, &next);
            prov = PaperLinear.reprovision(prov, &next, &delta).provisioning;
            g = next;

            let scratch = PaperLinear.provision(&g, config);
            assert!(prov.validate(&g).is_ok());
            assert_eq!(prov.total_blocks(), scratch.total_blocks());
            assert_eq!(prov.unprovisioned(), scratch.unprovisioned());
            assert!(prov.circuit_pairs().eq(scratch.circuit_pairs()));
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(prov.walk(a, b), scratch.walk(a, b), "walk {a}->{b}");
                }
            }
        }
    });
}
