//! A guard the dense `P × P` store could not pass: the analysis half at the
//! paper's ultra-scale tier. A 3D torus at P = 65 536 is ≈ 103 GB as a
//! matrix of `EdgeStat`s and a few MB as sorted rows, so this test cannot
//! even allocate unless a graph costs O(P·TDC); it also has to finish in
//! seconds in the tier-1 profile, which holds the sweep, the provisioner
//! and `validate` to O(edges), and an incremental `reprovision` to the
//! chains its delta touches.

use hfast::core::{GraphDelta, PaperLinear, ProvisionConfig, Provisioner, Strategy};
use hfast::topology::generators::{balanced_dims3, complete_graph, torus3d_graph};
use hfast::topology::{tdc_sweep, PAPER_CUTOFFS};
use hfast_par::Rng64;

#[test]
fn torus_at_64k_tasks_sweeps_provisions_and_validates() {
    const P: usize = 65_536;
    const MSG: u64 = 300 << 10;
    let graph = torus3d_graph(balanced_dims3(P), MSG);
    assert_eq!(graph.n(), P);
    assert_eq!(graph.edge_count(), 3 * P);

    for (cutoff, summary) in tdc_sweep(&graph, &PAPER_CUTOFFS) {
        let degree = if cutoff <= MSG { 6 } else { 0 };
        assert_eq!((summary.max, summary.min), (degree, degree), "at {cutoff}");
    }

    let prov = PaperLinear.provision(&graph, ProvisionConfig::default());
    prov.validate(&graph).expect("valid at 64k tasks");
    assert_eq!(prov.total_blocks(), P, "TDC 6 < 15: one block per node");
    assert!((0..P).all(|c| prov.chain_len(c) == Some(1)));
    assert_eq!(prov.circuit_pairs().count(), 3 * P);

    // One more 1 MiB message on 1 % as many seeded pairs as there are
    // edges: new chords, so the incremental path re-patches the chains
    // they touch and must land every circuit where a scratch build does.
    let mut grown = graph;
    let mut rng = Rng64::new(0x6_5536);
    let mut delta = GraphDelta::new();
    for _ in 0..grown.edge_count() / 100 {
        let (a, b) = (rng.range(0, P), rng.range(0, P));
        if a != b {
            grown.add_message(a, b, 1 << 20);
            delta.note(a, b, *grown.edge(a, b));
        }
    }
    let out = PaperLinear.reprovision(prov, &grown, &delta);
    assert!(!out.full_rebuild, "a 1 % delta stays incremental");
    out.provisioning
        .validate(&grown)
        .expect("valid after reprovision");
    let scratch = PaperLinear.provision(&grown, ProvisionConfig::default());
    assert!(out.provisioning.circuit_pairs().eq(scratch.circuit_pairs()));
    assert!(!out.touched_pairs.is_empty());
    for &(a, b) in &out.touched_pairs {
        for (src, dst) in [(a, b), (b, a)] {
            assert_eq!(
                out.provisioning.route(src, dst),
                scratch.route(src, dst),
                "route {src} -> {dst}"
            );
        }
    }
}

/// The dense-degree twin of the torus above: a complete graph at P = 512
/// has 130,816 edges at TDC 511, so each node's chain spans 37 blocks and
/// every strategy patches or shares one circuit per edge. `validate` and
/// `reprovision` have to stay O(edges) for this to finish in tier-1 time.
#[test]
fn complete_512_provisions_validates_and_reprovisions_under_every_strategy() {
    const P: usize = 512;
    const EDGES: usize = P * (P - 1) / 2;
    for strategy in Strategy::ALL {
        let mut graph = complete_graph(P, 300 << 10);
        assert_eq!(graph.edge_count(), EDGES);
        let provisioner = strategy.provisioner();
        let prov = provisioner.provision(&graph, ProvisionConfig::default());
        prov.validate(&graph)
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(
            prov.circuit_pairs().count() + prov.intra_edges().len(),
            EDGES
        );

        // One more 1 MiB message on 1 % as many seeded pairs as there are
        // edges.
        let mut rng = Rng64::new(0xc0_0512);
        let mut delta = GraphDelta::new();
        for _ in 0..EDGES / 100 {
            let (a, b) = (rng.range(0, P), rng.range(0, P));
            if a != b {
                graph.add_message(a, b, 1 << 20);
                delta.note(a, b, *graph.edge(a, b));
            }
        }
        let grown = provisioner.reprovision(prov, &graph, &delta).provisioning;
        grown
            .validate(&graph)
            .unwrap_or_else(|e| panic!("{strategy} after reprovision: {e}"));
        assert_eq!(
            grown.circuit_pairs().count() + grown.intra_edges().len(),
            EDGES
        );
    }
}
