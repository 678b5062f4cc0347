//! A guard the dense `P × P` store could not pass: the analysis half at the
//! paper's ultra-scale tier. A 3D torus at P = 65 536 is ≈ 103 GB as a
//! matrix of `EdgeStat`s and a few MB as sorted rows, so this test cannot
//! even allocate unless a graph costs O(P·TDC); it also has to finish in
//! seconds in the tier-1 profile, which holds the sweep, the provisioner
//! and `validate` to O(edges).

use hfast::core::{PaperLinear, ProvisionConfig, Provisioner};
use hfast::topology::generators::{balanced_dims3, torus3d_graph};
use hfast::topology::{tdc_sweep, PAPER_CUTOFFS};

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
    assert!(prov.clusters.iter().all(|c| c.blocks.len() == 1));
    assert_eq!(prov.edge_circuits.len(), 3 * P);
}
