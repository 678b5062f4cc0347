//! Integration: the paper's §2.2/§2.5 comparison between the
//! bounded-degree ICN and HFAST, on the measured application topologies.
//!
//! "Of these codes, if the maximum TDC is bounded by a low degree, then
//! bounded-degree approaches such as ICN will be sufficient. For
//! applications where the average TDC is bounded by a small number, while
//! the maximum TDC is arbitrarily large, the more flexible HFAST approach
//! to allocating packet-switch resources is warranted."

use hfast::apps::{profile_app, Gtc, Lbmhd, Pmemd};
use hfast::core::{icn_embed, IcnConfig, IcnError, PaperLinear, ProvisionConfig, Provisioner};

#[test]
fn lbmhd_fits_the_bounded_degree_icn() {
    // Case ii: uniform degree 12 < k = 16 → ICN suffices.
    let out = profile_app(&Lbmhd::new(2), 64).expect("profiled run");
    let g = out.steady.comm_graph();
    let emb = icn_embed(&g, &IcnConfig::default()).expect("case-ii code embeds");
    assert!(emb.blocks > 0);
    // HFAST of course handles it too.
    PaperLinear
        .provision(&g, ProvisionConfig::default())
        .validate(&g)
        .unwrap();
}

#[test]
fn gtc_leaders_overflow_the_icn_but_not_hfast() {
    // Case iii at P=256: leader max TDC 17 (unthresholded) exceeds k = 16.
    let out = profile_app(&Gtc::default(), 256).expect("profiled run");
    let g = out.steady.comm_graph();
    let err = icn_embed(
        &g,
        &IcnConfig {
            block_size: 16,
            cutoff: 0,
        },
    )
    .unwrap_err();
    assert!(matches!(err, IcnError::DegreeOverflow { degree: 17, .. }));
    // HFAST assigns the leaders extra blocks and routes everything.
    let prov = PaperLinear.provision(
        &g,
        ProvisionConfig {
            block_ports: 16,
            cutoff: 0,
        },
    );
    prov.validate(&g).unwrap();
    let leader_cluster = prov.cluster_of(0).expect("leader online");
    assert!(
        prov.chain_len(leader_cluster) >= Some(2),
        "high-TDC leader gets a block chain"
    );
}

#[test]
fn pmemd_overflows_any_practical_icn() {
    // Case iii: max TDC = P−1 after thresholding — no fixed block size
    // short of P accommodates the hot rank.
    let out = profile_app(&Pmemd::new(1), 64).expect("profiled run");
    let g = out.steady.comm_graph();
    for k in [8usize, 16, 32] {
        assert!(
            icn_embed(
                &g,
                &IcnConfig {
                    block_size: k,
                    cutoff: 2048
                }
            )
            .is_err(),
            "k = {k} must overflow"
        );
    }
    // HFAST provisions it with chained blocks.
    let prov = PaperLinear.provision(&g, ProvisionConfig::default());
    prov.validate(&g).unwrap();
    assert!(prov.total_blocks() > 64, "block trees for degree-63 nodes");
}
