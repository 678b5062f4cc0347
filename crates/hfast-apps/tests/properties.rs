//! Property-based tests for the application kernels' pattern generators:
//! partner relations must be symmetric (a sendrecv/halo exchange deadlocks
//! or drops traffic otherwise) and deterministic.

use hfast_apps::{Cactus, Lbmhd, Pmemd, Synthetic};
use hfast_par::forall;

#[test]
fn cactus_partners_are_symmetric() {
    forall("cactus_partners_are_symmetric", 256, |rng| {
        let procs = rng.range(2, 100);
        let rank = rng.range(0, 1000) % procs;
        for p in Cactus::partners(procs, rank) {
            assert!(p < procs);
            assert_ne!(p, rank);
            assert!(
                Cactus::partners(procs, p).contains(&rank),
                "mesh neighbourhood must be mutual: {} vs {}",
                rank,
                p
            );
        }
    });
}

#[test]
fn lbmhd_partners_are_symmetric_and_bounded() {
    forall("lbmhd_partners_are_symmetric_and_bounded", 256, |rng| {
        let procs = *rng.pick(&[16usize, 36, 64, 100, 144, 256]);
        let rank = rng.range(0, 1000) % procs;
        let partners = Lbmhd::partners(procs, rank);
        assert!(partners.len() <= 12);
        for p in partners {
            assert!(
                Lbmhd::partners(procs, p).contains(&rank),
                "offset set must be closed under negation"
            );
        }
    });
}

#[test]
fn pmemd_message_sizes_are_symmetric_and_monotone() {
    forall(
        "pmemd_message_sizes_are_symmetric_and_monotone",
        256,
        |rng| {
            let procs = *rng.pick(&[16usize, 64, 128, 256]);
            let a = rng.range(0, 256) % procs;
            let b = rng.range(0, 256) % procs;
            assert_eq!(
                Pmemd::message_bytes(procs, a, b),
                Pmemd::message_bytes(procs, b, a)
            );
            // Decay monotonicity for non-hot pairs: a partner one step farther
            // (up to the cutoff distance) never receives more bytes.
            let src = 1usize; // never the hot rank
            let cut = Pmemd::cutoff_distance(procs);
            for d in 1..cut.min(procs - 3) {
                let nearer = Pmemd::message_bytes(procs, src, src + d);
                let farther = Pmemd::message_bytes(procs, src, src + d + 1);
                if src + d + 1 != hfast_apps::HOT_RANK {
                    assert!(nearer >= farther, "d={d}: {nearer} < {farther}");
                }
            }
        },
    );
}

#[test]
fn synthetic_patterns_symmetric_for_any_seed() {
    forall("synthetic_patterns_symmetric_for_any_seed", 128, |rng| {
        let seed = rng.range_u64(0, 10_000);
        let degree = rng.range(1, 8);
        let procs = rng.range(4, 48);
        let app = Synthetic::new(seed, degree, 4096);
        let lists = app.partner_lists(procs);
        assert_eq!(lists.len(), procs);
        for (v, list) in lists.iter().enumerate() {
            assert!(list.len() >= degree.min(procs - 1));
            for &u in list {
                assert_ne!(u, v);
                assert!(lists[u].contains(&v));
            }
        }
        // Determinism.
        assert_eq!(&lists, &app.partner_lists(procs));
    });
}
