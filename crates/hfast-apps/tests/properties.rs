//! Property-based tests for the application kernels' pattern generators:
//! partner relations must be symmetric (a sendrecv/halo exchange deadlocks
//! or drops traffic otherwise) and deterministic; and the replay executor
//! must profile every kernel as rank threads do.

use std::sync::Arc;

use hfast_apps::{all_apps, Cactus, CommKernel, Lbmhd, Pmemd, Synthetic};
use hfast_ipm::{CommProfile, IpmProfiler};
use hfast_mpi::{CommHook, World, WorldConfig};
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

/// A `profile_digest`-style FNV fold of a profile, wall clock left out:
/// size, overflow, each entry's kind, bytes and count, and both volume
/// lists.
fn fold(p: &CommProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    put(p.size as u64);
    put(p.overflow);
    for e in &p.entries {
        put(e.kind.index() as u64);
        put(e.bytes);
        put(e.stats.count);
    }
    for volume in [&p.api_volume, &p.wire_volume] {
        put(volume.len() as u64);
        for &(src, dst, stat) in volume {
            put(src as u64);
            put(dst as u64);
            put(stat.bytes);
            put(stat.count);
            put(stat.max_msg);
        }
    }
    h
}

/// `(merged, steady)` folds of `app` at `procs` under rank threads and
/// under the replay.
fn both_executors(app: &dyn CommKernel, procs: usize) -> [(u64, u64); 2] {
    let profile = |replay: bool| {
        let profiler = Arc::new(IpmProfiler::new(procs));
        let config = WorldConfig::new(procs).hook(Arc::clone(&profiler) as Arc<dyn CommHook>);
        let rank = |comm: &mut hfast_mpi::Comm| app.run(comm, &profiler);
        let ranks = if replay {
            World::replay(config, rank)
        } else {
            World::run_with(config, rank)
        };
        let name = app.name();
        let ranks = ranks.unwrap_or_else(|e| panic!("{name} P={procs}: {e}"));
        assert!(
            ranks.iter().all(Result::is_ok),
            "{name} P={procs}: {ranks:?}"
        );
        (
            fold(&profiler.profile()),
            fold(&profiler.region_profile("steady")),
        )
    };
    [profile(false), profile(true)]
}

#[test]
fn replay_profiles_match_threads() {
    for app in all_apps() {
        for procs in [8, 16] {
            let [threads, replay] = both_executors(app.as_ref(), procs);
            assert_eq!(threads, replay, "{} P={procs}", app.name());
        }
    }
    forall("replay_profiles_match_threads", 24, |rng| {
        let mut app = Synthetic::new(
            rng.range_u64(0, 10_000),
            rng.range(1, 8),
            rng.range(1, 64 << 10),
        );
        app.steps = rng.range(1, 6);
        app.collective_every = rng.range(0, 4);
        let procs = rng.range(1, 33);
        let [threads, replay] = both_executors(&app, procs);
        assert_eq!(threads, replay, "{app:?} P={procs}");
    });
}
