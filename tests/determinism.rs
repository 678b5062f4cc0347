//! Integration: the profiling pipeline is deterministic.
//!
//! Thread scheduling varies between runs, but the *messaging statistics* —
//! call counts, buffer sizes, volume matrices — must not: every number the
//! reproduction reports has to be reproducible bit-for-bit (timing fields
//! excluded, which is why profiles are compared through their reduced
//! views rather than raw call durations).

use hfast::apps::{all_apps, profile_app, CommKernel, Synthetic};
use hfast::ipm::CommProfile;

/// Aggregated (call name, buffer size, count) entries.
type CallFingerprint = Vec<(String, u64, u64)>;
/// Directed (src, dst, bytes, count, max_msg) volume entries.
type VolumeFingerprint = Vec<(usize, usize, u64, u64, u64)>;

/// The schedule-independent reduction of a profile.
fn fingerprint(p: &CommProfile) -> (CallFingerprint, VolumeFingerprint) {
    let mut entries: Vec<(String, u64, u64)> = p
        .entries
        .iter()
        .filter(|e| !e.kind.is_transport())
        .map(|e| (e.kind.mpi_name().to_string(), e.bytes, e.stats.count))
        .collect();
    entries.sort();
    let volume: Vec<(usize, usize, u64, u64, u64)> = p
        .api_volume
        .iter()
        .map(|&(src, dst, s)| (src, dst, s.bytes, s.count, s.max_msg))
        .collect();
    (entries, volume)
}

fn assert_deterministic(app: &dyn CommKernel, procs: usize) {
    let a = profile_app(app, procs).expect("first run");
    let b = profile_app(app, procs).expect("second run");
    assert_eq!(
        fingerprint(&a.steady),
        fingerprint(&b.steady),
        "{} at P={procs} must produce identical messaging statistics",
        app.name()
    );
}

#[test]
fn all_study_apps_are_deterministic_at_p16() {
    for app in all_apps() {
        assert_deterministic(app.as_ref(), 16);
    }
}

#[test]
fn cactus_deterministic_at_p64() {
    assert_deterministic(&hfast::apps::Cactus::new(4), 64);
}

#[test]
fn synthetic_deterministic_across_runs_and_seeds() {
    assert_deterministic(&Synthetic::new(11, 4, 8192), 16);
    // Different seeds produce different topologies.
    let a = profile_app(&Synthetic::new(1, 4, 8192), 16).unwrap();
    let b = profile_app(&Synthetic::new(2, 4, 8192), 16).unwrap();
    assert_ne!(
        fingerprint(&a.steady).1,
        fingerprint(&b.steady).1,
        "seeds must matter"
    );
}
