//! A minimal property-test harness.
//!
//! Each case gets a PRNG derived deterministically from a base seed and the
//! case index; the property draws whatever random structure it needs from
//! that PRNG and asserts with the standard `assert!` family. On failure the
//! harness reports the property name, case index, and per-case seed, then
//! re-raises the original panic so the assertion message is preserved.
//!
//! `HFAST_CHECK_SEED=<n>` overrides the base seed (to replay a failure or
//! diversify CI); `HFAST_CHECK_CASES=<n>` scales the case count.

use crate::rng::Rng64;

/// Default base seed mixed into every property.
pub(crate) const DEFAULT_BASE_SEED: u64 = 0x5EED_CAFE_F00D_D00D;

fn base_seed() -> u64 {
    std::env::var("HFAST_CHECK_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_BASE_SEED)
}

fn case_count(requested: usize) -> usize {
    std::env::var("HFAST_CHECK_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(requested)
        .max(1)
}

/// Seed of case `case` under base seed `base` (exposed so a failing case
/// can be replayed in isolation).
pub(crate) fn case_seed(base: u64, case: u64) -> u64 {
    // SplitMix-style mixing keeps neighbouring cases decorrelated.
    Rng64::new(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Runs `property` on `cases` seeded random cases.
///
/// The property receives a fresh [`Rng64`] per case. Panics (assertion
/// failures) are reported with the case index and seed, then propagated.
pub fn forall<F>(name: &str, cases: usize, property: F)
where
    F: Fn(&mut Rng64) + std::panic::RefUnwindSafe,
{
    let base = base_seed();
    for case in 0..case_count(cases) as u64 {
        let seed = case_seed(base, case);
        let result = std::panic::catch_unwind(|| {
            let mut rng = Rng64::new(seed);
            property(&mut rng);
        });
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed on case {case} (seed {seed:#x}); \
                 replay with HFAST_CHECK_SEED={base} or Rng64::new({seed:#x})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        forall("counts", 17, |_rng| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        // HFAST_CHECK_CASES may scale this in exotic environments; at
        // minimum every requested case ran once.
        assert!(counter.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    }

    #[test]
    #[should_panic(expected = "deliberate failure")]
    fn failing_property_propagates() {
        forall("fails", 10, |rng| {
            let x = rng.range(0, 100);
            assert!(x < 1000, "impossible");
            if x < 200 {
                panic!("deliberate failure");
            }
        });
    }

    #[test]
    fn case_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..1000 {
            assert!(seen.insert(case_seed(DEFAULT_BASE_SEED, c)));
        }
    }
}
