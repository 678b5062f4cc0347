//! Property tests for the observability primitives.

use hfast_obs::hist::{bucket_bound, bucket_index, BUCKETS};
use hfast_obs::Histogram;
use hfast_par::forall;

#[test]
fn histogram_bucket_counts_sum_to_observation_count() {
    forall("hist_buckets_sum_to_count", 64, |rng| {
        let h = Histogram::new();
        let n = rng.range(0, 2000);
        let mut sum = 0u64;
        for _ in 0..n {
            // Mix magnitudes so every bucket range gets exercised.
            let v = match rng.range(0, 4) {
                0 => 0,
                1 => rng.range_u64(1, 1 << 8),
                2 => rng.range_u64(1, 1 << 32),
                _ => rng.next_u64(),
            };
            sum = sum.wrapping_add(v);
            h.record(v);
        }
        assert_eq!(h.count(), n as u64);
        assert_eq!(
            h.bucket_counts().iter().sum::<u64>(),
            n as u64,
            "bucket counts must sum to the observation count"
        );
        assert_eq!(h.sum(), sum);
        let nz_total: u64 = h.nonzero_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(nz_total, n as u64);
    });
}

#[test]
fn histogram_bucket_contains_its_values() {
    forall("hist_bucket_contains_value", 64, |rng| {
        let v = match rng.range(0, 3) {
            0 => rng.range_u64(0, 1 << 10),
            1 => rng.range_u64(0, 1 << 40),
            _ => rng.next_u64(),
        };
        let i = bucket_index(v);
        assert!(i < BUCKETS);
        assert!(v <= bucket_bound(i), "value {v} above its bucket bound");
        if i > 0 {
            assert!(v > bucket_bound(i - 1), "value {v} fits an earlier bucket");
        }
    });
}

#[test]
fn histogram_quantile_bound_is_an_upper_bound() {
    forall("hist_quantile_upper_bound", 48, |rng| {
        let h = Histogram::new();
        let n = rng.range(1, 500);
        let mut values: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1 << 48)).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.5, 0.95, 1.0] {
            let idx = ((values.len() as f64 - 1.0) * q).round() as usize;
            let exact = values[idx];
            let bound = h.quantile_bound(q);
            assert!(
                bound >= exact,
                "q={q}: bound {bound} below exact quantile {exact}"
            );
        }
    });
}
