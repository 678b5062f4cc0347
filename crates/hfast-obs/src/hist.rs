//! Log-bucketed histograms.
//!
//! Message sizes, queueing delays, and latencies all span many orders of
//! magnitude, so the paper's own analyses (buffer-size CDFs, Figures 3–4)
//! bucket them logarithmically. [`Histogram`] does the same: 65 power-of-two
//! buckets cover the full `u64` range, recording is one `fetch_add` on the
//! bucket plus count/sum updates, and reads are snapshots — safe to take
//! while writers are still recording. A writer with a hot loop of its own
//! counts into a plain [`BUCKETS`]-wide array instead and hands the lot
//! over with [`Histogram::merge`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const BUCKETS: usize = 65;

/// A concurrent histogram with power-of-two buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 holds only zero; bucket `i >= 1` holds
/// `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Interpolated q-quantile over a raw log₂ bucket-count array (the layout
/// [`Histogram::bucket_counts`] produces); 0 when empty.
///
/// Shared by [`Histogram::quantile`] and the sliding-window aggregator in
/// [`crate::window`], which sums bucket counts across ring slots before
/// asking for rolling quantiles — one estimator, one answer.
pub(crate) fn quantile_from_counts(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let threshold = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c >= threshold {
            if i == 0 {
                return 0;
            }
            // Rank position inside this bucket, in (0, 1].
            let into = (threshold - cum) as f64 / c as f64;
            let lo = if i == 1 { 1 } else { 1u64 << (i - 1) };
            let hi = bucket_bound(i);
            let span = (hi - lo) as f64;
            // Saturating: in the top bucket `lo + span` is `u64::MAX`
            // and the float product can round past it.
            return lo.saturating_add((span * into).round() as u64);
        }
        cum += c;
    }
    bucket_bound(counts.len().min(BUCKETS) - 1)
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_bound(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index out of range");
    if i == 0 {
        0
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds in observations a writer counted privately: `counts[i]` of
    /// them fell in bucket `i` (see [`bucket_index`]) and together they
    /// sum to `sum` (wrapping). Leaves the histogram exactly as one
    /// [`record`](Histogram::record) per observation would.
    pub fn merge(&self, counts: &[u64; BUCKETS], sum: u64) {
        let mut total = 0u64;
        for (bucket, &c) in self.buckets.iter().zip(counts) {
            if c > 0 {
                bucket.fetch_add(c, Ordering::Relaxed);
                total += c;
            }
        }
        self.count.fetch_add(total, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of all bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `q` (0.0–1.0) of all observations; 0 when empty. An upper estimate
    /// of the q-quantile, exact to within the bucket's power of two.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= threshold {
                return bucket_bound(i);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Interpolated q-quantile (0.0–1.0) from the log₂ buckets; 0 when
    /// empty.
    ///
    /// Where [`quantile_bound`](Histogram::quantile_bound) reports the
    /// bucket's upper bound (an overestimate by up to 2×), this linearly
    /// interpolates by rank position inside the bucket that crosses the
    /// threshold, assuming observations spread uniformly across the
    /// bucket's `[2^(i-1), 2^i)` range — the estimator summaries should
    /// print (p50/p95/p99) instead of raw bucket dumps.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), q)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, for compact
    /// export.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
            .collect()
    }
}

impl Clone for Histogram {
    /// Cloning snapshots the current contents.
    fn clone(&self) -> Self {
        Histogram {
            buckets: std::array::from_fn(|i| {
                AtomicU64::new(self.buckets[i].load(Ordering::Relaxed))
            }),
            count: AtomicU64::new(self.count()),
            sum: AtomicU64::new(self.sum()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_cover_their_buckets() {
        for i in 1..BUCKETS {
            let hi = bucket_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound lands in bucket {i}");
            let lo = bucket_bound(i - 1).saturating_add(1);
            assert_eq!(bucket_index(lo), i, "lower bound lands in bucket {i}");
        }
    }

    #[test]
    fn records_and_aggregates() {
        let h = Histogram::new();
        for v in [0, 1, 1, 100, 4096] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 4198);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1, "one zero");
        assert_eq!(counts[1], 2, "two ones");
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn merge_equals_repeated_record() {
        hfast_par::forall("hist_merge_equals_record", 64, |rng| {
            let (merged, recorded) = (Histogram::new(), Histogram::new());
            // Something already there, so merge adds rather than sets.
            for h in [&merged, &recorded] {
                h.record(7);
            }
            let mut counts = [0u64; BUCKETS];
            let mut sum = 0u64;
            for _ in 0..rng.range(0, 200) {
                // Every magnitude, zero and the wrapping sum included.
                let v = rng.range_u64(0, u64::MAX) >> rng.range(0, 64);
                recorded.record(v);
                counts[bucket_index(v)] += 1;
                sum = sum.wrapping_add(v);
            }
            merged.merge(&counts, sum);
            assert_eq!(merged.bucket_counts(), recorded.bucket_counts());
            assert_eq!(merged.count(), recorded.count());
            assert_eq!(merged.sum(), recorded.sum());
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(merged.quantile(q), recorded.quantile(q), "q={q}");
            }
        });
    }

    #[test]
    fn quantile_bound_brackets_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_bound(0.5);
        assert!((500..=1023).contains(&p50), "p50 bound {p50}");
        assert!(h.quantile_bound(1.0) >= 1000);
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // 500 observations land in buckets up to [256, 511]; interpolation
        // keeps the estimate near the true median instead of the 1023
        // bucket bound.
        assert!(
            (350..=700).contains(&p50),
            "interpolated p50 {p50} near true 500"
        );
        assert!(h.quantile(0.99) <= h.quantile_bound(0.99));
        assert!(h.quantile(1.0) >= h.quantile(0.5));
        assert_eq!(Histogram::new().quantile(0.5), 0);
        // Only zeros: the zero bucket answers every quantile.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.99), 0);
    }

    #[test]
    fn quantile_exact_for_single_value_buckets() {
        let h = Histogram::new();
        h.record(1); // bucket [1, 1]
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn nonzero_buckets_compact_form() {
        let h = Histogram::new();
        h.record(5);
        h.record(6);
        h.record(1 << 20);
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(7, 2), ((1 << 21) - 1, 1)]);
    }
}
