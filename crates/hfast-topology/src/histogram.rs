//! Cumulative buffer-size distributions (paper Figures 3 and 4).

use std::collections::BTreeMap;

/// A weighted histogram of message buffer sizes.
///
/// Backs the cumulatively-histogrammed buffer-size plots: Figure 3
/// (collective payloads across all codes) and Figure 4 (point-to-point
/// payloads per code).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferHistogram {
    /// size in bytes → number of calls with that buffer size.
    entries: BTreeMap<u64, u64>,
}

impl BufferHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` calls with the given buffer size.
    pub(crate) fn add(&mut self, bytes: u64, count: u64) {
        if count > 0 {
            *self.entries.entry(bytes).or_insert(0) += count;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &BufferHistogram) {
        for (&bytes, &count) in &other.entries {
            self.add(bytes, count);
        }
    }

    /// Total number of calls recorded.
    pub fn total(&self) -> u64 {
        self.entries.values().sum()
    }

    /// True if no calls were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of calls with buffer size ≤ `bytes` (the y-axis of the
    /// paper's cumulative plots), in `[0, 1]`.
    pub fn fraction_at_or_below(&self, bytes: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let below: u64 = self.entries.range(..=bytes).map(|(_, &c)| c).sum();
        below as f64 / total as f64
    }

    /// The cumulative distribution as (size, fraction ≤ size) points.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let total = self.total();
        let mut acc = 0u64;
        self.entries
            .iter()
            .map(|(&b, &c)| {
                acc += c;
                (b, acc as f64 / total as f64)
            })
            .collect()
    }

    /// Weighted p-th percentile buffer size (`p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (&bytes, &count) in &self.entries {
            acc += count;
            if acc >= target {
                return Some(bytes);
            }
        }
        self.entries.keys().next_back().copied()
    }

    /// Weighted median buffer size (Table 3's "median PTP buffer" /
    /// "median Col. buffer" columns).
    pub fn median(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// Largest recorded buffer size.
    pub fn max(&self) -> Option<u64> {
        self.entries.keys().next_back().copied()
    }
}

impl FromIterator<(u64, u64)> for BufferHistogram {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut h = BufferHistogram::new();
        for (bytes, count) in iter {
            h.add(bytes, count);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut h = BufferHistogram::new();
        h.add(100, 3);
        h.add(100, 2);
        h.add(2048, 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.entries.len(), 2);
    }

    #[test]
    fn zero_count_is_ignored() {
        let mut h = BufferHistogram::new();
        h.add(64, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn cumulative_fraction() {
        let h: BufferHistogram = [(8u64, 5u64), (2048, 4), (1 << 20, 1)]
            .into_iter()
            .collect();
        assert!((h.fraction_at_or_below(7) - 0.0).abs() < 1e-12);
        assert!((h.fraction_at_or_below(8) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_or_below(2048) - 0.9).abs() < 1e-12);
        assert!((h.fraction_at_or_below(u64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let h: BufferHistogram = [(1u64, 1u64), (10, 2), (100, 3)].into_iter().collect();
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 3);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_percentiles() {
        let h: BufferHistogram = [(10u64, 1u64), (20, 1), (30, 1), (40, 1)]
            .into_iter()
            .collect();
        assert_eq!(h.median(), Some(20));
        assert_eq!(h.percentile(100.0), Some(40));
        assert_eq!(h.percentile(25.0), Some(10));
        assert_eq!(h.max(), Some(40));
    }

    #[test]
    fn weighted_median() {
        // 9 calls at 64 B, 1 call at 1 MB → median is 64.
        let h: BufferHistogram = [(64u64, 9u64), (1 << 20, 1)].into_iter().collect();
        assert_eq!(h.median(), Some(64));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = BufferHistogram::new();
        assert_eq!(h.median(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.fraction_at_or_below(100), 0.0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a: BufferHistogram = [(8u64, 1u64)].into_iter().collect();
        let b: BufferHistogram = [(8u64, 2u64), (16, 1)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.fraction_at_or_below(8), 0.75);
    }
}
