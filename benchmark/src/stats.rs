//! Order statistics, the tail-percentile rule, and the FNV digest every
//! output check folds into.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=100).
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], q: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * q as usize).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latencies in µs, ascending — what [`percentile`] takes.
pub fn sorted_us(lat_ns: &[u64]) -> Vec<f64> {
    let mut us: Vec<f64> = lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// Median with the usual midpoint for even counts.
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 80];

/// The highest of p99/p95/p90/p80 that still has at least ten samples
/// beyond it in a sample of `n`, or `None` when even p80 does not
/// (`n < 50`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|q| n * (100 - *q as usize) / 100 >= 10)
}

/// Median, quartiles, and range of one metric's per-pass samples — what a
/// result file stores and `compare` reads back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (quartiles by linear interpolation, the
    /// "inclusive" method, so one or two samples are still defined).
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Summary {
            median: median(&v),
            q1: at(0.25),
            q3: at(0.75),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// FNV-1a, the digest every output check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 80), 7.0);
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&twelve, 80), 10.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(49), None);
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(99), Some(80));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(200_000), Some(99));
    }

    #[test]
    fn summary_quartiles_and_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let one = Summary::of(&[9.0]);
        assert_eq!((one.q1, one.q3, one.spread()), (9.0, 9.0, 0.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
