//! A small, seeded, deterministic PRNG (SplitMix64).
//!
//! Not cryptographic — its job is reproducible synthetic workloads and
//! property-test case generation, identical on every platform and run.

/// SplitMix64 generator state.
///
/// Equal seeds produce equal streams; the generator passes the usual
/// statistical batteries for this class and has period 2^64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping is biased by at most
        // span/2^64 — negligible for test-case generation, and exactly
        // reproducible, which is what we need.
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly chosen element of `items`. Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng64::new(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let v = r.range(3, 17);
            assert!((3..17).contains(&v));
            let u = r.range_u64(0, 1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn f64_in_unit_interval_and_spread() {
        let mut r = Rng64::new(99);
        let mut low = 0usize;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                low += 1;
            }
        }
        assert!((4000..6000).contains(&low), "roughly balanced: {low}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::new(0).range(5, 5);
    }
}
