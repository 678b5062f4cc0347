//! FNV-1a, the workspace's one stable 64-bit hash fold.
//!
//! Graph content hashes ([`CommGraph::content_hash`]), provisioning
//! digests, the serving daemon's response-cache key and the load
//! generator's byte digest all fold through [`Fnv::bytes`] or
//! [`Fnv::word`]. Their outputs are pinned by golden tests and key
//! caches, so the bytes each caller feeds in, and its prime, are part of
//! its contract.
//!
//! [`CommGraph::content_hash`]: crate::CommGraph::content_hash

/// FNV-1a offset basis: the state before the first byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a with the published 64-bit prime, 2⁴⁰ + 2⁸ + 0xb3.
pub const FNV1A: Fnv = Fnv::new(0x100_0000_01b3);

/// An FNV-1a fold over one prime: xor a byte in, multiply by the prime.
#[derive(Debug, Clone, Copy)]
pub struct Fnv {
    /// `prime^k` for `k` in `0..=8`.
    pow: [u64; 9],
}

impl Fnv {
    /// The fold that multiplies by `prime`.
    pub const fn new(prime: u64) -> Fnv {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            pow[k] = pow[k - 1].wrapping_mul(prime);
            k += 1;
        }
        Fnv { pow }
    }

    /// Folds `bytes` into state `h`, one byte at a time.
    #[inline]
    pub fn bytes(&self, mut h: u64, bytes: &[u8]) -> u64 {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(self.pow[1]);
        }
        h
    }

    /// Folds `v`'s eight little-endian bytes into state `h`: the value of
    /// `self.bytes(h, &v.to_le_bytes())`. Xoring a zero byte changes
    /// nothing, so the run of high zero bytes collapses into one multiply
    /// by `prime^run`: small values cost one or two steps.
    #[inline]
    pub fn word(&self, h: u64, v: u64) -> u64 {
        let bytes = 8 - (v.leading_zeros() / 8) as usize;
        self.bytes(h, &v.to_le_bytes()[..bytes])
            .wrapping_mul(self.pow[8 - bytes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_par::forall;

    #[test]
    fn zero_run_fold_equals_bytewise_fnv() {
        // The published prime, and the one `Provisioning::digest` folds by.
        for prime in [0x100_0000_01b3, 0x1000_0000_01b3] {
            let fnv = Fnv::new(prime);
            let bytewise = |mut h: u64, v: u64| {
                for byte in v.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(prime);
                }
                h
            };
            let mut words = vec![0, 1, 0xff, 0x100, u64::MAX];
            for k in 0..64 {
                words.extend([1 << k, (1 << k) - 1]);
            }
            for v in words {
                for h in [FNV_OFFSET, 0, u64::MAX] {
                    assert_eq!(fnv.word(h, v), bytewise(h, v), "h {h:#x}, v {v:#x}");
                    assert_eq!(fnv.bytes(h, &v.to_le_bytes()), bytewise(h, v));
                }
            }
            forall("zero_run_fold_equals_bytewise_fnv", 256, |rng| {
                let h = rng.next_u64();
                // Random widths, so every run length of high zero bytes shows.
                let v = rng.next_u64() >> rng.range(0, 64);
                assert_eq!(fnv.word(h, v), bytewise(h, v), "h {h:#x}, v {v:#x}");
            });
        }
        // The published 64-bit FNV-1a of "a".
        assert_eq!(FNV1A.bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
