//! Bounded-footprint open-addressing hash table for call statistics.
//!
//! IPM's design point (paper §3.1) is a *fixed memory footprint* profile: one
//! hash table entry per unique set of call arguments `(region, call, buffer
//! size, partner)`, updated in O(1) per call, never growing past a bound
//! during the run. This module reimplements that structure with an overflow
//! counter instead of unbounded growth, so the memory bound is hard — but a
//! rank pays only for the signatures it actually records: entries live in a
//! dense vector, and a linear-probe index of `u32` positions into it doubles
//! as entries arrive, up to twice the capacity.

/// Key identifying one unique call signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallKey {
    /// Region id (0 = the default region).
    pub region: u16,
    /// Call kind, as its `CallKind::index` (`CallKind::ALL` inverts it).
    pub kind: u8,
    /// Partner rank, or `u32::MAX` when the call has no single partner.
    pub peer: u32,
    /// Buffer size argument in bytes.
    pub bytes: u64,
}

impl CallKey {
    #[inline]
    fn hash(&self) -> u64 {
        // Fibonacci-style multiplicative mix over the packed key words; fast
        // and adequate for these low-entropy keys (cf. FxHash).
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let a = ((self.region as u64) << 48) | ((self.kind as u64) << 40) | self.peer as u64;
        let mut h = a.wrapping_mul(K);
        h ^= h >> 29;
        h = h.wrapping_add(self.bytes).wrapping_mul(K);
        h ^= h >> 32;
        h
    }
}

/// Accumulated statistics for one call signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallStats {
    /// Number of calls with this signature.
    pub count: u64,
    /// Sum of call durations in nanoseconds.
    pub total_ns: u64,
    /// Minimum call duration in nanoseconds.
    pub min_ns: u64,
    /// Maximum call duration in nanoseconds.
    pub max_ns: u64,
}

impl CallStats {
    /// Folds one observation into the statistics.
    #[inline]
    pub(crate) fn record(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
    }

    /// Merges another accumulator into this one.
    pub(crate) fn merge(&mut self, other: &CallStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Slots in a fresh table's index; it doubles from here as entries arrive.
const INITIAL_INDEX: usize = 16;

/// Bounded open-addressing table from [`CallKey`] to [`CallStats`].
#[derive(Debug, Clone)]
pub struct CallTable {
    /// Linear-probe index over `entries`: 0 is an empty slot, `i` is
    /// `entries[i - 1]`. A power of two, kept at most half full.
    index: Vec<u32>,
    /// Stored signatures in insertion order; never longer than `capacity`.
    entries: Vec<(CallKey, CallStats)>,
    capacity: usize,
    /// Calls dropped because the table was full (IPM reports rather than
    /// grows; a non-zero value flags an undersized profile).
    overflow: u64,
}

impl CallTable {
    /// IPM's default table size.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Creates a table bounded at `capacity` signatures, rounded up to a
    /// power of two. Nothing is reserved for the bound up front.
    ///
    /// # Panics
    ///
    /// If the rounded capacity does not fit the `u32` index.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        assert!(
            capacity < u32::MAX as usize,
            "call table capacity {capacity} exceeds the u32 index"
        );
        CallTable {
            index: vec![0; INITIAL_INDEX.min(2 * capacity)],
            entries: Vec::new(),
            capacity,
            overflow: 0,
        }
    }

    /// Number of distinct call signatures stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no signatures are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of signatures (fixed for the lifetime of the table).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of observations dropped due to a full table.
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Records one observation for `key`, creating its entry on first use.
    ///
    /// O(1) amortized; if the table is full and the key is new, the
    /// observation is counted in [`overflow`](Self::overflow) and dropped —
    /// the footprint never passes the bound.
    pub fn record(&mut self, key: CallKey, elapsed_ns: u64) {
        let mut slot = self.probe(&key);
        if let Some(pos) = self.index[slot].checked_sub(1) {
            self.entries[pos as usize].1.record(elapsed_ns);
            return;
        }
        if self.entries.len() == self.capacity {
            self.overflow += 1;
            return;
        }
        if 2 * (self.entries.len() + 1) > self.index.len() {
            self.grow();
            slot = self.probe(&key);
        }
        let mut stats = CallStats::default();
        stats.record(elapsed_ns);
        self.entries.push((key, stats));
        // `new` bounds `capacity`, and so every position, below `u32::MAX`.
        self.index[slot] = self.entries.len() as u32;
    }

    /// Looks up the statistics for a key.
    pub fn get(&self, key: &CallKey) -> Option<&CallStats> {
        let pos = self.index[self.probe(key)].checked_sub(1)?;
        Some(&self.entries[pos as usize].1)
    }

    /// Iterates over all stored (key, stats) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&CallKey, &CallStats)> {
        self.entries.iter().map(|(key, stats)| (key, stats))
    }

    /// The index slot holding `key`, or the empty slot where it would go.
    /// Terminates because the index is never more than half full.
    fn probe(&self, key: &CallKey) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = (key.hash() as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return slot,
                pos if self.entries[pos as usize - 1].0 == *key => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the index and re-inserts every entry.
    fn grow(&mut self) {
        self.index = vec![0; 2 * self.index.len()];
        for pos in 0..self.entries.len() {
            let slot = self.probe(&self.entries[pos].0);
            self.index[slot] = pos as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: u8, peer: u32, bytes: u64) -> CallKey {
        CallKey {
            region: 0,
            kind,
            peer,
            bytes,
        }
    }

    #[test]
    fn record_and_get() {
        let mut t = CallTable::new(64);
        t.record(key(1, 2, 1024), 100);
        t.record(key(1, 2, 1024), 300);
        t.record(key(1, 3, 1024), 50);
        assert_eq!(t.len(), 2);
        let s = t.get(&key(1, 2, 1024)).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 400);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 300);
        assert!(t.get(&key(9, 9, 9)).is_none());
    }

    #[test]
    fn capacity_is_fixed_and_overflow_counted() {
        let mut t = CallTable::new(8);
        assert_eq!(t.capacity(), 8);
        for i in 0..8 {
            t.record(key(0, i, 0), 1);
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.overflow(), 0);
        // Ninth distinct key cannot fit.
        t.record(key(0, 100, 0), 1);
        assert_eq!(t.len(), 8);
        assert_eq!(t.overflow(), 1);
        // Existing keys still update fine.
        t.record(key(0, 3, 0), 7);
        assert_eq!(t.get(&key(0, 3, 0)).unwrap().count, 2);
    }

    #[test]
    fn iter_returns_everything() {
        let mut t = CallTable::new(32);
        for i in 0..10u32 {
            t.record(key(2, i, i as u64 * 8), u64::from(i));
        }
        let mut peers: Vec<u32> = t.iter().map(|(k, _)| k.peer).collect();
        peers.sort_unstable();
        assert_eq!(peers, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn growth_keeps_every_entry_and_stops_at_the_bound() {
        let mut t = CallTable::new(CallTable::DEFAULT_CAPACITY);
        let n = CallTable::DEFAULT_CAPACITY as u32;
        for round in 0..2u64 {
            for i in 0..n {
                t.record(key((i % 23) as u8, i, u64::from(i) * 8), round);
            }
        }
        assert_eq!(t.len(), CallTable::DEFAULT_CAPACITY);
        assert_eq!(t.overflow(), 0);
        assert_eq!(t.iter().count(), t.len());
        for i in 0..n {
            let s = t.get(&key((i % 23) as u8, i, u64::from(i) * 8)).unwrap();
            assert_eq!((s.count, s.min_ns, s.max_ns), (2, 0, 1), "key {i}");
        }
        t.record(key(0, n, 0), 1);
        assert_eq!((t.len(), t.overflow()), (CallTable::DEFAULT_CAPACITY, 1));
        assert!(t.get(&key(0, n, 0)).is_none());
    }

    #[test]
    fn stats_merge() {
        let mut a = CallStats::default();
        a.record(10);
        a.record(30);
        let mut b = CallStats::default();
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 30);
        assert_eq!(a.total_ns, 45);
        let empty = CallStats::default();
        a.merge(&empty);
        assert_eq!(a.count, 3);
        let mut c = CallStats::default();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn distinct_regions_are_distinct_keys() {
        let mut t = CallTable::new(16);
        let k0 = CallKey {
            region: 0,
            kind: 1,
            peer: 2,
            bytes: 64,
        };
        let k1 = CallKey { region: 1, ..k0 };
        t.record(k0, 1);
        t.record(k1, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k0).unwrap().count, 1);
        assert_eq!(t.get(&k1).unwrap().count, 1);
    }
}
