//! Sharded in-memory response cache with byte-budget LRU eviction.
//!
//! Every cacheable endpoint is a pure function of its canonical request
//! encoding, so the cache maps `request_key` (FNV-1a of that encoding) to
//! the encoded response. Keys spread over `N` shards, each behind its own
//! mutex, so concurrent connections rarely contend on one lock; each
//! shard owns `budget / N` bytes and evicts least-recently-used entries
//! when an insert would overflow it. Hit/miss/eviction counts use the
//! relaxed `hfast_obs` counters — reading them never perturbs serving.

use std::collections::HashMap;
use std::sync::Mutex;

use hfast_obs::Counter;

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries resident now.
    pub entries: u64,
    /// Payload bytes resident now.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// key → (response, last-use tick).
    entries: HashMap<u64, (String, u64)>,
    bytes: usize,
    tick: u64,
}

/// The sharded LRU response cache.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ResponseCache {
    /// A cache of `shards` shards splitting `budget_bytes` between them.
    /// Zero values fall back to one shard / an effectively empty budget.
    pub fn new(shards: usize, budget_bytes: usize) -> Self {
        let shards = shards.max(1);
        ResponseCache {
            budget_per_shard: budget_bytes / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits pick the shard so FNV's avalanche spreads keys; the
        // full key is the map key within the shard.
        &self.shards[(key >> 32) as usize % self.shards.len()]
    }

    /// Looks up a response, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<String> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(&key) {
            Some((resp, last)) => {
                *last = tick;
                let out = resp.clone();
                self.hits.inc();
                Some(out)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts a response, evicting LRU entries until the shard is back
    /// under budget. A value larger than the whole shard budget is not
    /// cached at all (it would only evict everything and then miss).
    pub fn put(&self, key: u64, response: &str) {
        if response.len() > self.budget_per_shard {
            return;
        }
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some((old, last)) = shard.entries.get_mut(&key) {
            // Same key, possibly re-computed value (identical by the
            // determinism contract): refresh in place.
            let old_len = old.len();
            *old = response.to_string();
            *last = tick;
            shard.bytes = shard.bytes - old_len + response.len();
            return;
        }
        while shard.bytes + response.len() > self.budget_per_shard && !shard.entries.is_empty() {
            // O(entries) eviction scan: shards stay small (a shard holds
            // budget/N bytes of multi-hundred-byte responses), and puts
            // only happen on misses, so the scan is off the hit path.
            let (&victim, _) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .expect("non-empty shard has a victim");
            let (gone, _) = shard.entries.remove(&victim).expect("victim present");
            shard.bytes -= gone.len();
            self.evictions.inc();
        }
        shard.bytes += response.len();
        shard.entries.insert(key, (response.to_string(), tick));
    }

    /// Point-in-time statistics across all shards.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for s in &self.shards {
            let s = s.lock().expect("cache shard poisoned");
            entries += s.entries.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put() {
        let cache = ResponseCache::new(4, 1 << 16);
        assert_eq!(cache.get(7), None);
        cache.put(7, "resp");
        assert_eq!(cache.get(7), Some("resp".to_string()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.entries, stats.bytes), (1, 4));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // One shard, budget for two 4-byte entries.
        let cache = ResponseCache::new(1, 8);
        cache.put(1, "aaaa");
        cache.put(2, "bbbb");
        assert_eq!(cache.get(1), Some("aaaa".into()), "refresh 1");
        cache.put(3, "cccc"); // must evict 2, the LRU entry
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1), Some("aaaa".into()));
        assert_eq!(cache.get(3), Some("cccc".into()));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache = ResponseCache::new(2, 8); // 4 bytes per shard
        cache.put(1, "way too large for a shard");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn same_key_refreshes_in_place() {
        let cache = ResponseCache::new(1, 64);
        cache.put(5, "abc");
        cache.put(5, "abc");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 3));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn keys_spread_over_shards() {
        let cache = ResponseCache::new(8, 1 << 20);
        for k in 0..256u64 {
            // Mix bits the way FNV output would.
            cache.put(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), "x");
        }
        let used = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().entries.is_empty())
            .count();
        assert!(used >= 6, "only {used} of 8 shards used");
    }
}
