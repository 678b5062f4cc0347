//! Shared warm route caches for concurrent simulation.
//!
//! A [`PathCache`] is single-owner: the engine takes it
//! `&mut`, so two simultaneous runs cannot share one. That is fine for
//! scripted experiments but wrong for a serving daemon, where many
//! connections simulate traffic over the *same* fabric and each fresh
//! private cache re-derives every route from scratch (the cold-start
//! rescan).
//!
//! [`SharedPathCache`] fixes this with a read-mostly snapshot scheme:
//! readers grab an `Arc<PathCache>` snapshot (one mutex-protected clone of
//! the `Arc`, never of the cache) and hand it to
//! [`Simulation::with_snapshot`](crate::Simulation::with_snapshot), which
//! only ever reads it. Warming clones the cache once, extends the clone,
//! and publishes a new `Arc` — readers mid-run keep their old snapshot,
//! new readers see the warmer one (RCU-style publish). A `warming` lock
//! serializes warmers so concurrent warm-ups do not duplicate routing
//! work, while readers never wait on a warmer.

use std::sync::{Arc, Mutex};

use crate::engine::PathCache;
use crate::fabric::Fabric;
use crate::traffic::Flow;

/// A shareable, warmable route cache for one fabric.
///
/// ```
/// use hfast_netsim::{SharedPathCache, Simulation, TorusFabric, traffic};
///
/// let torus = TorusFabric::new((4, 4, 1)).unwrap();
/// let flows = traffic::alltoall(16, 4 << 10);
/// let shared = SharedPathCache::new();
/// shared.warm(&torus, &flows);
/// let snap = shared.snapshot();
/// // Any number of threads can run with the same snapshot concurrently.
/// let out = Simulation::new(&torus).with_snapshot(&snap).run(&flows);
/// assert_eq!(out.stats.completed, flows.len());
/// ```
#[derive(Debug, Default)]
pub struct SharedPathCache {
    /// The published snapshot. Lock held only to clone or swap the `Arc`.
    current: Mutex<Arc<PathCache>>,
    /// Serializes warmers; never taken by [`snapshot`](Self::snapshot).
    warming: Mutex<()>,
}

impl SharedPathCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        SharedPathCache::default()
    }

    /// The current published snapshot (cheap: one `Arc` clone under a
    /// briefly-held lock).
    pub fn snapshot(&self) -> Arc<PathCache> {
        Arc::clone(&self.current.lock().expect("shared cache poisoned"))
    }

    /// Ensures every (src, dst) pair in `flows` is resolved in the
    /// published snapshot, and returns that snapshot.
    ///
    /// Fast path: if the current snapshot already covers every pair, no
    /// lock beyond the snapshot read is taken. Otherwise one warmer at a
    /// time clones the cache, resolves the missing pairs, and publishes the
    /// extended clone; waiting warmers re-check after the publish and
    /// usually find nothing left to do.
    pub fn warm(&self, fabric: &dyn Fabric, flows: &[Flow]) -> Arc<PathCache> {
        let missing_in = |cache: &PathCache| -> Vec<(usize, usize)> {
            let mut missing: Vec<(usize, usize)> = Vec::new();
            for f in flows {
                assert!(
                    f.src < fabric.nodes() && f.dst < fabric.nodes(),
                    "flow endpoints in range"
                );
                if cache.fresh_slot(f.src, f.dst).is_none() {
                    missing.push((f.src, f.dst));
                }
            }
            missing.sort_unstable();
            missing.dedup();
            missing
        };

        let snap = self.snapshot();
        if missing_in(&snap).is_empty() {
            return snap;
        }

        let _warm = self.warming.lock().expect("warming lock poisoned");
        // Re-snapshot: a previous warmer may have published while we
        // waited for the lock.
        let snap = self.snapshot();
        let missing = missing_in(&snap);
        if missing.is_empty() {
            return snap;
        }
        let mut next = (*snap).clone();
        for (s, d) in missing {
            next.insert_resolved(s, d, fabric.path(s, d));
        }
        let published = Arc::new(next);
        *self.current.lock().expect("shared cache poisoned") = Arc::clone(&published);
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::TorusFabric;
    use crate::traffic;

    #[test]
    fn warm_covers_all_pairs_and_is_idempotent() {
        let torus = TorusFabric::new((4, 4, 1)).unwrap();
        let flows = traffic::alltoall(16, 1 << 10);
        let shared = SharedPathCache::new();
        assert!(shared.snapshot().is_empty());
        let first = shared.warm(&torus, &flows);
        assert_eq!(first.len(), 16 * 15, "every distinct ordered pair");
        let second = shared.warm(&torus, &flows);
        assert!(
            Arc::ptr_eq(&first, &second),
            "fully-warm cache republishes nothing"
        );
    }

    #[test]
    fn incremental_warm_extends_published_snapshot() {
        let torus = TorusFabric::new((4, 4, 1)).unwrap();
        let a = traffic::alltoall(8, 64);
        let b = traffic::alltoall(16, 64);
        let shared = SharedPathCache::new();
        let small = shared.warm(&torus, &a);
        let big = shared.warm(&torus, &b);
        assert!(small.len() < big.len());
        assert_eq!(shared.snapshot().len(), big.len());
    }
}
