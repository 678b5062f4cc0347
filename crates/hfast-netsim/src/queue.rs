//! The engine's scheduler: one stable calendar queue over flat bucket
//! arenas.
//!
//! A discrete-event simulation has much more structure than an arbitrary
//! priority-queue workload — timestamps advance monotonically and new
//! events land a bounded lookahead past the cursor — which is exactly
//! what a calendar queue exploits: O(1) amortized push and pop, where a
//! `BinaryHeap` pays `O(log n)` comparisons sifting entries through its
//! backing array.
//!
//! Layout: an event is one flat 16-byte record — timestamp, flow, tag —
//! stored *inline* in the bucket arenas (`Vec<Ev>` per bucket plus the
//! sorted active run). Sorting records in place beats sorting indices
//! into parallel columns (the indirection is a dependent cache miss per
//! comparison). Bucket capacity is retained across the cursor's
//! revolutions, so a steady-state run allocates nothing per event.
//!
//! Ordering contract (property-tested against `BinaryHeap` in this
//! module): entries dequeue by ascending `(time, class, push order)`. The
//! queue is **stable**, so push order stands in for the sequence numbers
//! a heap would need — the loop pushes successors in pop order. `class`
//! comes from the [`TieClass`] type parameter: the ideal link model
//! schedules one kind of event and orders purely by time; the credit
//! model needs re-admissions ahead of service completions at equal
//! timestamps, which is one bit derived from the tag.
//!
//! Bucket sizing is fixed (see [`CalendarQueue::new`]): seed admissions
//! never enter the queue, so its live set is the in-flight flows whatever
//! the run's size. Events beyond one revolution wrap and are re-scanned
//! once per revolution; a global-min jump after an empty revolution keeps
//! sparse far-future schedules (retry backoffs) from spinning through
//! empty windows.

use std::marker::PhantomData;

/// One scheduled event: 16 bytes, stored inline in the bucket arenas.
/// `tag` belongs to whoever scheduled the event (a route-arena index, a
/// flow epoch, the driver's re-admission marker); the queue only ever
/// hands it to [`TieClass::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub t: u64,
    pub flow: u32,
    pub tag: u32,
}

/// How entries that share a timestamp are ordered *before* push order
/// breaks the tie: lower classes dequeue first.
pub(crate) trait TieClass {
    fn class(tag: u32) -> u8;
}

/// Calendar queue over flat bucket arenas. See the module docs.
#[derive(Debug)]
pub(crate) struct CalendarQueue<C> {
    buckets: Vec<Vec<Ev>>,
    /// One bit per bucket, set iff the bucket is non-empty. A sparse live
    /// set (in-flight flows ≪ bucket count × revolutions of spread) makes
    /// the cursor cross mostly-empty windows; the bitmask turns that walk
    /// into a trailing-zeros scan instead of a pointer chase through empty
    /// `Vec` headers.
    occupied: Vec<u64>,
    /// `buckets.len() - 1` (bucket count is a power of two).
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Bucket the cursor is currently draining.
    cursor: usize,
    /// Last nanosecond of the cursor's window (inclusive, so the final
    /// window before `u64::MAX` is representable once timestamps
    /// saturate): every entry still in a bucket has `time > window_last`;
    /// everything earlier has been moved to `active`.
    window_last: u64,
    /// Entries due in the current window, sorted ascending by
    /// `(t, class)` with push-order ties; `active_pos..` is the live tail.
    /// Ascending with a forward cursor because stability is directional:
    /// among equal keys the earliest push pops first, which a descending
    /// run popped from the back cannot represent without reversing each
    /// equal-key group.
    active: Vec<Ev>,
    active_pos: usize,
    len: usize,
    peak: usize,
    class: PhantomData<C>,
}

impl<C: TieClass> CalendarQueue<C> {
    /// An empty queue of 256 buckets 256 ns wide. Measured on the
    /// benchmark's replay_static / _credit / _faulted workloads: 16-ns
    /// buckets cost 43 / 89 / 129 ns per event, 64 ns 30 / 70 / 107, 256 ns
    /// 28 / 68 / 104, and wider buckets read the same — buckets narrower
    /// than the typical scheduling lookahead keep successor events out of
    /// the already-sorted active run (a bucket append is far cheaper than
    /// a sorted insert).
    pub(crate) fn new() -> Self {
        Self::with_geometry(256, 8)
    }

    /// `nb` (a power of two) buckets of `1 << shift` nanoseconds.
    fn with_geometry(nb: usize, shift: u32) -> Self {
        debug_assert!(nb.is_power_of_two());
        CalendarQueue {
            buckets: (0..nb).map(|_| Vec::new()).collect(),
            occupied: vec![0; nb.div_ceil(64)],
            mask: nb - 1,
            shift,
            cursor: 0,
            window_last: (1u64 << shift) - 1,
            active: Vec::new(),
            active_pos: 0,
            len: 0,
            peak: 0,
            class: PhantomData,
        }
    }

    #[inline(always)]
    fn key(e: &Ev) -> (u64, u8) {
        (e.t, C::class(e.tag))
    }

    /// Live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of live entries over the queue's lifetime.
    #[inline]
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Schedules `(flow, tag)` at `t`. Push order breaks `(t, class)`
    /// ties.
    #[inline]
    pub(crate) fn push(&mut self, t: u64, flow: u32, tag: u32) {
        let e = Ev { t, flow, tag };
        self.len += 1;
        self.peak = self.peak.max(self.len);
        if t <= self.window_last {
            // Due now (or in the past — arbitrary streams are allowed).
            // The newest push sorts after every equal key already due:
            // `<=` keeps the insert stable.
            let key = Self::key(&e);
            let tail = &self.active[self.active_pos..];
            let pos = self.active_pos + tail.partition_point(|p| Self::key(p) <= key);
            self.active.insert(pos, e);
        } else {
            let bucket = (t >> self.shift) as usize & self.mask;
            self.buckets[bucket].push(e);
            self.occupied[bucket >> 6] |= 1 << (bucket & 63);
        }
    }

    /// The earliest live entry, refilling the active run if it ran dry.
    #[inline]
    fn head(&mut self) -> Option<Ev> {
        if self.active_pos == self.active.len() && !self.refill() {
            return None;
        }
        Some(self.active[self.active_pos])
    }

    /// Timestamp of the next event without dequeuing it.
    #[cfg(test)]
    pub(crate) fn peek_time(&mut self) -> Option<u64> {
        self.head().map(|e| e.t)
    }

    /// Dequeues the earliest event.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Ev> {
        let e = self.head()?;
        self.active_pos += 1;
        self.len -= 1;
        Some(e)
    }

    /// Dequeues the earliest event only if its timestamp is strictly
    /// below `limit`. One refill check and one comparison, where a
    /// `peek_time`-then-`pop` pair pays both twice — this is the driver's
    /// merged pop: the queue yields only while its head is strictly
    /// earlier than the next seed admission and the next control event,
    /// both of which win timestamp ties.
    #[inline]
    pub(crate) fn pop_before(&mut self, limit: u64) -> Option<Ev> {
        let e = self.head()?;
        if e.t >= limit {
            return None;
        }
        self.active_pos += 1;
        self.len -= 1;
        Some(e)
    }

    /// Advances the cursor until a window yields due entries, filling
    /// `active`. The occupancy bitmask skips runs of empty buckets in one
    /// trailing-zeros step. One full empty revolution triggers a jump
    /// straight to the bucket of the global minimum (sparse far-future
    /// schedules). Returns false when the queue is empty.
    #[cold]
    fn refill(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        // Windows stepped this revolution; crossing `mask` means every
        // occupied bucket held only future-revolution entries.
        let mut stepped = 0usize;
        while stepped <= self.mask {
            let k = self
                .next_occupied(self.cursor)
                .expect("len > 0 means some bucket is non-empty");
            let ahead = k.wrapping_sub(self.cursor) & self.mask;
            if stepped + ahead > self.mask {
                break;
            }
            stepped += ahead;
            self.cursor = k;
            self.window_last = self
                .window_last
                .saturating_add((ahead as u64) << self.shift);
            if self.drain_cursor() {
                return true;
            }
            self.cursor = (self.cursor + 1) & self.mask;
            self.window_last = self.window_last.saturating_add(1u64 << self.shift);
            stepped += 1;
        }
        // A whole revolution was empty: every live entry is at least one
        // revolution ahead. Jump the window to the earliest one.
        let min_t = self
            .buckets
            .iter()
            .flatten()
            .map(|e| e.t)
            .min()
            .expect("len > 0 means some bucket is non-empty");
        self.cursor = (min_t >> self.shift) as usize & self.mask;
        self.window_last = min_t | ((1u64 << self.shift) - 1);
        let drained = self.drain_cursor();
        debug_assert!(drained, "the minimum's bucket drains");
        drained
    }

    /// First non-empty bucket at or circularly after `from`, via the
    /// occupancy bitmask.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let first = self.occupied[from >> 6] & (!0u64 << (from & 63));
        if first != 0 {
            return Some((from & !63) + first.trailing_zeros() as usize);
        }
        for step in 1..=words {
            let w = ((from >> 6) + step) % words;
            if self.occupied[w] != 0 {
                return Some((w << 6) + self.occupied[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Moves the cursor bucket's due entries (time <= window_last) into the
    /// active run, stably sorted ascending by `(t, class)`: compaction and
    /// the stable sort both preserve push order within equal keys.
    /// Entries a revolution or more ahead are compacted to the bucket's
    /// front and keep their allocation.
    fn drain_cursor(&mut self) -> bool {
        let bucket = &mut self.buckets[self.cursor];
        if bucket.is_empty() {
            return false;
        }
        debug_assert!(self.active_pos == self.active.len());
        self.active.clear();
        self.active_pos = 0;
        let window_last = self.window_last;
        let mut keep = 0;
        for i in 0..bucket.len() {
            let e = bucket[i];
            if e.t <= window_last {
                self.active.push(e);
            } else {
                bucket[keep] = e;
                keep += 1;
            }
        }
        bucket.truncate(keep);
        if keep == 0 {
            self.occupied[self.cursor >> 6] &= !(1 << (self.cursor & 63));
        }
        if self.active.is_empty() {
            return false;
        }
        self.active.sort_by_key(Self::key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_par::forall;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One class: pure `(time, push order)`.
    struct Flat;
    impl TieClass for Flat {
        fn class(_: u32) -> u8 {
            0
        }
    }

    /// The tag's low two bits are the class.
    struct Low2;
    impl TieClass for Low2 {
        fn class(tag: u32) -> u8 {
            (tag & 3) as u8
        }
    }

    fn drain<C: TieClass>(q: &mut CalendarQueue<C>) -> Vec<Ev> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn dequeues_in_time_class_push_order() {
        let mut q = CalendarQueue::<Low2>::with_geometry(64, 4);
        // Same timestamp, distinct classes, pushed shuffled; `flow`
        // records the push order.
        q.push(500, 0, 3);
        q.push(500, 1, 0);
        q.push(100, 2, 3);
        q.push(500, 3, 3);
        q.push(2_000, 4, 1);
        let order: Vec<(u64, u32)> = drain(&mut q).iter().map(|e| (e.t, e.flow)).collect();
        assert_eq!(
            order,
            vec![(100, 2), (500, 1), (500, 0), (500, 3), (2_000, 4)]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak(), 5);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = CalendarQueue::<Flat>::new();
        for round in 0..10u64 {
            for i in 0..100 {
                q.push(round * 1000 + i, 0, 0);
            }
            assert_eq!(q.len(), 100);
            for _ in 0..100 {
                q.pop().unwrap();
            }
            assert_eq!(q.len(), 0);
        }
        assert_eq!(q.peak(), 100);
    }

    #[test]
    fn sparse_far_future_events_are_found_by_the_jump() {
        // Entries many revolutions apart: the empty-revolution jump must
        // land on each without scanning the gap window by window — up to
        // and including the saturation ceiling.
        let mut q = CalendarQueue::<Flat>::with_geometry(4, 4);
        let times = [10, 1_000_000_000, 50_000_000_000, u64::MAX - 1, u64::MAX];
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(t, i as u32, 0);
        }
        q.push(u64::MAX, 9, 0);
        let got: Vec<(u64, u32)> = drain(&mut q).iter().map(|e| (e.t, e.flow)).collect();
        assert_eq!(
            got,
            vec![
                (10, 4),
                (1_000_000_000, 3),
                (50_000_000_000, 2),
                (u64::MAX - 1, 1),
                (u64::MAX, 0),
                (u64::MAX, 9),
            ]
        );
    }

    #[test]
    fn matches_a_seq_tagged_heap_on_random_streams() {
        // The stable queue must replicate `(time, class, seq)` order with
        // the seq implied by push order — the reference tags each push
        // with an explicit monotone seq and pops through a heap.
        forall("queue_matches_binary_heap", 64, |rng| {
            let (nb, shift) = (1 << rng.range(0, 9), rng.range(0, 12) as u32);
            let mut q = CalendarQueue::<Low2>::with_geometry(nb, shift);
            let mut heap: BinaryHeap<Reverse<(u64, u8, u32)>> = BinaryHeap::new();
            let mut seq = 0u32;
            let mut got = Vec::new();
            let mut want = Vec::new();
            for _ in 0..rng.range(1, 400) {
                if rng.bool(0.5) || heap.is_empty() {
                    // Heavy timestamp collisions (the stability stress),
                    // far strays, and pushes behind the cursor.
                    let t = match rng.range(0, 4) {
                        0 => rng.range_u64(0, 20),
                        1 => rng.range_u64(0, 5_000),
                        2 => rng.range_u64(0, 1 << 30),
                        _ => 777,
                    };
                    let class = rng.range(0, 4) as u8;
                    q.push(t, seq, u32::from(class) | 0x100);
                    heap.push(Reverse((t, class, seq)));
                    seq += 1;
                } else {
                    if let Some(t) = q.peek_time() {
                        assert_eq!(t, heap.peek().unwrap().0 .0, "peek is the next pop");
                    }
                    let e = q.pop().unwrap();
                    assert_eq!(e.tag & !3, 0x100, "payload rides with its entry");
                    got.push((e.t, Low2::class(e.tag), e.flow));
                    want.push(heap.pop().unwrap().0);
                }
            }
            got.extend(
                drain(&mut q)
                    .iter()
                    .map(|e| (e.t, Low2::class(e.tag), e.flow)),
            );
            want.extend(std::iter::from_fn(|| heap.pop()).map(|Reverse(k)| k));
            assert_eq!(got, want, "stable dequeue order diverged from the heap");
        });
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = CalendarQueue::<Flat>::with_geometry(64, 4);
        q.push(100, 0, 0);
        q.push(100, 1, 1);
        q.push(200, 2, 2);
        let ev = |t, flow, tag| Some(Ev { t, flow, tag });
        assert_eq!(q.pop_before(100), None);
        assert_eq!(q.pop_before(101), ev(100, 0, 0));
        assert_eq!(q.pop_before(101), ev(100, 1, 1));
        assert_eq!(q.pop_before(101), None);
        assert_eq!(q.peek_time(), Some(200));
        assert_eq!(q.pop(), ev(200, 2, 2));
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak(), 3);
    }
}
