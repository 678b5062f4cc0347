//! Footprint guard for the IPM call table and the profiler around it.
//!
//! The table's capacity is a bound, not a reservation: a P-rank profile
//! holds P tables, so a table that pre-paid its 8,192 slots cost 448 KiB a
//! rank (112 MiB at P = 256) before a single call was recorded. Nor may the
//! profiler keep anything P long per rank: dense per-peer volume rows cost
//! 48·P² bytes (50 MB at P = 1024) before the first call. This binary
//! counts instead of timing: it installs a counting `#[global_allocator]`
//! (its own test binary, so nothing else pays for it) and bounds the heap a
//! fresh table takes, what recording a few signatures adds, and what a
//! whole profile costs per rank.
//!
//! Counters are per thread, so the tests here cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hfast_ipm::{CallKey, CallTable, IpmProfiler};
use hfast_mpi::{CallKind, CommEvent, CommHook, Scope, Tag};

struct Counting;

thread_local! {
    /// Bytes this thread holds (allocated minus freed, by this thread).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`peak_of`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books `delta` live bytes. The thread-locals are `const`-initialised
/// `Cell`s: touching them never allocates, and `try_with` shrugs off a
/// thread that is tearing down.
fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded to `System` with its arguments
// untouched and its result returned as is, so `System`'s guarantees are
// this allocator's; the bookkeeping beside it touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch
        // for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with how far this thread's live heap
/// rose above where it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let live = LIVE.get();
    PEAK.set(live);
    let out = f();
    (out, PEAK.get() - live)
}

fn key(i: u32) -> CallKey {
    CallKey {
        region: 0,
        kind: (i % 23) as u8,
        peer: i,
        bytes: u64::from(i) * 64,
    }
}

#[test]
fn fresh_table_does_not_prepay_its_bound() {
    let (table, bytes) = peak_of(|| CallTable::new(CallTable::DEFAULT_CAPACITY));
    assert_eq!(table.capacity(), CallTable::DEFAULT_CAPACITY);
    assert!(
        bytes <= 64 << 10,
        "a fresh {}-signature table allocated {bytes} B",
        table.capacity()
    );
}

#[test]
fn footprint_follows_recorded_signatures() {
    // A halo-exchange rank records a few dozen signatures; what they cost
    // must follow that count, not the capacity.
    let mut table = CallTable::new(CallTable::DEFAULT_CAPACITY);
    let ((), bytes) = peak_of(|| {
        for round in 0..4 {
            for i in 0..64 {
                table.record(key(i), round);
            }
        }
    });
    assert_eq!(table.len(), 64);
    assert_eq!(table.iter().count(), table.len());
    assert!(bytes <= 16 << 10, "64 signatures took {bytes} B");
}

#[test]
fn iter_yields_exactly_len_items_up_to_overflow() {
    let mut table = CallTable::new(64);
    for i in 0..100 {
        table.record(key(i), 1);
        assert_eq!(table.iter().count(), table.len());
    }
    assert_eq!(table.len(), 64);
    assert_eq!(table.overflow(), 36);
}

/// Heap peak of profiling a `procs`-rank ring from this thread: the
/// profiler, three rounds of each rank's isend, recv and wait inside a
/// `"steady"` region, both extracts and the graph.
fn ring_profile_peak(procs: usize) -> isize {
    let event = |rank: usize, kind: CallKind, peer: Option<usize>, bytes: usize| CommEvent {
        rank,
        kind,
        scope: Scope::Api,
        peer,
        bytes,
        tag: peer.map(|_| Tag(1)),
        t_start_ns: 0,
        t_end_ns: 1,
    };
    let (edges, bytes) = peak_of(|| {
        let profiler = IpmProfiler::new(procs);
        for rank in 0..procs {
            profiler.enter_region(rank, "steady");
        }
        for _ in 0..3 {
            for rank in 0..procs {
                let right = (rank + 1) % procs;
                let left = (rank + procs - 1) % procs;
                profiler.on_event(&event(rank, CallKind::Isend, Some(right), 8192));
                profiler.on_event(&event(rank, CallKind::Recv, Some(left), 8192));
                profiler.on_event(&event(rank, CallKind::Wait, None, 0));
            }
        }
        let merged = profiler.profile();
        let steady = profiler.region_profile("steady");
        assert_eq!(merged, steady);
        assert_eq!(steady.api_volume.len(), procs);
        steady.comm_graph().edge_count()
    });
    assert_eq!(edges, procs);
    bytes
}

#[test]
fn profile_footprint_is_linear_in_ranks() {
    // Measured on x86-64 Linux: 806 B a rank at P = 256 and 805 B at
    // P = 1024 (825 KB for the whole P = 1024 profile). Two dense volume
    // rows per region were 96 KiB a rank at P = 1024 for two regions.
    for procs in [256, 1024] {
        let bytes = ring_profile_peak(procs);
        let per_rank = bytes / procs as isize;
        assert!(
            per_rank <= 2048,
            "profiling a {procs}-rank ring peaked at {bytes} B ({per_rank} B a rank)"
        );
    }
}
