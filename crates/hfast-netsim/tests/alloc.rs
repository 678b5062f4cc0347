//! Allocation guard for the instrumented event loop.
//!
//! Telemetry is cheap enough to leave on only while a hop costs no trip
//! to the allocator, and a timing assertion cannot hold that line on a
//! shared box. This binary counts instead: it installs a counting
//! `#[global_allocator]` (its own test binary, so nothing else pays for
//! it) and asserts that what attaching `EngineObs` and a `TraceRecorder`
//! adds to a run's allocation *count* does not grow with the number of
//! hops, and that an obs-only run keeps no hop rows: it allocates
//! nothing the plain run does not, and its peak heap stays within a few
//! KB of the plain run's however many hops it takes.
//!
//! Counters are per thread — the simulator runs on the calling thread at
//! `with_threads(1)` — so the tests here cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hfast_netsim::{EngineObs, Fabric, Flow, PathCache, Simulation, TorusFabric};
use hfast_trace::TraceRecorder;

struct Counting;

thread_local! {
    /// Allocator calls that obtained or grew a block on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds (allocated minus freed, by this thread).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books `delta` live bytes and, for anything but a free, one allocation.
/// The thread-locals are `const`-initialised `Cell`s: touching them never
/// allocates, and `try_with` shrugs off a thread that is tearing down.
fn note(delta: isize, allocation: bool) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    if allocation {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded to `System` with its arguments
// untouched and its result returned as is, so `System`'s guarantees are
// this allocator's; the bookkeeping beside it touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), false);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, true);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch
        // for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the allocations it made on this thread and how
/// far its live heap rose above where it started.
fn measure(f: impl FnOnce()) -> (u64, isize) {
    let (allocs, live) = (ALLOCS.get(), LIVE.get());
    PEAK.set(live);
    f();
    (ALLOCS.get() - allocs, PEAK.get() - live)
}

/// A 16-node ring and `count` flows that each cross `hops` links, one
/// entering every 50 ns; routes already in `cache`.
fn ring_flows(hops: usize, count: usize) -> (TorusFabric, Vec<Flow>, PathCache) {
    let ring = TorusFabric::new((16, 1, 1)).expect("valid shape");
    assert_eq!(ring.path(0, hops).expect("routable").len(), hops);
    let flows: Vec<Flow> = (0..count)
        .map(|i| Flow {
            src: i % 16,
            dst: (i + hops) % 16,
            bytes: 256,
            start_ns: i as u64 * 50,
        })
        .collect();
    let mut cache = PathCache::new();
    Simulation::new(&ring).with_cache(&mut cache).run(&flows);
    (ring, flows, cache)
}

/// The run every measurement makes: warm routes, the sequential loop.
fn sim<'a>(ring: &'a TorusFabric, cache: &'a mut PathCache) -> Simulation<'a> {
    Simulation::new(ring).with_cache(cache).with_threads(1)
}

#[test]
fn instruments_allocate_nothing_per_hop() {
    const FLOWS: usize = 4096;
    // What the instruments add to a run, in allocator calls: the same
    // flows, routes and event schedule with and without them, so the
    // loop's own allocations (queue buckets, record columns) cancel.
    let added = |hops: usize| {
        let (ring, flows, mut cache) = ring_flows(hops, FLOWS);
        let (plain, _) = measure(|| {
            sim(&ring, &mut cache).run(&flows);
        });
        let obs = EngineObs::new();
        let rec = TraceRecorder::new();
        let (instrumented, _) = measure(|| {
            sim(&ring, &mut cache)
                .with_obs(&obs)
                .with_trace(&rec)
                .run(&flows);
        });
        assert_eq!(obs.queue_wait_ns.count(), (FLOWS * hops) as u64);
        assert_eq!(rec.len(), FLOWS * hops + FLOWS, "every hop, every flow");
        instrumented - plain
    };
    let (one, eight) = (added(1), added(8));
    // 4 096 against 32 768 hops. Both pay for the flow rows and the
    // hand-over; eight times the hops may only cost the hop buffer three
    // more doublings.
    assert!(
        eight.abs_diff(one) <= 32,
        "instrument allocations scale with hops: {one} at 1 hop/flow, {eight} at 8"
    );
    assert!(eight <= 64, "{eight} allocations for 32 768 hops");
}

#[test]
fn obs_only_footprint_is_fixed() {
    const FLOWS: usize = 12_800;
    let (ring, flows, mut cache) = ring_flows(8, FLOWS);
    let hops = (FLOWS * 8) as u64;
    let (plain_allocs, plain_peak) = measure(|| {
        sim(&ring, &mut cache).run(&flows);
    });
    let obs = EngineObs::new();
    let (obs_allocs, obs_peak) = measure(|| {
        sim(&ring, &mut cache).with_obs(&obs).run(&flows);
    });
    assert_eq!(obs.queue_wait_ns.count(), hops);
    // A row buffer, however small, is at least one allocation.
    assert_eq!(
        obs_allocs, plain_allocs,
        "an obs-only run keeps no hop rows"
    );
    // 102 400 hops would be 3 MB of rows if the probe kept them.
    assert!(
        obs_peak - plain_peak <= 4096,
        "obs-only peak heap {obs_peak} B against {plain_peak} B plain"
    );
}
