//! Deterministic `par_map` on scoped threads.
//!
//! The contract that matters for the reproduction: **output order equals
//! input order**, regardless of thread count or OS scheduling. Workers pull
//! items off a shared atomic cursor (so an expensive cell does not stall its
//! chunk-mates), but every result lands in the slot of its input index, so
//! the caller sees the sequential ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the harness should use.
///
/// `HFAST_THREADS=<n>` forces `n` (minimum 1) and an unparseable value
/// means 1; unset falls back to [`std::thread::available_parallelism`].
/// `HFAST_THREADS=1` selects the sequential path — no threads are spawned
/// and execution order is the plain left-to-right `map`.
pub(crate) fn thread_count() -> usize {
    match std::env::var("HFAST_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// [`par_map`] with an explicit worker count.
///
/// `threads <= 1` (or a 0/1-item input) runs sequentially on the calling
/// thread. Results are returned in input order. If a worker panics, the
/// panic propagates to the caller once the scope joins.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each index claimed once");
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

/// Maps `f` over `items` on `thread_count()` workers, returning results in
/// input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = par_map_with(threads, items.clone(), |x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert_eq!(par_map_with(4, empty, |x| x), Vec::<u32>::new());
        assert_eq!(par_map_with(4, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let got = par_map_with(16, vec![1, 2, 3], |x| x * x);
        assert_eq!(got, vec![1, 4, 9]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        par_map_with(2, vec![0, 1, 2, 3], |x| {
            if x == 2 {
                panic!("deliberate");
            }
            x
        });
    }
}
