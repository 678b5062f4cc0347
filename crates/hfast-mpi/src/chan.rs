//! The mailbox channel used between ranks, and the runtime's one wait.
//!
//! A thin facade over [`std::sync::mpsc`]: unbounded, multi-producer (every
//! rank holds a clone of every other rank's sender), single-consumer (each
//! rank drains only its own mailbox). Isolating the choice of channel here
//! keeps the runtime free of external dependencies and keeps the transport
//! and its blocking behaviour in one place.
//!
//! A rank blocks only in [`recv_wait`]. It waits in two phases: up to
//! [`YIELD_ROUNDS`] rounds of `try_recv` + [`std::thread::yield_now`], then a
//! timed park for whatever is left of its timeout. Threaded worlds run far
//! more rank threads than the host has cores (P = 256 on two cores for
//! `trace_capture`), so the message a rank waits for is usually one
//! scheduler slice away. Yielding hands that slice to the sender; parking at once makes every
//! such send pay a futex wake. Which phase delivers a message changes only
//! timing: each mailbox is FIFO either way, and no result depends on it.

pub(crate) use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

use std::sync::mpsc::TryRecvError;
use std::time::{Duration, Instant};

/// `try_recv` + `yield_now` rounds a [`recv_wait`] spends before it parks.
///
/// Sized when the paper grid (six codes at P ∈ {64, 256} on two cores) ran
/// on rank threads: one round got about three quarters of the saving, and
/// 4, 16 and 64 rounds were within noise of one another, so the bound is
/// the smallest of those. The grid now profiles on the replay executor;
/// the threaded worlds left (traced runs such as `trace_capture`, and the
/// benchmark's `mpi.bare_ms` probe of the same twelve cells) keep the
/// shape it was sized on. A longer bound only adds yields to waits that
/// park anyway.
pub(crate) const YIELD_ROUNDS: u32 = 4;

/// An unbounded FIFO channel.
pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    std::sync::mpsc::channel()
}

/// Receives the next message, waiting at most `timeout` in all.
///
/// Yields up to [`YIELD_ROUNDS`] times before parking in
/// [`Receiver::recv_timeout`] for the rest of `timeout`. An empty mailbox
/// returns [`RecvTimeoutError::Timeout`] no earlier than `timeout` after the
/// call; a mailbox whose senders are all gone returns
/// [`RecvTimeoutError::Disconnected`] once it is drained.
pub(crate) fn recv_wait<T>(rx: &Receiver<T>, timeout: Duration) -> Result<T, RecvTimeoutError> {
    let start = Instant::now();
    for _ in 0..YIELD_ROUNDS {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    #[cfg(test)]
    PARKS.with(|p| p.set(p.get() + 1));
    rx.recv_timeout(timeout.saturating_sub(start.elapsed()))
}

#[cfg(test)]
thread_local! {
    /// Waits on this thread that reached the park phase.
    static PARKS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How far past its timeout an empty wait may return: the yield rounds
    /// and the wake-up latency of a loaded host. Less than the longest
    /// timeout tried, so a wait that parks for its whole timeout after
    /// yielding for part of it is still caught.
    const SLACK: Duration = Duration::from_millis(250);

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(recv_wait(&rx, Duration::from_secs(1)).unwrap(), i);
        }
    }

    #[test]
    fn fifo_holds_across_the_yield_and_park_phases() {
        // 0 and 1 are queued before the wait, so the first try takes them;
        // 2 and 4 land long after the yield rounds, so they wake a parked
        // receiver; 3 follows 2 at once and usually lands while yielding.
        let (tx, rx) = unbounded::<u32>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                go_rx.recv().unwrap();
                std::thread::sleep(Duration::from_millis(100));
                tx.send(2).unwrap();
                tx.send(3).unwrap();
                std::thread::sleep(Duration::from_millis(100));
                tx.send(4).unwrap();
            });
            let wait = |parks: &mut u32| {
                let before = PARKS.with(|p| p.get());
                let got = recv_wait(&rx, Duration::from_secs(10));
                *parks += PARKS.with(|p| p.get()) - before;
                got
            };
            let mut parks = 0;
            assert_eq!(wait(&mut parks), Ok(0));
            assert_eq!(wait(&mut parks), Ok(1));
            assert_eq!(parks, 0, "a queued message needs no park");
            go_tx.send(()).unwrap();
            for want in 2..5 {
                assert_eq!(wait(&mut parks), Ok(want));
            }
            assert!(
                parks >= 2,
                "2 and 4 land after the yield rounds: {parks} parks"
            );
            assert_eq!(wait(&mut parks), Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn timeout_when_empty() {
        let (_tx, rx) = unbounded::<u8>();
        for ms in [0, 1, 50, 300] {
            let timeout = Duration::from_millis(ms);
            let t0 = Instant::now();
            assert_eq!(recv_wait(&rx, timeout), Err(RecvTimeoutError::Timeout));
            let waited = t0.elapsed();
            assert!(waited >= timeout, "{ms} ms wait returned after {waited:?}");
            assert!(
                waited <= timeout + SLACK,
                "{ms} ms wait returned after {waited:?}, over {SLACK:?} late"
            );
        }
    }

    #[test]
    fn disconnected_when_all_senders_dropped() {
        // Queued messages still arrive after the last sender goes.
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(recv_wait(&rx, Duration::from_secs(10)), Ok(7));
        assert_eq!(
            recv_wait(&rx, Duration::from_secs(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        // A receiver already waiting sees the drop, not its timeout.
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(tx);
            });
            let t0 = Instant::now();
            assert_eq!(
                recv_wait(&rx, Duration::from_secs(10)),
                Err(RecvTimeoutError::Disconnected)
            );
            assert!(t0.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn senders_work_across_threads() {
        let (tx, rx) = unbounded::<usize>();
        std::thread::scope(|s| {
            for t in 0..4 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        tx.send(t * 100 + i).unwrap();
                    }
                });
            }
        });
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got.len(), 200);
    }
}
