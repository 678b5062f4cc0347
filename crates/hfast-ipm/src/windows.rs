//! Time-windowed TDC — the paper's §6 future work, implemented.
//!
//! "Producing a full chronological communication trace of most applications
//! would incur significant performance penalties; however, computing a
//! time-windowed TDC as the application progresses would not. By studying
//! the time dependence of communication topology one could expose
//! opportunities to reconfigure an HFAST switch as the application is
//! running."
//!
//! [`WindowedTdcHook`] bins outbound point-to-point traffic into fixed
//! wall-clock windows, keeping per rank only the peers each window
//! actually sent to, and exposes the TDC time series plus per-window
//! communication graphs.

use std::collections::BTreeMap;

use hfast_mpi::{CommEvent, CommHook, Scope};
use hfast_topology::TdcSummary;
use hfast_topology::{tdc, CommGraph, EdgeStat};
use std::sync::Mutex;

/// Per-rank windowed volumes: (window index, peer) → directed stats.
type RankWindows = BTreeMap<(u64, usize), EdgeStat>;

/// A [`CommHook`] that accumulates directed PTP volumes per time window.
///
/// It bins each call by its wall-clock start (`CommEvent::t_start_ns`), so
/// it needs a threaded world (`World::run_with`). Under `World::replay`,
/// which `profile_app_with` uses when its config carries no trace
/// recorder, every call starts at 0 and the whole run lands in window 0.
pub struct WindowedTdcHook {
    size: usize,
    window_ns: u64,
    ranks: Vec<Mutex<RankWindows>>,
}

impl WindowedTdcHook {
    /// Windows of `window_ns` nanoseconds for a world of `size` ranks.
    pub fn new(size: usize, window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        WindowedTdcHook {
            size,
            window_ns,
            ranks: (0..size).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Communication graphs per window, in window order.
    ///
    /// Missing windows (no traffic) are skipped; the returned index is the
    /// window number (start time = index × window length).
    pub(crate) fn graphs(&self) -> Vec<(u64, CommGraph)> {
        let mut merged: BTreeMap<u64, Vec<(usize, usize, EdgeStat)>> = BTreeMap::new();
        for (rank, state) in self.ranks.iter().enumerate() {
            let windows = state.lock().expect("profiler mutex poisoned");
            for (&(w, peer), stat) in windows.iter() {
                merged.entry(w).or_default().push((rank, peer, *stat));
            }
        }
        merged
            .into_iter()
            .map(|(w, directed)| (w, CommGraph::from_directed(self.size, directed)))
            .collect()
    }

    /// The TDC time series at a message-size cutoff: one summary per
    /// active window.
    pub fn tdc_series(&self, cutoff: u64) -> Vec<(u64, TdcSummary)> {
        self.graphs()
            .into_iter()
            .map(|(w, g)| (w, tdc(&g, cutoff)))
            .collect()
    }

    /// Windows whose topology differs from the previous window's —
    /// candidate reconfiguration points for the adaptive engine.
    pub fn phase_changes(&self, cutoff: u64) -> Vec<u64> {
        let graphs = self.graphs();
        let mut changes = vec![];
        let adjacency = |g: &CommGraph| -> Vec<Vec<usize>> {
            (0..g.n())
                .map(|v| g.neighbors_thresholded(v, cutoff).map(|(u, _)| u).collect())
                .collect()
        };
        for pair in graphs.windows(2) {
            if adjacency(&pair[0].1) != adjacency(&pair[1].1) {
                changes.push(pair[1].0);
            }
        }
        changes
    }
}

impl CommHook for WindowedTdcHook {
    fn on_event(&self, ev: &CommEvent) {
        if ev.scope != Scope::Api || !ev.kind.is_outbound() {
            return;
        }
        let Some(peer) = ev.peer else { return };
        debug_assert!(ev.rank < self.size);
        let window = ev.t_start_ns / self.window_ns;
        let mut state = self.ranks[ev.rank].lock().expect("profiler mutex poisoned");
        state
            .entry((window, peer))
            .or_default()
            .add_message(ev.bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_mpi::{CallKind, Payload, Tag};

    fn event(rank: usize, peer: usize, bytes: usize, t_ns: u64) -> CommEvent {
        CommEvent {
            rank,
            kind: CallKind::Isend,
            scope: Scope::Api,
            peer: Some(peer),
            bytes,
            tag: Some(Tag(1)),
            t_start_ns: t_ns,
            t_end_ns: t_ns + 10,
        }
    }

    #[test]
    fn events_land_in_their_windows() {
        let hook = WindowedTdcHook::new(4, 1000);
        hook.on_event(&event(0, 1, 4096, 100));
        hook.on_event(&event(0, 2, 4096, 2500));
        let graphs = hook.graphs();
        assert_eq!(graphs.len(), 2);
        assert_eq!(graphs[0].0, 0);
        assert_eq!(graphs[1].0, 2);
        assert_eq!(graphs[0].1.degree(0), 1);
        assert_eq!(graphs[1].1.edge(0, 2).bytes, 4096);
    }

    #[test]
    fn non_ptp_events_ignored() {
        let hook = WindowedTdcHook::new(2, 1000);
        let mut ev = event(0, 1, 64, 0);
        ev.kind = CallKind::Bcast;
        hook.on_event(&ev);
        let mut ev = event(0, 1, 64, 0);
        ev.scope = Scope::Transport;
        ev.kind = CallKind::TransportSend;
        hook.on_event(&ev);
        let mut ev = event(0, 1, 64, 0);
        ev.kind = CallKind::Irecv; // inbound: counted on the sender side only
        hook.on_event(&ev);
        assert!(hook.graphs().is_empty());
    }

    #[test]
    fn tdc_series_tracks_phases() {
        let hook = WindowedTdcHook::new(6, 1000);
        // Phase 1 (window 0): ring.
        for r in 0..6usize {
            hook.on_event(&event(r, (r + 1) % 6, 8192, 10));
        }
        // Phase 2 (window 3): star on rank 0.
        for r in 1..6usize {
            hook.on_event(&event(0, r, 8192, 3100));
        }
        let series = hook.tdc_series(2048);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.max, 2, "ring phase");
        assert_eq!(series[1].1.max, 5, "star phase");
        let changes = hook.phase_changes(2048);
        assert_eq!(changes, vec![3], "topology changed entering window 3");
    }

    #[test]
    fn stable_topology_has_no_phase_changes() {
        let hook = WindowedTdcHook::new(4, 100);
        for w in 0..5u64 {
            for r in 0..4usize {
                hook.on_event(&event(r, (r + 1) % 4, 4096, w * 100 + 5));
            }
        }
        assert!(hook.phase_changes(0).is_empty());
    }

    #[test]
    fn live_run_produces_series() {
        use hfast_mpi::{World, WorldConfig};
        use std::sync::Arc;
        let hook = Arc::new(WindowedTdcHook::new(8, 1_000_000));
        World::run_with(
            WorldConfig::new(8).hook(hook.clone() as Arc<dyn CommHook>),
            |comm| {
                let right = (comm.rank() + 1) % comm.size();
                for _ in 0..3 {
                    comm.send(right, Tag(1), Payload::synthetic(8192)).unwrap();
                    comm.recv((comm.rank() + comm.size() - 1) % comm.size(), Tag(1))
                        .unwrap();
                }
            },
        )
        .unwrap();
        let series = hook.tdc_series(2048);
        assert!(!series.is_empty());
        assert!(series.iter().all(|(_, s)| s.max <= 2));
    }
}
