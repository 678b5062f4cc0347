//! Undirected weighted communication graphs.

use crate::fnv::{FNV1A, FNV_OFFSET};

/// Per-edge traffic statistics between two tasks (both directions summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeStat {
    /// Total bytes exchanged over the edge.
    pub bytes: u64,
    /// Number of messages exchanged.
    pub count: u64,
    /// Largest single message observed on the edge.
    pub max_msg: u64,
}

impl EdgeStat {
    /// True if any traffic was observed.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.count > 0
    }

    /// Folds one message into the edge statistics.
    #[inline]
    pub fn add_message(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.count += 1;
        self.max_msg = self.max_msg.max(bytes);
    }

    /// Merges another accumulator into this one.
    #[inline]
    pub fn merge(&mut self, other: &EdgeStat) {
        self.bytes += other.bytes;
        self.count += other.count;
        self.max_msg = self.max_msg.max(other.max_msg);
    }
}

/// Undirected communication graph over `n` tasks with per-edge traffic
/// statistics (the paper §4.4: "we can form an undirected graph which
/// describes the topological connectivity required by the application …
/// we assume that switch links are bi-directional").
///
/// Storage is one row per task, sorted by peer, holding only the pairs that
/// carried traffic — the paper's point is that TDC stays far below P, so a
/// graph costs O(P·TDC), not O(P²). Both directions of a pair are stored
/// (the self entry once). Ascending peer order is a contract: `neighbors`,
/// [`content_hash`](Self::content_hash) and every provisioning digest
/// built on them depend on it.
#[derive(Debug, Clone, PartialEq)]
pub struct CommGraph {
    /// `rows[a]` holds `(b, stat)` ascending by `b`; a pair that never saw
    /// a non-zero statistic has no entry. The self entry (self-traffic) is
    /// tracked but excluded from degree computations.
    rows: Vec<Vec<(u32, EdgeStat)>>,
}

/// The entry for `peer` in a sorted row, created zeroed if absent. Peers
/// arriving in ascending order (every generator's) take the tail append.
fn slot(row: &mut Vec<(u32, EdgeStat)>, peer: u32) -> &mut EdgeStat {
    let at = if row.last().is_none_or(|&(last, _)| last < peer) {
        row.push((peer, EdgeStat::default()));
        row.len() - 1
    } else {
        row.binary_search_by_key(&peer, |&(p, _)| p)
            .unwrap_or_else(|at| {
                row.insert(at, (peer, EdgeStat::default()));
                at
            })
    };
    &mut row[at].1
}

impl CommGraph {
    /// An empty graph over `n` tasks.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "task count exceeds u32");
        CommGraph {
            rows: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from *directed* per-pair volumes (e.g. send-side
    /// profiling records), symmetrizing as the paper does: traffic in either
    /// direction contributes to the same undirected edge.
    ///
    /// Records may arrive in any order: every row collects its entries
    /// unsorted, then sorts once and merges duplicates — never a sorted
    /// insert per record, which an adversarial order makes quadratic.
    pub fn from_directed<I>(n: usize, directed: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, EdgeStat)>,
    {
        let mut g = CommGraph::new(n);
        for (src, dst, stat) in directed {
            assert!(src < n && dst < n, "rank out of range");
            if stat != EdgeStat::default() {
                g.rows[src].push((dst as u32, stat));
                if src != dst {
                    g.rows[dst].push((src as u32, stat));
                }
            }
        }
        for row in &mut g.rows {
            row.sort_by_key(|&(peer, _)| peer);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1.merge(&next.1);
                }
                same
            });
        }
        g
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Records one message between `a` and `b` (undirected).
    pub fn add_message(&mut self, a: usize, b: usize, bytes: u64) {
        assert!(a < self.n() && b < self.n(), "rank out of range");
        slot(&mut self.rows[a], b as u32).add_message(bytes);
        if a != b {
            slot(&mut self.rows[b], a as u32).add_message(bytes);
        }
    }

    /// Edge statistics between `a` and `b` (all zero for a pair that never
    /// exchanged anything).
    pub fn edge(&self, a: usize, b: usize) -> &EdgeStat {
        static ABSENT: EdgeStat = EdgeStat {
            bytes: 0,
            count: 0,
            max_msg: 0,
        };
        assert!(a < self.n() && b < self.n(), "rank out of range");
        let row = &self.rows[a];
        row.binary_search_by_key(&(b as u32), |&(p, _)| p)
            .map_or(&ABSENT, |at| &row[at].1)
    }

    /// Iterates over the active neighbours of `v` (self-edges excluded),
    /// ascending by peer.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, &EdgeStat)> {
        self.rows[v]
            .iter()
            .map(|(u, e)| (*u as usize, e))
            .filter(move |(u, e)| *u != v && e.is_active())
    }

    /// Neighbours of `v` whose edge carries at least one message of
    /// `cutoff` bytes or more.
    ///
    /// This is the paper's thresholding heuristic (§4.4): partners reached
    /// only by latency-bound messages smaller than the bandwidth-delay
    /// product are disregarded, since such messages gain nothing from a
    /// dedicated circuit. `cutoff == 0` keeps every active partner.
    pub fn neighbors_thresholded(
        &self,
        v: usize,
        cutoff: u64,
    ) -> impl Iterator<Item = (usize, &EdgeStat)> {
        self.neighbors(v).filter(move |(_, e)| e.max_msg >= cutoff)
    }

    /// Unthresholded topological degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).count()
    }

    /// Thresholded topological degree of `v` (see
    /// [`neighbors_thresholded`](Self::neighbors_thresholded)).
    pub fn degree_thresholded(&self, v: usize, cutoff: u64) -> usize {
        self.neighbors_thresholded(v, cutoff).count()
    }

    /// Every stored entry `(a, b, stat)` with `a <= b`, ascending by `a`
    /// then `b`: each undirected pair once, self and inactive entries
    /// included.
    fn upper(&self) -> impl Iterator<Item = (usize, usize, &EdgeStat)> {
        self.rows.iter().enumerate().flat_map(|(a, row)| {
            let from = row.partition_point(|&(b, _)| (b as usize) < a);
            row[from..].iter().map(move |(b, e)| (a, *b as usize, e))
        })
    }

    /// The active undirected edges `(a, b, stat)` with `a < b`, each once,
    /// ascending by `a` then `b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, &EdgeStat)> {
        self.upper().filter(|&(a, b, e)| a != b && e.is_active())
    }

    /// Total bytes over all undirected edges (each edge counted once).
    pub fn total_bytes(&self) -> u64 {
        self.upper().map(|(_, _, e)| e.bytes).sum()
    }

    /// Number of active undirected edges (self-edges excluded).
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Number of active undirected edges at a message-size cutoff.
    pub fn edge_count_thresholded(&self, cutoff: u64) -> usize {
        self.edges().filter(|(_, _, e)| e.max_msg >= cutoff).count()
    }

    /// A canonical 64-bit content hash (FNV-1a over `n` and every active
    /// upper-triangle edge, self entries included, with its statistics).
    ///
    /// Two graphs hash equal iff they carry identical traffic; the hash is
    /// stable across processes and platforms, so it can key caches and
    /// name fabrics in serving registries. The byte sequence — `a <= b`
    /// ascending, inactive entries skipped — is a compatibility contract:
    /// caches and journals hold these hashes.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| h = FNV1A.word(h, v);
        mix(self.n() as u64);
        for (a, b, e) in self.upper().filter(|(_, _, e)| e.is_active()) {
            mix(a as u64);
            mix(b as u64);
            mix(e.bytes);
            mix(e.count);
            mix(e.max_msg);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_message_is_symmetric() {
        let mut g = CommGraph::new(4);
        g.add_message(0, 2, 1000);
        g.add_message(2, 0, 500);
        assert_eq!(g.edge(0, 2).bytes, 1500);
        assert_eq!(g.edge(2, 0).bytes, 1500);
        assert_eq!(g.edge(0, 2).count, 2);
        assert_eq!(g.edge(0, 2).max_msg, 1000);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn edge_rejects_a_column_past_n() {
        // Flat `a * n + b` indexing would alias this to cell (1, 0).
        let mut g = CommGraph::new(4);
        g.add_message(1, 0, 8);
        g.edge(0, 4);
    }

    #[test]
    fn out_of_order_peers_land_sorted() {
        let mut g = CommGraph::new(6);
        for peer in [4, 1, 5, 3, 1] {
            g.add_message(2, peer, 10);
        }
        g.add_message(2, 2, 10);
        let peers: Vec<usize> = g.neighbors(2).map(|(u, _)| u).collect();
        assert_eq!(peers, vec![1, 3, 4, 5]);
        assert_eq!(g.edge(1, 2).count, 2);
        let edges: Vec<(usize, usize)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(edges, vec![(1, 2), (2, 3), (2, 4), (2, 5)]);
    }

    #[test]
    fn self_edges_excluded_from_degree() {
        let mut g = CommGraph::new(3);
        g.add_message(1, 1, 64);
        g.add_message(1, 2, 64);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.edge(1, 1).count, 1, "self-traffic is still tracked");
    }

    #[test]
    fn thresholded_degree_drops_small_edges() {
        let mut g = CommGraph::new(4);
        g.add_message(0, 1, 100); // small only
        g.add_message(0, 2, 100);
        g.add_message(0, 2, 4096); // also one big message
        g.add_message(0, 3, 2048); // exactly at cutoff
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree_thresholded(0, 2048), 2);
        assert_eq!(g.degree_thresholded(0, 0), 3, "cutoff 0 keeps everything");
        assert_eq!(g.degree_thresholded(0, 1 << 20), 0);
    }

    #[test]
    fn from_directed_symmetrizes() {
        let directed = vec![
            (
                0usize,
                1usize,
                EdgeStat {
                    bytes: 10,
                    count: 1,
                    max_msg: 10,
                },
            ),
            (
                1,
                0,
                EdgeStat {
                    bytes: 30,
                    count: 2,
                    max_msg: 20,
                },
            ),
        ];
        let g = CommGraph::from_directed(3, directed);
        assert_eq!(g.edge(0, 1).bytes, 40);
        assert_eq!(g.edge(1, 0).bytes, 40);
        assert_eq!(g.edge(0, 1).count, 3);
        assert_eq!(g.edge(0, 1).max_msg, 20);
    }

    #[test]
    fn totals_count_each_edge_once() {
        let mut g = CommGraph::new(3);
        g.add_message(0, 1, 100);
        g.add_message(1, 2, 50);
        assert_eq!(g.total_bytes(), 150);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_count_thresholded_filters() {
        let mut g = CommGraph::new(3);
        g.add_message(0, 1, 100);
        g.add_message(1, 2, 5000);
        assert_eq!(g.edge_count_thresholded(2048), 1);
        assert_eq!(g.edge_count_thresholded(0), 2);
    }

    #[test]
    fn neighbors_enumerates_active_only() {
        let mut g = CommGraph::new(5);
        g.add_message(2, 0, 8);
        g.add_message(2, 4, 8);
        let mut ns: Vec<usize> = g.neighbors(2).map(|(u, _)| u).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![0, 4]);
    }

    #[test]
    fn content_hash_tracks_traffic_not_storage() {
        let mut a = CommGraph::new(4);
        a.add_message(0, 1, 100);
        a.add_message(2, 3, 50);
        // Same traffic inserted in a different order hashes identically.
        let mut b = CommGraph::new(4);
        b.add_message(2, 3, 50);
        b.add_message(0, 1, 100);
        assert_eq!(a.content_hash(), b.content_hash());
        // Any change to traffic or size changes the hash.
        let mut c = a.clone();
        c.add_message(0, 1, 1);
        assert_ne!(a.content_hash(), c.content_hash());
        assert_ne!(
            CommGraph::new(4).content_hash(),
            CommGraph::new(5).content_hash()
        );
    }
}
