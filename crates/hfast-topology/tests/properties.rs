//! Property-based tests for the topology layer.

use hfast_par::{forall, Rng64};
use hfast_topology::{
    bisection_bytes, tdc, tdc_sweep, BufferHistogram, CommGraph, CsrGraph, EdgeStat, TdcSummary,
    PAPER_CUTOFFS,
};

/// A random message list over `n` ranks.
fn messages(rng: &mut Rng64, n: usize, max_msgs: usize) -> Vec<(usize, usize, u64)> {
    let count = rng.range(0, max_msgs);
    (0..count)
        .map(|_| (rng.range(0, n), rng.range(0, n), rng.range_u64(1, 2 << 20)))
        .collect()
}

fn build(n: usize, msgs: &[(usize, usize, u64)]) -> CommGraph {
    let mut g = CommGraph::new(n);
    for &(a, b, bytes) in msgs {
        g.add_message(a, b, bytes);
    }
    g
}

fn random_graph(rng: &mut Rng64, n: usize, max_msgs: usize) -> CommGraph {
    let msgs = messages(rng, n, max_msgs);
    build(n, &msgs)
}

/// The store `CommGraph` had before its rows went sparse: a row-major
/// `n × n` matrix kept symmetric. Test-only reference for
/// [`sparse_rows_match_the_dense_matrix`].
#[derive(Clone, PartialEq)]
struct DenseRef {
    n: usize,
    cells: Vec<EdgeStat>,
}

impl DenseRef {
    fn new(n: usize) -> Self {
        DenseRef {
            n,
            cells: vec![EdgeStat::default(); n * n],
        }
    }

    /// Applies `update` to cell `(a, b)` and, off the diagonal, `(b, a)`.
    fn update(&mut self, a: usize, b: usize, update: impl Fn(&mut EdgeStat)) {
        update(&mut self.cells[a * self.n + b]);
        if a != b {
            update(&mut self.cells[b * self.n + a]);
        }
    }

    fn edge(&self, a: usize, b: usize) -> &EdgeStat {
        &self.cells[a * self.n + b]
    }

    fn neighbors(&self, v: usize, cutoff: u64) -> Vec<(usize, EdgeStat)> {
        (0..self.n)
            .filter(|&u| u != v)
            .map(|u| (u, *self.edge(v, u)))
            .filter(|(_, e)| e.is_active() && e.max_msg >= cutoff)
            .collect()
    }

    fn upper(&self) -> impl Iterator<Item = (usize, usize, &EdgeStat)> {
        (0..self.n).flat_map(move |a| (a..self.n).map(move |b| (a, b, self.edge(a, b))))
    }

    fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.n as u64);
        for (a, b, e) in self.upper().filter(|(_, _, e)| e.is_active()) {
            for v in [a as u64, b as u64, e.bytes, e.count, e.max_msg] {
                mix(v);
            }
        }
        h
    }
}

/// A random statistic: usually a plausible one, sometimes all-zero, and
/// sometimes inactive (`count == 0`) while still carrying bytes.
fn random_stat(rng: &mut Rng64) -> EdgeStat {
    let max_msg = rng.range_u64(0, 1 << 21);
    match rng.range(0, 8) {
        0 => EdgeStat::default(),
        1 => EdgeStat {
            bytes: max_msg,
            count: 0,
            max_msg,
        },
        _ => EdgeStat {
            bytes: max_msg * 3,
            count: rng.range_u64(1, 5),
            max_msg,
        },
    }
}

/// Compares every accessor of `g` with the dense reference.
fn assert_same(g: &CommGraph, d: &DenseRef) {
    let n = d.n;
    assert_eq!(g.n(), n);
    for a in 0..n {
        for b in 0..n {
            assert_eq!(g.edge(a, b), d.edge(a, b), "edge({a}, {b})");
        }
    }
    let cutoffs = [0, 2048, 1 << 20];
    for v in 0..n {
        let got: Vec<(usize, EdgeStat)> = g.neighbors(v).map(|(u, e)| (u, *e)).collect();
        assert_eq!(got, d.neighbors(v, 0), "neighbors({v}) and their order");
        assert_eq!(g.degree(v), got.len());
        for cutoff in cutoffs {
            let got: Vec<(usize, EdgeStat)> = g
                .neighbors_thresholded(v, cutoff)
                .map(|(u, e)| (u, *e))
                .collect();
            assert_eq!(got, d.neighbors(v, cutoff), "neighbors({v}) at {cutoff}");
            assert_eq!(g.degree_thresholded(v, cutoff), got.len());
        }
    }
    let pairs = |cutoff: u64| {
        d.upper()
            .filter(|&(a, b, e)| a != b && e.is_active() && e.max_msg >= cutoff)
            .map(|(a, b, e)| (a, b, *e))
            .collect::<Vec<_>>()
    };
    let edges: Vec<(usize, usize, EdgeStat)> = g.edges().map(|(a, b, e)| (a, b, *e)).collect();
    assert_eq!(edges, pairs(0), "edges() and their order");
    assert_eq!(g.edge_count(), edges.len());
    assert_eq!(
        g.total_bytes(),
        d.upper().map(|(_, _, e)| e.bytes).sum::<u64>()
    );
    assert_eq!(g.content_hash(), d.content_hash());
    for cutoff in cutoffs {
        assert_eq!(g.edge_count_thresholded(cutoff), pairs(cutoff).len());
        let csr = CsrGraph::from_graph(g, cutoff);
        assert_eq!(csr.n(), n);
        assert_eq!(csr.nnz(), 2 * pairs(cutoff).len());
        for v in 0..n {
            let want = d.neighbors(v, cutoff);
            let got: Vec<(usize, EdgeStat)> =
                csr.neighbors_with_stats(v).map(|(u, e)| (u, *e)).collect();
            assert_eq!(got, want, "CSR row {v} at {cutoff}");
            assert_eq!(csr.degree(v), want.len());
            let peers: Vec<usize> = want.iter().map(|&(u, _)| u).collect();
            assert_eq!(csr.neighbors(v), peers.as_slice());
        }
    }
}

#[test]
fn sparse_rows_match_the_dense_matrix() {
    forall("sparse_rows_match_the_dense_matrix", 128, |rng| {
        let n = rng.range(1, 14);
        // Start from `from_directed` (records in arbitrary order, both
        // orientations, duplicates, self pairs, zero and inactive stats) …
        let directed: Vec<(usize, usize, EdgeStat)> = (0..rng.range(0, 60))
            .map(|_| (rng.range(0, n), rng.range(0, n), random_stat(rng)))
            .collect();
        let mut dense = DenseRef::new(n);
        for (a, b, stat) in &directed {
            dense.update(*a, *b, |cell| cell.merge(stat));
        }
        let mut g = CommGraph::from_directed(n, directed);
        assert_same(&g, &dense);
        // … then grow it by messages (peers out of order, zero-byte
        // messages, self messages), checking equality tracks the matrix's.
        let before = (g.clone(), dense.clone());
        for (a, b, bytes) in messages(rng, n, 40) {
            let bytes = if bytes % 5 == 0 { 0 } else { bytes };
            g.add_message(a, b, bytes);
            dense.update(a, b, |cell| cell.add_message(bytes));
            assert_eq!(g == before.0, dense == before.1, "== follows the matrix");
        }
        assert_same(&g, &dense);
        assert_eq!(g, g.clone());
    });
}

#[test]
#[should_panic(expected = "rank out of range")]
fn from_directed_rejects_an_endpoint_past_n() {
    CommGraph::from_directed(3, [(0, 3, EdgeStat::default())]);
}

/// The reference the single-pass sweep must match: one [`tdc`] rescan per
/// cutoff.
fn tdc_sweep_naive(g: &CommGraph, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
    cutoffs.iter().map(|&c| (c, tdc(g, c))).collect()
}

#[test]
fn tdc_monotone_in_cutoff() {
    forall("tdc_monotone_in_cutoff", 256, |rng| {
        let g = random_graph(rng, 10, 150);
        let sweep = tdc_sweep(&g, &PAPER_CUTOFFS);
        for w in sweep.windows(2) {
            assert!(w[1].1.max <= w[0].1.max);
            assert!(w[1].1.avg <= w[0].1.avg + 1e-12);
            assert!(w[1].1.min <= w[0].1.min);
        }
    });
}

#[test]
fn sweep_equals_naive_per_cutoff() {
    // The single-pass sweep must produce numbers identical to running the
    // straightforward per-cutoff rescan — on the paper's axis and on random
    // cutoff lists (unsorted, duplicated, huge).
    forall("sweep_equals_naive_per_cutoff", 256, |rng| {
        let n = rng.range(1, 16);
        let g = random_graph(rng, n, 200);
        assert_eq!(
            tdc_sweep(&g, &PAPER_CUTOFFS),
            tdc_sweep_naive(&g, &PAPER_CUTOFFS)
        );
        let cutoffs: Vec<u64> = (0..rng.range(1, 10))
            .map(|_| rng.range_u64(0, 4 << 20))
            .collect();
        assert_eq!(tdc_sweep(&g, &cutoffs), tdc_sweep_naive(&g, &cutoffs));
    });
}

#[test]
fn degree_bounds() {
    forall("degree_bounds", 256, |rng| {
        let g = random_graph(rng, 9, 100);
        let s = tdc(&g, 0);
        assert!(s.max <= 8, "degree cannot exceed n-1");
        assert!(s.min <= s.median && s.median <= s.max);
        assert!(s.min as f64 <= s.avg && s.avg <= s.max as f64);
    });
}

#[test]
fn csr_matches_dense() {
    forall("csr_matches_dense", 256, |rng| {
        let g = random_graph(rng, 10, 120);
        let cutoff = rng.range_u64(0, 1 << 21);
        let csr = CsrGraph::from_graph(&g, cutoff);
        for v in 0..10 {
            assert_eq!(csr.degree(v), g.degree_thresholded(v, cutoff));
            for &u in csr.neighbors(v) {
                assert!(csr.neighbors(u).contains(&v), "CSR adjacency is symmetric");
            }
        }
    });
}

#[test]
fn bisection_bounded_by_total() {
    forall("bisection_bounded_by_total", 256, |rng| {
        let g = random_graph(rng, 8, 100);
        assert!(bisection_bytes(&g) <= g.total_bytes());
    });
}

#[test]
fn histogram_cdf_properties() {
    forall("histogram_cdf_properties", 256, |rng| {
        let entries: Vec<(u64, u64)> = (0..rng.range(1, 50))
            .map(|_| (rng.range_u64(1, 1 << 22), rng.range_u64(1, 1000)))
            .collect();
        let hist: BufferHistogram = entries.iter().copied().collect();
        let cdf = hist.cdf();
        // Monotone, ends at exactly 1.
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
            assert!(w[0].0 < w[1].0);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Median is consistent with the CDF.
        let median = hist.median().unwrap();
        assert!(hist.fraction_at_or_below(median) >= 0.5);
        if median > 0 {
            assert!(hist.fraction_at_or_below(median - 1) < 0.5 + 1e-12);
        }
        // Percentiles are monotone.
        let p25 = hist.percentile(25.0).unwrap();
        let p75 = hist.percentile(75.0).unwrap();
        assert!(p25 <= median && median <= p75);
    });
}
