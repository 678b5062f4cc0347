//! Benchmarks of the topology-analysis layer: the multi-cutoff TDC sweep
//! (single-pass vs naive per-cutoff rescan — the PR's headline
//! optimization), structure detection, and graph construction.

use hfast_bench::Harness;
use hfast_topology::generators::{complete_graph, mesh3d_graph};
use hfast_topology::{
    detect_structure, tdc, tdc_sweep, tdc_sweep_csr, CommGraph, CsrGraph, TdcSummary, PAPER_CUTOFFS,
};

/// The baseline: one `tdc` rescan per cutoff.
fn tdc_sweep_naive(graph: &CommGraph, cutoffs: &[u64]) -> Vec<(u64, TdcSummary)> {
    cutoffs.iter().map(|&c| (c, tdc(graph, c))).collect()
}

fn main() {
    let mut h = Harness::new("topology");

    for n in [64usize, 256] {
        let g = complete_graph(n, 32 << 10);
        h.bench(&format!("tdc_sweep/naive/complete-{n}"), || {
            tdc_sweep_naive(std::hint::black_box(&g), &PAPER_CUTOFFS)
        });
        h.bench(&format!("tdc_sweep/fast/complete-{n}"), || {
            tdc_sweep(std::hint::black_box(&g), &PAPER_CUTOFFS)
        });
        h.report_speedup(
            &format!("multi_cutoff_sweep_{n}"),
            &format!("tdc_sweep/naive/complete-{n}"),
            &format!("tdc_sweep/fast/complete-{n}"),
        );
    }

    // Sweep over a prebuilt CSR — what the figure binaries pay per call
    // once the snapshot is shared.
    let g256 = complete_graph(256, 32 << 10);
    let csr256 = CsrGraph::from_graph(&g256, 0);
    h.bench("tdc_sweep/csr-prebuilt/complete-256", || {
        tdc_sweep_csr(std::hint::black_box(&csr256), &PAPER_CUTOFFS)
    });

    // A sparse, mesh-shaped graph — the regime the study apps live in.
    let mesh = mesh3d_graph((8, 8, 4), 300 << 10);
    h.bench("tdc_sweep/naive/mesh-256", || {
        tdc_sweep_naive(std::hint::black_box(&mesh), &PAPER_CUTOFFS)
    });
    h.bench("tdc_sweep/fast/mesh-256", || {
        tdc_sweep(std::hint::black_box(&mesh), &PAPER_CUTOFFS)
    });
    h.report_speedup(
        "multi_cutoff_sweep_mesh",
        "tdc_sweep/naive/mesh-256",
        "tdc_sweep/fast/mesh-256",
    );

    h.bench("detect_structure/mesh-256", || {
        detect_structure(std::hint::black_box(&mesh), 2048)
    });

    h.bench("comm_graph_build/64k-messages", || {
        let mut g = CommGraph::new(256);
        for i in 0..65536u64 {
            let a = (i % 256) as usize;
            let bnode = ((i * 31) % 256) as usize;
            if a != bnode {
                g.add_message(a, bnode, 1024 + (i % 4096));
            }
        }
        g
    });

    h.bench("csr_from_graph/complete-256", || {
        CsrGraph::from_graph(std::hint::black_box(&g256), 2048)
    });

    h.finish();
}
