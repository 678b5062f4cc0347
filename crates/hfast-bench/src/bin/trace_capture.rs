//! Prints [`hfast_bench::capture`]'s causal trace of GTC at P = 256 and
//! a flamegraph-style self/total aggregation per call kind; exits 1 if
//! the capture breaks the trace contract. `--trace-out FILE` keeps the
//! Chrome trace-event / Perfetto JSON document.

use hfast_bench::{capture, CAPTURE_PROCS};
use hfast_ipm::format_bytes;
use hfast_trace::aggregate;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace-out" => Some(path),
        _ => {
            eprintln!("usage: trace_capture [--trace-out FILE]");
            std::process::exit(2);
        }
    };

    println!("== causal trace capture: GTC, P = {CAPTURE_PROCS} ==\n");
    let cap = capture();
    println!("world run: {} rank spans recorded", cap.world_spans);
    let flows = &cap.cell.flows;
    println!(
        "replay: {} flows ({}) -> {} spans total",
        flows.len(),
        format_bytes(flows.iter().map(|f| f.bytes).sum::<u64>()),
        cap.spans.len()
    );

    let stats = &cap.stats;
    println!(
        "\ntrace: {} events, {} rank tracks, {} link tracks, \
         {} linked recvs, {} orphans",
        stats.events, stats.rank_tracks, stats.link_tracks, stats.linked_recvs, stats.orphan_recvs
    );

    println!("\nflamegraph aggregation (self/total per call kind):");
    for agg in aggregate(&cap.spans).iter().take(8) {
        println!(
            "  {:>12}: {:>7} calls  total {:>12} ns  self {:>12} ns",
            agg.name, agg.count, agg.total_ns, agg.self_ns
        );
    }

    if let Some(path) = trace_out {
        std::fs::write(path, &cap.doc).expect("write trace document");
        println!(
            "\nwrote {} bytes to {path} (load in ui.perfetto.dev)",
            cap.doc.len()
        );
    }

    let failures = cap.violations();
    if failures.is_empty() {
        println!("\nPASS: capture satisfies the trace contract");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
