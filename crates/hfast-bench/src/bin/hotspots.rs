//! Prints [`hfast_bench::hotspots`]' link rankings per app × fabric and
//! exits 1 if an app's hottest HFAST transit link is not a circuit.
//! `hotspots [APP]` prints only the apps whose name contains `APP`.

use hfast_bench::{hotspots, Ranking};

const TOP: usize = 5;

fn print_ranking(label: &str, ranking: &Ranking) {
    println!("  {label}:");
    for (l, class) in ranking.links.iter().take(TOP) {
        let class = class.map_or(String::new(), |c| format!(" [{c}]"));
        println!(
            "    link {:>4}{class}: busy {:>9} ns  util {:>5.3}  waited {:>9} ns  \
             msgs {:>4}  peak queue {:>2}",
            l.link, l.busy_ns, l.utilization, l.wait_ns, l.messages, l.peak_queue
        );
    }
    let [p50, p95, p99] = ranking.wait_ns;
    println!("    queue wait p50/p95/p99: {p50} / {p95} / {p99} ns");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [app] if !app.starts_with('-') => Some(app.to_lowercase()),
        _ => {
            eprintln!("usage: hotspots [APP]");
            std::process::exit(2);
        }
    };
    println!("== congestion hotspots: traced replay, all codes, both fabrics ==\n");
    let (mut skipped, mut violations) = (0usize, 0usize);
    for app in hotspots() {
        if only
            .as_ref()
            .is_some_and(|f| !app.app.to_lowercase().contains(f.as_str()))
        {
            continue;
        }
        if app.flows == 0 {
            println!("{}: no steady-state flows above cutoff, skipped\n", app.app);
            skipped += 1;
            continue;
        }
        println!("{} ({} flows):", app.app, app.flows);
        print_ranking("fat-tree", &app.fat_tree);
        print_ranking("hfast (transit)", &app.hfast_transit);
        match (app.hfast_transit.links.first(), app.violation()) {
            (None, _) => println!("    -> all traffic node-local (no transit links used)\n"),
            (Some(_), None) => {
                println!("    -> hottest transit link is circuit-switched, as provisioned\n");
            }
            (Some(_), Some(why)) => {
                violations += 1;
                println!("    -> FAIL: {why}\n");
            }
        }
    }
    if skipped > 0 {
        println!("({skipped} apps skipped: no flows to replay)");
    }
    println!(
        "shape: the provisioner dedicates circuits to exactly the heavy pairs \
         the trace measures, so congestion concentrates on circuit-switched \
         links and the packet-switched tree stays cold."
    );
    if violations > 0 {
        eprintln!("FAIL: {violations} apps whose top hotspot missed the provisioning map");
        std::process::exit(1);
    }
}
