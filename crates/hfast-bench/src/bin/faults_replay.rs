//! Fault-replay experiment: prints [`hfast_bench::goodput_grid`],
//! goodput under seeded link failures on fat tree vs HFAST for every
//! (app, failure-rate) cell.
//!
//! Takes no arguments. Exits 1 if HFAST fails to deliver strictly more goodput than the
//! fat tree on any cell; the tier-1 test `tests/fault_replay.rs` asserts the
//! same and names the cell.

use hfast_bench::goodput_grid;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: faults_replay");
        std::process::exit(2);
    }
    println!("== fault replay: goodput under seeded link failures ==\n");
    println!(
        "{:>9} {:>6} {:>10} {:>10}   (goodput = delivered/offered bytes)",
        "code", "rate", "fat-tree", "hfast"
    );
    let mut violations = 0usize;
    let mut skipped = 0usize;
    for row in goodput_grid() {
        if row.cells.is_empty() {
            println!(
                "{:>9}   (no steady-state flows above cutoff, skipped)",
                row.app
            );
            skipped += 1;
        }
        for cell in row.cells {
            let mark = if cell.hfast > cell.fat_tree {
                ""
            } else {
                violations += 1;
                "  <-- HFAST did not win"
            };
            println!(
                "{:>9} {:>6.2} {:>10.4} {:>10.4}{mark}",
                row.app, cell.rate, cell.fat_tree, cell.hfast
            );
        }
    }
    if skipped > 0 {
        println!("\n({skipped} apps skipped: no flows to replay)");
    }
    println!(
        "\nshape: the single-path fat tree abandons every flow crossing a \
         dead link; HFAST rides the collective tree and repatches circuits \
         at the next sync point, so goodput stays at 1.0."
    );
    if violations > 0 {
        eprintln!("FAIL: {violations} cells where HFAST goodput <= fat-tree");
        std::process::exit(1);
    }
}
