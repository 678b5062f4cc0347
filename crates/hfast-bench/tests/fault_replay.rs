//! Paper §1's reliability argument as a tier-1 check: under seeded
//! failures of each fabric's transit links, HFAST (collective-tree
//! fallback plus circuit repatching) delivers strictly more goodput than
//! the single-path fat tree on every (app, failure-rate) cell.

use hfast_bench::{goodput_grid, GoodputRow, RATES};

#[test]
fn hfast_beats_the_fat_tree_on_every_fault_replay_cell() {
    let grid = goodput_grid();
    assert_eq!(grid.len(), 6, "one row per paper app");
    for row in &grid {
        assert_eq!(
            row.cells.len(),
            RATES.len(),
            "{} has no steady-state flows to replay",
            row.app
        );
    }
    let losses: Vec<String> = grid.iter().flat_map(GoodputRow::violations).collect();
    assert!(losses.is_empty(), "{}", losses.join("\n"));
}
