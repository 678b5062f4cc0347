//! Paper §1's reliability argument as a tier-1 check: under seeded
//! failures of each fabric's transit links, HFAST (collective-tree
//! fallback plus circuit repatching) delivers strictly more goodput than
//! the single-path fat tree on every (app, failure-rate) cell.

use hfast_bench::{goodput_grid, RATES};

#[test]
fn hfast_beats_the_fat_tree_on_every_fault_replay_cell() {
    let grid = goodput_grid();
    assert_eq!(grid.len(), 6, "one row per paper app");
    let mut losses = Vec::new();
    for row in &grid {
        assert_eq!(
            row.cells.len(),
            RATES.len(),
            "{} has no steady-state flows to replay",
            row.app
        );
        for cell in &row.cells {
            if cell.hfast <= cell.fat_tree {
                losses.push(format!(
                    "{} at rate {:.2}: HFAST goodput {:.4} <= fat tree {:.4}",
                    row.app, cell.rate, cell.hfast, cell.fat_tree
                ));
            }
        }
    }
    assert!(losses.is_empty(), "{}", losses.join("\n"));
}
