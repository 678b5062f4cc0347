//! Volume-matrix rendering (the (a) panels of paper Figures 5-10).
//!
//! The paper visualizes each application's P×P message-volume matrix as a
//! heat map. [`render_ascii`] renders the same data as a terminal-friendly
//! ASCII density plot.

use crate::graph::CommGraph;

/// Density glyphs from empty to maximal.
const SHADES: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders the byte-volume matrix as an ASCII heat map.
///
/// Rows/columns are task ranks; cell brightness is log-scaled traffic volume
/// relative to the busiest pair. `downsample` merges blocks of ranks into
/// one character cell so large matrices fit a terminal (use 1 for exact).
pub fn render_ascii(graph: &CommGraph, downsample: usize) -> String {
    let n = graph.n();
    let ds = downsample.max(1);
    let cells = n.div_ceil(ds);
    // Aggregate block volumes.
    let mut blocks = vec![0u64; cells * cells];
    let mut max_block = 0u64;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let v = graph.edge(a, b).bytes;
            if v > 0 {
                let cell = (a / ds) * cells + b / ds;
                blocks[cell] += v;
                max_block = max_block.max(blocks[cell]);
            }
        }
    }
    let mut out = String::with_capacity(cells * (cells + 1));
    for row in 0..cells {
        for col in 0..cells {
            let v = blocks[row * cells + col];
            let ch = if v == 0 || max_block == 0 {
                SHADES[0]
            } else {
                // Log scale so small-but-present traffic stays visible.
                let frac = (v as f64).ln() / (max_block as f64).ln();
                let idx = 1 + (frac.clamp(0.0, 1.0) * (SHADES.len() - 2) as f64).round() as usize;
                SHADES[idx.min(SHADES.len() - 1)]
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ring_graph;

    #[test]
    fn ascii_dimensions() {
        let g = ring_graph(8, 1000);
        let art = render_ascii(&g, 1);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.chars().count() == 8));
    }

    #[test]
    fn ascii_diagonal_band_for_ring() {
        let g = ring_graph(6, 1000);
        let art = render_ascii(&g, 1);
        let grid: Vec<Vec<char>> = art.lines().map(|l| l.chars().collect()).collect();
        for i in 0..6usize {
            assert_eq!(grid[i][i], ' ', "no self traffic on the diagonal");
            assert_ne!(grid[i][(i + 1) % 6], ' ', "ring band present");
            assert_eq!(grid[i][(i + 3) % 6], ' ', "distant pairs silent");
        }
    }

    #[test]
    fn downsampling_shrinks_output() {
        let g = ring_graph(64, 1000);
        let art = render_ascii(&g, 4);
        assert_eq!(art.lines().count(), 16);
    }

    #[test]
    fn empty_graph_renders_blank() {
        let g = CommGraph::new(3);
        let art = render_ascii(&g, 1);
        assert!(art.chars().all(|c| c == ' ' || c == '\n'));
    }
}
