//! Terminal rendering helpers shared by the `paper` sections.

use hfast_ipm::format_bytes;
use hfast_topology::{tdc_sweep, CommGraph, TdcSummary, PAPER_CUTOFFS};

use crate::measure::AppRow;
use crate::paper::{published, TABLE3_COLUMNS};

/// Renders a cell's measured Table 3 line and, where the claims ledger has
/// the cell, the published line under it.
pub fn table3_rows(measured: &AppRow) -> String {
    let (name, procs) = (measured.name, measured.procs);
    let mut out = table3_line(
        name,
        procs,
        "measured",
        &[
            measured.ptp_pct,
            measured.median_ptp as f64,
            measured.col_pct,
            measured.median_col as f64,
            measured.tdc_max as f64,
            measured.tdc_avg,
            measured.fcn_util_pct,
        ],
    );
    let paper: Option<Vec<f64>> = TABLE3_COLUMNS
        .iter()
        .map(|&q| published(name, procs, q).map(|v| v.num()))
        .collect();
    if let Some(paper) = paper {
        out.push_str(&table3_line(name, procs, "paper", &paper));
    }
    out
}

/// One Table 3 line; `v` holds [`TABLE3_COLUMNS`] in order.
fn table3_line(name: &str, procs: usize, source: &str, v: &[f64]) -> String {
    format!(
        "{:<8} {:>4}  {:<10}{:>5.1}% {:>8} {:>6.1}% {:>6} {:>6},{:<7.1} {:>5.0}%\n",
        name,
        procs,
        source,
        v[0],
        format_bytes(v[1] as u64),
        v[2],
        format_bytes(v[3] as u64),
        v[4] as usize,
        v[5],
        v[6],
    )
}

/// Header matching [`table3_rows`].
pub fn table3_header() -> String {
    format!(
        "{:<8} {:>4}  {:<8}  {:>6} {:>8} {:>7} {:>6} {:>14} {:>6}\n{}\n",
        "code",
        "P",
        "source",
        "%PTP",
        "medPTP",
        "%Col",
        "medCol",
        "TDC@2k(max,avg)",
        "FCNutil",
        "-".repeat(84)
    )
}

/// Renders a TDC-versus-cutoff sweep (the (b) panels of Figures 5-10) as an
/// aligned text table with `max` and `avg` series.
pub(crate) fn tdc_sweep_table(graph: &CommGraph, label: &str) -> String {
    let sweep = tdc_sweep(graph, &PAPER_CUTOFFS);
    let mut out = format!("TDC vs cutoff — {label}\n");
    out.push_str(&format!("{:>8} {:>6} {:>8}\n", "cutoff", "max", "avg"));
    for (cutoff, TdcSummary { max, avg, .. }) in sweep {
        out.push_str(&format!(
            "{:>8} {:>6} {:>8.1}\n",
            format_bytes(cutoff),
            max,
            avg
        ));
    }
    out
}

/// An ASCII sparkline of a cumulative distribution for terminal output.
pub fn cdf_line(points: &[(u64, f64)], width: usize) -> String {
    const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if points.is_empty() {
        return String::new();
    }
    let max_x = points.last().expect("non-empty").0 as f64;
    let mut out = String::with_capacity(width);
    for i in 0..width {
        // Log-scale the x axis like the paper's buffer-size plots.
        let x = if max_x <= 1.0 {
            1.0
        } else {
            (max_x.ln() * (i as f64 + 1.0) / width as f64).exp()
        };
        let frac = points
            .iter()
            .take_while(|(b, _)| (*b as f64) <= x)
            .last()
            .map_or(0.0, |(_, f)| *f);
        let idx = (frac * (BARS.len() - 1) as f64).round() as usize;
        out.push(BARS[idx.min(BARS.len() - 1)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::ring_graph;

    #[test]
    fn sweep_table_contains_all_cutoffs() {
        let g = ring_graph(8, 100_000);
        let t = tdc_sweep_table(&g, "ring");
        assert!(t.contains("ring"));
        assert_eq!(t.lines().count(), 2 + PAPER_CUTOFFS.len());
        assert!(t.contains("1MB"));
    }

    #[test]
    fn cdf_line_is_monotone_glyphs() {
        let points = vec![(8u64, 0.25), (64, 0.5), (1024, 1.0)];
        let line = cdf_line(&points, 20);
        assert_eq!(line.chars().count(), 20);
        let levels: Vec<usize> = line
            .chars()
            .map(|c| " ▁▂▃▄▅▆▇█".chars().position(|b| b == c).unwrap())
            .collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*levels.last().unwrap(), 8, "ends at 100%");
    }

    #[test]
    fn empty_cdf_is_empty() {
        assert!(cdf_line(&[], 10).is_empty());
    }
}
