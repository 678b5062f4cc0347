//! Terminal rendering helpers shared by the `paper` sections.

use hfast_ipm::format_bytes;
use hfast_topology::{tdc_sweep, CommGraph, TdcSummary, PAPER_CUTOFFS};

use crate::measure::AppRow;
use crate::paper::PaperRow;

/// Renders a measured-vs-paper Table 3 row pair.
pub fn table3_rows(measured: &AppRow, paper: Option<&PaperRow>) -> String {
    let mut out = format!(
        "{:<8} {:>4}  measured  {:>5.1}% {:>8} {:>6.1}% {:>6} {:>6},{:<7.1} {:>5.0}%\n",
        measured.name,
        measured.procs,
        measured.ptp_pct,
        format_bytes(measured.median_ptp),
        measured.col_pct,
        format_bytes(measured.median_col),
        measured.tdc_max,
        measured.tdc_avg,
        measured.fcn_util_pct,
    );
    if let Some(p) = paper {
        out.push_str(&format!(
            "{:<8} {:>4}  paper     {:>5.1}% {:>8} {:>6.1}% {:>6} {:>6},{:<7.1} {:>5.0}%\n",
            p.name,
            p.procs,
            p.ptp_pct,
            format_bytes(p.median_ptp),
            p.col_pct,
            format_bytes(p.median_col),
            p.tdc_max,
            p.tdc_avg,
            p.fcn_util_pct,
        ));
    }
    out
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
pub fn tdc_sweep_table(graph: &CommGraph, label: &str) -> String {
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
