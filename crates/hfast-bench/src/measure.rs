//! Measurement: run a kernel and reduce its profile to a Table 3 row.

use hfast_apps::{profile_app, CommKernel};
use hfast_ipm::CommProfile;
use hfast_topology::{fcn_utilization, tdc, BDP_CUTOFF};

/// A measured Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRow {
    /// Application name.
    pub name: &'static str,
    /// Processor count.
    pub procs: usize,
    /// % point-to-point calls.
    pub ptp_pct: f64,
    /// Median PTP buffer (bytes).
    pub median_ptp: u64,
    /// % collective calls.
    pub col_pct: f64,
    /// Median collective buffer (bytes).
    pub median_col: u64,
    /// Max TDC at the 2 KB cutoff.
    pub tdc_max: usize,
    /// Average TDC at the 2 KB cutoff.
    pub tdc_avg: f64,
    /// Max TDC without thresholding.
    pub tdc_max_uncut: usize,
    /// Average TDC without thresholding.
    pub tdc_avg_uncut: f64,
    /// FCN utilization (avg TDC / (P−1)).
    pub fcn_util_pct: f64,
    /// The steady-state profile behind the row (for the figure sections).
    pub steady: CommProfile,
}

/// Profiles `app` at `procs` ranks and reduces the steady-state region to
/// the paper's Table 3 metrics.
pub fn measure_app(app: &dyn CommKernel, procs: usize) -> AppRow {
    let outcome = profile_app(app, procs).unwrap_or_else(|e| {
        panic!("{} at P={procs} failed: {e}", app.name());
    });
    let steady = outcome.steady;
    let graph = steady.comm_graph();
    let cut = tdc(&graph, BDP_CUTOFF);
    let uncut = tdc(&graph, 0);
    AppRow {
        name: app.name(),
        procs,
        ptp_pct: 100.0 * steady.ptp_call_fraction(),
        median_ptp: steady.ptp_buffer_histogram().median().unwrap_or(0),
        col_pct: 100.0 * steady.collective_call_fraction(),
        median_col: steady.collective_buffer_histogram().median().unwrap_or(0),
        tdc_max: cut.max,
        tdc_avg: cut.avg,
        tdc_max_uncut: uncut.max,
        tdc_avg_uncut: uncut.avg,
        fcn_util_pct: 100.0 * fcn_utilization(&graph, BDP_CUTOFF),
        steady,
    }
}

/// Measures many `(app index, procs)` cells of the study grid in parallel.
///
/// App indices refer to [`all_apps`](hfast_apps::all_apps) order. Results
/// come back in input order regardless of thread scheduling, and each cell's
/// profile run is independent and internally deterministic, so the output is
/// byte-identical to measuring the cells one by one (`HFAST_THREADS=1`
/// forces exactly that).
pub(crate) fn measure_cells(cells: &[(usize, usize)]) -> Vec<AppRow> {
    hfast_par::par_map(cells.to_vec(), |(app_idx, procs)| {
        let apps = hfast_apps::all_apps();
        measure_app(apps[app_idx].as_ref(), procs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_apps::Cactus;

    #[test]
    fn parallel_cells_match_sequential() {
        // Wall-clock call timings inside the profile differ run to run;
        // every derived statistic (the published numbers) must not.
        fn deterministic_view(r: &AppRow) -> impl PartialEq + std::fmt::Debug {
            (
                r.name,
                r.procs,
                r.ptp_pct.to_bits(),
                r.median_ptp,
                r.col_pct.to_bits(),
                r.median_col,
                r.tdc_max,
                r.tdc_avg.to_bits(),
                r.tdc_max_uncut,
                r.tdc_avg_uncut.to_bits(),
                r.fcn_util_pct.to_bits(),
                r.steady.comm_graph(),
            )
        }
        let cells = [(0usize, 16usize), (0, 27), (1, 16)];
        let par = measure_cells(&cells);
        let seq: Vec<AppRow> = cells
            .iter()
            .map(|&(i, p)| measure_app(hfast_apps::all_apps()[i].as_ref(), p))
            .collect();
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(deterministic_view(p), deterministic_view(s));
        }
    }

    #[test]
    fn measured_row_is_coherent() {
        let row = measure_app(&Cactus::new(4), 27);
        assert_eq!(row.name, "Cactus");
        assert!((row.ptp_pct + row.col_pct - 100.0).abs() < 1e-9);
        assert_eq!(row.tdc_max, 6);
        assert!(row.tdc_avg <= row.tdc_max as f64);
        assert!(row.fcn_util_pct > 0.0 && row.fcn_util_pct <= 100.0);
    }
}
