//! The shared routine behind `paper fig5`…`fig10`: volume matrix
//! plus TDC-versus-cutoff curves for one application.

use hfast_apps::CommKernel;
use hfast_topology::{render_ascii, tdc, BDP_CUTOFF};

use crate::measure::measure_app;
use crate::render::tdc_sweep_table;

/// Reproduces one of the paper's per-application figures (5-10): panel (a)
/// is the P=256 message-volume matrix, panel (b) the TDC-vs-cutoff curves
/// for P = 64 and 256. Returns the rendered text.
pub fn app_figure(app: &dyn CommKernel, figure_no: usize) -> String {
    let mut out = format!(
        "== Figure {figure_no}: {} communication topology ==\n\n",
        app.name()
    );
    // The two panel sizes are independent profile runs — measure them on
    // worker threads (results come back in input order, so the rendered
    // figure is identical to the sequential run).
    let mut rows = hfast_par::par_map(vec![64usize, 256], |procs| measure_app(app, procs));
    let row256 = rows.pop().expect("two rows");
    let row64 = rows.pop().expect("two rows");

    out.push_str("(a) volume of communication at P=256 (log-scaled density):\n");
    let graph256 = row256.steady.comm_graph();
    out.push_str(&render_ascii(&graph256, 4));
    out.push('\n');

    out.push_str("(b) effect of thresholding on TDC:\n");
    let graph64 = row64.steady.comm_graph();
    out.push_str(&tdc_sweep_table(&graph64, &format!("{} P=64", app.name())));
    out.push('\n');
    out.push_str(&tdc_sweep_table(
        &graph256,
        &format!("{} P=256", app.name()),
    ));

    let cut64 = tdc(&graph64, BDP_CUTOFF);
    let cut256 = tdc(&graph256, BDP_CUTOFF);
    out.push_str(&format!(
        "\nTDC @ 2KB cutoff: P=64 (max {}, avg {:.1}); P=256 (max {}, avg {:.1})\n",
        cut64.max, cut64.avg, cut256.max, cut256.avg
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_apps::Cactus;

    #[test]
    fn figure_text_has_both_panels() {
        let text = app_figure(&Cactus::new(2), 6);
        assert!(text.contains("Figure 6"));
        assert!(text.contains("(a) volume"));
        assert!(text.contains("(b) effect of thresholding"));
        assert!(text.contains("P=64"));
        assert!(text.contains("P=256"));
    }
}
