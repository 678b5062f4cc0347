//! Human-readable profile reports, in the spirit of IPM's banner output.

use hfast_topology::{tdc, BDP_CUTOFF};

use crate::profile::CommProfile;

/// Renders a textual summary of a profile: call mix, buffer-size medians,
/// and topology metrics — the quantities Table 3 of the paper reports.
pub fn render(name: &str, profile: &CommProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## IPM profile: {name} (P = {})\n\n",
        profile.size
    ));
    if profile.overflow > 0 {
        out.push_str(&format!(
            "!! hash-table overflow: {} dropped observations\n\n",
            profile.overflow
        ));
    }

    out.push_str("call mix (% of calls):\n");
    for (kind, pct) in profile.call_mix() {
        out.push_str(&format!("  {:<20} {:>6.1}%\n", kind.mpi_name(), pct));
    }

    let ptp = profile.ptp_buffer_histogram();
    let col = profile.collective_buffer_histogram();
    out.push_str(&format!(
        "\nPTP calls: {:.1}%  median buffer: {}\n",
        100.0 * profile.ptp_call_fraction(),
        ptp.median().map_or("-".to_string(), format_bytes)
    ));
    out.push_str(&format!(
        "collective calls: {:.1}%  median buffer: {}\n",
        100.0 * profile.collective_call_fraction(),
        col.median().map_or("-".to_string(), format_bytes)
    ));

    let graph = profile.comm_graph();
    if graph.n() > 0 {
        let uncut = tdc(&graph, 0);
        let cut = tdc(&graph, BDP_CUTOFF);
        out.push_str(&format!(
            "\nTDC unthresholded: max {} avg {:.1}\n",
            uncut.max, uncut.avg
        ));
        out.push_str(&format!(
            "TDC @ {} cutoff: max {} avg {:.1}\n",
            format_bytes(BDP_CUTOFF),
            cut.max,
            cut.avg
        ));
        out.push_str(&format!(
            "FCN utilization (avg): {:.0}%\n",
            100.0 * hfast_topology::fcn_utilization(&graph, BDP_CUTOFF)
        ));
    }
    out
}

/// Formats a byte count with binary units, the way the paper labels axes
/// (64, 2k, 128k, 1MB …).
pub fn format_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        let mb = bytes as f64 / (1 << 20) as f64;
        if (mb - mb.round()).abs() < 1e-9 {
            format!("{}MB", mb.round() as u64)
        } else {
            format!("{mb:.1}MB")
        }
    } else if bytes >= 1 << 10 {
        let kb = bytes as f64 / 1024.0;
        if (kb - kb.round()).abs() < 1e-9 {
            format!("{}k", kb.round() as u64)
        } else {
            format!("{kb:.1}k")
        }
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::IpmProfiler;
    use hfast_mpi::{CommHook, Payload, Tag, World, WorldConfig};
    use std::sync::Arc;

    #[test]
    fn format_bytes_matches_paper_axis_labels() {
        assert_eq!(format_bytes(0), "0");
        assert_eq!(format_bytes(64), "64");
        assert_eq!(format_bytes(1023), "1023");
        assert_eq!(format_bytes(2048), "2k");
        assert_eq!(format_bytes(128 << 10), "128k");
        assert_eq!(format_bytes(1 << 20), "1MB");
        assert_eq!(format_bytes(3 << 19), "1.5MB");
    }

    #[test]
    fn report_contains_key_sections() {
        let prof = Arc::new(IpmProfiler::new(2));
        World::run_with(
            WorldConfig::new(2).hook(prof.clone() as Arc<dyn CommHook>),
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, Tag(1), Payload::synthetic(2048)).unwrap();
                } else {
                    comm.recv(0, Tag(1)).unwrap();
                }
            },
        )
        .unwrap();
        let text = render("smoke", &prof.profile());
        assert!(text.contains("IPM profile: smoke (P = 2)"));
        assert!(text.contains("MPI_Send"));
        assert!(text.contains("TDC @ 2k cutoff: max 1"));
        assert!(!text.contains("overflow"), "healthy profile has no warning");
    }

    #[test]
    fn empty_profile_renders() {
        let prof = IpmProfiler::new(4);
        let text = render("empty", &prof.profile());
        assert!(text.contains("P = 4"));
    }
}
