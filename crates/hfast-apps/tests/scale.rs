//! Profiles above the paper's P = 256, which only the replay executor
//! reaches: rank threads stop at what the host can spawn.

use hfast_apps::{profile_app, Cactus, CommKernel, Gtc, Lbmhd};
use hfast_topology::{tdc, BDP_CUTOFF};

/// The three codes whose partner count does not grow with P keep their
/// P = 256 max TDC at P = 1024 (SuperLU, PMEMD and PARATEC are left out:
/// their profiles grow toward all-to-all, and PARATEC's per-rank
/// signatures reach the IPM table bound near P = 2k).
#[test]
fn bounded_degree_codes_profile_at_p_1024() {
    let apps: [(&dyn CommKernel, usize); 3] = [
        (&Cactus::default(), 6),
        (&Lbmhd::default(), 12),
        (&Gtc::default(), 10),
    ];
    for (app, max_tdc) in apps {
        let max_at = |procs| {
            let outcome = profile_app(app, procs).expect("profiles");
            assert_eq!(outcome.merged.overflow, 0, "{} P={procs}", app.name());
            tdc(&outcome.steady.comm_graph(), BDP_CUTOFF).max
        };
        assert_eq!(max_at(256), max_tdc, "{} P=256", app.name());
        assert_eq!(max_at(1024), max_tdc, "{} P=1024", app.name());
    }
}
