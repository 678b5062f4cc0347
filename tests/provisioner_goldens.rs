//! PR-7 regression pins: `PaperLinear` behind the `Provisioner` trait must
//! match, on every study application's steady-state graph, the PR-6
//! digests recorded from the pre-trait entry point when the trait was
//! introduced (the `paper_linear` digests `paper provision_bakeoff` prints per app).

use hfast::apps::{all_apps, profile_app};
use hfast::core::{PaperLinear, ProvisionConfig, Provisioner};

/// `Provisioning::digest()` of the paper heuristic on each app at P = 64,
/// default config, recorded at the PR-6/PR-7 boundary.
const GOLDENS: &[(&str, u64)] = &[
    ("Cactus", 0x7c73906c2ec77bdd),
    ("LBMHD", 0x2278b65cc94b773d),
    ("GTC", 0xdaf434118fd5579d),
    ("SuperLU", 0x732ece61ea5fef5d),
    ("PMEMD", 0x70d56ff85bbe06f6),
    ("PARATEC", 0x70d56ff85bbe06f6),
];

#[test]
fn paper_linear_is_bit_identical_on_all_six_apps() {
    for app in &all_apps() {
        let outcome = profile_app(app.as_ref(), 64).expect("profiles at 64 ranks");
        let graph = outcome.steady.comm_graph();
        let via_trait = PaperLinear.provision(&graph, ProvisionConfig::default());
        let golden = GOLDENS
            .iter()
            .find(|(n, _)| *n == app.name())
            .unwrap_or_else(|| panic!("{} missing from golden table", app.name()))
            .1;
        assert_eq!(via_trait.digest(), golden, "{}: PR-6 golden", app.name());
    }
}
