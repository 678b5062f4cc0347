//! Provisioning observability.
//!
//! [`ProvisionObs`] counts provisioning builds process-wide when `HFAST_OBS`
//! is on.

use hfast_obs::{Counter, Histogram, JsonObj, ToJsonl};

/// Process-wide provisioning counters (active when `HFAST_OBS` is on).
#[derive(Debug, Default)]
pub struct ProvisionObs {
    /// Provisionings built.
    pub builds: Counter,
    /// Switch blocks allocated per build.
    pub blocks: Histogram,
    /// Dedicated circuits patched per build.
    pub circuits: Histogram,
}

impl ProvisionObs {
    /// One-line JSON summary.
    pub fn summary_jsonl(&self) -> String {
        JsonObj::new()
            .str("event", "provision_summary")
            .u64("builds", self.builds.get())
            .u64("blocks_p50", self.blocks.quantile_bound(0.5))
            .u64("blocks_max", self.blocks.quantile_bound(1.0))
            .u64("circuits_p50", self.circuits.quantile_bound(0.5))
            .finish()
    }
}

impl ToJsonl for ProvisionObs {
    fn to_jsonl(&self) -> String {
        self.summary_jsonl()
    }
}

/// The process-wide [`ProvisionObs`] instance.
pub fn provision_obs() -> &'static ProvisionObs {
    static GLOBAL: std::sync::OnceLock<ProvisionObs> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(ProvisionObs::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_wellformed() {
        let p = ProvisionObs::default();
        p.builds.inc();
        p.blocks.record(64);
        assert!(p.to_jsonl().contains(r#""builds":1"#));
    }
}
