//! Profiling harness: run a kernel under IPM and collect its profiles.

use std::sync::Arc;
use std::time::Duration;

use hfast_ipm::{CommProfile, IpmProfiler};
use hfast_mpi::{Comm, CommHook, MpiError, World, WorldConfig};

use crate::CommKernel;

/// Result of a profiled application run.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Application name.
    pub name: &'static str,
    /// Processor count.
    pub procs: usize,
    /// Profile over the whole run (initialization included).
    pub merged: CommProfile,
    /// Profile of the `"steady"` region only — the paper's analysis input.
    pub steady: CommProfile,
}

/// Runs `app` at `procs` ranks under the IPM profiler and returns both the
/// merged and the steady-state profiles (paper §3.2: "we use IPM's
/// regioning feature … to examine only the profiling data from one section
/// of the code").
pub fn profile_app(app: &dyn CommKernel, procs: usize) -> Result<AppOutcome, MpiError> {
    profile_app_with(
        app,
        procs,
        WorldConfig::new(procs).timeout(Duration::from_secs(60)),
    )
}

/// Like [`profile_app`], but composes the profiler into a caller-supplied
/// [`WorldConfig`] — e.g. one carrying a trace recorder, an extra hook, or
/// a different timeout. The config's `size` is overridden to `procs` and
/// the IPM profiler is chained after any hook already installed.
///
/// A config with a trace recorder runs on rank threads
/// ([`World::run_with`]), since a trace is a wall-clock record; any other
/// runs on [`World::replay`], whose calls take no time (so the profile's
/// `*_ns` statistics are 0) and which needs no thread per rank. The
/// kernels' sends depend on neither received bytes nor timing, which is
/// what the replay requires; it refuses a kernel that breaks this with a
/// typed error naming the rank.
pub fn profile_app_with(
    app: &dyn CommKernel,
    procs: usize,
    config: WorldConfig,
) -> Result<AppOutcome, MpiError> {
    let profiler = Arc::new(IpmProfiler::new(procs));
    let base_hook = config.hook.clone();
    let mut config = config.hook(Arc::new(hfast_mpi::MultiHook::new(vec![
        base_hook,
        Arc::clone(&profiler) as Arc<dyn CommHook>,
    ])));
    config.size = procs;
    let rank = |comm: &mut Comm| app.run(comm, &profiler);
    let ranks = if config.trace.is_some() {
        World::run_with(config, rank)?
    } else {
        World::replay(config, rank)?
    };
    ranks.into_iter().collect::<Result<Vec<()>, MpiError>>()?;
    Ok(AppOutcome {
        name: app.name(),
        procs,
        merged: profiler.profile(),
        steady: profiler.region_profile("steady"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cactus;

    #[test]
    fn outcome_distinguishes_regions() {
        let out = profile_app(&Cactus::new(4), 8).unwrap();
        assert_eq!(out.name, "Cactus");
        assert_eq!(out.procs, 8);
        assert!(out.steady.total_calls() > 0);
        assert!(out.merged.total_calls() >= out.steady.total_calls());
    }

    #[test]
    fn custom_config_composes_trace_and_profiler() {
        let rec = Arc::new(hfast_trace::TraceRecorder::new());
        let cfg = WorldConfig::new(1).trace(Arc::clone(&rec));
        let out = profile_app_with(&Cactus::new(4), 8, cfg).unwrap();
        assert_eq!(out.procs, 8, "config size overridden to procs");
        assert!(out.steady.total_calls() > 0, "profiler still attached");
        assert!(!rec.is_empty(), "ranks recorded spans into the recorder");
        let doc = hfast_trace::export(&rec.snapshot());
        let stats = hfast_trace::validate(&doc).expect("valid trace JSON");
        assert_eq!(stats.rank_tracks, 8, "one track per rank");
        assert!(stats.linked_recvs > 0);
        assert_eq!(stats.orphan_recvs, 0, "every recv has its send parent");
    }
}
