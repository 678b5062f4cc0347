//! The eight workloads and what they share: the seeded generator, the
//! per-pass recorder, and the trait the runner drives.

pub mod grid;
pub mod replay;
pub mod scale;
pub mod serve;

use std::collections::BTreeMap;

use crate::spans::Spans;

/// SplitMix64. The benchmark owns its generator so that op lists depend on
/// `--seed` alone, never on an RNG inside a crate under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What one pass over the op list produced, apart from timings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutput {
    /// Ops attempted (cells, pipelines, flows, requests).
    pub ops: u64,
    /// Ops that failed: Busy, Error, transport drop, an undelivered flow in
    /// a fault-free run, an invalid provisioning, a wrong digest.
    pub failed: u64,
    /// FNV over every model output of the pass (sim stats, provisioning
    /// digests, response bytes). Must repeat pass to pass.
    pub digest: u64,
    /// Exact counts by per-layer metric name. Must repeat pass to pass.
    pub counts: BTreeMap<&'static str, u64>,
}

impl PassOutput {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }
}

/// Collects one pass's call latencies and, on traced passes, its spans.
#[derive(Debug)]
pub struct Recorder {
    pub lat_ns: Vec<u64>,
    pub spans: Spans,
}

impl Recorder {
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            lat_ns: Vec::new(),
            spans: Spans::new(tracing),
        }
    }

    /// Times one call: its host latency is one `op_p50_us`/`op_tail_us`
    /// sample, and on traced passes it is the root span of one op.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.spans.next_op();
        let start = self.spans.now_ns();
        let root = self.spans.enter_at("op", start);
        let out = f(&mut self.spans);
        let end = self.spans.now_ns();
        self.spans.exit_at(root, end);
        self.lat_ns.push(end - start);
        out
    }
}

/// Wall time of `f` in ms, for the probes.
pub fn wall_ms(f: impl FnOnce()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Values a workload measures itself on a traced run, by per-layer name.
pub type Probes = BTreeMap<&'static str, f64>;

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Canonical bytes of the generated op list: same seed, same bytes.
    fn op_list_bytes(&self) -> Vec<u8>;

    /// One timed pass over the whole op list, as a user drives the system.
    fn pass(&mut self, rec: &mut Recorder) -> PassOutput;

    /// Untimed preparation for [`layer_pass`](Workload::layer_pass), run
    /// once before a traced run's passes (`serve_*` build their replica).
    fn prepare_layers(&mut self) {}

    /// The pass a traced run decomposes into layer spans. The batch
    /// workloads trace the very pass they time; `serve_*` trace an
    /// in-process replica of the request path, because the real one runs
    /// on the daemon's threads where this recorder cannot reach.
    fn layer_pass(&mut self, rec: &mut Recorder) -> PassOutput {
        self.pass(rec)
    }

    /// Extra layer measurements taken once on a traced run, after the
    /// passes: ablations, ratios, and values the program reports. `spans`
    /// holds the span-derived metrics of the traced passes, for probes
    /// that are a difference against one of them.
    fn probes(&mut self, _spans: &Probes, _out: &mut Probes) {}

    /// An output check beyond "every pass repeats pass 1", run once after
    /// the passes (`serve_*`: socket bytes versus in-process `execute` +
    /// `encode_response`).
    fn cross_check(&self) -> Result<(), String> {
        Ok(())
    }

    /// False where the op list moves on every pass (`serve_compute`'s ids
    /// continue so nothing is ever a cache hit), so pass digests differ by
    /// design and `cross_check` carries the output check instead.
    fn digest_repeats(&self) -> bool {
        true
    }
}

/// Builds workload `name` from `seed`; this is the untimed phase that
/// `setup_s` measures. `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_grid" => Box::new(grid::PaperGrid::setup(seed)),
        "scale_projection" => Box::new(scale::ScaleProjection::setup(seed)),
        "replay_static" => Box::new(replay::Replay::setup(replay::Variant::Static, seed)),
        "replay_faulted" => Box::new(replay::Replay::setup(replay::Variant::Faulted, seed)),
        "replay_credit" => Box::new(replay::Replay::setup(replay::Variant::Credit, seed)),
        "replay_observed" => Box::new(replay::Replay::setup(replay::Variant::Observed, seed)),
        "serve_hot" => Box::new(serve::Serve::setup(serve::Variant::Hot, seed)),
        "serve_compute" => Box::new(serve::Serve::setup(serve::Variant::Compute, seed)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WORKLOADS;

    #[test]
    fn rng_is_seed_determined() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(items, sorted);
    }

    /// Same seed, identical op-list bytes; another seed, other bytes. Uses
    /// each workload's pure plan, so no daemon or profiling run is needed.
    #[test]
    fn op_lists_depend_on_the_seed_alone() {
        type PlanBytes = fn(u64) -> Vec<u8>;
        let plans: [(&str, PlanBytes); 8] = [
            ("paper_grid", |s| grid::Plan::new(s).bytes()),
            ("scale_projection", |s| scale::Plan::new(s).bytes()),
            ("replay_static", |s| {
                replay::Plan::new(replay::Variant::Static, s).bytes()
            }),
            ("replay_faulted", |s| {
                replay::Plan::new(replay::Variant::Faulted, s).bytes()
            }),
            ("replay_credit", |s| {
                replay::Plan::new(replay::Variant::Credit, s).bytes()
            }),
            ("replay_observed", |s| {
                replay::Plan::new(replay::Variant::Observed, s).bytes()
            }),
            ("serve_hot", |s| {
                serve::Plan::new(serve::Variant::Hot, s).bytes(2)
            }),
            ("serve_compute", |s| {
                serve::Plan::new(serve::Variant::Compute, s).bytes(2)
            }),
        ];
        for ((name, plan), info) in plans.iter().zip(&WORKLOADS) {
            assert_eq!(*name, info.name, "table order");
            assert_eq!(plan(11), plan(11), "{name}: same seed, same bytes");
            assert_ne!(plan(11), plan(12), "{name}: seeds must differ");
        }
    }
}
