//! The measurement protocol, one workload at a time.
//!
//! Untraced: set up, run timed passes of the workload's fixed op list until
//! `--seconds` of pass time have gone by, then set up twice more (→
//! `setup_s`, median of three). Every other end-to-end value is the median
//! over passes.
//!
//! Traced: alternate the same pass with the span recorder off and on; the
//! on-passes give the per-layer numbers, on ÷ off is the tracing overhead,
//! and the workload's probes add what spans cannot see.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;
use crate::schema::{self, Kind};
use crate::spans::{self, Span};
use crate::stats::{median, percentile, sorted_us, tail_percentile, Fnv, Summary};
use crate::workloads::{self, PassOutput, Probes, Recorder, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Spans written to `out/` per traced run.
const SPAN_FILE_CAP: usize = 200_000;

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub correct: bool,
    /// Why `correct` is false, one line per failed check.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// Metric name → per-pass summary, in table order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Exact counts of one pass (they repeat).
    pub counts: BTreeMap<&'static str, u64>,
    pub digest: u64,
    pub op_list_digest: u64,
    /// Percentile `bench.op_tail_us` used (traced runs; 0 otherwise).
    pub tail_percentile: u32,
}

impl RunResult {
    /// The contract's last stdout line.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let v = Value::obj([
                    ("value", Value::Num(s.median)),
                    ("unit", Value::Str((*unit).into())),
                ]);
                (name.to_string(), v)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .encode()
    }

    /// Everything, for result files and `compare`.
    pub fn detail(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let v = Value::obj([
                    ("unit", Value::Str((*unit).into())),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    ("min", Value::Num(s.min)),
                    ("max", Value::Num(s.max)),
                    ("n", Value::Num(s.n as f64)),
                ]);
                (name.to_string(), v)
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect();
        Value::obj([
            ("workload", Value::Str(self.workload.clone())),
            ("correct", Value::Bool(self.correct)),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            (
                "failed_share",
                Value::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("passes", Value::Num(self.passes as f64)),
            ("metrics", Value::Obj(metrics)),
            ("counts", Value::Obj(counts)),
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            (
                "op_list_digest",
                Value::Str(format!("{:016x}", self.op_list_digest)),
            ),
            (
                "tail_percentile",
                Value::Num(f64::from(self.tail_percentile)),
            ),
        ])
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Calls a pass needs before its own percentiles are trusted; below this
/// the passes are lined up op by op instead.
const CALLS_FOR_PERCENTILES: usize = 50;

/// Call latencies of a run, reduced pass by pass.
///
/// A pass with many calls gives its own p50 and tail percentile, and the
/// run reports their medians over passes. `paper_grid` and
/// `scale_projection` make 12 calls a pass — too few, and a percentile
/// would be one noisy call — so their passes are kept whole: each op's
/// typical latency is its median over the passes, and p50 / p80 are taken
/// over those twelve.
#[derive(Default)]
struct Latencies {
    p50: Vec<f64>,
    tail: Vec<f64>,
    tail_q: u32,
    /// Passes too short for percentiles, in µs, in op order.
    whole: Vec<Vec<f64>>,
}

impl Latencies {
    fn add(&mut self, lat_ns: &[u64]) {
        if lat_ns.len() < CALLS_FOR_PERCENTILES {
            self.whole
                .push(lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
            return;
        }
        let us = sorted_us(lat_ns);
        self.p50.push(percentile(&us, 50));
        self.tail_q = tail_percentile(us.len()).expect("CALLS_FOR_PERCENTILES calls support p80");
        self.tail.push(percentile(&us, self.tail_q));
    }

    /// Each op's median latency over the short passes, ascending.
    fn typical(&self) -> Vec<f64> {
        let ops = self.whole.iter().map(Vec::len).min().unwrap_or(0);
        let mut typical: Vec<f64> = (0..ops)
            .map(|op| median(&self.whole.iter().map(|pass| pass[op]).collect::<Vec<_>>()))
            .collect();
        typical.sort_by(f64::total_cmp);
        typical
    }

    /// Samples of `op_p50_us`.
    fn p50(&self) -> Vec<f64> {
        if self.whole.is_empty() {
            self.p50.clone()
        } else {
            vec![median(&self.typical())]
        }
    }

    /// The tail percentile used and its samples.
    fn tail(&self) -> (u32, Vec<f64>) {
        if self.whole.is_empty() {
            (self.tail_q, self.tail.clone())
        } else {
            (80, vec![percentile(&self.typical(), 80)])
        }
    }
}

/// Compares a pass with the first one; what differs goes into `notes`.
fn check_repeat(
    first: &PassOutput,
    now: &PassOutput,
    pass: usize,
    repeats: bool,
    notes: &mut Vec<String>,
) {
    if now.ops != first.ops {
        notes.push(format!(
            "pass {pass}: {} ops, pass 1 ran {}",
            now.ops, first.ops
        ));
    }
    if !repeats {
        return;
    }
    if now.digest != first.digest {
        notes.push(format!(
            "pass {pass}: digest {:016x}, pass 1 gave {:016x}",
            now.digest, first.digest
        ));
    }
    if now.counts != first.counts {
        notes.push(format!("pass {pass}: exact counts differ from pass 1"));
    }
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    workloads::setup(name, seed).ok_or_else(|| {
        let known: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// One untraced run: the end-to-end metrics.
pub fn run_untraced(
    name: &str,
    seed: u64,
    seconds: f64,
    max_passes: usize,
) -> Result<RunResult, String> {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut op_list_digest = None;
    // One timed set-up; `SETUP_REPS - 1` more follow the passes, so that
    // `peak_rss_mb` sees one set-up and not whatever three leave behind.
    let mut timed_setup = |notes: &mut Vec<String>| -> Result<Box<dyn Workload>, String> {
        let t = Instant::now();
        let built = build(name, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let digest = Fnv::of(&built.op_list_bytes());
        if *op_list_digest.get_or_insert(digest) != digest {
            notes.push("the same seed generated two different op lists".to_string());
        }
        Ok(built)
    };
    let mut w = timed_setup(&mut notes)?;

    let mut rec = Recorder::new(false);
    let mut rate = Vec::new();
    let mut latencies = Latencies::default();
    let mut first: Option<PassOutput> = None;
    let (mut attempted, mut failed, mut elapsed) = (0, 0, 0.0);
    let mut rss = 0.0;
    loop {
        rec.lat_ns.clear();
        let t = Instant::now();
        let out = w.pass(&mut rec);
        let secs = t.elapsed().as_secs_f64();
        elapsed += secs;
        attempted += out.ops;
        failed += out.failed;
        rate.push(out.ops as f64 / secs);
        latencies.add(&rec.lat_ns);
        match &first {
            None => {
                first = Some(out);
                // `peak_rss_mb` is memory to set up and run the op list
                // once. Read at the end of the run it charged a faster
                // program for the extra passes it fitted in, and it jumped
                // by an allocator quantum (~12 MB on `replay_observed`) at
                // a pass that differed from run to run.
                rss = peak_rss_mb();
            }
            Some(f) => check_repeat(f, &out, rate.len(), w.digest_repeats(), &mut notes),
        }
        // Start another pass only if at least half of it fits.
        if rate.len() >= max_passes || elapsed + 0.5 * secs >= seconds {
            break;
        }
    }
    if let Err(why) = w.cross_check() {
        notes.push(why);
    }
    let first = first.expect("at least one pass");
    if failed > 0 {
        notes.push(format!("{failed} of {attempted} ops failed"));
    }
    drop(w); // torn down outside any timing
    for _ in 1..SETUP_REPS {
        drop(timed_setup(&mut notes)?);
    }
    let passes = rate.len();
    let samples: [(&str, Vec<f64>); 4] = [
        ("setup_s", setup_s),
        ("ops_per_s", rate),
        ("op_p50_us", latencies.p50()),
        ("peak_rss_mb", vec![rss]),
    ];
    let metrics = schema::END_TO_END
        .iter()
        .zip(&samples)
        .map(|(m, (name, values))| {
            assert_eq!(m.name, *name, "table order");
            (m.name, m.unit, Summary::of(values))
        })
        .collect();
    Ok(RunResult {
        workload: name.to_string(),
        correct: notes.is_empty(),
        notes,
        attempted,
        failed,
        passes,
        metrics,
        counts: first.counts,
        digest: first.digest,
        op_list_digest: op_list_digest.expect("one set-up ran"),
        tail_percentile: 0,
    })
}

/// Per-layer values of one traced pass, by metric name.
fn span_metrics(spans: &[Span]) -> (Probes, f64) {
    let by_name = spans::self_times(spans);
    let root = spans::root_ns(spans).max(1) as f64;
    let mut staged = 0;
    let mut out = Probes::new();
    for (name, t) in &by_name {
        if *name != "op" {
            staged += t.self_ns;
        }
        match schema::PER_LAYER
            .iter()
            .find(|l| l.name == *name)
            .map(|l| l.kind)
        {
            Some(Kind::TotalMs) => out.insert(name, t.self_ns as f64 / 1e6),
            Some(Kind::MeanUs) => out.insert(name, t.self_ns as f64 / t.count.max(1) as f64 / 1e3),
            _ => None,
        };
    }
    (out, staged as f64 / root)
}

/// One traced run: the per-layer metrics.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    max_pairs: usize,
) -> Result<RunResult, String> {
    let mut notes = Vec::new();
    let mut w = build(name, seed)?;
    w.prepare_layers();
    let op_list_digest = Fnv::of(&w.op_list_bytes());
    let (mut off, mut on) = (Recorder::new(false), Recorder::new(true));
    let (mut off_s, mut on_s, mut shares) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<PassOutput> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut latencies = Latencies::default();
    let start = Instant::now();
    loop {
        for traced in [false, true] {
            let rec = if traced { &mut on } else { &mut off };
            rec.lat_ns.clear();
            rec.spans.clear();
            let t = Instant::now();
            let out = w.layer_pass(rec);
            let secs = t.elapsed().as_secs_f64();
            if traced {
                on_s.push(secs);
            } else {
                off_s.push(secs);
                latencies.add(&rec.lat_ns);
            }
            attempted += out.ops;
            failed += out.failed;
            match &first {
                None => first = Some(out),
                Some(f) => check_repeat(f, &out, off_s.len(), w.digest_repeats(), &mut notes),
            }
        }
        let (values, share) = span_metrics(on.spans.spans());
        shares.push(share);
        for (k, v) in values {
            per_pass.entry(k).or_default().push(v);
        }
        // Probes still have to fit in the run.
        if on_s.len() >= max_pairs || start.elapsed().as_secs_f64() >= 0.6 * seconds {
            break;
        }
    }
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("spans-{name}-{seed}.jsonl"));
    if let Err(e) = spans::write_jsonl(&path, on.spans.spans(), SPAN_FILE_CAP) {
        notes.push(format!("cannot write {}: {e}", path.display()));
    }

    let span_medians: Probes = per_pass.iter().map(|(k, v)| (*k, median(v))).collect();
    let mut probes = Probes::new();
    w.probes(&span_medians, &mut probes);
    probes.insert("bench.trace_overhead", median(&on_s) / median(&off_s));
    // `serve_*` report the tail of their socket pass; the others the tail
    // of the recorder-off passes just run.
    let (tail_percentile, tail) = latencies.tail();
    if !probes.contains_key("bench.op_tail_us") {
        per_pass.insert("bench.op_tail_us", tail);
    }
    per_pass.insert("bench.stage_sum_share", shares);
    if let Err(why) = w.cross_check() {
        notes.push(why);
    }
    let first = first.expect("at least one pass");
    if failed > 0 {
        notes.push(format!("{failed} of {attempted} ops failed"));
    }
    let metrics = schema::PER_LAYER
        .iter()
        .map(|l| {
            let samples = match l.kind {
                Kind::Count => vec![first.counts.get(l.name).copied().unwrap_or(0) as f64],
                _ => per_pass
                    .get(l.name)
                    .cloned()
                    .or_else(|| probes.get(l.name).map(|v| vec![*v]))
                    .unwrap_or_else(|| vec![0.0]), // not on this workload's path
            };
            (l.name, l.unit, Summary::of(&samples))
        })
        .collect();
    Ok(RunResult {
        workload: name.to_string(),
        correct: notes.is_empty(),
        notes,
        attempted,
        failed,
        passes: on_s.len(),
        metrics,
        counts: first.counts,
        digest: first.digest,
        op_list_digest,
        tail_percentile,
    })
}
