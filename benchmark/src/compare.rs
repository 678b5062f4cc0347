//! `compare A.json B.json`: applies the bounds to two result files.
//!
//! A is the base (the parent commit), B the change. Per workload and
//! end-to-end metric it prints both medians with quartiles, the ratio B ÷ A
//! and a verdict; exact counts that differ are listed apart, because a
//! changed model output is news but not a slowdown.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The passes spread wider than the bound and the two sides overlap:
    /// the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median, in the
/// metric's own direction (negative = better).
pub fn worsening(metric: &EndToEnd, a: &Summary, b: &Summary) -> f64 {
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    if metric.better == "lower" {
        change
    } else {
        -change
    }
}

pub fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse = worsening(metric, a, b);
    if (b.median - a.median).abs() <= metric.floor {
        return Verdict::Ok;
    }
    let lower = metric.better == "lower";
    let (all_better, all_worse) = if lower {
        (b.max < a.min, b.min > a.max)
    } else {
        (b.min > a.max, b.max < a.min)
    };
    if a.spread().max(b.spread()) > metric.bound && !all_better && !all_worse {
        return if worse.abs() > metric.bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        };
    }
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn summary_of(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k)?.as_f64();
    Some(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        min: f("min")?,
        max: f("max")?,
        n: f("n")? as usize,
    })
}

pub struct Comparison {
    pub report: String,
    /// True when any row regressed or B failed a larger share of its ops.
    pub failed: bool,
}

/// Compares two parsed result files.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let workloads = |v: &'_ Value| -> Result<Vec<Value>, String> {
        match v.get("workloads") {
            Some(Value::Arr(w)) => Ok(w.clone()),
            _ => Err("result file has no \"workloads\" array".to_string()),
        }
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut report = String::new();
    let mut changed_outputs = String::new();
    let mut failed = false;
    let _ = writeln!(
        report,
        "{:<17} {:<12} {:>14} {:>21} {:>14} {:>21} {:>9}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    for ra in &wa {
        let name = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = wb
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(report, "{name:<17} missing from B");
            failed = true;
            continue;
        };
        for metric in &END_TO_END {
            let pick = |r: &Value| r.get("metrics")?.get(metric.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (pick(ra), pick(rb)) else {
                continue;
            };
            let v = verdict(metric, &sa, &sb);
            failed |= v == Verdict::Regressed;
            let _ = writeln!(
                report,
                "{name:<17} {:<12} {:>14.4} {:>10.4}..{:<10.4} {:>14.4} {:>10.4}..{:<10.4} {:>8.4}x  {}",
                metric.name,
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                sb.median / sa.median,
                v.as_str()
            );
        }
        let share = |r: &Value| r.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (fa, fb) = (share(ra), share(rb));
        let worse = fb > fa;
        failed |= worse;
        let _ = writeln!(
            report,
            "{name:<17} {:<12} {fa:>14.6} {:>21} {fb:>14.6} {:>21} {:>9}  {}",
            "failed_share",
            "",
            "",
            "",
            if worse { "regressed" } else { "ok" }
        );
        let counts = |r: &'_ Value| {
            r.get("counts")
                .and_then(Value::as_obj)
                .cloned()
                .unwrap_or_default()
        };
        let (ca, cb) = (counts(ra), counts(rb));
        for (k, va) in &ca {
            let vb = cb.get(k);
            if vb != Some(va) {
                let _ = writeln!(
                    changed_outputs,
                    "{name:<17} {k:<24} A {} B {}",
                    va.encode(),
                    vb.map_or("absent".to_string(), Value::encode)
                );
            }
        }
        let digest = |r: &'_ Value| {
            r.get("digest")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        if digest(ra) != digest(rb) {
            let _ = writeln!(
                changed_outputs,
                "{name:<17} {:<24} A {} B {}",
                "digest",
                digest(ra),
                digest(rb)
            );
        }
    }
    report.push_str("\nratios are B / A: A is the base\n");
    if !changed_outputs.is_empty() {
        report.push_str("\nmodel outputs changed (not a failure):\n");
        report.push_str(&changed_outputs);
    }
    Ok(Comparison { report, failed })
}

/// Reads, compares, prints; the process exit code.
pub fn main(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(path_a).and_then(|a| compare(&a, &load(path_b)?)) {
        Ok(c) => {
            print!("{}", c.report);
            i32::from(c.failed)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::end_to_end;

    fn tight(center: f64) -> Summary {
        Summary::of(&[0.99 * center, center, 1.01 * center])
    }

    /// A metric with the issue's 0.10 bound, whatever the table says today.
    fn ten_percent(name: &'static str, better: &'static str) -> EndToEnd {
        EndToEnd {
            name,
            unit: "",
            better,
            bound: 0.10,
            floor: 0.0,
        }
    }

    #[test]
    fn flags_minus_fifteen_percent_and_passes_minus_three() {
        let rate = ten_percent("ops_per_s", "higher");
        let base = tight(1000.0);
        assert_eq!(verdict(&rate, &base, &tight(850.0)), Verdict::Regressed);
        assert_eq!(verdict(&rate, &base, &tight(970.0)), Verdict::Ok);
        assert_eq!(verdict(&rate, &base, &tight(1150.0)), Verdict::Improved);
        let p50 = ten_percent("op_p50_us", "lower");
        let base = tight(100.0);
        assert_eq!(verdict(&p50, &base, &tight(115.0)), Verdict::Regressed);
        assert_eq!(verdict(&p50, &base, &tight(103.0)), Verdict::Ok);
        assert_eq!(verdict(&p50, &base, &tight(85.0)), Verdict::Improved);
    }

    #[test]
    fn the_table_bounds_are_the_ones_applied() {
        let rate = end_to_end("ops_per_s").unwrap();
        let just_inside = 1000.0 * (1.0 - rate.bound + 0.02);
        let just_outside = 1000.0 * (1.0 - rate.bound - 0.02);
        assert_eq!(
            verdict(rate, &tight(1000.0), &tight(just_inside)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(rate, &tight(1000.0), &tight(just_outside)),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_regressed() {
        let rate = ten_percent("ops_per_s", "higher");
        let a = Summary::of(&[700.0, 1000.0, 1300.0]);
        let b = Summary::of(&[600.0, 850.0, 1100.0]);
        assert_eq!(verdict(&rate, &a, &b), Verdict::Unresolved);
        // Wide, but every run of B below every run of A: resolved.
        let b = Summary::of(&[300.0, 400.0, 500.0]);
        assert_eq!(verdict(&rate, &a, &b), Verdict::Regressed);
    }

    #[test]
    fn setup_needs_fifty_milliseconds_to_count() {
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(verdict(setup, &tight(0.010), &tight(0.020)), Verdict::Ok);
        assert_eq!(verdict(setup, &tight(1.0), &tight(1.5)), Verdict::Regressed);
    }

    fn file(rate: f64, failed_share: f64, events: f64) -> Value {
        let s = tight(rate);
        let summary = Value::obj([
            ("median", Value::Num(s.median)),
            ("q1", Value::Num(s.q1)),
            ("q3", Value::Num(s.q3)),
            ("min", Value::Num(s.min)),
            ("max", Value::Num(s.max)),
            ("n", Value::Num(3.0)),
        ]);
        let run = Value::obj([
            ("workload", Value::Str("replay_static".into())),
            ("failed_share", Value::Num(failed_share)),
            ("metrics", Value::obj([("ops_per_s", summary)])),
            (
                "counts",
                Value::obj([("netsim.events", Value::Num(events))]),
            ),
            ("digest", Value::Str("00".into())),
        ]);
        Value::obj([("workloads", Value::Arr(vec![run]))])
    }

    #[test]
    fn files_compare_end_to_end() {
        let same = compare(&file(1000.0, 0.0, 5.0), &file(990.0, 0.0, 5.0)).unwrap();
        assert!(!same.failed, "{}", same.report);
        assert!(!same.report.contains("model outputs changed"));

        let slow = compare(&file(1000.0, 0.0, 5.0), &file(600.0, 0.0, 5.0)).unwrap();
        assert!(slow.failed && slow.report.contains("regressed"));

        let lossy = compare(&file(1000.0, 0.0, 5.0), &file(1000.0, 0.01, 5.0)).unwrap();
        assert!(lossy.failed, "a higher failed share fails the compare");

        let moved = compare(&file(1000.0, 0.0, 5.0), &file(1000.0, 0.0, 6.0)).unwrap();
        assert!(!moved.failed, "changed counts are reported, not failed");
        assert!(moved.report.contains("model outputs changed"));
        assert!(moved.report.contains("netsim.events"));
    }
}
