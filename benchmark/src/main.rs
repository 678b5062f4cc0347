//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hfast-benchmark --workload W --seed N --seconds S --trace 0|1   one contract run
//! hfast-benchmark run [--seed N] [--seconds S] [--traced] [--quick] [--out FILE]
//! hfast-benchmark compare A.json B.json
//! hfast-benchmark manifest                                        prints BENCHMARK.json
//! ```

mod compare;
mod json;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Value;

const USAGE: &str = "usage:
  hfast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  hfast-benchmark run [--seed <n>] [--seconds <s>] [--traced] [--quick] [--out <file>]
  hfast-benchmark compare <A.json> <B.json>
  hfast-benchmark manifest";

/// The switches the crates read from the environment (`HFAST_OBS`,
/// `HFAST_TRACE`, `HFAST_THREADS`, `HFAST_SERVE_*`, …) would change what
/// is measured, so every `HFAST_*` variable is removed before anything
/// runs. Returns the names removed.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HFAST_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Removes `--name value` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        self.args.remove(i);
        Ok(Some(self.args.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    /// Removes `--name` and says whether it was there.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.args.len();
        self.args.retain(|a| a != name);
        self.args.len() != before
    }

    fn done(&self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// One contract run in this process. Prints a `detail` line for `run` to
/// pick up, then the contract's JSON object as the last line.
fn single(mut flags: Flags) -> Result<ExitCode, String> {
    let workload = flags.value("--workload")?.ok_or("--workload is required")?;
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(schema::DEFAULT_SEED);
    let seconds: f64 = flags
        .parsed("--seconds")?
        .unwrap_or(f64::from(schema::RUN_SECONDS));
    let trace: u8 = flags.parsed("--trace")?.unwrap_or(0);
    let max_passes: usize = flags.parsed("--max-passes")?.unwrap_or(usize::MAX);
    flags.done()?;
    if !(0.0..=600.0).contains(&seconds) || trace > 1 {
        return Err("--seconds must be 0..=600 and --trace 0 or 1".to_string());
    }
    let result = if trace == 1 {
        runner::run_traced(&workload, seed, seconds, max_passes)?
    } else {
        runner::run_untraced(&workload, seed, seconds, max_passes)?
    };
    for note in &result.notes {
        eprintln!("{workload}: {note}");
    }
    println!("detail {}", result.detail().encode());
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_result(detail: &Value) {
    let text = |k: &str| {
        detail
            .get(k)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let num = |k: &str| detail.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "\n{}  correct={} passes={} ops_attempted={} ops_failed={} failed_share={} digest={}",
        text("workload"),
        detail.get("correct") == Some(&Value::Bool(true)),
        num("passes"),
        num("ops_attempted"),
        num("ops_failed"),
        num("failed_share"),
        text("digest"),
    );
    if num("tail_percentile") > 0.0 {
        println!("  bench.op_tail_us is p{}", num("tail_percentile"));
    }
    let Some(metrics) = detail.get("metrics").and_then(Value::as_obj) else {
        return;
    };
    // Table order, not the file's alphabetical order.
    let order = schema::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(schema::PER_LAYER.iter().map(|l| l.name));
    for name in order {
        let Some(m) = metrics.get(name) else { continue };
        let f = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        if f("median") == 0.0 && f("max") == 0.0 {
            continue; // a layer this workload never enters
        }
        println!(
            "  {name:<32} {:>16.4} {:<6} q1 {:<14.4} q3 {:<14.4} n {}",
            f("median"),
            m.get("unit").and_then(Value::as_str).unwrap_or(""),
            f("q1"),
            f("q3"),
            f("n")
        );
    }
    if let Some(counts) = detail.get("counts").and_then(Value::as_obj) {
        for (k, v) in counts {
            println!("  {k:<32} {:>16} exact", v.encode());
        }
    }
}

/// Every workload, one child process each, one after the other.
fn run_all(mut flags: Flags, scrubbed: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(schema::DEFAULT_SEED);
    let traced = flags.switch("--traced");
    let quick = flags.switch("--quick");
    let seconds: f64 = flags
        .parsed("--seconds")?
        .unwrap_or(f64::from(schema::RUN_SECONDS));
    let out = flags.value("--out")?.map(PathBuf::from).unwrap_or_else(|| {
        let kind = if traced { "traced" } else { "untraced" };
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("run-{seed}-{kind}.json"))
    });
    flags.done()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &schema::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--seconds", &seconds.to_string()]);
        if quick {
            cmd.args(["--max-passes", "1"]);
        }
        let output = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail "))
            .ok_or_else(|| {
                format!(
                    "{}: no result ({}): {}",
                    w.name,
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                )
            })
            .and_then(|d| json::parse(d).map_err(|e| format!("{}: {e}", w.name)))?;
        all_correct &= detail.get("correct") == Some(&Value::Bool(true));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        print_result(&detail);
        runs.push(detail);
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let file = Value::obj([
        (
            "schema_version",
            Value::Num(f64::from(schema::SCHEMA_VERSION)),
        ),
        (
            "git_rev",
            Value::Str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", Value::Str(tool_version("rustc", &["--version"]))),
        ("seed", Value::Num(seed as f64)),
        ("traced", Value::Bool(traced)),
        ("seconds", Value::Num(seconds)),
        ("quick", Value::Bool(quick)),
        (
            "scrubbed_env",
            Value::Arr(scrubbed.iter().cloned().map(Value::Str).collect()),
        ),
        ("workloads", Value::Arr(runs)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, file.encode_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let scrubbed = scrub_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("run" | "compare" | "manifest") => args.remove(0),
        _ => String::new(),
    };
    let flags = Flags { args };
    let outcome = match command.as_str() {
        "run" => run_all(flags, &scrubbed),
        "compare" => match flags.args.as_slice() {
            [a, b] => Ok(ExitCode::from(compare::main(a, b) as u8)),
            _ => Err("compare takes two result files".to_string()),
        },
        "manifest" => {
            print!("{}", schema::manifest().encode_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => single(flags),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("hfast-benchmark: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
