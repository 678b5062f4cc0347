//! Closed-loop load generator against an `hfast-serve` daemon.
//!
//! ```text
//! loadgen [--addr HOST:PORT | --fleet A,B,C] [--connections N] [--requests N] [--seed S]
//! loadgen --soak SECS [--addr HOST:PORT] [--timeline PATH] [--p99-ms MS] [--connections N]
//! ```
//!
//! Without `--addr` or `--fleet`, a daemon is started in-process on an
//! ephemeral port (config from the `HFAST_SERVE_*` environment), loaded,
//! drained, and joined — the one-command version of the serving
//! experiment. With `--addr`, an already-running daemon is loaded and
//! left running. With `--fleet` (comma-separated shard addresses), the
//! same load is routed client-side over the shards with consistent
//! hashing — the digest must match the single-node run.
//!
//! With `--soak SECS`, the fixed-length run becomes a wall-clock soak
//! (`hfast_serve::soak`): the loaders cycle the paper-app pool in order
//! (`--seed` does not apply) while a monitor polls the `metrics` verb and
//! asserts SLOs (zero byte divergence, no lost loader connection, rolling
//! p99 under the `--p99-ms` ceiling); `--timeline PATH` writes the
//! poll-by-poll JSONL record. Exit status reports the SLO verdict.
//!
//! The report ends with a deterministic digest over every response byte:
//! two runs with the same seed against any healthy daemon — 1 worker or
//! 8 — must print the same digest.

use std::process::ExitCode;
use std::time::Duration;

use hfast_bench::loadgen;
use hfast_serve::soak;
use hfast_serve::{start, Client, Request, ServerConfig};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for {flag}")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = loadgen::LoadConfig::default();
    if let Some(n) = parse_flag(&args, "--connections")? {
        config.connections = n;
    }
    if let Some(n) = parse_flag(&args, "--requests")? {
        config.requests_per_connection = n;
    }
    if let Some(s) = parse_flag(&args, "--seed")? {
        config.seed = s;
    }
    let addr: Option<String> = parse_flag(&args, "--addr")?;
    let fleet: Option<String> = parse_flag(&args, "--fleet")?;

    if let Some(secs) = parse_flag::<u64>(&args, "--soak")? {
        if fleet.is_some() {
            return Err("--soak targets one address; point it at a fleet router".into());
        }
        let pool = loadgen::request_pool(config.procs);
        let mut config = soak::SoakConfig {
            duration: Duration::from_secs(secs.max(1)),
            connections: config.connections,
            ..soak::SoakConfig::default()
        };
        if let Some(ms) = parse_flag::<u64>(&args, "--p99-ms")? {
            config.p99_ceiling_ns = ms.saturating_mul(1_000_000);
        }
        let (addr, server) = match addr {
            Some(addr) => (addr, None),
            None => {
                let server = start("127.0.0.1:0", ServerConfig::from_env())
                    .map_err(|e| format!("bind: {e}"))?;
                (server.local_addr().to_string(), Some(server))
            }
        };
        eprintln!(
            "loadgen: soaking {addr} for {}s ({} connections, p99 ceiling {:.0} ms)",
            secs,
            config.connections,
            config.p99_ceiling_ns as f64 / 1e6
        );
        let report = soak::run_soak(&addr, &pool, &config);
        println!("{}", report.render());
        if let Some(path) = parse_flag::<String>(&args, "--timeline")? {
            let mut doc = report.timeline.join("\n");
            doc.push('\n');
            std::fs::write(&path, doc).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("loadgen: telemetry timeline -> {path}");
        }
        if let Some(server) = server {
            let mut client = Client::connect(&addr).map_err(|e| format!("drain connect: {e}"))?;
            client
                .call(&Request::Shutdown)
                .map_err(|e| format!("drain: {e}"))?;
            server.join();
        }
        return if report.passed() {
            Ok(())
        } else {
            Err(format!(
                "SLO violations: {}",
                report.slo_violations.join("; ")
            ))
        };
    }

    if let Some(fleet) = fleet {
        if addr.is_some() {
            return Err("--addr and --fleet are mutually exclusive".into());
        }
        let shards: Vec<String> = fleet
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if shards.is_empty() {
            return Err("--fleet needs at least one shard address".into());
        }
        eprintln!(
            "loadgen: {} connections x {} requests (seed {:#x}) -> fleet of {} shards",
            config.connections,
            config.requests_per_connection,
            config.seed,
            shards.len()
        );
        let report = loadgen::run_fleet(&shards, &config);
        println!("{}", report.render());
        if report.dropped > 0 {
            return Err(format!("{} responses dropped", report.dropped));
        }
        return Ok(());
    }

    let (addr, server) = match addr {
        Some(addr) => (addr, None),
        None => {
            let server =
                start("127.0.0.1:0", ServerConfig::from_env()).map_err(|e| format!("bind: {e}"))?;
            (server.local_addr().to_string(), Some(server))
        }
    };
    eprintln!(
        "loadgen: {} connections x {} requests (seed {:#x}) -> {addr}",
        config.connections, config.requests_per_connection, config.seed
    );
    let report = loadgen::run(&addr, &config);
    println!("{}", report.render());
    if let Some(server) = server {
        let mut client = Client::connect(&addr).map_err(|e| format!("drain connect: {e}"))?;
        client
            .call(&Request::Shutdown)
            .map_err(|e| format!("drain: {e}"))?;
        server.join();
    }
    if report.dropped > 0 {
        return Err(format!("{} responses dropped", report.dropped));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
