//! Closed-loop load generator against an `hfast-serve` daemon.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--seed S]
//! ```
//!
//! Without `--addr`, a daemon is started in-process on an ephemeral port
//! (config from the `HFAST_SERVE_*` environment), loaded, drained, and
//! joined — the one-command version of the serving experiment. With
//! `--addr`, an already-running daemon is loaded and left running.
//!
//! The report ends with a deterministic digest over every response byte:
//! two runs with the same seed against any healthy daemon — 1 worker or
//! 8 — must print the same digest.

use std::process::ExitCode;

use hfast_bench::{run_load, LoadConfig};
use hfast_serve::{start, Client, Request, ServerConfig};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--seed S]";

/// Applies the `--flag value` pairs in `args` to `config` and returns the
/// `--addr` value; an unknown flag, a missing value or an unparseable one
/// is an error.
fn parse_args(args: &[String], config: &mut LoadConfig) -> Result<Option<String>, String> {
    let mut addr = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |_| format!("bad value for {flag}");
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--connections" => config.connections = value.parse().map_err(bad)?,
            "--requests" => config.requests_per_connection = value.parse().map_err(bad)?,
            "--seed" => config.seed = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(addr)
}

fn run(addr: Option<String>, config: &LoadConfig) -> Result<(), String> {
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
    let report = run_load(&addr, config);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadConfig::default();
    let addr = parse_args(&args, &mut config).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}\n{USAGE}");
        std::process::exit(2)
    });
    if let Err(e) = run(addr, &config) {
        eprintln!("loadgen: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
