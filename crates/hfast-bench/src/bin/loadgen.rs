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

use hfast_bench::loadgen;
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
