//! `hfast-serve` binary: the daemon.
//!
//! ```text
//! hfast-serve [ADDR]   serve on ADDR (default 127.0.0.1:4711) until a
//!                      client sends `shutdown`, then drain and exit
//! ```
//!
//! Any argument starting with `-`, or a second argument, prints the
//! usage line and exits non-zero before binding. The daemon's behaviour
//! is held by the crate's tests; `tests/telemetry.rs` drives this binary.

use std::process::ExitCode;

use hfast_serve::{start, ServerConfig};

const USAGE: &str = "usage: hfast-serve [ADDR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = match args.as_slice() {
        [] => "127.0.0.1:4711",
        [addr] if !addr.starts_with('-') => addr,
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match start(addr, ServerConfig::from_env()) {
        Ok(server) => {
            eprintln!("hfast-serve listening on {}", server.local_addr());
            server.join(); // drains when a client sends `shutdown`
            eprintln!("hfast-serve drained");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hfast-serve: cannot bind {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}
