//! `hfast-serve` binary: run the daemon, or exercise it end to end.
//!
//! ```text
//! hfast-serve [ADDR]        serve on ADDR (default 127.0.0.1:4711)
//!                           until a client sends `shutdown`
//! hfast-serve --self-test   start on an ephemeral port, drive every
//!                           endpoint through a real socket, verify the
//!                           answers, then send it hostile frames,
//!                           drain, exit non-zero on failure
//! ```
//!
//! The self-test is the smoke `verify.sh` runs: it proves the daemon
//! binds, serves all endpoints, caches repeats, isolates a handler
//! panic, answers hostile frames with a structured error (or a clean
//! close) and stays healthy, and drains cleanly — in a few hundred
//! milliseconds. A hostile frame that breaks it is named on stderr with
//! what was expected, what came back, and whether the daemon survived.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;

use hfast_serve::{
    decode_response, encode_request, read_frame, start, write_frame, AppSpec, Client, FabricSpec,
    FrameError, Request, Response, ScenarioKind, ServerConfig,
};

/// The hostile-frame round. Each frame goes out on a fresh connection
/// and must draw a structured error mentioning `needle`; then the
/// connection either answers `health` or — where a bad frame leaves the
/// stream position undefined — closes cleanly and a new one answers it.
/// A failure names the frame, the stage, expected versus got, and
/// whether the daemon survived.
fn hostile_round(addr: SocketAddr) -> Result<(), String> {
    let framed = |payload: &[u8]| [&(payload.len() as u32).to_be_bytes(), payload].concat();
    let golden = encode_request(&Request::Metrics);
    let credits = r#"{"type":"scenario","kind":"incast","nodes":16,"seed":1,"fabric":{"kind":"hfast"},"credits":4294967297}"#;
    // The retired envelopes: the golden body behind a `"v":2` tag, with
    // and without a trace member.
    let v2 = format!("{{\"v\":2,{}", &golden[1..]);
    let traced = format!(
        "{{\"v\":2,\"trace\":{{\"id\":\"3\",\"parent\":\"1000000000000003\"}},{}",
        &golden[1..]
    );
    // (name, bytes on the wire, the error mentions, the connection survives)
    let mut frames = vec![
        (
            "nesting bomb".to_string(),
            framed(&[b'['; 100_000]),
            "nesting deeper",
            true,
        ),
        (
            "oversized length prefix".into(),
            u32::MAX.to_be_bytes().to_vec(),
            "exceeds",
            false,
        ),
        (
            "non-UTF-8 payload".into(),
            framed(&[0xff, 0xfe, 0xfd]),
            "UTF-8",
            false,
        ),
        (
            "out-of-range credits".into(),
            framed(credits.as_bytes()),
            "\"credits\"",
            true,
        ),
        (
            "v2 envelope".into(),
            framed(v2.as_bytes()),
            "wire version 2",
            true,
        ),
        (
            "traced envelope".into(),
            framed(traced.as_bytes()),
            "wire version 2",
            true,
        ),
    ];
    for at in [1, golden.len() / 2, golden.len() - 1] {
        let cut = framed(&golden.as_bytes()[..at]);
        frames.push((format!("golden cut at byte {at}"), cut, "", true));
    }
    let healthy = |stream: &mut TcpStream| {
        write_frame(stream, &encode_request(&Request::Health)).map_err(|e| e.to_string())?;
        let reply = read_frame(stream).map_err(|e| e.to_string())?;
        match decode_response(&reply) {
            Ok(Response::Health { .. }) => Ok(()),
            other => Err(format!("{other:?}")),
        }
    };
    // A hung daemon must read as a failed frame, not a hung smoke.
    let connect = || {
        let stream = TcpStream::connect(addr).and_then(|s| {
            s.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
            Ok(s)
        });
        stream.map_err(|e| format!("connect: {e}"))
    };
    // One stderr line, a name at a time: if a frame takes the whole
    // process down, the last name printed is the frame that did it.
    eprint!("hfast-serve self-test: hostile frames:");
    for (name, wire, needle, survives) in frames {
        eprint!(" [{name}]");
        let fail = |stage: &str, expected: &str, got: String| {
            let alive = connect().and_then(|mut probe| healthy(&mut probe)).is_ok();
            let alive = if alive { "still alive" } else { "dead" };
            eprintln!();
            format!(
                "hostile frame '{name}' at {stage}: expected {expected}, got {got}; daemon {alive}"
            )
        };
        let mut stream = connect()?;
        stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
        match read_frame(&mut stream).map(|reply| decode_response(&reply)) {
            Ok(Ok(Response::Error { message })) if message.contains(needle) => {}
            other => {
                return Err(fail(
                    "reply",
                    &format!("an error with {needle:?}"),
                    format!("{other:?}"),
                ))
            }
        }
        if !survives {
            match read_frame(&mut stream) {
                Err(FrameError::Eof) => stream = connect()?,
                other => return Err(fail("close", "a clean close", format!("{other:?}"))),
            }
        }
        healthy(&mut stream).map_err(|got| fail("health", "a health reply", got))?;
    }
    eprintln!(" all refused");
    Ok(())
}

fn self_test() -> Result<(), String> {
    // The debug_panic probe panics a handler on purpose; one quiet line
    // beats a full backtrace in the middle of a smoke run.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("hfast-serve self-test: handler panic contained ({info})");
    }));
    let server =
        start("127.0.0.1:0", ServerConfig::from_env()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let app = AppSpec::Named {
        name: "GTC".into(),
        procs: 16,
    };

    match client.call(&Request::Health) {
        Ok(Response::Health { workers, .. }) if workers > 0 => {}
        other => return Err(format!("health: unexpected {other:?}")),
    }
    match client.call(&Request::Provision {
        app: app.clone(),
        block_ports: 16,
        cutoff: 2048,
        strategy: None,
    }) {
        Ok(Response::Provisioned { n, blocks, .. }) if n == 16 && blocks > 0 => {}
        other => return Err(format!("provision: unexpected {other:?}")),
    }
    // Explicit non-default strategy: same graph, independently provisioned.
    match client.call(&Request::Provision {
        app: app.clone(),
        block_ports: 16,
        cutoff: 2048,
        strategy: Some(hfast_serve::Strategy::BffCircuit),
    }) {
        Ok(Response::Provisioned { n, blocks, .. }) if n == 16 && blocks > 0 => {}
        other => return Err(format!("provision (bff): unexpected {other:?}")),
    }
    match client.call(&Request::Cost {
        app: app.clone(),
        block_ports: 16,
        cutoff: 2048,
    }) {
        Ok(Response::CostReport { ratio, .. }) if ratio > 0.0 => {}
        other => return Err(format!("cost: unexpected {other:?}")),
    }
    match client.call(&Request::Tdc {
        app: app.clone(),
        cutoffs: vec![0, 2048, 1 << 20],
    }) {
        Ok(Response::TdcReport { rows }) if rows.len() == 3 => {}
        other => return Err(format!("tdc: unexpected {other:?}")),
    }
    let sim = Request::Simulate {
        app: app.clone(),
        fabric: FabricSpec::FatTree { ports: 16 },
        cutoff: 2048,
        faults: None,
        strategy: None,
    };
    let first = match client.call(&sim) {
        Ok(Response::SimReport {
            completed,
            delivered_bytes,
            ..
        }) if completed > 0 => (completed, delivered_bytes),
        other => return Err(format!("simulate: unexpected {other:?}")),
    };
    // Repeat must be served from cache and byte-identical in effect.
    match client.call(&sim) {
        Ok(Response::SimReport {
            completed,
            delivered_bytes,
            ..
        }) if (completed, delivered_bytes) == first => {}
        other => return Err(format!("simulate repeat: unexpected {other:?}")),
    }
    // Adversarial scenario replay under credit flow control: incast on a
    // fat tree must complete every flow and form at least one congestion
    // tree rooted at the receiver's access link.
    let scenario = Request::Scenario {
        kind: ScenarioKind::Incast,
        nodes: 16,
        flows: None,
        bytes: None,
        seed: 0xC0DE,
        fabric: FabricSpec::FatTree { ports: 8 },
        strategy: None,
        credits: None,
    };
    let sc_first = match client.call(&scenario) {
        Ok(Response::ScenarioReport {
            flows,
            completed,
            unrouted,
            trees,
            makespan_ns,
            ..
        }) if completed == flows && unrouted == 0 && trees > 0 => (completed, makespan_ns),
        other => return Err(format!("scenario: unexpected {other:?}")),
    };
    // The repeat is served from cache: identical report, and the registry
    // counts exactly one real replay (hits never reach the handler).
    match client.call(&scenario) {
        Ok(Response::ScenarioReport {
            completed,
            makespan_ns,
            ..
        }) if (completed, makespan_ns) == sc_first => {}
        other => return Err(format!("scenario repeat: unexpected {other:?}")),
    }
    match client.call(&Request::DebugPanic) {
        Ok(Response::Error { message }) if message.contains("panicked") => {}
        other => return Err(format!("debug_panic: unexpected {other:?}")),
    }
    // The connection whose handler just panicked must still answer — and
    // the stats it reports now carry lifetime per-verb latency quantiles.
    match client.call(&Request::Stats) {
        Ok(Response::Stats {
            requests,
            cache_hits,
            sim_events,
            strategy_hits,
            scenario_hits,
            latency,
            ..
        }) if requests >= 9
            && cache_hits >= 2
            && sim_events > 0
            && strategy_hits[0] >= 1
            && strategy_hits[1] >= 1
            && scenario_hits.iter().sum::<u64>() == 1 =>
        {
            if latency.len() != hfast_serve::ENDPOINTS.len() {
                return Err(format!("stats: {} latency rows", latency.len()));
            }
            if !latency.iter().any(|row| row.count > 0 && row.p50_ns > 0) {
                return Err(format!("stats: no verb recorded a latency: {latency:?}"));
            }
        }
        other => return Err(format!("stats: unexpected {other:?}")),
    }
    // The rolling window has seen the same traffic: every verb row is
    // present, and the verbs this test exercised report tail latencies.
    match client.call(&Request::Metrics) {
        Ok(Response::Metrics {
            window_ns, verbs, ..
        }) if window_ns > 0 => {
            if verbs.len() != hfast_serve::ENDPOINTS.len() {
                return Err(format!("metrics: {} verb rows", verbs.len()));
            }
            if !verbs
                .iter()
                .any(|row| row.count > 0 && row.ok > 0 && row.p99_ns > 0)
            {
                return Err(format!("metrics: no verb has rolling traffic: {verbs:?}"));
            }
        }
        other => return Err(format!("metrics: unexpected {other:?}")),
    }
    hostile_round(addr)?;
    match client.call(&Request::Shutdown) {
        Ok(Response::Ok) => {}
        other => return Err(format!("shutdown: unexpected {other:?}")),
    }
    server.join();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => match self_test() {
            Ok(()) => {
                println!("hfast-serve self-test: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hfast-serve self-test: FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        Some(flag) if flag.starts_with('-') => {
            eprintln!("usage: hfast-serve [ADDR | --self-test]");
            ExitCode::FAILURE
        }
        addr => {
            let addr = addr.unwrap_or("127.0.0.1:4711");
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
    }
}
