//! Telemetry must be invisible on the wire: a daemon with `HFAST_TRACE`
//! and `HFAST_OBS` switched on answers every request with exactly the
//! bytes the switched-off daemon produces — for every verb, computed and
//! served from cache. The switches are read once per daemon from its
//! environment, so the on/off pair must be real subprocesses. The
//! telemetry-on daemon's drain summary, the one `HFAST_OBS` export, is
//! then checked line by line.

use std::io::{BufRead as _, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};

use hfast_serve::{
    decode_response, encode_request, read_frame, write_frame, AppSpec, FabricSpec, Request,
    Response, ENDPOINTS,
};
use hfast_trace::JsonValue;

struct Daemon {
    child: Child,
    stream: TcpStream,
    /// Held open so the daemon's closing stderr line has somewhere to go.
    _stderr: BufReader<ChildStderr>,
}

/// Spawns one daemon with the given telemetry environment and connects
/// to it, parsing the address from its `listening on` line.
fn spawn_daemon(telemetry: Option<(&str, &str)>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hfast-serve"));
    cmd.arg("127.0.0.1:0")
        .env_remove("HFAST_TRACE")
        .env_remove("HFAST_OBS")
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if let Some((trace_sink, obs_sink)) = telemetry {
        cmd.env("HFAST_TRACE", trace_sink)
            .env("HFAST_OBS", obs_sink);
    }
    let mut child = cmd.spawn().expect("spawn daemon");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("hfast-serve listening on ")
        .unwrap_or_else(|| panic!("expected a listening line, got {line:?}"))
        .to_string();
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    Daemon {
        child,
        stream,
        _stderr: stderr,
    }
}

fn exchange(stream: &mut TcpStream, payload: &str) -> String {
    write_frame(stream, payload).expect("write frame");
    read_frame(stream).expect("read frame")
}

/// Requests whose responses are pure functions of the request — these
/// must answer byte-identically regardless of telemetry, including the
/// panic probe's deterministic error.
fn deterministic_pool() -> Vec<Request> {
    let ring = |n: usize| AppSpec::Inline {
        n,
        edges: (0..n)
            .map(|i| (i, (i + 1) % n, 64 * 1024, 16, 4096))
            .collect(),
    };
    vec![
        Request::Health,
        Request::Provision {
            app: ring(8),
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        },
        Request::Cost {
            app: ring(8),
            block_ports: 8,
            cutoff: 4096,
        },
        Request::Tdc {
            app: ring(6),
            cutoffs: vec![0, 2048],
        },
        Request::Simulate {
            app: ring(6),
            fabric: FabricSpec::Hfast,
            cutoff: 2048,
            faults: None,
            strategy: None,
        },
        Request::DebugPanic,
    ]
}

/// Zeroes the fields whose values depend on wall-clock timing, leaving
/// every count, gauge, and byte-exact field to be compared strictly.
fn mask_timing(resp: Response) -> Response {
    match resp {
        Response::Stats {
            requests,
            shed,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            cache_bytes,
            sim_events,
            strategy_hits,
            scenario_hits,
            graphs,
            fabrics,
            mut latency,
            ..
        } => {
            for row in &mut latency {
                row.p50_ns = 0;
                row.p95_ns = 0;
                row.p99_ns = 0;
            }
            Response::Stats {
                requests,
                shed,
                cache_hits,
                cache_misses,
                cache_evictions,
                cache_entries,
                cache_bytes,
                sim_events,
                sim_events_per_sec: 0,
                strategy_hits,
                scenario_hits,
                graphs,
                fabrics,
                latency,
            }
        }
        Response::Metrics {
            window_ns,
            queue_depth,
            cache_hits,
            cache_misses,
            mut verbs,
        } => {
            for row in &mut verbs {
                row.p50_ns = 0;
                row.p95_ns = 0;
                row.p99_ns = 0;
            }
            Response::Metrics {
                window_ns,
                queue_depth,
                cache_hits,
                cache_misses,
                verbs,
            }
        }
        other => other,
    }
}

#[test]
fn telemetry_on_answers_byte_identically_to_telemetry_off() {
    let dir = std::env::temp_dir().join(format!("hfast-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("telemetry dir");
    let trace_sink = dir.join("trace.json").display().to_string();
    let obs_sink = dir.join("obs.jsonl").display().to_string();

    let mut off = spawn_daemon(None);
    let mut on = spawn_daemon(Some((&trace_sink, &obs_sink)));
    let mut sent = 0u64;

    // Every deterministic verb, twice (a miss, then a cache hit), in
    // lockstep so both daemons see the identical request sequence.
    for req in &deterministic_pool() {
        let body = encode_request(req);
        for _ in 0..2 {
            sent += 1;
            let a = exchange(&mut off.stream, &body);
            let b = exchange(&mut on.stream, &body);
            assert_eq!(a, b, "telemetry changed the reply to {body}");
        }
    }

    // Counter verbs: identical request history, so everything but the
    // latency quantiles must match exactly (masked compare).
    for req in [Request::Stats, Request::Metrics] {
        let body = encode_request(&req);
        sent += 1;
        let a = exchange(&mut off.stream, &body);
        let b = exchange(&mut on.stream, &body);
        let a = mask_timing(decode_response(&a).expect("off decodes"));
        let b = mask_timing(decode_response(&b).expect("on decodes"));
        assert_eq!(a, b, "telemetry changed the {} counters", req.endpoint());
    }

    // Shutdown acknowledges identically; the telemetry-on daemon then
    // flushes a non-empty Perfetto document on drain.
    let bye = encode_request(&Request::Shutdown);
    sent += 1;
    let a = exchange(&mut off.stream, &bye);
    let b = exchange(&mut on.stream, &bye);
    assert_eq!(a, b, "shutdown ack differs under telemetry");
    assert!(off.child.wait().expect("off exits").success());
    assert!(on.child.wait().expect("on exits").success());
    let doc = std::fs::read_to_string(&trace_sink).expect("span sink written");
    let stats = hfast_trace::validate(&doc).expect("a valid trace document");
    assert!(stats.events > 0, "telemetry-on daemon exported no spans");

    // The drain summary: one `serve_endpoint` line per endpoint, one
    // `serve_summary` line counting every request sent above.
    let jsonl = std::fs::read_to_string(&obs_sink).expect("obs sink written");
    let lines: Vec<JsonValue> = jsonl
        .lines()
        .map(|l| hfast_trace::parse(l).unwrap_or_else(|e| panic!("bad obs line {l:?}: {e}")))
        .collect();
    let field = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(String::from);
    let event = |v: &JsonValue| field(v, "event");
    for name in ENDPOINTS {
        let rows = lines
            .iter()
            .filter(|v| {
                event(v).as_deref() == Some("serve_endpoint")
                    && field(v, "endpoint").as_deref() == Some(name)
            })
            .count();
        assert_eq!(rows, 1, "serve_endpoint lines for {name}");
    }
    let summaries: Vec<&JsonValue> = lines
        .iter()
        .filter(|v| event(v).as_deref() == Some("serve_summary"))
        .collect();
    assert_eq!(summaries.len(), 1, "one serve_summary line");
    assert_eq!(
        summaries[0].get("requests").and_then(JsonValue::as_u64),
        Some(sent),
        "serve_summary.requests"
    );
    assert_eq!(
        lines.len(),
        ENDPOINTS.len() + 1,
        "nothing but the drain summary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
