//! Telemetry must be invisible on the wire: a daemon with `HFAST_TRACE`
//! and `HFAST_OBS` switched on answers every request with exactly the
//! bytes the switched-off daemon produces — for every verb, computed and
//! served from cache. The switches are read once per daemon from its
//! environment, so the on/off pair must be real subprocesses. The
//! telemetry-on daemon's drain summary, the one `HFAST_OBS` export, is
//! then checked line by line.
//!
//! The same spawned daemon takes the hostile-frame table: a frame that
//! kills the process fails the test naming the frame. And the binary
//! refuses any flag with its usage line before it binds.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use hfast_serve::{
    decode_response, encode_request, read_frame, write_frame, AppSpec, FabricSpec, FrameError,
    Request, Response, ENDPOINTS,
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

/// A test that fails mid-way leaves no daemon behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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

/// The timing fields [`mask_timing`] zeroes are live before it does:
/// one row per endpoint, and a verb this test sent reports a latency
/// (the lifetime p50 in `stats`, the rolling p99 in `metrics`).
fn assert_timed(resp: &Response) {
    match resp {
        Response::Stats { latency, .. } => {
            assert_eq!(latency.len(), ENDPOINTS.len(), "stats latency rows");
            assert!(
                latency.iter().any(|row| row.count > 0 && row.p50_ns > 0),
                "no verb recorded a latency: {latency:?}"
            );
        }
        Response::Metrics {
            window_ns, verbs, ..
        } => {
            assert!(*window_ns > 0, "metrics window_ns");
            assert_eq!(verbs.len(), ENDPOINTS.len(), "metrics verb rows");
            assert!(
                verbs
                    .iter()
                    .any(|row| row.count > 0 && row.ok > 0 && row.p99_ns > 0),
                "no verb has rolling traffic: {verbs:?}"
            );
        }
        other => panic!("expected Stats or Metrics, got {other:?}"),
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
        let a = decode_response(&a).expect("off decodes");
        let b = decode_response(&b).expect("on decodes");
        assert_timed(&a);
        assert_timed(&b);
        assert_eq!(
            mask_timing(a),
            mask_timing(b),
            "telemetry changed the {} counters",
            req.endpoint()
        );
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

/// The hostile frames: `(name, bytes on the wire, what the error must
/// mention, whether the connection survives the frame)`. A frame whose
/// length prefix or payload is unreadable leaves the stream position
/// undefined, so the daemon answers and closes.
fn hostile_frames() -> Vec<(String, Vec<u8>, &'static str, bool)> {
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
    frames
}

/// A connection to `addr` whose reads give up after ten seconds, so a
/// hung daemon fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Whether the daemon process is still running, for a failure message.
fn daemon_state(child: &mut Child) -> String {
    std::thread::sleep(Duration::from_millis(200));
    match child.try_wait() {
        Ok(Some(status)) => format!("daemon exited ({status})"),
        Ok(None) => "daemon still running".into(),
        Err(e) => format!("daemon state unknown ({e})"),
    }
}

/// Each hostile frame goes to the spawned daemon on a fresh connection
/// and draws a structured error mentioning its needle; the daemon then
/// answers `health`, on the same connection or, where the frame closed
/// it, on a new one. A frame that kills the daemon is named.
#[test]
fn hostile_frames_leave_the_spawned_daemon_serving() {
    let mut daemon = spawn_daemon(None);
    let addr = daemon.stream.peer_addr().expect("daemon address");
    for (name, wire, needle, survives) in hostile_frames() {
        let outcome = (|| -> Result<(), String> {
            let mut stream = connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.write_all(&wire).map_err(|e| format!("write: {e}"))?;
            match read_frame(&mut stream).map(|reply| decode_response(&reply)) {
                Ok(Ok(Response::Error { message })) if message.contains(needle) => {}
                other => return Err(format!("expected an error with {needle:?}, got {other:?}")),
            }
            if !survives {
                match read_frame(&mut stream) {
                    Err(FrameError::Eof) => {}
                    other => return Err(format!("expected a clean close, got {other:?}")),
                }
                stream = connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
            write_frame(&mut stream, &encode_request(&Request::Health))
                .map_err(|e| format!("health write: {e}"))?;
            match read_frame(&mut stream).map(|reply| decode_response(&reply)) {
                Ok(Ok(Response::Health { workers, .. })) if workers > 0 => Ok(()),
                other => Err(format!("expected a health reply, got {other:?}")),
            }
        })();
        if let Err(why) = outcome {
            panic!(
                "hostile frame '{name}': {why}; {}",
                daemon_state(&mut daemon.child)
            );
        }
    }
    let bye = exchange(&mut daemon.stream, &encode_request(&Request::Shutdown));
    assert_eq!(decode_response(&bye), Ok(Response::Ok), "shutdown ack");
    assert!(daemon.child.wait().expect("daemon exits").success());
}

/// The binary only serves: a flag, the retired `--self-test` among
/// them, draws the usage line and a non-zero exit within a second,
/// before anything is bound.
#[test]
fn the_daemon_refuses_flags_before_binding() {
    for flag in ["--self-test", "-x"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hfast-serve"))
            .arg(flag)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let deadline = Instant::now() + Duration::from_secs(1);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll daemon") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("hfast-serve {flag} still running after a second");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(!status.success(), "hfast-serve {flag} exited {status}");
        assert!(
            stderr.lines().any(|l| l == "usage: hfast-serve [ADDR]"),
            "hfast-serve {flag} printed no usage line: {stderr:?}"
        );
        assert!(
            !stderr.contains("listening on"),
            "hfast-serve {flag} bound a socket: {stderr:?}"
        );
    }
}
