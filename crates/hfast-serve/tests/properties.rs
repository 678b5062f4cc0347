//! Property and end-to-end tests for the serving daemon.
//!
//! The socket-driving tests each start a real server on an ephemeral
//! port, talk to it over TCP, and drain it — nothing is mocked. They are
//! intentionally small-scale (inline graphs, a handful of requests); the
//! sustained-load version is `tests/serve.rs`.

use hfast_par::forall;
use hfast_par::Rng64;
use hfast_serve::{
    decode_request, decode_response, encode_request, encode_response, execute, read_frame,
    request_key, start, write_frame, AppSpec, Client, FabricSpec, FaultSpec, Registry, Request,
    Response, ScenarioKind, ServerConfig, Strategy, TdcRow, VerbLatency, VerbWindow, ENDPOINTS,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A random integer in the JSON-safe range: the protocol's numbers ride
/// on JSON, where integers are exact only up to 2^53 (the f64 mantissa).
fn u53(rng: &mut Rng64) -> u64 {
    rng.next_u64() >> 11
}

fn random_app(rng: &mut Rng64) -> AppSpec {
    if rng.bool(0.3) {
        AppSpec::Named {
            name: (*rng.pick(&["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"]))
                .to_string(),
            procs: rng.range(1, 128),
        }
    } else {
        let n = rng.range(2, 12);
        let edges = (0..rng.range(1, 10))
            .map(|_| {
                let a = rng.range(0, n);
                let mut b = rng.range(0, n);
                if b == a {
                    b = (a + 1) % n;
                }
                (
                    a,
                    b,
                    rng.range_u64(1, 1 << 24),
                    rng.range_u64(1, 64),
                    rng.range_u64(1, 1 << 20),
                )
            })
            .collect();
        AppSpec::Inline { n, edges }
    }
}

fn random_fabric(rng: &mut Rng64) -> FabricSpec {
    match rng.range(0, 3) {
        0 => FabricSpec::FatTree {
            ports: rng.range(4, 64),
        },
        1 => FabricSpec::Torus {
            dims: (rng.range(1, 6), rng.range(1, 6), rng.range(1, 6)),
        },
        _ => FabricSpec::Hfast,
    }
}

fn random_strategy(rng: &mut Rng64) -> Option<Strategy> {
    rng.bool(0.5).then(|| {
        *rng.pick(&[
            Strategy::PaperLinear,
            Strategy::BffCircuit,
            Strategy::DemandDecomp,
        ])
    })
}

fn random_simulate(rng: &mut Rng64) -> Request {
    Request::Simulate {
        app: random_app(rng),
        fabric: random_fabric(rng),
        cutoff: rng.range_u64(0, 1 << 16),
        faults: rng.bool(0.5).then(|| FaultSpec {
            seed: u53(rng),
            count: rng.range(0, 8),
            window: (rng.range_u64(0, 1000), rng.range_u64(1000, 1 << 20)),
            downtime_ns: rng.bool(0.5).then(|| rng.range_u64(1, 1 << 20)),
        }),
        strategy: random_strategy(rng),
    }
}

fn random_request(rng: &mut Rng64) -> Request {
    match rng.range(0, 9) {
        0 => Request::Health,
        1 => Request::Stats,
        2 => Request::Provision {
            app: random_app(rng),
            block_ports: rng.range(2, 64),
            cutoff: rng.range_u64(0, 1 << 20),
            strategy: random_strategy(rng),
        },
        3 => Request::Cost {
            app: random_app(rng),
            block_ports: rng.range(2, 64),
            cutoff: rng.range_u64(0, 1 << 20),
        },
        4 => Request::Tdc {
            app: random_app(rng),
            cutoffs: (0..rng.range(1, 8))
                .map(|_| rng.range_u64(0, 1 << 24))
                .collect(),
        },
        5 => random_simulate(rng),
        6 => Request::Shutdown,
        7 => Request::Metrics,
        _ => Request::DebugPanic,
    }
}

fn random_verb_latency(rng: &mut Rng64) -> Vec<VerbLatency> {
    (0..rng.range(0, 4))
        .map(|_| VerbLatency {
            verb: (*rng.pick(&ENDPOINTS)).to_string(),
            count: u53(rng),
            p50_ns: u53(rng),
            p95_ns: u53(rng),
            p99_ns: u53(rng),
        })
        .collect()
}

#[test]
fn any_request_round_trips_and_is_canonical() {
    forall("request codec round-trip", 200, |rng| {
        let req = random_request(rng);
        let text = encode_request(&req);
        let back = decode_request(&text).expect("encoded request decodes");
        assert_eq!(back, req);
        // Canonical: re-encoding the decoded value reproduces the bytes,
        // so the cache key is well-defined.
        assert_eq!(encode_request(&back), text);
        assert_eq!(request_key(&text), request_key(&encode_request(&back)));
    });
}

#[test]
fn any_response_round_trips() {
    forall("response codec round-trip", 200, |rng| {
        let resp = match rng.range(0, 9) {
            0 => Response::Health {
                workers: rng.range(1, 64),
                queue: rng.range(1, 1024),
            },
            1 => Response::Stats {
                requests: u53(rng),
                shed: u53(rng),
                cache_hits: u53(rng),
                cache_misses: u53(rng),
                cache_evictions: u53(rng),
                cache_entries: u53(rng),
                cache_bytes: u53(rng),
                sim_events: u53(rng),
                sim_events_per_sec: u53(rng),
                strategy_hits: [u53(rng), u53(rng), u53(rng)],
                scenario_hits: [u53(rng), u53(rng), u53(rng), u53(rng), u53(rng)],
                graphs: u53(rng),
                fabrics: u53(rng),
                latency: random_verb_latency(rng),
            },
            2 => Response::Provisioned {
                n: rng.range(1, 4096),
                blocks: rng.range(0, 4096),
                total_block_ports: rng.range(0, 1 << 20),
                circuit_ports: rng.range(0, 1 << 20),
                ports_per_node: rng.f64() * 64.0,
                max_switch_hops: rng.range(0, 16),
            },
            3 => Response::CostReport {
                hfast: rng.f64() * 1e6,
                fat_tree: rng.f64() * 1e6,
                ratio: rng.f64(),
                hfast_wins: rng.bool(0.5),
                hfast_ports_per_node: rng.f64() * 64.0,
                fat_tree_ports_per_node: rng.range(1, 64),
            },
            4 => Response::TdcReport {
                rows: (0..rng.range(0, 6))
                    .map(|_| TdcRow {
                        cutoff: u53(rng),
                        max: rng.range(0, 4096),
                        min: rng.range(0, 4096),
                        avg: rng.f64() * 4096.0,
                        median: rng.range(0, 4096),
                    })
                    .collect(),
            },
            5 => Response::SimReport {
                completed: rng.range(0, 1 << 20),
                unrouted: rng.range(0, 1 << 20),
                abandoned: rng.range(0, 1 << 20),
                delivered_bytes: u53(rng),
                max_latency_ns: u53(rng),
                makespan_ns: u53(rng),
                total_retries: u53(rng),
                reprovisions: rng.range(0, 64),
            },
            6 => rng.pick(&[Response::Busy, Response::Ok]).clone(),
            7 => Response::Metrics {
                window_ns: u53(rng),
                queue_depth: u53(rng),
                cache_hits: u53(rng),
                cache_misses: u53(rng),
                verbs: (0..rng.range(0, 4))
                    .map(|_| VerbWindow {
                        verb: (*rng.pick(&ENDPOINTS)).to_string(),
                        count: u53(rng),
                        ok: u53(rng),
                        busy: u53(rng),
                        errors: u53(rng),
                        p50_ns: u53(rng),
                        p95_ns: u53(rng),
                        p99_ns: u53(rng),
                    })
                    .collect(),
            },
            _ => Response::Error {
                message: format!(
                    "error #{} with \"quotes\" and \\slashes",
                    rng.range(0, 1000)
                ),
            },
        };
        let text = encode_response(&resp);
        let back = decode_response(&text).expect("encoded response decodes");
        assert_eq!(back, resp);
        assert_eq!(encode_response(&back), text);
    });
}

/// A small inline app whose requests are cheap enough to fire many times.
fn toy_app() -> AppSpec {
    AppSpec::Inline {
        n: 6,
        edges: vec![
            (0, 1, 1 << 16, 16, 4096),
            (1, 2, 1 << 14, 4, 4096),
            (2, 3, 1 << 18, 32, 8192),
            (4, 5, 1 << 12, 2, 2048),
        ],
    }
}

fn toy_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn cached_response_is_byte_identical_to_fresh() {
    let server = start("127.0.0.1:0", toy_config()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let requests = [
        Request::Provision {
            app: toy_app(),
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        },
        Request::Provision {
            app: toy_app(),
            block_ports: 16,
            cutoff: 2048,
            strategy: Some(Strategy::BffCircuit),
        },
        Request::Cost {
            app: toy_app(),
            block_ports: 8,
            cutoff: 4096,
        },
        Request::Tdc {
            app: toy_app(),
            cutoffs: vec![0, 4096, 1 << 16],
        },
        Request::Simulate {
            app: toy_app(),
            fabric: FabricSpec::Torus { dims: (2, 2, 2) },
            cutoff: 0,
            faults: Some(FaultSpec {
                seed: 42,
                count: 2,
                window: (0, 10_000),
                downtime_ns: None,
            }),
            strategy: None,
        },
        // An incast on a fat tree under credit flow control.
        Request::Scenario {
            kind: ScenarioKind::Incast,
            nodes: 16,
            flows: None,
            bytes: None,
            seed: 0xC0DE,
            fabric: FabricSpec::FatTree { ports: 8 },
            strategy: None,
            credits: None,
        },
    ];
    for req in &requests {
        let (fresh_resp, fresh) = client.call_text(req).expect("fresh call");
        let (_, cached) = client.call_text(req).expect("cached call");
        assert_eq!(fresh, cached, "cache changed the bytes of {req:?}");
        match fresh_resp {
            Response::CostReport { ratio, .. } => assert!(ratio > 0.0, "cost ratio {ratio}"),
            // The incast completes every flow and grows at least one
            // congestion tree.
            Response::ScenarioReport {
                flows,
                completed,
                unrouted,
                trees,
                ..
            } => {
                assert_eq!((completed, unrouted), (flows, 0), "incast flows");
                assert!(trees > 0, "the incast formed no congestion tree");
            }
            _ => {}
        }
    }
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats {
            requests: served,
            cache_hits,
            cache_misses,
            sim_events,
            strategy_hits,
            scenario_hits,
            ..
        } => {
            assert_eq!(served, 2 * requests.len() as u64 + 1, "requests");
            assert_eq!(cache_hits, requests.len() as u64);
            assert_eq!(cache_misses, requests.len() as u64);
            assert!(sim_events > 0, "the replays counted no events");
            // Hits never reach a handler: the two `provision`s and the
            // `cost` each ran their provisioner once (`cost` as
            // `PaperLinear`), and the scenario replayed once.
            assert_eq!(strategy_hits, [2, 1, 0], "strategy_hits");
            assert_eq!(scenario_hits.iter().sum::<u64>(), 1, "scenario_hits");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Writes raw bytes with *no* length prefix, shuts down the write side,
/// and returns everything the server sends back before closing. The
/// unframed view of the wire that the truncation probes need.
fn send_unframed(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream.write_all(bytes).expect("write raw bytes");
    stream.flush().expect("flush");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write side");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("drain server reply");
    out
}

#[test]
fn malformed_frames_are_structured_errors_and_leave_the_server_serving() {
    let server = start("127.0.0.1:0", toy_config()).expect("bind");
    let addr = server.local_addr();

    // Valid frame, garbage payload: structured error, connection usable.
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The nesting bombs are a few KB that used to recurse the parser off
    // the end of this connection thread's stack, aborting the daemon.
    let array_bomb = "[".repeat(100_000);
    let object_bomb = "{\"a\":".repeat(100_000);
    for bad in [
        "",
        "not json at all",
        "{\"type\":\"no_such_endpoint\"}",
        "[1,2,3]",
        &array_bomb,
        &object_bomb,
    ] {
        write_frame(&mut stream, bad).expect("write survives");
        let reply = read_frame(&mut stream).expect("call survives");
        match decode_response(&reply) {
            Ok(Response::Error { message }) => assert!(!message.is_empty()),
            other => panic!(
                "payload {:?}… should yield Error, got {other:?}",
                &bad[..bad.len().min(32)]
            ),
        }
    }
    // The same connection still serves real requests afterwards.
    write_frame(&mut stream, &encode_request(&Request::Health)).expect("health write");
    assert!(matches!(
        decode_response(&read_frame(&mut stream).expect("health read")),
        Ok(Response::Health { .. })
    ));

    // Oversized length prefix: one structured refusal, then close.
    let bytes = send_unframed(addr, &u32::MAX.to_be_bytes());
    assert!(bytes.len() > 4, "expected an error frame, got {bytes:?}");
    let text = std::str::from_utf8(&bytes[4..]).expect("utf8 payload");
    assert!(
        matches!(decode_response(text), Ok(Response::Error { .. })),
        "oversized prefix should refuse with Error, got {text}"
    );

    // Truncated frame (prefix promises more than arrives): the server
    // just drops the connection — nothing to answer.
    let mut partial = 100u32.to_be_bytes().to_vec();
    partial.extend_from_slice(b"only a few bytes");
    assert!(send_unframed(addr, &partial).is_empty());

    // After all of that the server still computes.
    let mut fine = Client::connect(addr).expect("connect");
    assert!(matches!(
        fine.call(&Request::Tdc {
            app: toy_app(),
            cutoffs: vec![2048],
        })
        .expect("tdc"),
        Response::TdcReport { .. }
    ));
    fine.call(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn a_panicking_handler_does_not_kill_its_worker() {
    // One worker: if the panic killed it, the follow-up request would
    // hang (nobody left to serve the queue) instead of answering.
    let server = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..3 {
        match client
            .call(&Request::DebugPanic)
            .expect("panic call answers")
        {
            Response::Error { message } => assert!(message.contains("panicked")),
            other => panic!("expected Error, got {other:?}"),
        }
        match client
            .call(&Request::Provision {
                app: toy_app(),
                block_ports: 16,
                cutoff: 2048,
                strategy: None,
            })
            .expect("worker survived")
        {
            Response::Provisioned { n, .. } => assert_eq!(n, 6),
            other => panic!("expected Provisioned, got {other:?}"),
        }
    }
    client.call(&Request::Shutdown).expect("shutdown");
    server.join();
}

#[test]
fn draining_server_sheds_new_compute_requests() {
    let server = start("127.0.0.1:0", toy_config()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.call(&Request::Shutdown).expect("shutdown ack");
    // The connection is already open, so the next request reaches the
    // server mid-drain; compute must be refused, not hung.
    match client.call(&Request::Provision {
        app: toy_app(),
        block_ports: 16,
        cutoff: 2048,
        strategy: None,
    }) {
        Ok(Response::Busy) => {}
        // The drain may close the connection before the request lands.
        Ok(other) => panic!("expected Busy, got {other:?}"),
        Err(_) => {}
    }
    server.join();
}

/// A compute request that keeps the daemon's one compute slot busy for
/// a long while: a credit-mode hot-spot replay of 65 536 flows, measured
/// at 0.7-0.9 s on a 2-core x86-64 box in debug and release builds.
fn holder() -> Request {
    Request::Scenario {
        kind: ScenarioKind::HotSpot,
        nodes: 1024,
        flows: Some(65_536),
        bytes: None,
        seed: 7,
        fabric: FabricSpec::FatTree { ports: 16 },
        strategy: None,
        credits: None,
    }
}

/// Sends [`holder`] on its own connection and returns that connection
/// once the daemon has decoded it and started computing.
fn hold_the_only_slot(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect holder");
    write_frame(&mut stream, &encode_request(&holder())).expect("send holder");
    let scenario = ENDPOINTS
        .iter()
        .position(|e| *e == "scenario")
        .expect("scenario verb");
    let mut probe = Client::connect(addr).expect("connect probe");
    loop {
        match probe.call(&Request::Stats).expect("stats") {
            Response::Stats { latency, .. } if latency[scenario].count == 1 => break,
            Response::Stats { .. } => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("expected Stats, got {other:?}"),
        }
    }
    // The count is taken microseconds before the slot; leave a margin
    // far below the holder's run time.
    std::thread::sleep(Duration::from_millis(50));
    stream
}

fn expect_holder_reply(holder: &mut TcpStream) {
    match decode_response(&read_frame(holder).expect("holder reply")) {
        Ok(Response::ScenarioReport { .. }) => {}
        other => panic!("expected the holder's ScenarioReport, got {other:?}"),
    }
}

/// Overload: the one compute slot is held and one more request may
/// wait. Of four distinct compute requests arriving from four
/// connections, one waits its turn and is answered; the other three are
/// shed with `busy`, and `stats` counts all three.
#[test]
fn a_request_beyond_the_queue_bound_is_shed_busy() {
    let server = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut holder = hold_the_only_slot(addr);
    let mut callers: Vec<TcpStream> = (0..4u64)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect caller");
            let req = Request::Tdc {
                app: toy_app(),
                cutoffs: vec![1000 + i],
            };
            write_frame(&mut stream, &encode_request(&req)).expect("send");
            stream
        })
        .collect();
    let replies: Vec<Response> = callers
        .iter_mut()
        .map(|s| decode_response(&read_frame(s).expect("reply")).expect("reply decodes"))
        .collect();
    let answered = replies
        .iter()
        .filter(|r| matches!(r, Response::TdcReport { .. }))
        .count();
    let busy = replies
        .iter()
        .filter(|r| matches!(r, Response::Busy))
        .count();
    assert_eq!((answered, busy), (1, 3), "replies: {replies:?}");
    expect_holder_reply(&mut holder);
    let mut client = Client::connect(addr).expect("connect");
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats { shed, .. } => assert_eq!(shed, 3),
        other => panic!("expected Stats, got {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// A request still waiting for the compute slot when its deadline
/// passes is answered with a structured `deadline exceeded` error.
#[test]
fn a_request_waiting_past_its_deadline_is_refused() {
    let server = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut holder = hold_the_only_slot(addr);
    let mut client = Client::connect(addr).expect("connect");
    match client
        .call(&Request::Tdc {
            app: toy_app(),
            cutoffs: vec![2048],
        })
        .expect("answered")
    {
        Response::Error { message } => {
            assert!(message.starts_with("deadline exceeded"), "{message}")
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    expect_holder_reply(&mut holder);
    client.call(&Request::Shutdown).expect("shutdown");
    server.join();
}

/// Drain owes a connection caught mid-frame a bounded grace, not an
/// unbounded wait: with one client stalled inside a frame, `join`
/// returns once another client sends `shutdown`.
#[test]
fn drain_gives_up_on_a_connection_stalled_mid_frame() {
    let server = start("127.0.0.1:0", toy_config()).expect("bind");
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(&100u32.to_be_bytes()).expect("prefix");
    stalled.write_all(b"a partial").expect("partial payload");
    // Let the daemon accept the connection and read into the frame.
    std::thread::sleep(Duration::from_millis(200));
    Client::connect(addr)
        .expect("connect")
        .call(&Request::Shutdown)
        .expect("shutdown");
    // Join on a side thread, so that a hang fails the test.
    let (joined, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    done.recv_timeout(Duration::from_secs(5))
        .expect("join hung on a connection stalled mid-frame");
    drop(stalled);
}

/// A fabric the daemon cannot build is refused in words a client can
/// act on, pinned exactly: a fat tree of 3-port switches, and a torus
/// with fewer nodes than the app has tasks.
#[test]
fn unbuildable_fabrics_are_refused_with_pinned_text() {
    let reg = Registry::new();
    let nine_tasks = AppSpec::Inline {
        n: 9,
        edges: vec![(0, 8, 4096, 1, 4096)],
    };
    for (fabric, text) in [
        (
            FabricSpec::FatTree { ports: 3 },
            "fat tree: fat-tree switches need at least 4 ports, got 3",
        ),
        (
            FabricSpec::Torus { dims: (2, 2, 2) },
            "torus (2, 2, 2) holds 8 nodes, app needs 9",
        ),
    ] {
        let req = Request::Simulate {
            app: nine_tasks.clone(),
            fabric,
            cutoff: 0,
            faults: None,
            strategy: None,
        };
        assert_eq!(
            execute(&req, &reg),
            Response::Error {
                message: text.into()
            },
            "{fabric:?}"
        );
    }
}
