//! Golden wire-format tests: the v1 encoding is a compatibility
//! contract, so these pin exact bytes, not just round-trips. If any
//! assertion here fails, deployed v1 clients break — change the test
//! only alongside a deliberate, versioned protocol revision.
//!
//! One fixture table ([`request_rows`], [`response_rows`]) holds a
//! `(value, pinned v1 bytes)` pair for every `Request` and `Response`
//! variant with every optional member both present and absent. The
//! byte-pin, round-trip and version-refusal tests iterate it, and so
//! does the mutate-the-golden property: every row is truncated at every
//! offset and put through seeded span, number and nesting mutations,
//! and the decoders and the frame reader must answer each with an error
//! or a self-consistent value — never a panic, never an allocation
//! request above [`MAX_FRAME_BYTES`].
//!
//! Also covers the refusal of version-tagged frames: the retired
//! `{"v":2,…}` envelope, its traced form and a `"v":3` from the future
//! each draw an error naming the version, from the decoder and over a
//! real socket, and the connection keeps answering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::net::TcpStream;

use hfast_par::forall;
use hfast_par::Rng64;
use hfast_serve::{
    decode_request, decode_response, encode_request, encode_response, read_frame, start,
    write_frame, AppSpec, FabricSpec, FaultSpec, FrameError, FramePoll, FrameReader, Request,
    Response, ScenarioKind, ServerConfig, Strategy, TdcRow, VerbLatency, VerbWindow, ENDPOINTS,
    MAX_FRAME_BYTES,
};

/// Passes every call through to `System`, noting the largest single
/// request made on the calling thread so the mutator can bound what a
/// hostile frame makes the decoders ask for.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A `const`-initialised `Cell` never allocates; `try_with` shrugs off
    // a thread that is tearing down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded to `System` with its arguments
// untouched and its result returned as is, so `System`'s guarantees are
// this allocator's; the bookkeeping touches one thread-local `Cell`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch
        // for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// One pre-encoded frame out, one frame in — the raw view of the wire
/// that lets a test pin exact reply bytes.
fn raw_exchange(stream: &mut TcpStream, payload: &str) -> String {
    write_frame(stream, payload).expect("write frame");
    read_frame(stream).expect("read frame")
}

fn named(name: &str, procs: usize) -> AppSpec {
    AppSpec::Named {
        name: name.into(),
        procs,
    }
}

fn cost_req() -> Request {
    Request::Cost {
        app: named("GTC", 8),
        block_ports: 16,
        cutoff: 2048,
    }
}

fn simulate_req() -> Request {
    Request::Simulate {
        app: named("Cactus", 4),
        fabric: FabricSpec::FatTree { ports: 8 },
        cutoff: 2048,
        faults: None,
        strategy: None,
    }
}

/// Every `Request` variant with every optional member (`strategy`,
/// `faults`, `downtime_ns`, `flows`, `bytes`, `credits`) both present
/// and absent, both `AppSpec` shapes and all three fabrics, each with
/// the v1 bytes the PR-6…PR-10 encoders produced for it.
fn request_rows() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Health, r#"{"type":"health"}"#),
        (Request::Stats, r#"{"type":"stats"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
        (Request::DebugPanic, r#"{"type":"debug_panic"}"#),
        (Request::Metrics, r#"{"type":"metrics"}"#),
        (
            cost_req(),
            r#"{"type":"cost","app":{"name":"GTC","procs":8},"block_ports":16,"cutoff":2048}"#,
        ),
        (
            Request::Cost {
                app: AppSpec::Inline {
                    n: 4,
                    edges: vec![(0, 1, 4096, 2, 4096), (2, 3, 100, 1, 100)],
                },
                block_ports: 8,
                cutoff: 0,
            },
            r#"{"type":"cost","app":{"n":4,"edges":[[0,1,4096,2,4096],[2,3,100,1,100]]},"block_ports":8,"cutoff":0}"#,
        ),
        (
            Request::Provision {
                app: named("GTC", 64),
                block_ports: 16,
                cutoff: 2048,
                strategy: None,
            },
            r#"{"type":"provision","app":{"name":"GTC","procs":64},"block_ports":16,"cutoff":2048}"#,
        ),
        (
            Request::Provision {
                app: named("GTC", 64),
                block_ports: 16,
                cutoff: 2048,
                strategy: Some(Strategy::BffCircuit),
            },
            r#"{"type":"provision","app":{"name":"GTC","procs":64},"block_ports":16,"cutoff":2048,"strategy":"bff_circuit"}"#,
        ),
        (
            Request::Tdc {
                app: named("Cactus", 64),
                cutoffs: vec![0, 2048, 1 << 20],
            },
            r#"{"type":"tdc","app":{"name":"Cactus","procs":64},"cutoffs":[0,2048,1048576]}"#,
        ),
        (
            // Escapes and raw non-ASCII in a client-supplied name; no
            // cutoffs and no edges.
            Request::Tdc {
                app: named("G\"T\\C\n\u{1}—é", 2),
                cutoffs: vec![],
            },
            "{\"type\":\"tdc\",\"app\":{\"name\":\"G\\\"T\\\\C\\n\\u0001—é\",\"procs\":2},\"cutoffs\":[]}",
        ),
        (
            Request::Tdc {
                app: AppSpec::Inline {
                    n: 0,
                    edges: vec![],
                },
                cutoffs: vec![7],
            },
            r#"{"type":"tdc","app":{"n":0,"edges":[]},"cutoffs":[7]}"#,
        ),
        (
            simulate_req(),
            r#"{"type":"simulate","app":{"name":"Cactus","procs":4},"fabric":{"kind":"fattree","ports":8},"cutoff":2048}"#,
        ),
        (
            Request::Simulate {
                app: AppSpec::Inline {
                    n: 4,
                    edges: vec![(0, 1, 4096, 2, 4096)],
                },
                fabric: FabricSpec::Hfast,
                cutoff: 2048,
                faults: None,
                strategy: None,
            },
            r#"{"type":"simulate","app":{"n":4,"edges":[[0,1,4096,2,4096]]},"fabric":{"kind":"hfast"},"cutoff":2048}"#,
        ),
        (
            Request::Simulate {
                app: named("LBMHD", 64),
                fabric: FabricSpec::Torus { dims: (4, 4, 4) },
                cutoff: 2048,
                faults: Some(FaultSpec {
                    seed: 7,
                    count: 2,
                    window: (0, 500_000),
                    downtime_ns: Some(100_000),
                }),
                strategy: None,
            },
            r#"{"type":"simulate","app":{"name":"LBMHD","procs":64},"fabric":{"kind":"torus","x":4,"y":4,"z":4},"cutoff":2048,"faults":{"seed":7,"count":2,"window":[0,500000],"downtime_ns":100000}}"#,
        ),
        (
            // Faults without a downtime, together with a strategy.
            Request::Simulate {
                app: named("PMEMD", 16),
                fabric: FabricSpec::Hfast,
                cutoff: 0,
                faults: Some(FaultSpec {
                    seed: 1,
                    count: 0,
                    window: (5, 5),
                    downtime_ns: None,
                }),
                strategy: Some(Strategy::PaperLinear),
            },
            r#"{"type":"simulate","app":{"name":"PMEMD","procs":16},"fabric":{"kind":"hfast"},"cutoff":0,"faults":{"seed":1,"count":0,"window":[5,5]},"strategy":"paper_linear"}"#,
        ),
        (
            Request::Simulate {
                app: named("LBMHD", 64),
                fabric: FabricSpec::Hfast,
                cutoff: 2048,
                faults: None,
                strategy: Some(Strategy::DemandDecomp),
            },
            r#"{"type":"simulate","app":{"name":"LBMHD","procs":64},"fabric":{"kind":"hfast"},"cutoff":2048,"strategy":"demand_decomp"}"#,
        ),
        (
            Request::Scenario {
                kind: ScenarioKind::Incast,
                nodes: 64,
                flows: None,
                bytes: None,
                seed: 0xC0DE,
                fabric: FabricSpec::FatTree { ports: 8 },
                strategy: None,
                credits: None,
            },
            r#"{"type":"scenario","kind":"incast","nodes":64,"seed":49374,"fabric":{"kind":"fattree","ports":8}}"#,
        ),
        (
            Request::Scenario {
                kind: ScenarioKind::HotSpot,
                nodes: 32,
                flows: Some(64),
                bytes: Some(65536),
                seed: 5,
                fabric: FabricSpec::Hfast,
                strategy: Some(Strategy::BffCircuit),
                credits: Some(2),
            },
            r#"{"type":"scenario","kind":"hotspot","nodes":32,"flows":64,"bytes":65536,"seed":5,"fabric":{"kind":"hfast"},"strategy":"bff_circuit","credits":2}"#,
        ),
        (
            Request::Scenario {
                kind: ScenarioKind::MultiTenant,
                nodes: 32,
                flows: Some(96),
                bytes: Some(128 << 10),
                seed: 7,
                fabric: FabricSpec::Hfast,
                strategy: Some(Strategy::DemandDecomp),
                credits: Some(2),
            },
            r#"{"type":"scenario","kind":"multi_tenant","nodes":32,"flows":96,"bytes":131072,"seed":7,"fabric":{"kind":"hfast"},"strategy":"demand_decomp","credits":2}"#,
        ),
        (
            // Optional members one at a time: only `flows` and `credits`.
            Request::Scenario {
                kind: ScenarioKind::Permutation,
                nodes: 27,
                flows: Some(1),
                bytes: None,
                seed: 0,
                fabric: FabricSpec::Torus { dims: (3, 3, 3) },
                strategy: None,
                credits: Some(u32::MAX),
            },
            r#"{"type":"scenario","kind":"permutation","nodes":27,"flows":1,"seed":0,"fabric":{"kind":"torus","x":3,"y":3,"z":3},"credits":4294967295}"#,
        ),
        (
            // …and only `bytes` and `strategy`.
            Request::Scenario {
                kind: ScenarioKind::Bursty,
                nodes: 8,
                flows: None,
                bytes: Some(1),
                seed: 1 << 52,
                fabric: FabricSpec::FatTree { ports: 4 },
                strategy: Some(Strategy::PaperLinear),
                credits: None,
            },
            r#"{"type":"scenario","kind":"bursty","nodes":8,"bytes":1,"seed":4503599627370496,"fabric":{"kind":"fattree","ports":4},"strategy":"paper_linear"}"#,
        ),
    ]
}

fn stats_resp(latency: Vec<VerbLatency>) -> Response {
    Response::Stats {
        requests: 10,
        shed: 1,
        cache_hits: 4,
        cache_misses: 6,
        cache_evictions: 0,
        cache_entries: 6,
        cache_bytes: 1234,
        sim_events: 99,
        sim_events_per_sec: 1_000_000,
        strategy_hits: [3, 2, 1],
        scenario_hits: [5, 0, 1, 2, 3],
        graphs: 5,
        fabrics: 2,
        latency,
    }
}

fn metrics_resp(verbs: Vec<VerbWindow>) -> Response {
    Response::Metrics {
        window_ns: 10_000_000_000,
        queue_depth: 3,
        cache_hits: 40,
        cache_misses: 12,
        verbs,
    }
}

/// Every `Response` variant, and the row-carrying responses with and
/// without rows.
fn response_rows() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Busy, r#"{"type":"busy"}"#),
        (Response::Ok, r#"{"type":"ok"}"#),
        (
            Response::Error {
                message: "nope".into(),
            },
            r#"{"type":"error","message":"nope"}"#,
        ),
        (
            Response::Error {
                message: "bad \"app\"\nline".into(),
            },
            r#"{"type":"error","message":"bad \"app\"\nline"}"#,
        ),
        (
            Response::Health {
                workers: 4,
                queue: 0,
            },
            r#"{"type":"health","ok":true,"workers":4,"queue":0}"#,
        ),
        (
            Response::Health {
                workers: 4,
                queue: 64,
            },
            r#"{"type":"health","ok":true,"workers":4,"queue":64}"#,
        ),
        (
            stats_resp(vec![
                VerbLatency {
                    verb: "health".into(),
                    count: 3,
                    p50_ns: 100,
                    p95_ns: 200,
                    p99_ns: 300,
                },
                VerbLatency {
                    verb: "simulate".into(),
                    count: 0,
                    p50_ns: 0,
                    p95_ns: 0,
                    p99_ns: 0,
                },
            ]),
            r#"{"type":"stats","requests":10,"shed":1,"cache_hits":4,"cache_misses":6,"cache_evictions":0,"cache_entries":6,"cache_bytes":1234,"sim_events":99,"sim_events_per_sec":1000000,"strategy_hits":{"paper_linear":3,"bff_circuit":2,"demand_decomp":1},"scenario_hits":{"incast":5,"permutation":0,"hotspot":1,"multi_tenant":2,"bursty":3},"graphs":5,"fabrics":2,"latency":[{"verb":"health","count":3,"p50_ns":100,"p95_ns":200,"p99_ns":300},{"verb":"simulate","count":0,"p50_ns":0,"p95_ns":0,"p99_ns":0}]}"#,
        ),
        (
            stats_resp(vec![]),
            r#"{"type":"stats","requests":10,"shed":1,"cache_hits":4,"cache_misses":6,"cache_evictions":0,"cache_entries":6,"cache_bytes":1234,"sim_events":99,"sim_events_per_sec":1000000,"strategy_hits":{"paper_linear":3,"bff_circuit":2,"demand_decomp":1},"scenario_hits":{"incast":5,"permutation":0,"hotspot":1,"multi_tenant":2,"bursty":3},"graphs":5,"fabrics":2,"latency":[]}"#,
        ),
        (
            metrics_resp(vec![VerbWindow {
                verb: "provision".into(),
                count: 9,
                ok: 8,
                busy: 1,
                errors: 0,
                p50_ns: 1_000,
                p95_ns: 2_000,
                p99_ns: 4_000,
            }]),
            r#"{"type":"metrics","window_ns":10000000000,"queue_depth":3,"cache_hits":40,"cache_misses":12,"verbs":[{"verb":"provision","count":9,"ok":8,"busy":1,"errors":0,"p50_ns":1000,"p95_ns":2000,"p99_ns":4000}]}"#,
        ),
        (
            metrics_resp(vec![]),
            r#"{"type":"metrics","window_ns":10000000000,"queue_depth":3,"cache_hits":40,"cache_misses":12,"verbs":[]}"#,
        ),
        (
            Response::Provisioned {
                n: 64,
                blocks: 12,
                total_block_ports: 192,
                circuit_ports: 150,
                ports_per_node: 3.0,
                max_switch_hops: 2,
            },
            r#"{"type":"provisioned","n":64,"blocks":12,"total_block_ports":192,"circuit_ports":150,"ports_per_node":3,"max_switch_hops":2}"#,
        ),
        (
            // Floats are shortest-round-trip `Display`: no exponent form,
            // no trailing `.0`, every digit that matters.
            Response::CostReport {
                hfast: 0.1 + 0.2,
                fat_tree: 1e21,
                ratio: 1e-7,
                hfast_wins: true,
                hfast_ports_per_node: 2.75,
                fat_tree_ports_per_node: 5,
            },
            r#"{"type":"cost","hfast":0.30000000000000004,"fat_tree":1000000000000000000000,"ratio":0.0000001,"hfast_wins":true,"hfast_ports_per_node":2.75,"fat_tree_ports_per_node":5}"#,
        ),
        (
            Response::TdcReport {
                rows: vec![TdcRow {
                    cutoff: 2048,
                    max: 6,
                    min: 3,
                    avg: 5.25,
                    median: 5,
                }],
            },
            r#"{"type":"tdc","rows":[{"cutoff":2048,"max":6,"min":3,"avg":5.25,"median":5}]}"#,
        ),
        (
            Response::TdcReport { rows: vec![] },
            r#"{"type":"tdc","rows":[]}"#,
        ),
        (
            Response::SimReport {
                completed: 300,
                unrouted: 2,
                abandoned: 1,
                delivered_bytes: 1 << 30,
                max_latency_ns: 81_920,
                makespan_ns: 4_230_590,
                total_retries: 17,
                reprovisions: 3,
            },
            r#"{"type":"sim","completed":300,"unrouted":2,"abandoned":1,"delivered_bytes":1073741824,"max_latency_ns":81920,"makespan_ns":4230590,"total_retries":17,"reprovisions":3}"#,
        ),
        (
            Response::ScenarioReport {
                flows: 126,
                completed: 126,
                unrouted: 0,
                makespan_ns: 4_230_590,
                p95_latency_ns: 3_000_000,
                trees: 5,
                deepest: 5,
                stall_ns: 500_414_029,
                spread: 22.75,
                off_root_victims: 228,
                max_over_mean: 51.75,
                gini: 0.8125,
            },
            r#"{"type":"scenario","flows":126,"completed":126,"unrouted":0,"makespan_ns":4230590,"p95_latency_ns":3000000,"trees":5,"deepest":5,"stall_ns":500414029,"spread":22.75,"off_root_victims":228,"max_over_mean":51.75,"gini":0.8125}"#,
        ),
    ]
}

#[test]
fn v1_request_bytes_are_pinned() {
    for (req, want) in &request_rows() {
        assert_eq!(&encode_request(req), want, "v1 encoding drifted");
        // The bytes decode back, and the decoded value re-encodes to the
        // same bytes (the cache key is canonical).
        let back = decode_request(want).expect("v1 decodes");
        assert_eq!(&back, req);
        assert_eq!(&encode_request(&back), want, "re-encoding not canonical");
    }
}

#[test]
fn v1_response_bytes_are_pinned() {
    for (resp, want) in &response_rows() {
        assert_eq!(&encode_response(resp), want, "v1 encoding drifted");
        let back = decode_response(want).expect("v1 decodes");
        assert_eq!(&back, resp);
        assert_eq!(&encode_response(&back), want, "re-encoding not canonical");
    }
}

/// The table is only a contract if it is complete: every verb and every
/// response tag has a row, every optional member appears in one row and
/// is missing from another row of the same message, and every request
/// row's tag is its verb-table name.
#[test]
fn fixture_table_covers_every_variant_and_optional_member() {
    let tag = |bytes: &str| bytes.split('"').nth(3).expect("tag").to_string();
    let requests = request_rows();
    let responses = response_rows();
    for (req, bytes) in &requests {
        assert_eq!(tag(bytes), req.endpoint(), "tag is the verb-table name");
    }
    for verb in ENDPOINTS {
        assert!(
            requests.iter().any(|(_, b)| tag(b) == verb),
            "no request row for {verb}"
        );
    }
    for resp in [
        "health",
        "stats",
        "provisioned",
        "cost",
        "tdc",
        "sim",
        "scenario",
        "metrics",
        "busy",
        "ok",
        "error",
    ] {
        assert!(
            responses.iter().any(|(_, b)| tag(b) == resp),
            "no response row for {resp}"
        );
    }
    let all: Vec<&str> = requests
        .iter()
        .map(|(_, b)| *b)
        .chain(responses.iter().map(|(_, b)| *b))
        .collect();
    for (message, member) in [
        ("provision", "strategy"),
        ("simulate", "strategy"),
        ("simulate", "faults"),
        ("simulate", "downtime_ns"),
        ("scenario", "flows"),
        ("scenario", "bytes"),
        ("scenario", "strategy"),
        ("scenario", "credits"),
    ] {
        let key = format!("\"{member}\":");
        let of_message = || all.iter().filter(|b| tag(b) == message);
        assert!(
            of_message().any(|b| b.contains(&key)),
            "{message} never carries {member}"
        );
        assert!(
            of_message().any(|b| !b.contains(&key)),
            "{message} never omits {member}"
        );
    }
}

/// Non-finite floats have no JSON form: they encode as `null`, which the
/// decoder refuses, so they are pinned here and not in the round-trip
/// table.
#[test]
fn non_finite_floats_encode_as_null() {
    let resp = Response::CostReport {
        hfast: f64::NAN,
        fat_tree: f64::INFINITY,
        ratio: f64::NEG_INFINITY,
        hfast_wins: false,
        hfast_ports_per_node: 0.0,
        fat_tree_ports_per_node: 0,
    };
    let text = encode_response(&resp);
    assert_eq!(
        text,
        r#"{"type":"cost","hfast":null,"fat_tree":null,"ratio":null,"hfast_wins":false,"hfast_ports_per_node":0,"fat_tree_ports_per_node":0}"#
    );
    assert!(decode_response(&text).is_err());
}

/// A pinned body behind a version tag: the retired v2 envelope, its
/// traced form, and a v3 from the future, each with the version its
/// refusal must name.
fn tagged(body: &str) -> [(String, u64); 3] {
    let rest = &body[1..];
    [
        (format!("{{\"v\":2,{rest}"), 2),
        (
            format!("{{\"v\":2,\"trace\":{{\"id\":\"3\",\"parent\":\"1000000000000003\"}},{rest}"),
            2,
        ),
        (format!("{{\"v\":3,{rest}"), 3),
    ]
}

/// The body object is the only envelope: every pinned row behind a
/// version tag decodes to an error naming the version, as a request and
/// as a response, so an old v2 peer fails loudly instead of reading
/// untagged replies.
#[test]
fn version_tagged_frames_are_refused_naming_the_version() {
    let rows = request_rows().into_iter().map(|(_, b)| b);
    for body in rows.chain(response_rows().into_iter().map(|(_, b)| b)) {
        for (frame, version) in tagged(body) {
            let want = format!("field \"v\": unsupported wire version {version}");
            assert_eq!(decode_request(&frame).as_ref(), Err(&want), "{frame}");
            assert_eq!(decode_response(&frame).as_ref(), Err(&want), "{frame}");
        }
    }
}

/// Over a socket, each tagged frame draws a structured, untagged `error`
/// reply, and the same connection then answers `health`.
#[test]
fn version_tagged_frames_draw_an_error_and_the_connection_survives() {
    let server = start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    for (frame, version) in tagged(&encode_request(&cost_req())) {
        let reply = raw_exchange(&mut stream, &frame);
        assert_eq!(
            reply,
            format!(
                r#"{{"type":"error","message":"field \"v\": unsupported wire version {version}"}}"#
            ),
            "{frame}"
        );
        let health = raw_exchange(&mut stream, &encode_request(&Request::Health));
        assert!(
            matches!(decode_response(&health), Ok(Response::Health { .. })),
            "after {frame}: {health}"
        );
    }
    raw_exchange(&mut stream, &encode_request(&Request::Shutdown));
    server.join();
}

/// Everything a peer's bytes reach: the frame reader, then both
/// decoders. Whatever the bytes, each answers without panicking and
/// without asking the allocator for more than one frame's worth at once,
/// and what it answers is an error or a value that encode → decode maps
/// to itself.
fn feed(bytes: &[u8]) {
    let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(bytes);
    LARGEST.set(0);
    let frame = FrameReader::new().poll(&mut Cursor::new(&framed));
    match (frame, std::str::from_utf8(bytes)) {
        (Ok(FramePoll::Frame(text)), Ok(sent)) => {
            assert_eq!(text, sent);
            if let Ok(req) = decode_request(&text) {
                let again = decode_request(&encode_request(&req));
                assert_eq!(
                    again.as_ref(),
                    Ok(&req),
                    "request not a fixed point: {text}"
                );
            }
            if let Ok(resp) = decode_response(&text) {
                let again = decode_response(&encode_response(&resp));
                assert_eq!(
                    again.as_ref(),
                    Ok(&resp),
                    "response not a fixed point: {text}"
                );
            }
        }
        (Err(FrameError::NotUtf8), Err(_)) => {}
        // Stacked nesting mutations can outgrow a frame.
        (Err(FrameError::Oversized(n)), _) if n == bytes.len() && n > MAX_FRAME_BYTES => {}
        (frame, utf8) => panic!("frame reader said {frame:?}, from_utf8 said {utf8:?}"),
    }
    let largest = LARGEST.get();
    assert!(
        largest <= MAX_FRAME_BYTES,
        "{largest}-byte allocation request for a {}-byte frame",
        bytes.len()
    );
}

/// Replacements for a number: negative, past `f64`, 2^64, 2^32 (past the
/// `u32` members), fractional, and not a number at all.
const HOSTILE_NUMBERS: [&str; 6] = [
    "-1",
    "1e400",
    "18446744073709551616",
    "4294967296",
    "1.5",
    "null",
];

/// Bytes that mean something to a JSON parser or a UTF-8 decoder.
const HOSTILE_BYTES: &[u8] = b"{}[]\",:\\-+.eE0 9tfnu\0\n\x7f\x80\xc3\xe2\xf0\xff";

/// Applies one seeded mutation to a golden frame.
fn mutate(rng: &mut Rng64, bytes: &mut Vec<u8>, donor: &[u8]) {
    let len = bytes.len();
    let start = rng.range(0, len + 1);
    let end = (start + rng.range(0, 9)).min(len);
    match rng.range(0, 7) {
        // Overwrite a span with hostile bytes.
        0 => {
            for b in &mut bytes[start..end] {
                *b = *rng.pick(HOSTILE_BYTES);
            }
        }
        // Delete a span.
        1 => drop(bytes.drain(start..end)),
        // Duplicate a span in place.
        2 => {
            let span = bytes[start..end].to_vec();
            drop(bytes.splice(start..start, span));
        }
        // Splice in a span of another golden.
        3 => {
            let from = rng.range(0, donor.len());
            let to = (from + rng.range(1, 40)).min(donor.len());
            drop(bytes.splice(start..end, donor[from..to].iter().copied()));
        }
        // Swap one number for a hostile one.
        4 => {
            let digits: Vec<usize> = (0..len)
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .collect();
            if !digits.is_empty() {
                let at = *rng.pick(&digits);
                let run = bytes[at..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                let hostile = rng.pick(&HOSTILE_NUMBERS).bytes();
                drop(bytes.splice(at..at + run, hostile));
            }
        }
        // Deepen nesting around a span (balanced)…
        5 => {
            let depth = *rng.pick(&[1, 63, 64, 65, 1_000, 100_000]);
            let (open, close) = *rng.pick(&[("[", "]"), ("{\"a\":", "}")]);
            drop(bytes.splice(end..end, close.repeat(depth).bytes()));
            drop(bytes.splice(start..start, open.repeat(depth).bytes()));
        }
        // …or just open containers and never close them.
        _ => {
            let depth = *rng.pick(&[65, 10_000, 100_000]);
            let open = *rng.pick(&["[", "{\"a\":", "[{\"type\":"]);
            drop(bytes.splice(start..end, open.repeat(depth).bytes()));
        }
    }
}

/// Mutate-the-golden: every fixture row, truncated at every offset and
/// under seeded overwrite / delete / duplicate / splice / number-swap /
/// nesting mutations, through [`feed`]; then every row behind a lying
/// length prefix.
#[test]
fn mutated_goldens_never_panic_overallocate_or_decode_inconsistently() {
    let rows: Vec<&[u8]> = request_rows()
        .iter()
        .map(|(_, b)| b.as_bytes())
        .chain(response_rows().iter().map(|(_, b)| b.as_bytes()))
        .collect();
    for row in &rows {
        for cut in 0..=row.len() {
            feed(&row[..cut]);
        }
    }
    forall("mutate the golden", 4_000, |rng| {
        let mut bytes = rng.pick(&rows).to_vec();
        for _ in 0..rng.range(1, 4) {
            let donor = *rng.pick(&rows);
            mutate(rng, &mut bytes, donor);
        }
        feed(&bytes);
    });
    // The length prefix is input too: refused before any allocation when
    // it exceeds the cap, a truncated frame when it promises more than
    // arrives, and otherwise exactly that many bytes.
    for row in &rows {
        for claimed in [
            0,
            row.len() - 1,
            row.len() + 1,
            MAX_FRAME_BYTES,
            MAX_FRAME_BYTES + 1,
            u32::MAX as usize,
        ] {
            let mut framed = (claimed as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(row);
            LARGEST.set(0);
            let got = FrameReader::new().poll(&mut Cursor::new(&framed));
            assert!(
                LARGEST.get() <= MAX_FRAME_BYTES,
                "prefix {claimed} over-allocated"
            );
            match got {
                Err(FrameError::Oversized(n)) => assert!(n == claimed && n > MAX_FRAME_BYTES),
                Err(FrameError::Truncated) => assert!(claimed > row.len()),
                Ok(FramePoll::Frame(text)) => assert_eq!(text.as_bytes(), &row[..claimed]),
                // Only a cut inside a multi-byte character.
                Err(FrameError::NotUtf8) => assert!(std::str::from_utf8(&row[..claimed]).is_err()),
                other => panic!("prefix {claimed}: unexpected {other:?}"),
            }
        }
    }
}
