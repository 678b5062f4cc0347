//! End-to-end serving integration: a real daemon on an ephemeral port, a
//! closed-loop load over 4 connections, and the daemon's serving
//! properties — no dropped or mismatched responses, a cache hit-rate
//! above 50% on the repeated mix, byte-identical digests across worker
//! counts, and a clean drain.
//!
//! Each connection is one thread running the classic closed loop: send a
//! request, block for the response, repeat. The request stream is a
//! seeded [`Rng64`] mix over a fixed pool built from the six paper
//! applications (provision, cost, TDC sweep and traffic replay per app),
//! so a seed names one exact workload; the daemon's responses are
//! deterministic, so the FNV digest folded over every response byte must
//! come out identical however many workers served it. Throughput and
//! latency under load are the benchmark's `serve_hot` and
//! `serve_compute` workloads.

use hfast_par::Rng64;
use hfast_serve::{start, AppSpec, Client, FabricSpec, Request, Response, ServerConfig};
use hfast_topology::{FNV1A, FNV_OFFSET};

/// The six paper applications (Table 2 names).
const PAPER_APPS: [&str; 6] = ["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"];
/// Concurrent closed-loop connections.
const CONNECTIONS: usize = 4;
/// Timed requests per connection.
const REQUESTS: usize = 30;
/// Mix seed: the same seed sends the same per-connection request stream.
const SEED: u64 = 0x00D1_6E57;
/// Ranks each paper app is profiled at.
const PROCS: usize = 8;

/// What a load run answered: request counts by outcome, and the digest of
/// every response byte.
#[derive(Debug, Default)]
struct LoadReport {
    /// Timed requests sent (all connections).
    sent: usize,
    /// Well-formed, non-error responses.
    ok: usize,
    /// [`Response::Busy`] load-shed answers.
    busy: usize,
    /// Structured [`Response::Error`] answers.
    errors: usize,
    /// Requests with no usable response (transport drop, decode failure).
    dropped: usize,
    /// FNV-1a digest over every response's exact bytes, folded per
    /// connection then combined in connection order — scheduling-
    /// independent, worker-count-independent.
    digest: u64,
}

/// The deterministic request pool the mix draws from: provision, cost,
/// TDC, and simulate for each paper app at `procs` ranks. Small on
/// purpose — a sustained mix revisits it, which is what exercises the
/// daemon's response cache.
fn request_pool(procs: usize) -> Vec<Request> {
    let mut pool = Vec::new();
    for name in PAPER_APPS {
        let app = AppSpec::Named {
            name: name.to_string(),
            procs,
        };
        pool.push(Request::Provision {
            app: app.clone(),
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        });
        pool.push(Request::Cost {
            app: app.clone(),
            block_ports: 16,
            cutoff: 2048,
        });
        pool.push(Request::Tdc {
            app: app.clone(),
            cutoffs: vec![0, 2048, 64 << 10],
        });
        pool.push(Request::Simulate {
            app,
            fabric: FabricSpec::FatTree { ports: 16 },
            cutoff: 2048,
            faults: None,
            strategy: None,
        });
    }
    pool
}

/// One connection's closed loop: `REQUESTS` seeded draws from `pool`.
fn run_connection(addr: &str, pool: &[Request], mut rng: Rng64) -> LoadReport {
    let mut out = LoadReport {
        sent: REQUESTS,
        digest: FNV_OFFSET,
        ..LoadReport::default()
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.dropped = REQUESTS;
        return out;
    };
    for _ in 0..REQUESTS {
        let req = &pool[rng.range(0, pool.len())];
        match client.call_text(req) {
            Ok((resp, raw)) => {
                out.digest = FNV1A.bytes(out.digest, raw.as_bytes());
                match resp {
                    Response::Busy => out.busy += 1,
                    Response::Error { .. } => out.errors += 1,
                    _ => out.ok += 1,
                }
            }
            Err(_) => {
                // The stream is broken; everything else this connection
                // would have sent is lost too.
                out.dropped = REQUESTS - (out.ok + out.busy + out.errors);
                break;
            }
        }
    }
    out
}

/// Sends the whole pool once untimed (pricing profiling and fabric
/// construction out of the mix), then drives `addr` with the closed-loop
/// load.
fn run_load(addr: &str) -> LoadReport {
    let pool = request_pool(PROCS);
    if let Ok(mut warm) = Client::connect(addr) {
        for req in &pool {
            let _ = warm.call_text(req);
        }
    }
    let outcomes: Vec<LoadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let rng = Rng64::new(
                    SEED.wrapping_add((conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let pool = &pool;
                s.spawn(move || run_connection(addr, pool, rng))
            })
            .collect();
        // Join in spawn order: the combined digest must not depend on
        // which connection finished first.
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut total = LoadReport {
        digest: FNV_OFFSET,
        ..LoadReport::default()
    };
    for o in &outcomes {
        total.digest = FNV1A.bytes(total.digest, &o.digest.to_be_bytes());
        total.sent += o.sent;
        total.ok += o.ok;
        total.busy += o.busy;
        total.errors += o.errors;
        total.dropped += o.dropped;
    }
    total
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

/// Runs one daemon with `workers` workers under the standard load; the
/// returned digest summarizes every response byte. Asserts the run was
/// clean and the drain completed.
fn digest_with_workers(workers: usize) -> u64 {
    let server = start("127.0.0.1:0", server_config(workers)).expect("bind");
    let addr = server.local_addr().to_string();
    let report = run_load(&addr);
    assert_eq!(
        report.dropped, 0,
        "dropped responses with {workers} workers"
    );
    assert_eq!(report.errors, 0, "error responses with {workers} workers");
    assert_eq!(report.busy, 0, "load was shed with {workers} workers");
    assert_eq!(
        report.ok, report.sent,
        "every sent request got a well-formed response"
    );

    // The warmed-up mix revisits a 24-request pool, so most lookups hit.
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats {
            cache_hits,
            cache_misses,
            ..
        } => assert!(
            cache_hits > cache_misses,
            "hit-rate should exceed 50%: {cache_hits} hits vs {cache_misses} misses"
        ),
        other => panic!("expected Stats, got {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown");
    drop(client);
    server.join(); // a hang here (test timeout) means drain broke
    report.digest
}

#[test]
fn four_connection_load_is_clean_and_worker_count_invariant() {
    let single = digest_with_workers(1);
    let pooled = digest_with_workers(8);
    assert_eq!(
        single, pooled,
        "same seed must produce byte-identical responses with 1 and 8 workers"
    );
}

#[test]
fn same_seed_same_digest_across_runs() {
    let a = digest_with_workers(4);
    let b = digest_with_workers(4);
    assert_eq!(a, b, "identical runs must produce identical digests");
}

#[test]
fn pool_covers_every_app_and_endpoint() {
    let pool = request_pool(PROCS);
    assert_eq!(pool.len(), PAPER_APPS.len() * 4);
    assert!(pool.iter().all(Request::cacheable));
}

#[test]
fn fnv_fold_distinguishes_order() {
    let a = FNV1A.bytes(FNV1A.bytes(FNV_OFFSET, b"one"), b"two");
    let b = FNV1A.bytes(FNV1A.bytes(FNV_OFFSET, b"two"), b"one");
    assert_ne!(a, b);
}
