//! End-to-end serving integration: a real daemon on an ephemeral port,
//! the closed-loop load generator over ≥4 connections, and the PR's
//! acceptance properties — no dropped or mismatched responses, a cache
//! hit-rate above 50% on the repeated mix, byte-identical digests across
//! worker counts, and a clean drain.

use hfast_bench::{run_load, LoadConfig};
use hfast_serve::{start, Client, Request, Response, ServerConfig};

fn test_load() -> LoadConfig {
    LoadConfig {
        connections: 4,
        requests_per_connection: 30,
        seed: 0x00D1_6E57,
        procs: 8,
        warmup: true,
    }
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
    let report = run_load(&addr, &test_load());
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
