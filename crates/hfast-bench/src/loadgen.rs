//! Closed-loop load generator for the `hfast-serve` daemon.
//!
//! Each connection is one thread running the classic closed loop: send a
//! request, block for the response, repeat. The request stream is a
//! seeded [`Rng64`] mix over a fixed pool built from the six paper
//! applications (provision, cost, TDC sweep, and traffic replay per
//! app), so a `(seed, connections, requests)` triple names one exact
//! workload — and because the daemon's responses are deterministic, the
//! FNV digest folded over every response byte must come out identical no
//! matter how many workers served it.

use std::time::Instant;

use hfast_obs::Histogram;
use hfast_par::Rng64;
use hfast_serve::{AppSpec, Client, FabricSpec, Request, Response};
use hfast_topology::{FNV1A, FNV_OFFSET};

/// The six paper applications (Table 2 names).
pub(crate) const PAPER_APPS: [&str; 6] = ["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"];

/// Load shape: how many connections, how much work, which seed.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Timed requests per connection.
    pub requests_per_connection: usize,
    /// Mix seed (same seed, same per-connection request stream).
    pub seed: u64,
    /// Ranks to profile each paper app at (pool dimension).
    pub procs: usize,
    /// Send the whole pool once, untimed, before the measured phase —
    /// prices profiling and fabric construction out of the latencies.
    pub warmup: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            requests_per_connection: 50,
            seed: 0x10AD_5EED,
            procs: 8,
            warmup: true,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Timed requests sent (all connections).
    pub sent: usize,
    /// Well-formed, non-error responses.
    pub ok: usize,
    /// [`Response::Busy`] load-shed answers.
    pub busy: usize,
    /// Structured [`Response::Error`] answers.
    pub errors: usize,
    /// Requests with no usable response (transport drop, decode failure).
    pub dropped: usize,
    /// FNV-1a digest over every response's exact bytes, folded per
    /// connection then combined in connection order — scheduling-
    /// independent, worker-count-independent.
    pub digest: u64,
    /// Wall time of the measured phase, nanoseconds.
    pub elapsed_ns: u64,
    /// Completed responses per wall-clock second.
    pub throughput_rps: f64,
    /// Median request latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile request latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
}

/// The deterministic request pool the mix draws from: provision, cost,
/// TDC, and simulate for each paper app at `procs` ranks. Small on
/// purpose — a sustained mix revisits it, which is what exercises (and
/// proves out) the daemon's response cache.
pub(crate) fn request_pool(procs: usize) -> Vec<Request> {
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

struct ConnOutcome {
    digest: u64,
    ok: usize,
    busy: usize,
    errors: usize,
    dropped: usize,
}

fn run_connection(
    addr: &str,
    pool: &[Request],
    requests: usize,
    mut rng: Rng64,
    hist: &Histogram,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        digest: FNV_OFFSET,
        ok: 0,
        busy: 0,
        errors: 0,
        dropped: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.dropped = requests;
        return out;
    };
    for _ in 0..requests {
        let req = &pool[rng.range(0, pool.len())];
        let t = Instant::now();
        match client.call_text(req) {
            Ok((resp, raw)) => {
                hist.record(t.elapsed().as_nanos() as u64);
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
                out.dropped += requests - (out.ok + out.busy + out.errors + out.dropped);
                break;
            }
        }
    }
    out
}

/// Drives `addr` with the configured closed-loop load and reports.
pub fn run_load(addr: &str, config: &LoadConfig) -> LoadReport {
    let pool = request_pool(config.procs);
    if config.warmup {
        if let Ok(mut warm) = Client::connect(addr) {
            for req in &pool {
                let _ = warm.call_text(req);
            }
        }
    }
    let hist = Histogram::new();
    let started = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.connections)
            .map(|conn| {
                let rng = Rng64::new(
                    config
                        .seed
                        .wrapping_add((conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let (pool, hist) = (&pool, &hist);
                s.spawn(move || {
                    run_connection(addr, pool, config.requests_per_connection, rng, hist)
                })
            })
            .collect();
        // Join in spawn order: the combined digest must not depend on
        // which connection finished first.
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed_ns = started.elapsed().as_nanos().max(1) as u64;
    let mut digest = FNV_OFFSET;
    let (mut ok, mut busy, mut errors, mut dropped) = (0, 0, 0, 0);
    for o in &outcomes {
        digest = FNV1A.bytes(digest, &o.digest.to_be_bytes());
        ok += o.ok;
        busy += o.busy;
        errors += o.errors;
        dropped += o.dropped;
    }
    let answered = (ok + busy + errors) as f64;
    LoadReport {
        sent: config.connections * config.requests_per_connection,
        ok,
        busy,
        errors,
        dropped,
        digest,
        elapsed_ns,
        throughput_rps: answered / (elapsed_ns as f64 / 1e9),
        p50_ns: hist.quantile(0.50),
        p95_ns: hist.quantile(0.95),
        p99_ns: hist.quantile(0.99),
    }
}

impl LoadReport {
    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        format!(
            "sent        {:>10}\n\
             ok          {:>10}\n\
             busy        {:>10}\n\
             errors      {:>10}\n\
             dropped     {:>10}\n\
             digest      {:>#18x}\n\
             elapsed     {:>10.1} ms\n\
             throughput  {:>10.1} req/s\n\
             p50         {:>10.3} ms\n\
             p95         {:>10.3} ms\n\
             p99         {:>10.3} ms",
            self.sent,
            self.ok,
            self.busy,
            self.errors,
            self.dropped,
            self.digest,
            self.elapsed_ns as f64 / 1e6,
            self.throughput_rps,
            self.p50_ns as f64 / 1e6,
            self.p95_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_covers_every_app_and_endpoint() {
        let pool = request_pool(8);
        assert_eq!(pool.len(), PAPER_APPS.len() * 4);
        assert!(pool.iter().all(Request::cacheable));
    }

    #[test]
    fn fnv_fold_distinguishes_order() {
        let a = FNV1A.bytes(FNV1A.bytes(FNV_OFFSET, b"one"), b"two");
        let b = FNV1A.bytes(FNV1A.bytes(FNV_OFFSET, b"two"), b"one");
        assert_ne!(a, b);
    }
}
