//! Soak monitor: sustained load with live SLO assertions.
//!
//! A smoke test proves a server answers; a soak proves it *keeps*
//! answering. [`run_soak`] drives a caller-chosen request pool at a
//! target — one daemon or a fleet router, both speak `metrics` — for a
//! wall-clock budget while a monitor polls the `metrics` verb on its own
//! connection, asserting service-level objectives as the run unfolds:
//!
//! - **zero digest divergence** — every response must byte-match the
//!   warmup pass (the pool must be pure, so any drift is a serving bug);
//! - **p99 ceiling** — the rolling p99 the target reports for the pool's
//!   verbs must stay under the configured bound on every poll;
//! - **liveness** — the monitor must land at least one poll, the loaders
//!   must serve, and no loader may lose its connection.
//!
//! Every poll appends one JSON line (elapsed ms, responses served so far
//! and the raw canonical `metrics` response) to the report's timeline, so
//! a soak leaves an auditable telemetry record, not just a pass/fail bit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hfast_obs::JsonObj;

use crate::client::Client;
use crate::protocol::{Request, Response};

/// Soak shape: how long, how hard, and what to demand.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Wall-clock budget for the loaded phase.
    pub duration: Duration,
    /// How often the monitor polls the `metrics` verb.
    pub poll_interval: Duration,
    /// Concurrent closed-loop loader connections. Loader `c` cycles the
    /// pool from offset `c · len / connections`, so the mix is the pool
    /// itself, in a fixed order.
    pub connections: usize,
    /// Rolling p99 bound, nanoseconds, asserted on every poll over the
    /// pool's verbs.
    pub p99_ceiling_ns: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            duration: Duration::from_secs(20),
            poll_interval: Duration::from_millis(500),
            connections: 4,
            p99_ceiling_ns: 500_000_000, // generous: a loaded CI box, not prod
        }
    }
}

/// What a soak observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Responses served across all loaders.
    pub served: u64,
    /// Responses whose bytes differed from the warmup baseline.
    pub divergence: u64,
    /// Load-shed ([`Response::Busy`]) answers.
    pub busy: u64,
    /// Structured error answers.
    pub errors: u64,
    /// Metrics polls the monitor landed.
    pub polls: u64,
    /// Worst rolling p99 any poll reported over the pool verbs, ns.
    pub worst_p99_ns: u64,
    /// One JSON line per poll: `{"t_ms":…,"served":…,"metrics":{…}}`.
    pub timeline: Vec<String>,
    /// Human-readable SLO violations; empty means the soak passed.
    pub slo_violations: Vec<String>,
}

impl SoakReport {
    /// Did every service-level objective hold?
    pub fn passed(&self) -> bool {
        self.slo_violations.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        format!(
            "served      {:>10}\n\
             divergence  {:>10}\n\
             busy        {:>10}\n\
             errors      {:>10}\n\
             polls       {:>10}\n\
             worst p99   {:>10.3} ms\n\
             slo         {:>10}",
            self.served,
            self.divergence,
            self.busy,
            self.errors,
            self.polls,
            self.worst_p99_ns as f64 / 1e6,
            if self.passed() { "pass" } else { "FAIL" },
        )
    }
}

/// Worst rolling p99 across `verbs` in one `metrics` snapshot (rows that
/// served nothing don't count).
fn snapshot_p99(resp: &Response, verbs: &[&str]) -> u64 {
    let Response::Metrics { verbs: rows, .. } = resp else {
        return 0;
    };
    rows.iter()
        .filter(|row| verbs.contains(&row.verb.as_str()) && row.count > 0)
        .map(|row| row.p99_ns)
        .max()
        .unwrap_or(0)
}

/// Soaks `addr` under a closed loop over `pool` for `config.duration`,
/// polling rolling metrics and asserting SLOs. Never panics on a
/// violation; read [`SoakReport::slo_violations`] (or
/// [`SoakReport::passed`]).
///
/// # Panics
/// When `pool` is empty.
pub fn run_soak(addr: &str, pool: &[Request], config: &SoakConfig) -> SoakReport {
    assert!(!pool.is_empty(), "a soak needs a request pool");
    let verbs: Vec<&str> = pool.iter().map(Request::endpoint).collect();

    // Warmup pass doubles as the byte oracle: the pool is pure, so
    // every later response must match these bytes exactly.
    let mut violations = Vec::new();
    let mut expected = Vec::with_capacity(pool.len());
    match Client::connect(addr) {
        Ok(mut warm) => {
            for req in pool {
                match warm.call_text(req) {
                    Ok((_, text)) => expected.push(text),
                    Err(e) => {
                        violations.push(format!("warmup call failed: {e}"));
                        break;
                    }
                }
            }
        }
        Err(e) => violations.push(format!("warmup connect {addr}: {e}")),
    }
    if expected.len() != pool.len() {
        return SoakReport {
            served: 0,
            divergence: 0,
            busy: 0,
            errors: 0,
            polls: 0,
            worst_p99_ns: 0,
            timeline: Vec::new(),
            slo_violations: violations,
        };
    }

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let divergence = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + config.duration;

    let (timeline, polls, worst_p99) = std::thread::scope(|s| {
        let loaders: Vec<_> = (0..config.connections)
            .map(|conn| {
                let (expected, stop, served, divergence, busy, errors) =
                    (&expected, &stop, &served, &divergence, &busy, &errors);
                // Each loader returns its first failure, if any.
                s.spawn(move || -> Option<String> {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return Some(format!("loader {conn} connect: {e}")),
                    };
                    let mut i = conn * pool.len() / config.connections;
                    while !stop.load(Ordering::Relaxed) {
                        let (resp, text) = match client.call_text(&pool[i]) {
                            Ok(out) => out,
                            Err(e) => return Some(format!("loader {conn} call: {e}")),
                        };
                        served.fetch_add(1, Ordering::Relaxed);
                        let tally = match resp {
                            Response::Busy => Some(busy),
                            Response::Error { .. } => Some(errors),
                            _ if text != expected[i] => Some(divergence),
                            _ => None,
                        };
                        if let Some(tally) = tally {
                            tally.fetch_add(1, Ordering::Relaxed);
                        }
                        i = (i + 1) % pool.len();
                    }
                    None
                })
            })
            .collect();

        // The monitor runs on the scope's own thread: poll, record,
        // assert, until the budget expires — then stop the loaders.
        let mut timeline = Vec::new();
        let mut polls = 0u64;
        let mut worst_p99 = 0u64;
        let mut monitor = Client::connect(addr).ok();
        while Instant::now() < deadline {
            std::thread::sleep(
                config
                    .poll_interval
                    .min(deadline.saturating_duration_since(Instant::now())),
            );
            let Some(client) = monitor.as_mut() else {
                break;
            };
            match client.call_text(&Request::Metrics) {
                Ok((resp, raw)) => {
                    polls += 1;
                    worst_p99 = worst_p99.max(snapshot_p99(&resp, &verbs));
                    timeline.push(
                        JsonObj::new()
                            .u64("t_ms", started.elapsed().as_millis() as u64)
                            .u64("served", served.load(Ordering::Relaxed))
                            .raw("metrics", &raw)
                            .finish(),
                    );
                }
                Err(_) => monitor = Client::connect(addr).ok(), // ride restarts
            }
        }
        stop.store(true, Ordering::Relaxed);
        for loader in loaders {
            match loader.join() {
                Ok(None) => {}
                Ok(Some(e)) => violations.push(e),
                Err(_) => violations.push("a loader panicked".into()),
            }
        }
        (timeline, polls, worst_p99)
    });

    let mut out = SoakReport {
        served: served.load(Ordering::Relaxed),
        divergence: divergence.load(Ordering::Relaxed),
        busy: busy.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        polls,
        worst_p99_ns: worst_p99,
        timeline,
        slo_violations: violations,
    };
    if out.divergence != 0 {
        out.slo_violations.push(format!(
            "{} responses diverged from the warmup bytes",
            out.divergence
        ));
    }
    if out.polls == 0 {
        out.slo_violations
            .push("monitor landed zero metrics polls".into());
    }
    if out.served == 0 {
        out.slo_violations.push("loaders served nothing".into());
    }
    if out.worst_p99_ns > config.p99_ceiling_ns {
        out.slo_violations.push(format!(
            "rolling p99 {:.1} ms breached the {:.1} ms ceiling",
            out.worst_p99_ns as f64 / 1e6,
            config.p99_ceiling_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, TcpStream};

    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::protocol::{encode_request, AppSpec};
    use crate::server::{start, ServerConfig};

    fn pool() -> Vec<Request> {
        let mut pool = Vec::new();
        for name in ["Cactus", "GTC"] {
            let app = AppSpec::Named {
                name: name.into(),
                procs: 4,
            };
            pool.push(Request::Provision {
                app: app.clone(),
                block_ports: 16,
                cutoff: 2048,
                strategy: None,
            });
            pool.push(Request::Tdc {
                app,
                cutoffs: vec![0, 2048],
            });
        }
        pool
    }

    #[test]
    fn short_soak_passes_against_a_live_daemon() {
        let server = start("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let config = SoakConfig {
            duration: Duration::from_millis(1200),
            poll_interval: Duration::from_millis(150),
            connections: 2,
            ..SoakConfig::default()
        };
        let report = run_soak(&addr, &pool(), &config);
        assert!(report.passed(), "violations: {:?}", report.slo_violations);
        assert!(report.served > 0);
        assert_eq!(report.divergence, 0);
        assert!(report.polls >= 1);
        assert_eq!(report.timeline.len(), report.polls as usize);
        // Timeline lines are well-formed single JSON objects.
        for line in &report.timeline {
            assert!(line.starts_with("{\"t_ms\":"), "bad line {line}");
            assert!(line.contains(",\"served\":"), "bad line {line}");
            assert!(line.contains("\"metrics\":{"), "bad line {line}");
        }
        let mut c = Client::connect(&addr).expect("connect");
        c.call(&Request::Shutdown).expect("drain");
        server.join();
    }

    #[test]
    fn impossible_ceiling_is_reported_not_panicked() {
        let server = start("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        let config = SoakConfig {
            duration: Duration::from_millis(600),
            poll_interval: Duration::from_millis(100),
            connections: 1,
            p99_ceiling_ns: 1, // nothing real serves in a nanosecond
        };
        let report = run_soak(&addr, &pool(), &config);
        assert!(!report.passed(), "1 ns p99 ceiling cannot hold");
        let mut c = Client::connect(&addr).expect("connect");
        c.call(&Request::Shutdown).expect("drain");
        server.join();
    }

    /// Answers `metrics` with a pinned wire body for as long as the peer
    /// asks, and hangs up after the second frame of any other kind.
    fn hang_up_after_two_frames(mut stream: TcpStream) {
        const METRICS: &str = r#"{"type":"metrics","window_ns":10000000000,"shards":2,"queue_depth":3,"cache_hits":40,"cache_misses":12,"jobs_pending":1,"jobs_retried":2,"hot_keys":1,"verbs":[{"verb":"provision","count":9,"ok":8,"busy":1,"errors":0,"p50_ns":1000,"p95_ns":2000,"p99_ns":4000}]}"#;
        let metrics = encode_request(&Request::Metrics);
        let mut other = 0;
        while let Ok(payload) = read_frame(&mut stream) {
            let reply = if payload == metrics {
                METRICS
            } else {
                other += 1;
                r#"{"type":"ok"}"#
            };
            if write_frame(&mut stream, reply).is_err() || other == 2 {
                return;
            }
        }
    }

    /// A loader that loses its connection is an SLO violation, even when
    /// the warmup, the monitor and the byte oracle are all content.
    #[test]
    fn loaders_that_lose_their_connection_fail_the_soak() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake target");
        listener.set_nonblocking(true).expect("nonblocking accept");
        let addr = listener.local_addr().expect("fake addr").to_string();
        let done = AtomicBool::new(false);
        // Two requests: the warmup pass fits in the two frames a
        // connection gets before the hang-up.
        let pool = vec![Request::Health, Request::Health];
        let config = SoakConfig {
            duration: Duration::from_millis(600),
            poll_interval: Duration::from_millis(100),
            connections: 2,
            ..SoakConfig::default()
        };
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::scope(|conns| {
                    while !done.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                stream.set_nonblocking(false).expect("blocking stream");
                                conns.spawn(move || hang_up_after_two_frames(stream));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                });
            });
            let report = run_soak(&addr, &pool, &config);
            done.store(true, Ordering::Relaxed);
            report
        });
        assert!(report.served > 0, "the loaders got their two frames");
        assert!(report.polls >= 1, "the monitor kept polling");
        let lost: Vec<_> = report
            .slo_violations
            .iter()
            .filter(|v| v.starts_with("loader "))
            .collect();
        assert_eq!(lost.len(), 2, "violations: {:?}", report.slo_violations);
    }
}
