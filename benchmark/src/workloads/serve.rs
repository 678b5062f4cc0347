//! `serve_hot` and `serve_compute`: the daemon under a closed loop.
//!
//! Callers of `hfast-serve` are schedulers that wait for the reply, hence
//! a closed loop: 2 connections over loopback TCP, one generator thread
//! each, against an in-process `start("127.0.0.1:0",
//! ServerConfig::default())`. One op and one call is one request
//! round-trip.
//!
//! * `serve_hot` draws from 24 warmed requests (provision / cost / tdc /
//!   simulate × six apps, P=64): ~100 % response-cache hits, so frame +
//!   protocol + cache + connection threads are the whole cost.
//! * `serve_compute` makes every request distinct (0 % hits): tdc /
//!   provision / cost with per-request cutoffs, `simulate` on fat tree and
//!   HFAST with a per-request fault seed (the fabric key stays constant,
//!   so the registry holds 12 fabrics), and `simulate` of a seeded inline
//!   64-node graph on HFAST (a new fabric per request — the "new job
//!   arrives" path). Request ids continue across passes, so nothing is
//!   ever a hit.

use std::net::SocketAddr;

use hfast_serve::{
    decode_request, decode_response, encode_request, encode_response, execute, read_frame,
    request_key, start, write_frame, AppSpec, Client, FabricSpec, FaultSpec, Registry, Request,
    Response, ResponseCache, ServerConfig, ServerHandle,
};

use super::{PassOutput, Probes, Recorder, Rng, Workload};
use crate::spans::Spans;
use crate::stats::{percentile, sorted_us, tail_percentile, Fnv};

pub const CONNECTIONS: usize = 2;
const APPS: [&str; 6] = ["Cactus", "LBMHD", "GTC", "SuperLU", "PMEMD", "PARATEC"];
const PROCS: usize = 64;
const INLINE_NODES: usize = 64;
/// `serve_compute` request types: eleven kind slots × six apps.
const COMPUTE_TYPES: usize = KIND_SLOTS * APPS.len();
/// Ids below this warm `serve_compute`'s registry, one per request type.
const WARM_IDS: u64 = COMPUTE_TYPES as u64;
/// Requests the replica runs per layer pass on `serve_hot`.
const HOT_REPLICA_REQUESTS: usize = 20_000;
/// Responses of the last pass re-derived in process by the output check.
const COMPUTE_CHECKED: usize = 150;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Hot,
    Compute,
}

impl Variant {
    /// Requests per connection per pass: a pass of 1–2 s.
    pub fn per_connection(self) -> usize {
        match self {
            Variant::Hot => 100_000,
            Variant::Compute => 8 * COMPUTE_TYPES,
        }
    }
}

fn named(app: usize) -> AppSpec {
    AppSpec::Named {
        name: APPS[app].to_string(),
        procs: PROCS,
    }
}

/// `serve_compute` kinds come in eleven slots: tdc holds four, provision
/// and cost two each, the three simulate kinds one each. With every
/// (slot, app) pair sent equally often, the median request is a
/// light-app provision/cost (36–61 % of the sorted pass) and p90 a faulted
/// replay, each well inside its group rather than on an edge.
const KIND_SLOTS: usize = 11;

#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub variant: Variant,
    seed: u64,
    /// `serve_hot`: the 24 requests every draw comes from.
    pub pool: Vec<Request>,
    /// `serve_compute`: per connection, the request type of each call of a
    /// pass — every type equally often, in seeded order, the same every
    /// pass (the ids, and so the requests, move on).
    types: Vec<Vec<u8>>,
}

impl Plan {
    pub fn new(variant: Variant, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x7365_7276);
        let mut pool = Vec::new();
        if variant == Variant::Hot {
            // Seeded cutoffs keep the pool's work the same for every seed
            // while its bytes (and so its cache keys) differ.
            let cutoff = rng.range(2048, 4096);
            for app in 0..APPS.len() {
                pool.push(Request::Provision {
                    app: named(app),
                    block_ports: 16,
                    cutoff,
                    strategy: None,
                });
                pool.push(Request::Cost {
                    app: named(app),
                    block_ports: 16,
                    cutoff,
                });
                pool.push(Request::Tdc {
                    app: named(app),
                    cutoffs: vec![0, cutoff, 64 << 10],
                });
                pool.push(Request::Simulate {
                    app: named(app),
                    fabric: FabricSpec::FatTree { ports: 16 },
                    cutoff,
                    faults: None,
                    strategy: None,
                });
            }
        }
        let mut types = Vec::new();
        if variant == Variant::Compute {
            for _ in 0..CONNECTIONS {
                let mut order: Vec<u8> = (0..variant.per_connection())
                    .map(|i| (i % COMPUTE_TYPES) as u8)
                    .collect();
                rng.shuffle(&mut order);
                types.push(order);
            }
        }
        Plan {
            variant,
            seed: rng.next_u64(),
            pool,
            types,
        }
    }

    /// `serve_hot`: the pool indexes connection `conn` draws in a pass —
    /// the same every pass, so the pass digest repeats.
    fn draws(&self, conn: usize) -> Vec<u8> {
        let mut rng = Rng::new(self.seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9));
        (0..self.variant.per_connection())
            .map(|_| rng.below(self.pool.len() as u64) as u8)
            .collect()
    }

    /// `serve_compute`: request number `id`. Its type follows from the id's
    /// place in a pass; its parameters from the id itself, folded into a
    /// cutoff, a fault seed, or an edge weight — so no two ids yield the
    /// same request.
    pub fn compute_request(&self, id: u64) -> Request {
        let mut rng = Rng::new(self.seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let kind = match id.checked_sub(WARM_IDS) {
            None => id as usize,
            Some(k) => {
                let per = self.variant.per_connection() as u64;
                let conn = (k / per) as usize % CONNECTIONS;
                usize::from(self.types[conn][(k % per) as usize])
            }
        };
        let (kind, app) = (kind / APPS.len(), kind % APPS.len());
        let simulate = |app, fabric, faults| Request::Simulate {
            app,
            fabric,
            cutoff: 2048,
            faults,
            strategy: None,
        };
        let outage = |seed| {
            Some(FaultSpec {
                seed,
                count: 4,
                window: (0, 50_000),
                downtime_ns: Some(20_000),
            })
        };
        match kind {
            0..=3 => Request::Tdc {
                app: named(app),
                cutoffs: vec![0, 512, 1024 + id, 1 << 20, (1 << 21) + rng.below(1 << 20)],
            },
            4 | 5 => Request::Provision {
                app: named(app),
                block_ports: 16,
                cutoff: 1024 + id,
                strategy: None,
            },
            6 | 7 => Request::Cost {
                app: named(app),
                block_ports: 16,
                cutoff: 1024 + id,
            },
            8 => simulate(named(app), FabricSpec::FatTree { ports: 16 }, outage(id)),
            9 => simulate(named(app), FabricSpec::Hfast, outage(id)),
            _ => simulate(inline_graph(&mut rng, id), FabricSpec::Hfast, None),
        }
    }

    /// `serve_compute`: id of request `i` of connection `conn` in pass
    /// `pass`.
    fn compute_id(&self, pass: u64, conn: usize, i: usize) -> u64 {
        let per = self.variant.per_connection() as u64;
        WARM_IDS + (pass * CONNECTIONS as u64 + conn as u64) * per + i as u64
    }

    /// The op list's canonical bytes. `serve_hot`: the encoded pool, then
    /// each connection's draws (every pass sends the same list).
    /// `serve_compute`: the encoded requests of the first `passes` passes.
    pub fn bytes(&self, passes: u64) -> Vec<u8> {
        let mut out = Vec::new();
        match self.variant {
            Variant::Hot => {
                for req in &self.pool {
                    out.extend_from_slice(encode_request(req).as_bytes());
                }
                for conn in 0..CONNECTIONS {
                    out.extend_from_slice(&self.draws(conn));
                }
            }
            Variant::Compute => {
                for pass in 0..passes {
                    for conn in 0..CONNECTIONS {
                        for i in 0..self.variant.per_connection() {
                            let req = self.compute_request(self.compute_id(pass, conn, i));
                            out.extend_from_slice(encode_request(&req).as_bytes());
                        }
                    }
                }
            }
        }
        out
    }
}

/// A ring plus seeded chords over `INLINE_NODES` tasks, every edge above
/// the 2 KiB cutoff; the first edge's byte count carries the id.
fn inline_graph(rng: &mut Rng, id: u64) -> AppSpec {
    let n = INLINE_NODES;
    let mut edges: Vec<(usize, usize, u64, u64, u64)> = (0..n)
        .map(|a| (a, (a + 1) % n, 1 << 20, 16, 64 << 10))
        .collect();
    edges[0].2 += id;
    for _ in 0..n {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a != b {
            edges.push((a, b, (64 << 10) + rng.below(1 << 16), 4, 16 << 10));
        }
    }
    AppSpec::Inline { n, edges }
}

/// What one generator thread brings back from a pass.
struct ConnResult {
    lat_ns: Vec<u64>,
    digest: u64,
    failed: u64,
    errors: u64,
    /// FNV of each response's bytes, in send order.
    responses: Vec<u64>,
}

/// The in-process copy of the request path that the traced pass runs.
struct Replica {
    registry: Registry,
    cache: ResponseCache,
    buf: Vec<u8>,
    /// Requests served so far (continues `serve_compute`'s ids).
    served: u64,
}

impl Replica {
    fn new() -> Replica {
        let config = ServerConfig::default();
        Replica {
            registry: Registry::new(),
            cache: ResponseCache::new(config.cache_shards, config.cache_bytes),
            buf: Vec::new(),
            served: 0,
        }
    }

    /// Takes the payload by value so that freeing it falls inside the span,
    /// as it does inside the daemon's stage.
    fn frame(&mut self, sp: &mut Spans, payload: String) -> String {
        let buf = &mut self.buf;
        sp.time("serve.frame_us", move || {
            buf.clear();
            write_frame(buf, &payload).expect("write to a Vec");
            read_frame(&mut buf.as_slice()).expect("frame just written")
        })
    }

    /// One request through every stage the daemon runs, in its order.
    fn serve(&mut self, sp: &mut Spans, req: &Request) -> String {
        let text = sp.time("serve.encode_req_us", || encode_request(req));
        let payload = self.frame(sp, text);
        let req = sp
            .time("serve.decode_req_us", move || decode_request(&payload))
            .expect("request just encoded");
        let key = sp.time("serve.key_us", || request_key(&encode_request(&req)));
        let hit = sp.time("serve.cache_get_us", || self.cache.get(key));
        let body = hit.unwrap_or_else(|| {
            let span = match req {
                Request::Tdc { .. } => "serve.execute_us.tdc",
                Request::Provision { .. } => "serve.execute_us.provision",
                Request::Cost { .. } => "serve.execute_us.cost",
                _ => "serve.execute_us.simulate",
            };
            let resp = sp.time(span, || execute(&req, &self.registry));
            let body = sp.time("serve.encode_resp_us", move || encode_response(&resp));
            sp.time("serve.cache_put_us", || self.cache.put(key, &body));
            body
        });
        let raw = self.frame(sp, body);
        sp.time("serve.decode_resp_us", || decode_response(&raw).map(drop))
            .expect("response just encoded");
        raw
    }
}

pub struct Serve {
    plan: Plan,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    draws: Vec<Vec<u8>>,
    /// Socket passes run so far (continues `serve_compute`'s ids).
    passes: u64,
    last_responses: Vec<Vec<u64>>,
    last_socket_p50_us: f64,
    last_socket_tail_us: f64,
    last_errors: u64,
    replica: Option<Replica>,
    replica_p50_us: f64,
}

impl Serve {
    /// Starts the daemon, opens the connections, and sends every warm-up
    /// request once: the six kernels get profiled, the constant-key
    /// fabrics built, and (`serve_hot`) the response cache filled.
    ///
    /// The first requests go out together, one app per worker. Profiling
    /// leaves ~29 MB in the allocator arena of the worker that ran it, so
    /// sent one by one `peak_rss_mb` depended on how many distinct workers
    /// happened to pick them up (100 or 123 MB run to run). This way every
    /// worker has profiled once, as in a daemon that has been up a while.
    pub fn setup(variant: Variant, seed: u64) -> Serve {
        let plan = Plan::new(variant, seed);
        let config = ServerConfig::default();
        let workers = config.workers.min(APPS.len());
        let server = start("127.0.0.1:0", config).expect("bind loopback");
        let addr: SocketAddr = server.local_addr();
        let connect = || Client::connect(addr).expect("connect to own daemon");
        let warm_up = |client: &mut Client, req: &Request| {
            let resp = client.call(req).expect("warm-up call");
            assert!(
                !matches!(resp, Response::Busy | Response::Error { .. }),
                "warm-up request refused: {resp:?}"
            );
        };
        let warm: Vec<Request> = match variant {
            Variant::Hot => plan.pool.clone(),
            Variant::Compute => (0..WARM_IDS).map(|id| plan.compute_request(id)).collect(),
        };
        // Both lists are ordered so that app `a`'s first request sits here.
        let first_of = |app: usize| match variant {
            Variant::Hot => &warm[app * (warm.len() / APPS.len())],
            Variant::Compute => &warm[app],
        };
        std::thread::scope(|scope| {
            for app in 0..workers {
                scope.spawn(move || warm_up(&mut connect(), first_of(app)));
            }
        });
        let mut clients: Vec<Client> = (0..CONNECTIONS).map(|_| connect()).collect();
        for req in &warm {
            warm_up(&mut clients[0], req);
        }
        let draws = match variant {
            Variant::Hot => (0..CONNECTIONS).map(|c| plan.draws(c)).collect(),
            Variant::Compute => Vec::new(),
        };
        Serve {
            plan,
            server: Some(server),
            clients,
            draws,
            passes: 0,
            last_responses: Vec::new(),
            last_socket_p50_us: 0.0,
            last_socket_tail_us: 0.0,
            last_errors: 0,
            replica: None,
            replica_p50_us: 0.0,
        }
    }
}

impl ConnResult {
    fn new() -> ConnResult {
        ConnResult {
            lat_ns: Vec::new(),
            digest: Fnv::default().0,
            failed: 0,
            errors: 0,
            responses: Vec::new(),
        }
    }

    /// One round trip: send, block for the reply.
    fn call(&mut self, client: &mut Client, req: &Request) {
        let t = std::time::Instant::now();
        let reply = client.call_text(req);
        self.lat_ns.push(t.elapsed().as_nanos() as u64);
        match reply {
            Ok((resp, raw)) => {
                let mut h = Fnv(self.digest);
                h.bytes(raw.as_bytes());
                self.digest = h.0;
                self.responses.push(Fnv::of(raw.as_bytes()));
                self.errors += u64::from(matches!(resp, Response::Error { .. }));
                self.failed += u64::from(matches!(resp, Response::Busy | Response::Error { .. }));
            }
            Err(_) => {
                self.responses.push(0);
                self.failed += 1;
            }
        }
    }
}

impl Workload for Serve {
    fn op_list_bytes(&self) -> Vec<u8> {
        self.plan.bytes(1)
    }

    fn pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let pass = self.passes;
        self.passes += 1;
        // `serve_compute` sends this pass's fresh requests, `serve_hot` its
        // draws from the pool.
        let fresh: Vec<Vec<Request>> = match self.plan.variant {
            Variant::Hot => Vec::new(),
            Variant::Compute => (0..CONNECTIONS)
                .map(|conn| {
                    (0..self.plan.variant.per_connection())
                        .map(|i| {
                            self.plan
                                .compute_request(self.plan.compute_id(pass, conn, i))
                        })
                        .collect()
                })
                .collect(),
        };
        let pool = &self.plan.pool;
        let lists: Vec<Vec<&Request>> = match self.plan.variant {
            Variant::Hot => self
                .draws
                .iter()
                .map(|drawn| drawn.iter().map(|&i| &pool[i as usize]).collect())
                .collect(),
            Variant::Compute => fresh.iter().map(|list| list.iter().collect()).collect(),
        };
        // One generator thread per connection, each a closed loop.
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&lists)
                .map(|(client, list)| {
                    scope.spawn(move || {
                        let mut result = ConnResult::new();
                        for req in list {
                            result.call(client, req);
                        }
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        let start = rec.lat_ns.len();
        self.last_responses.clear();
        self.last_errors = 0;
        for r in results {
            out.ops += r.lat_ns.len() as u64;
            out.failed += r.failed;
            self.last_errors += r.errors;
            h.u64(r.digest);
            rec.lat_ns.extend_from_slice(&r.lat_ns);
            self.last_responses.push(r.responses);
        }
        let us = sorted_us(&rec.lat_ns[start..]);
        self.last_socket_p50_us = percentile(&us, 50);
        self.last_socket_tail_us = percentile(&us, tail_percentile(us.len()).unwrap_or(80));
        out.digest = h.0;
        out
    }

    /// Builds the replica and warms it as set-up warmed the daemon.
    fn prepare_layers(&mut self) {
        let mut replica = Replica::new();
        let mut off = Spans::new(false);
        for req in &self.plan.pool {
            replica.serve(&mut off, req);
        }
        if self.plan.variant == Variant::Compute {
            for id in 0..WARM_IDS {
                replica.serve(&mut off, &self.plan.compute_request(id));
            }
        }
        self.replica = Some(replica);
    }

    fn layer_pass(&mut self, rec: &mut Recorder) -> PassOutput {
        let variant = self.plan.variant;
        let mut replica = self
            .replica
            .take()
            .expect("prepare_layers runs before the first layer pass");
        let n = match variant {
            Variant::Hot => HOT_REPLICA_REQUESTS,
            Variant::Compute => CONNECTIONS * variant.per_connection(),
        };
        let mut out = PassOutput::default();
        let mut h = Fnv::default();
        let start = rec.lat_ns.len();
        for i in 0..n {
            let fresh;
            let req = match variant {
                Variant::Hot => {
                    let draws = &self.draws[0];
                    &self.plan.pool[draws[i % draws.len()] as usize]
                }
                Variant::Compute => {
                    // Replica ids run far above any socket pass's.
                    fresh = self.plan.compute_request((1 << 40) + replica.served);
                    &fresh
                }
            };
            replica.served += 1;
            let raw = rec.call(|sp| replica.serve(sp, req));
            h.bytes(raw.as_bytes());
            out.ops += 1;
        }
        self.replica_p50_us = percentile(&sorted_us(&rec.lat_ns[start..]), 50);
        self.replica = Some(replica);
        // `serve_compute`'s replica serves fresh ids every pass; only the
        // hot pool's bytes repeat.
        out.digest = if variant == Variant::Hot { h.0 } else { 0 };
        out
    }

    fn probes(&mut self, _spans: &Probes, out: &mut Probes) {
        self.pass(&mut Recorder::new(false));
        out.insert(
            "serve.transport_us",
            self.last_socket_p50_us - self.replica_p50_us,
        );
        out.insert("bench.op_tail_us", self.last_socket_tail_us);
        out.insert("serve.errors", self.last_errors as f64);
        if let Ok(Response::Stats {
            shed,
            cache_hits,
            cache_misses,
            fabrics,
            ..
        }) = self.clients[0].call(&Request::Stats)
        {
            let lookups = (cache_hits + cache_misses).max(1);
            out.insert("serve.cache_hit_share", cache_hits as f64 / lookups as f64);
            out.insert("serve.busy", shed as f64);
            out.insert("serve.registry_fabrics", fabrics as f64);
        }
    }

    /// Socket bytes against in-process `execute` + `encode_response`:
    /// every pool response on `serve_hot` (from which the whole pass
    /// digest follows), a seeded sample of the last pass on
    /// `serve_compute`.
    fn cross_check(&self) -> Result<(), String> {
        let Some(last_pass) = self.passes.checked_sub(1) else {
            return Ok(());
        };
        let oracle = Registry::new();
        let expect = |req: &Request| Fnv::of(encode_response(&execute(req, &oracle)).as_bytes());
        match self.plan.variant {
            Variant::Hot => {
                let pool: Vec<u64> = self.plan.pool.iter().map(expect).collect();
                for (conn, got) in self.last_responses.iter().enumerate() {
                    let want = self.draws[conn].iter().map(|&i| pool[i as usize]);
                    if !got.iter().copied().eq(want) {
                        return Err(format!(
                            "connection {conn}: socket bytes differ from execute + encode_response"
                        ));
                    }
                }
            }
            Variant::Compute => {
                let mut rng = Rng::new(self.plan.seed ^ last_pass);
                for _ in 0..COMPUTE_CHECKED {
                    let conn = rng.below(CONNECTIONS as u64) as usize;
                    let i = rng.below(self.plan.variant.per_connection() as u64) as usize;
                    let id = self.plan.compute_id(last_pass, conn, i);
                    if self.last_responses[conn][i] != expect(&self.plan.compute_request(id)) {
                        return Err(format!(
                            "request {id}: socket bytes differ from execute + encode_response"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn digest_repeats(&self) -> bool {
        self.plan.variant == Variant::Hot
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn compute_stream_never_repeats_across_passes() {
        let plan = Plan::new(Variant::Compute, 17);
        let mut seen = HashSet::new();
        let mut total = 0;
        for id in 0..WARM_IDS {
            total += 1;
            seen.insert(request_key(&encode_request(&plan.compute_request(id))));
        }
        for pass in 0..3 {
            for conn in 0..CONNECTIONS {
                for i in 0..plan.variant.per_connection() {
                    let id = plan.compute_id(pass, conn, i);
                    total += 1;
                    seen.insert(request_key(&encode_request(&plan.compute_request(id))));
                }
            }
        }
        assert_eq!(seen.len(), total, "a repeated request would be a cache hit");
    }

    #[test]
    fn compute_mix_uses_every_kind_and_valid_graphs() {
        let plan = Plan::new(Variant::Compute, 1);
        let mut verbs = HashSet::new();
        for id in 0..200 {
            let req = plan.compute_request(id);
            if let Request::Simulate {
                app,
                fabric,
                faults,
                ..
            } = &req
            {
                verbs.insert(format!("{fabric:?}/{}", faults.is_some()));
                if let Some(g) = app.inline_graph() {
                    assert_eq!(g.n(), INLINE_NODES);
                    assert!(g.edge_count() >= INLINE_NODES);
                }
            }
            verbs.insert(req.endpoint().to_string());
        }
        assert_eq!(verbs.len(), 4 + 3, "{verbs:?}");
    }

    #[test]
    fn hot_pool_is_four_verbs_by_six_apps() {
        let plan = Plan::new(Variant::Hot, 2);
        assert_eq!(plan.pool.len(), 24);
        assert!(plan.pool.iter().all(Request::cacheable));
        let draws = plan.draws(0);
        assert_eq!(draws.len(), Variant::Hot.per_connection());
        assert_ne!(draws, plan.draws(1), "connections draw their own streams");
        assert!(draws.iter().all(|&i| (i as usize) < 24));
    }

    #[test]
    fn replica_answers_like_execute() {
        let plan = Plan::new(Variant::Compute, 4);
        let mut replica = Replica::new();
        let oracle = Registry::new();
        let mut sp = Spans::new(true);
        // An inline graph needs no profiling run.
        let req = (0..WARM_IDS)
            .map(|id| plan.compute_request(id))
            .find(|r| {
                matches!(
                    r,
                    Request::Simulate {
                        app: AppSpec::Inline { .. },
                        ..
                    }
                )
            })
            .expect("the mix has inline simulates");
        let raw = replica.serve(&mut sp, &req);
        assert_eq!(raw, encode_response(&execute(&req, &oracle)));
        assert_eq!(
            replica.serve(&mut sp, &req),
            raw,
            "second time from the cache"
        );
        let names: Vec<&str> = sp.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names.iter().filter(|n| **n == "serve.cache_get_us").count(),
            2
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "serve.execute_us.simulate")
                .count(),
            1
        );
    }
}
