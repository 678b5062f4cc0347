//! Blocking clients for the hfast-serve protocol.
//!
//! One [`Client`] wraps one connection and issues closed-loop requests:
//! write a frame, read a frame. That mirrors how the load generator and
//! the integration tests drive the daemon, and it is the model under
//! which the server's per-connection ordering guarantee is defined.
//!
//! [`FleetClient`] speaks to a *set* of daemons: it routes each request
//! over a consistent-hash ring, fails over to replica shards on
//! transport errors or `busy` (sound for cacheable verbs, which are pure
//! functions of the request), and pins job verbs to the shard that owns
//! the job — all behind the same `call` surface. It is the fleet's only
//! routing code: the `start_fleet` router forwards through it too.
//!
//! Errors are typed by *where* they happened so failover can key off the
//! variant: [`ClientError::Transport`] (retry another replica),
//! [`ClientError::Protocol`] (a bug, never retried), and
//! [`ClientError::Server`] (a pinned job verb gave up after its shard
//! kept refusing).

use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfast_trace::{client_span_id, TraceContext, TraceRecorder, Track};

use crate::fleet::{
    aggregate_metrics, aggregate_stats, unwrap_job_id, wrap_job_id, HashRing, DEFAULT_VNODES,
};
use crate::frame::{read_frame, write_frame, FrameError};
use crate::protocol::{
    decode_response, encode_request, encode_request_versioned, encode_response, envelope_traced,
    request_key, strip_envelope, Request, Response, WireVersion,
};

/// Why a call failed, by layer.
///
/// A [`Response::Error`] is a *successful* call — the server answered —
/// and is never a `ClientError`.
#[derive(Debug)]
pub enum ClientError {
    /// The bytes never made it there and back: connect, read, or write
    /// failure, or the stream ended mid-frame. Retrying against a
    /// replica is sound for pure (cacheable) requests.
    Transport(io::Error),
    /// The bytes arrived but were not a valid frame or response — a
    /// protocol bug on one side. Never retried.
    Protocol(String),
    /// The server kept refusing (e.g. [`Response::Busy`] past the retry
    /// budget): the fleet gave up, not the wire.
    Server(String),
}

impl ClientError {
    /// True when retrying the same bytes against a replica is sound.
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Transport(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Transport(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Transport(io),
            FrameError::Eof | FrameError::Truncated => {
                ClientError::Transport(io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()))
            }
            FrameError::Oversized(_) | FrameError::NotUtf8 => ClientError::Protocol(e.to_string()),
        }
    }
}

/// One connection to a running daemon.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (any `ToSocketAddrs`, e.g. `"127.0.0.1:4711"`).
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// One frame out, one frame in. Crate-internal: the traced fleet
    /// client relays pre-encoded envelopes through it.
    pub(crate) fn exchange(&mut self, payload: &str) -> Result<String, ClientError> {
        write_frame(&mut self.stream, payload)?;
        Ok(read_frame(&mut self.stream)?)
    }

    /// Sends a request and blocks for its response.
    ///
    /// # Errors
    /// Transport, framing, or decode failure. A [`Response::Error`] is a
    /// *successful* call — the server answered — not a `ClientError`.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_text(req).map(|(resp, _)| resp)
    }

    /// Like [`call`](Client::call) but also returns the exact response
    /// text, so callers that digest bytes (the load generator, the
    /// byte-identity tests) stay on the typed path.
    ///
    /// # Errors
    /// Transport, framing, or decode failure.
    pub fn call_text(&mut self, req: &Request) -> Result<(Response, String), ClientError> {
        let raw = self.exchange(&encode_request(req))?;
        let resp = decode_response(&raw).map_err(ClientError::Protocol)?;
        Ok((resp, raw))
    }

    /// Sends a request in the given wire version and decodes the reply,
    /// checking the server answered in kind.
    ///
    /// # Errors
    /// Transport, framing, or decode failure; [`ClientError::Protocol`]
    /// when the reply's envelope version differs from the request's.
    pub fn call_versioned(
        &mut self,
        req: &Request,
        version: WireVersion,
    ) -> Result<Response, ClientError> {
        let raw = self.exchange(&encode_request_versioned(req, version))?;
        let (resp, got) =
            crate::protocol::decode_response_versioned(&raw).map_err(ClientError::Protocol)?;
        if got != version {
            return Err(ClientError::Protocol(format!(
                "sent {version:?}, server answered {got:?}"
            )));
        }
        Ok(resp)
    }
}

/// How many times a shard-pinned (job) verb retries its owning shard
/// before giving up — sized to ride out one rolling restart.
const STATEFUL_RETRIES: usize = 40;

/// Pause between shard-pinned retries.
const RETRY_PAUSE: Duration = Duration::from_millis(50);

/// A sharded client: one logical connection to a fleet of daemons.
///
/// Cacheable verbs route by consistent hash of their canonical encoding
/// and fail over to replica shards on transport errors or `Busy` (sound:
/// they are pure functions of the request, so any shard computes the
/// same bytes); when every reachable shard shed, the answer is `Busy`.
/// Job verbs pin to the shard that owns the job id and retry it through
/// restart windows. `stats` and `metrics` merge every reachable shard's
/// answer; `shutdown` fans out to every shard. The `start_fleet` router
/// forwards through this same type, so there is one routing path.
pub struct FleetClient {
    addrs: Vec<String>,
    ring: HashRing,
    conns: Vec<Option<Client>>,
    /// Root-span recorder when this client originates traces; injected
    /// explicitly via [`with_trace`](FleetClient::with_trace) — never
    /// probed from the environment, so a client embedded in a process
    /// that already exports its own trace cannot collide on the sink.
    trace: Option<Arc<TraceRecorder>>,
    epoch: Instant,
    /// Monotone per-client call counter: it is both the trace id and the
    /// low bits of the root span id.
    seq: u64,
}

impl FleetClient {
    /// A fleet client over `addrs` (one per shard, order = shard index —
    /// every participant must use the same order).
    ///
    /// Connections are opened lazily, so this never fails.
    ///
    /// # Panics
    /// When `addrs` is empty.
    pub fn connect(addrs: &[String]) -> FleetClient {
        let mut conns = Vec::new();
        conns.resize_with(addrs.len(), || None);
        FleetClient {
            addrs: addrs.to_vec(),
            ring: HashRing::new(addrs.len(), DEFAULT_VNODES),
            conns,
            trace: None,
            epoch: Instant::now(),
            seq: 0,
        }
    }

    /// Makes this client a trace originator: every call records a root
    /// span on [`Track::Client`] into `recorder` and stamps its context
    /// into the v2 envelope so downstream routers and shards parent
    /// their spans under it. The caller owns the export (e.g. via
    /// [`hfast_trace::export_to_env_sink`]).
    pub fn with_trace(mut self, recorder: Arc<TraceRecorder>) -> FleetClient {
        self.trace = Some(recorder);
        self
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Calls one shard, reusing its connection when warm.
    fn call_shard(
        &mut self,
        shard: usize,
        req: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, String), ClientError> {
        if self.conns[shard].is_none() {
            self.conns[shard] = Some(Client::connect(&self.addrs[shard])?);
        }
        let conn = self.conns[shard].as_mut().expect("just connected");
        let out = match ctx {
            None => conn.call_text(req),
            // Traced calls ride the v2 envelope; the response is stripped
            // back to the canonical v1 text so everything downstream of
            // the client (digests, byte-identity checks) is untouched by
            // tracing. Responses never carry trace context.
            Some(ctx) => conn
                .exchange(&envelope_traced(&encode_request(req), ctx))
                .and_then(|raw| {
                    let raw = strip_envelope(&raw);
                    let resp = decode_response(&raw).map_err(ClientError::Protocol)?;
                    Ok((resp, raw))
                }),
        };
        if matches!(out, Err(ClientError::Transport(_))) {
            // A broken connection never heals; reconnect on next use.
            self.conns[shard] = None;
        }
        out
    }

    /// Failover path for pure requests: owner first, then ring-order
    /// replicas, skipping shards that are unreachable or shedding.
    fn call_pure(
        &mut self,
        req: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, String), ClientError> {
        let mut shed: Option<String> = None;
        let mut unreachable: Option<ClientError> = None;
        for shard in self.ring.route(request_key(&encode_request(req))) {
            match self.call_shard(shard, req, ctx) {
                Ok((Response::Busy, raw)) => shed = Some(raw),
                Ok(out) => return Ok(out),
                Err(e) if e.is_transport() => unreachable = Some(e),
                Err(e) => return Err(e),
            }
        }
        // Every reachable shard shed: `busy` is the honest fleet-wide
        // answer. A transport error means no shard was reachable at all.
        match shed {
            Some(raw) => Ok((Response::Busy, raw)),
            None => Err(unreachable.expect("a ring routes to at least one shard")),
        }
    }

    /// Shard-pinned path for job verbs: stateful, so failover to a
    /// different shard is wrong — instead retry the owner through its
    /// restart window. The response's job id comes back fleet-global.
    fn call_pinned(
        &mut self,
        shard: usize,
        req: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, String), ClientError> {
        if shard >= self.addrs.len() {
            return Err(ClientError::Protocol(format!(
                "job id names shard {shard}, fleet has {}",
                self.addrs.len()
            )));
        }
        let mut last: Option<ClientError> = None;
        for attempt in 0..STATEFUL_RETRIES {
            if attempt > 0 {
                std::thread::sleep(RETRY_PAUSE);
            }
            match self.call_shard(shard, req, ctx) {
                Ok((Response::Busy, _)) => {
                    last = Some(ClientError::Server(format!(
                        "shard {shard} still shedding after {attempt} retries"
                    )));
                }
                Ok((resp, raw)) => return Ok(globalize(resp, raw, shard)),
                Err(e) if e.is_transport() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Server("no retry budget".into())))
    }

    /// Sends a request to the fleet and blocks for its response,
    /// returning both the decoded response and its exact text.
    ///
    /// # Errors
    /// Transport failure once every eligible shard has been tried,
    /// protocol violations, or a fleet-level give-up
    /// ([`ClientError::Server`]).
    pub fn call_text(&mut self, req: &Request) -> Result<(Response, String), ClientError> {
        let Some(trace) = self.trace.clone() else {
            return self.forward(req, None);
        };
        self.seq += 1;
        let seq = self.seq;
        let root = client_span_id(seq);
        let t0 = self.now_ns();
        let out = self.forward(
            req,
            Some(TraceContext {
                trace_id: seq,
                parent_id: root,
            }),
        );
        let t1 = self.now_ns();
        trace.record_span(
            Track::Client,
            req.endpoint(),
            t0,
            t1.saturating_sub(t0).max(1),
            root,
            0,
            vec![("trace", seq), ("ok", out.is_ok() as u64)],
        );
        out
    }

    /// The routing core: picks shards for `req` and stamps `ctx` on every
    /// shard hop. [`call_text`](FleetClient::call_text) originates root
    /// contexts; the router passes the context it received, deepened by
    /// its own span.
    pub(crate) fn forward(
        &mut self,
        req: &Request,
        ctx: Option<TraceContext>,
    ) -> Result<(Response, String), ClientError> {
        match req {
            // Liveness of the fleet = any reachable shard.
            Request::Health => {
                let mut last: Option<ClientError> = None;
                for shard in 0..self.addrs.len() {
                    match self.call_shard(shard, req, ctx) {
                        Ok(out) => return Ok(out),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or(ClientError::Server("no shards configured".into())))
            }
            // Fleet stats and the rolling SLO snapshot merge *reachable*
            // shards: a shard that is down or mid-restart is skipped, and
            // only an all-shards failure surfaces as an error. Counts sum;
            // quantiles take the per-shard max as a conservative bound.
            Request::Stats | Request::Metrics => {
                let mut parts = Vec::new();
                let mut last: Option<ClientError> = None;
                for shard in 0..self.addrs.len() {
                    match self.call_shard(shard, req, ctx) {
                        Ok((resp, _)) => parts.push(resp),
                        Err(e) => last = Some(e),
                    }
                }
                let merged = match req {
                    Request::Stats => aggregate_stats(&parts),
                    _ => aggregate_metrics(&parts),
                };
                let resp = merged.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        ClientError::Server(format!("no shard answered {}", req.endpoint()))
                    })
                })?;
                let raw = encode_response(&resp);
                Ok((resp, raw))
            }
            // Shutdown fans out; the fleet is down when every shard
            // acknowledged (or was already gone).
            Request::Shutdown => {
                for shard in 0..self.addrs.len() {
                    let _ = self.call_shard(shard, req, ctx);
                }
                Ok((Response::Ok, encode_response(&Response::Ok)))
            }
            // Jobs live on the shard that owns the inner request's key.
            Request::Submit { job } => {
                let shard = self.ring.shard_for(request_key(&encode_request(job)));
                self.call_pinned(shard, req, ctx)
            }
            Request::Poll { id } | Request::Fetch { id } | Request::Cancel { id } => {
                let (shard, local) = unwrap_job_id(*id);
                let local_req = match req {
                    Request::Poll { .. } => Request::Poll { id: local },
                    Request::Fetch { .. } => Request::Fetch { id: local },
                    _ => Request::Cancel { id: local },
                };
                self.call_pinned(shard, &local_req, ctx)
            }
            // Compute verbs (cacheable or the deterministic panic probe):
            // pure functions of the request, so key-routed with failover.
            req => self.call_pure(req, ctx),
        }
    }

    /// Sends a request to the fleet and blocks for its response.
    ///
    /// # Errors
    /// As [`call_text`](FleetClient::call_text).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_text(req).map(|(resp, _)| resp)
    }
}

/// Rewrites a shard-local job id in a response to the fleet-global id.
fn globalize(resp: Response, raw: String, shard: usize) -> (Response, String) {
    let resp = match resp {
        Response::JobAccepted { id } => Response::JobAccepted {
            id: wrap_job_id(shard, id),
        },
        Response::JobStatus {
            id,
            state,
            attempts,
            message,
        } => Response::JobStatus {
            id: wrap_job_id(shard, id),
            state,
            attempts,
            message,
        },
        other => return (other, raw),
    };
    let raw = encode_response(&resp);
    (resp, raw)
}
