//! The wire protocol: typed requests and responses, and their canonical
//! JSON codec.
//!
//! Strings are escaped by `hfast_obs::escape_into`, floats are
//! rendered with the shortest round-trip `Display` form, and decoding
//! goes through the in-repo `hfast_trace::json` parser — no external
//! serialization crates. The encoder is *canonical*: one value has
//! exactly one encoding, so the encoded request doubles as the cache key
//! (hashed with FNV-1a) and a decode → encode round trip reproduces the
//! input byte for byte (asserted by property tests).
//!
//! Integers ride on JSON numbers, so — as in any interoperable JSON
//! protocol — they are exact only up to 2^53 (the f64 mantissa). Every
//! field carried here (byte counts, nanoseconds, port counts, seeds)
//! fits comfortably; values beyond that round.
//!
//! ## One declaration per message
//!
//! Every message is declared exactly once, inside a `wire_struct!` or
//! `wire_enum!` invocation, and that declaration *is* the codec: the
//! macro emits the type as written (docs, derives and all) plus its
//! `Wire` impl, so a member's name, type and position are stated in
//! one place. The rules every derived codec follows:
//!
//! * **Order.** Members are written in declaration order; an enum writes
//!   its `"type"` tag first. Cache keys hash these bytes, so reordering
//!   a declaration is a wire change.
//! * **Omission.** An `Option` member that is `None` writes nothing and
//!   an absent member reads as `None` — which is what keeps frames from
//!   before a member existed byte-identical. Every other member is
//!   required. Unknown members are ignored.
//! * **Ranges.** A member's Rust type is its range: `u32` and `usize`
//!   members are read with `try_from`, a negative, fractional or
//!   overflowing number is an error naming the member, and floats must
//!   be finite (a non-finite float is *written* as `null`, which does
//!   not read back).
//! * **Depth.** The parser refuses input nested deeper than
//!   `hfast_trace::parse`'s `MAX_DEPTH` before any of this runs, so decode
//!   recursion is bounded whatever the peer sends.
//! * **Envelope.** The body object is the whole frame. A frame with a
//!   top-level `"v"` member (the retired `{"v":2,…}` envelopes, or a
//!   version from the future) is refused with an error naming it.
//!
//! Only shapes that are not their Rust shape keep a hand-written
//! `Wire` impl: [`AppSpec`]'s untagged named/inline union,
//! [`FabricSpec`]'s flat `x`/`y`/`z` and the per-name tallies in `stats`.
//!
//! ## The verb table
//!
//! Every verb is one [`VerbSpec`] row in [`VERBS`]: its wire name,
//! whether responses are cacheable, and how it is handled (by the server
//! itself or by a pure compute function). [`ENDPOINTS`], the metric labels, the cache
//! admission test, and compute dispatch are all derived from the table —
//! adding a verb is one row plus one variant declaration.

use std::fmt::Write as _;

use hfast_core::Strategy;
use hfast_netsim::{FabricSpec, ScenarioKind};
use hfast_obs::escape_into;
use hfast_topology::{CommGraph, EdgeStat};
use hfast_topology::{FNV1A, FNV_OFFSET};
use hfast_trace::JsonValue;

use crate::registry::Registry;

/// The codec of one wire type: `put` appends the value's canonical JSON,
/// `get` reads it back, checking type and range. Message members go
/// through the `_field` pair, which `Option<T>` overrides to mean
/// "omitted when `None`, `None` when absent".
trait Wire: Sized {
    fn put(&self, out: &mut String);
    fn get(v: &JsonValue) -> Result<Self, String>;

    /// Appends `"key":value` to the object under construction.
    fn put_field(&self, key: &str, out: &mut String) {
        // A value never ends in `{`, so this is "not the first member".
        if !out.ends_with('{') {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        self.put(out);
    }

    /// Reads member `key` of `obj`; the error names the member.
    fn get_field(obj: &JsonValue, key: &str) -> Result<Self, String> {
        let v = obj
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        Self::get(v).map_err(|e| format!("field {key:?}: {e}"))
    }
}

/// Declares a struct and derives its `Wire` impl: a JSON object whose
/// members are the fields, in declaration order.
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl Wire for $name {
            fn put(&self, out: &mut String) {
                out.push('{');
                $(self.$field.put_field(stringify!($field), out);)*
                out.push('}');
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                Ok($name {
                    $($field: Wire::get_field(v, stringify!($field))?),*
                })
            }
        }
    };
}

/// Declares a message enum and derives its `Wire` impl: a JSON object
/// led by `"type":<tag>` (then a constant member, for the one variant
/// that has one — written, never read), then the variant's fields in
/// declaration order.
macro_rules! wire_enum {
    ($(#[$meta:meta])* $vis:vis enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $tag:literal $(($ckey:literal: $cval:literal))?
            $({ $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)? })?),* $(,)?
    }) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })?),*
        }

        impl Wire for $name {
            fn put(&self, out: &mut String) {
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        out.push_str(concat!(
                            "{\"type\":\"", $tag, "\"" $(, ",\"", $ckey, "\":", $cval)?
                        ));
                        $($($field.put_field(stringify!($field), out);)*)?
                    })*
                }
                out.push('}');
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                match v.get("type").and_then(JsonValue::as_str) {
                    $(Some($tag) => Ok($name::$variant $({
                        $($field: Wire::get_field(v, stringify!($field))?),*
                    })?),)*
                    Some(other) => Err(format!(
                        concat!("unknown ", stringify!($name), " type {:?}"),
                        other
                    )),
                    None => Err("missing or non-string field \"type\"".into()),
                }
            }
        }
    };
}

macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                let n = v.as_u64().ok_or("expected a non-negative integer")?;
                <$ty>::try_from(n)
                    .map_err(|_| format!(concat!("{} is out of range for ", stringify!($ty)), n))
            }
        }
    )*};
}
wire_uint!(u64, usize, u32);

impl Wire for f64 {
    fn put(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        let n = v.as_f64().filter(|n| n.is_finite());
        n.ok_or_else(|| "expected a finite number".into())
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }
}

fn put_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn get_str(v: &JsonValue) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".into())
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        put_str(self, out);
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        get_str(v).map(str::to_string)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(x) => x.put(out),
            None => out.push_str("null"),
        }
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        T::get(v).map(Some)
    }

    fn put_field(&self, key: &str, out: &mut String) {
        if let Some(x) = self {
            x.put_field(key, out);
        }
    }

    fn get_field(obj: &JsonValue, key: &str) -> Result<Self, String> {
        match obj.get(key) {
            None => Ok(None),
            Some(_) => T::get_field(obj, key).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.put(out);
        }
        out.push(']');
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_arr().ok_or("expected an array")?;
        let item = |(i, x)| T::get(x).map_err(|e| format!("[{i}]: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// Fixed-arity rows (`[lo,hi]` fault windows, five-cell edge rows) are
/// tuples in Rust and arrays of exactly that length on the wire.
macro_rules! wire_row {
    ($len:literal: $($ty:ident $i:tt),+) => {
        impl<$($ty: Wire),+> Wire for ($($ty,)+) {
            fn put(&self, out: &mut String) {
                $(
                    out.push(if $i == 0 { '[' } else { ',' });
                    self.$i.put(out);
                )+
                out.push(']');
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                match v.as_arr() {
                    Some(cells) if cells.len() == $len => Ok(($(
                        $ty::get(&cells[$i]).map_err(|e| format!("[{}]: {e}", $i))?,
                    )+)),
                    _ => Err(concat!("expected an array of ", $len, " cells").into()),
                }
            }
        }
    };
}
wire_row!(2: A 0, B 1);
wire_row!(5: A 0, B 1, C 2, D 3, E 4);

/// Enums that ride as their stable lowercase name, one of `ALL`.
macro_rules! wire_name {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut String) {
                put_str(self.as_str(), out);
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                let name = get_str(v)?;
                let named = <$ty>::ALL.into_iter().find(|x| x.as_str() == name);
                named.ok_or_else(|| format!("unknown name {name:?}"))
            }
        }
    )*};
}
wire_name!(Strategy, ScenarioKind);

/// The `stats` tallies are fixed arrays in Rust and objects keyed by
/// name, in the name enum's `ALL` order, on the wire.
macro_rules! wire_tally {
    ($($len:literal by $names:ty),*) => {$(
        impl Wire for [u64; $len] {
            fn put(&self, out: &mut String) {
                out.push('{');
                for (name, count) in <$names>::ALL.iter().zip(self) {
                    count.put_field(name.as_str(), out);
                }
                out.push('}');
            }

            fn get(v: &JsonValue) -> Result<Self, String> {
                let mut counts = [0; $len];
                for (name, slot) in <$names>::ALL.iter().zip(&mut counts) {
                    *slot = Wire::get_field(v, name.as_str())?;
                }
                Ok(counts)
            }
        }
    )*};
}
wire_tally!(3 by Strategy, 5 by ScenarioKind);

/// How a request names the application whose communication graph drives
/// the analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// One of the six paper applications, profiled at `procs` ranks.
    Named {
        /// Application name as in Table 2 (`Cactus`, `LBMHD`, `GTC`,
        /// `SuperLU`, `PMEMD`, `PARATEC`).
        name: String,
        /// Processor count to profile at.
        procs: usize,
    },
    /// An inline communication graph.
    Inline {
        /// Number of tasks.
        n: usize,
        /// Undirected edges as `(a, b, bytes, count, max_msg)`; both
        /// orientations of a pair merge into one edge.
        edges: Vec<(usize, usize, u64, u64, u64)>,
    },
}

impl AppSpec {
    /// Materializes an inline spec into a [`CommGraph`]. Named specs are
    /// resolved by the registry (profiling is expensive and deduplicated).
    pub fn inline_graph(&self) -> Option<CommGraph> {
        match self {
            AppSpec::Named { .. } => None,
            AppSpec::Inline { n, edges } => {
                let directed = edges.iter().map(|&(a, b, bytes, count, max_msg)| {
                    (
                        a,
                        b,
                        EdgeStat {
                            bytes,
                            count,
                            max_msg,
                        },
                    )
                });
                Some(CommGraph::from_directed(*n, directed))
            }
        }
    }
}

/// An untagged union: a `"name"` member selects the named shape, its
/// absence the inline one.
impl Wire for AppSpec {
    fn put(&self, out: &mut String) {
        out.push('{');
        match self {
            AppSpec::Named { name, procs } => {
                name.put_field("name", out);
                procs.put_field("procs", out);
            }
            AppSpec::Inline { n, edges } => {
                n.put_field("n", out);
                edges.put_field("edges", out);
            }
        }
        out.push('}');
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        if v.get("name").is_some() {
            Ok(AppSpec::Named {
                name: Wire::get_field(v, "name")?,
                procs: Wire::get_field(v, "procs")?,
            })
        } else {
            Ok(AppSpec::Inline {
                n: Wire::get_field(v, "n")?,
                edges: Wire::get_field(v, "edges")?,
            })
        }
    }
}

/// Tagged by `"kind"`; a torus writes its dimensions flat as `x`/`y`/`z`.
impl Wire for FabricSpec {
    fn put(&self, out: &mut String) {
        match self {
            FabricSpec::FatTree { ports } => {
                out.push_str("{\"kind\":\"fattree\"");
                ports.put_field("ports", out);
            }
            FabricSpec::Torus { dims: (x, y, z) } => {
                out.push_str("{\"kind\":\"torus\"");
                x.put_field("x", out);
                y.put_field("y", out);
                z.put_field("z", out);
            }
            FabricSpec::Hfast => out.push_str("{\"kind\":\"hfast\""),
        }
        out.push('}');
    }

    fn get(v: &JsonValue) -> Result<Self, String> {
        let dim = |key| Wire::get_field(v, key);
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("fattree") => Ok(FabricSpec::FatTree {
                ports: dim("ports")?,
            }),
            Some("torus") => Ok(FabricSpec::Torus {
                dims: (dim("x")?, dim("y")?, dim("z")?),
            }),
            Some("hfast") => Ok(FabricSpec::Hfast),
            Some(other) => Err(format!("unknown fabric kind {other:?}")),
            None => Err("missing or non-string field \"kind\"".into()),
        }
    }
}

wire_struct! {
    /// Optional fault injection for a `simulate` request: seeded random link
    /// failures inside a time window, mirroring
    /// `FaultPlanBuilder::random_link_failures`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultSpec {
        /// RNG seed (same seed, same schedule).
        pub seed: u64,
        /// Number of link failures to draw.
        pub count: usize,
        /// Failure-time window `[lo, hi)` in simulated nanoseconds.
        pub window: (u64, u64),
        /// Downtime before automatic recovery; `None` leaves links down.
        pub downtime_ns: Option<u64>,
    }
}

wire_enum! {
    /// One request frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Liveness probe; never queued, never cached.
        Health = "health",
        /// Server counters and cache statistics.
        Stats = "stats",
        /// HFAST provisioning for an app: switch-block counts and port math.
        Provision = "provision" {
            /// The application graph.
            app: AppSpec,
            /// Ports per switch block.
            block_ports: usize,
            /// Message-size cutoff in bytes.
            cutoff: u64,
            /// Provisioner strategy; `None` means the paper's linear heuristic
            /// and is omitted from the encoding so pre-strategy clients keep
            /// byte-identical cache keys.
            strategy: Option<Strategy>,
        },
        /// Fat-tree versus HFAST cost comparison.
        Cost = "cost" {
            /// The application graph.
            app: AppSpec,
            /// Ports per switch block.
            block_ports: usize,
            /// Message-size cutoff in bytes.
            cutoff: u64,
        },
        /// Thresholded-degree sweep over several cutoffs.
        Tdc = "tdc" {
            /// The application graph.
            app: AppSpec,
            /// Cutoffs to sweep, in bytes.
            cutoffs: Vec<u64>,
        },
        /// Replay the app's traffic over a fabric, optionally under faults.
        Simulate = "simulate" {
            /// The application graph.
            app: AppSpec,
            /// Fabric to replay over.
            fabric: FabricSpec,
            /// Message-size cutoff for flow extraction.
            cutoff: u64,
            /// Optional seeded fault injection.
            faults: Option<FaultSpec>,
            /// Provisioner strategy for HFAST fabrics (ignored by fat tree and
            /// torus); `None` means the paper heuristic, omitted on the wire.
            strategy: Option<Strategy>,
        },
        /// Begin graceful drain: stop accepting, finish in-flight, exit.
        Shutdown = "shutdown",
        /// Panic inside a compute handler (panic-isolation testing only).
        DebugPanic = "debug_panic",
        /// Rolling SLO snapshot: per-verb windowed latency quantiles,
        /// throughput counts, and error/busy tallies, plus live gauges.
        /// Numbers move between calls, so never cached.
        Metrics = "metrics",
        /// Replay a generated adversarial scenario (incast, permutation,
        /// hot-spot, multi-tenant, bursty) on a fabric under credit-based
        /// flow control, reporting the congestion-tree analysis.
        Scenario = "scenario" {
            /// Which generator to run.
            kind: ScenarioKind,
            /// Endpoint count (the generator's node universe).
            nodes: usize,
            /// Flow-count override; `None` uses the kind's preset and is
            /// omitted from the encoding.
            flows: Option<usize>,
            /// Foreground per-flow byte override; `None` uses the preset,
            /// omitted on the wire.
            bytes: Option<u64>,
            /// Generator seed (same seed, same traffic).
            seed: u64,
            /// Fabric to replay over; HFAST is provisioned from the
            /// scenario's own communication graph.
            fabric: FabricSpec,
            /// Provisioner strategy for HFAST fabrics; `None` means the
            /// paper heuristic, omitted on the wire.
            strategy: Option<Strategy>,
            /// Buffer slots per link for the credit model; `None` means the
            /// engine default, omitted on the wire.
            credits: Option<u32>,
        },
    }
}

/// How a verb is executed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VerbHandler {
    /// Answered by the server itself (health, stats, metrics, drain),
    /// without a compute permit.
    Server,
    /// Computed by this pure function on the connection thread under a
    /// compute permit.
    Compute(fn(&Request, &Registry) -> Response),
}

/// One row of the declarative verb table: everything the server needs to
/// know about a verb besides its [`Request`] variant declaration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerbSpec {
    /// Wire name (`"type"` field) and metric label.
    pub name: &'static str,
    /// True when the response is a pure function of the request and may
    /// be cached under its canonical-encoding key.
    pub cacheable: bool,
    /// Where the verb executes.
    pub handler: VerbHandler,
}

/// The verb table. Index order is frozen: the first eight rows predate
/// the table (their metric indexes are pinned by recorded observability),
/// new verbs append.
pub(crate) const VERBS: [VerbSpec; 10] = [
    VerbSpec {
        name: "health",
        cacheable: false,
        handler: VerbHandler::Server,
    },
    VerbSpec {
        name: "stats",
        cacheable: false,
        handler: VerbHandler::Server,
    },
    VerbSpec {
        name: "provision",
        cacheable: true,
        handler: VerbHandler::Compute(crate::handlers::provision),
    },
    VerbSpec {
        name: "cost",
        cacheable: true,
        handler: VerbHandler::Compute(crate::handlers::cost),
    },
    VerbSpec {
        name: "tdc",
        cacheable: true,
        handler: VerbHandler::Compute(crate::handlers::tdc),
    },
    VerbSpec {
        name: "simulate",
        cacheable: true,
        handler: VerbHandler::Compute(crate::handlers::simulate),
    },
    VerbSpec {
        name: "shutdown",
        cacheable: false,
        handler: VerbHandler::Server,
    },
    VerbSpec {
        name: "debug_panic",
        cacheable: false,
        handler: VerbHandler::Compute(crate::handlers::debug_panic),
    },
    VerbSpec {
        name: "metrics",
        cacheable: false,
        handler: VerbHandler::Server,
    },
    VerbSpec {
        name: "scenario",
        // Generators are seeded and the credit loop is deterministic, so
        // the report is a pure function of the request.
        cacheable: true,
        handler: VerbHandler::Compute(crate::handlers::scenario),
    },
];

impl Request {
    /// Index of this request's row in [`VERBS`] (and of its label in
    /// [`ENDPOINTS`]) — the only hand-written request-shape match left;
    /// everything else derives from the table or the declaration.
    pub(crate) fn verb_index(&self) -> usize {
        match self {
            Request::Health => 0,
            Request::Stats => 1,
            Request::Provision { .. } => 2,
            Request::Cost { .. } => 3,
            Request::Tdc { .. } => 4,
            Request::Simulate { .. } => 5,
            Request::Shutdown => 6,
            Request::DebugPanic => 7,
            Request::Metrics => 8,
            Request::Scenario { .. } => 9,
        }
    }

    /// This request's [`VerbSpec`] row.
    pub(crate) fn spec(&self) -> &'static VerbSpec {
        &VERBS[self.verb_index()]
    }

    /// True for requests whose response is a pure function of the request
    /// and therefore cacheable.
    pub fn cacheable(&self) -> bool {
        self.spec().cacheable
    }

    /// The endpoint label used in metrics, one of [`ENDPOINTS`].
    pub fn endpoint(&self) -> &'static str {
        self.spec().name
    }
}

/// Metric labels for every endpoint, in `VERBS` order.
pub const ENDPOINTS: [&str; VERBS.len()] = {
    let mut names = [""; VERBS.len()];
    let mut i = 0;
    while i < VERBS.len() {
        names[i] = VERBS[i].name;
        i += 1;
    }
    names
};

wire_struct! {
    /// One row of a TDC sweep response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TdcRow {
        /// Cutoff in bytes.
        pub cutoff: u64,
        /// Maximum thresholded degree.
        pub max: usize,
        /// Minimum thresholded degree.
        pub min: usize,
        /// Mean thresholded degree.
        pub avg: f64,
        /// Median thresholded degree.
        pub median: usize,
    }
}

wire_struct! {
    /// Lifetime latency quantiles for one verb, in the `stats` response.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct VerbLatency {
        /// Verb name, one of [`ENDPOINTS`].
        pub verb: String,
        /// Requests of this verb served since process start.
        pub count: u64,
        /// Interpolated p50 service latency, nanoseconds.
        pub p50_ns: u64,
        /// Interpolated p95 service latency, nanoseconds.
        pub p95_ns: u64,
        /// Interpolated p99 service latency, nanoseconds.
        pub p99_ns: u64,
    }
}

wire_struct! {
    /// Rolling windowed statistics for one verb, in the `metrics` response.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct VerbWindow {
        /// Verb name, one of [`ENDPOINTS`].
        pub verb: String,
        /// Requests observed inside the window.
        pub count: u64,
        /// Successful responses inside the window.
        pub ok: u64,
        /// Busy (load-shed) responses inside the window.
        pub busy: u64,
        /// Error responses inside the window.
        pub errors: u64,
        /// Rolling interpolated p50 latency, nanoseconds.
        pub p50_ns: u64,
        /// Rolling interpolated p95 latency, nanoseconds.
        pub p95_ns: u64,
        /// Rolling interpolated p99 latency, nanoseconds.
        pub p99_ns: u64,
    }
}

wire_enum! {
    /// One response frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Liveness acknowledgement.
        Health = "health" ("ok": true) {
            /// Compute permits.
            workers: usize,
            /// Requests that may wait for a permit before `busy`.
            queue: usize,
        },
        /// Server counters; numbers move between calls, so never cached.
        Stats = "stats" {
            /// Total requests parsed (all endpoints).
            requests: u64,
            /// Requests shed with [`Response::Busy`].
            shed: u64,
            /// Response-cache hits.
            cache_hits: u64,
            /// Response-cache misses.
            cache_misses: u64,
            /// Response-cache LRU evictions.
            cache_evictions: u64,
            /// Cached entries right now.
            cache_entries: u64,
            /// Cached payload bytes right now.
            cache_bytes: u64,
            /// Simulator events processed across all simulate runs.
            sim_events: u64,
            /// Event-loop throughput of the most recent simulate run
            /// (events per wall-clock second inside the loop; 0 before the
            /// first run).
            sim_events_per_sec: u64,
            /// Provision/simulate executions per strategy, in
            /// [`Strategy::ALL`] order (cache hits do not re-execute and are
            /// not counted).
            strategy_hits: [u64; 3],
            /// Scenario replays per generator kind, in [`ScenarioKind::ALL`]
            /// order (cache hits do not re-execute and are not counted).
            scenario_hits: [u64; 5],
            /// Profiled app graphs resident in the registry.
            graphs: u64,
            /// Built fabrics resident in the registry.
            fabrics: u64,
            /// Lifetime per-verb service-latency quantiles, one row per
            /// `VERBS` entry in table order.
            latency: Vec<VerbLatency>,
        },
        /// Provisioning summary for one app graph.
        Provisioned = "provisioned" {
            /// Tasks in the graph.
            n: usize,
            /// Switch blocks allocated.
            blocks: usize,
            /// Packet-switch ports purchased.
            total_block_ports: usize,
            /// Circuit (MEMS) ports in use.
            circuit_ports: usize,
            /// Packet ports per node.
            ports_per_node: f64,
            /// Worst provisioned route's switch hops (0 if nothing routed).
            max_switch_hops: usize,
        },
        /// Fat tree versus HFAST cost report.
        CostReport = "cost" {
            /// HFAST build cost (normalized packet-port units).
            hfast: f64,
            /// Fat-tree build cost.
            fat_tree: f64,
            /// `hfast / fat_tree`.
            ratio: f64,
            /// True when HFAST is the cheaper build.
            hfast_wins: bool,
            /// Packet ports per node under HFAST.
            hfast_ports_per_node: f64,
            /// Switch ports per processor in the fat tree.
            fat_tree_ports_per_node: usize,
        },
        /// TDC sweep rows, one per requested cutoff.
        TdcReport = "tdc" {
            /// Rows in request cutoff order.
            rows: Vec<TdcRow>,
        },
        /// Simulation outcome summary.
        SimReport = "sim" {
            /// Flows delivered.
            completed: usize,
            /// Flows without a route (including abandoned).
            unrouted: usize,
            /// Flows abandoned by the retry policy.
            abandoned: usize,
            /// Payload bytes delivered.
            delivered_bytes: u64,
            /// Worst flow latency.
            max_latency_ns: u64,
            /// Time of last delivery.
            makespan_ns: u64,
            /// Retry re-admissions.
            total_retries: u64,
            /// Mid-run circuit re-provisioning rounds.
            reprovisions: usize,
        },
        /// Congestion-tree report from a `scenario` replay under credit-based
        /// flow control.
        ScenarioReport = "scenario" {
            /// Flows the generator emitted.
            flows: usize,
            /// Flows delivered.
            completed: usize,
            /// Flows without a route.
            unrouted: usize,
            /// Time of last delivery.
            makespan_ns: u64,
            /// 95th-percentile flow latency.
            p95_latency_ns: u64,
            /// Congestion trees found in the trace.
            trees: usize,
            /// Deepest tree (stalled links upstream of the root).
            deepest: usize,
            /// Total stalled time across all trees.
            stall_ns: u64,
            /// Worst tree's victims over its root-crossing flows (0 when no
            /// link ever stalled).
            spread: f64,
            /// Victims that never traverse their tree's root link, summed.
            off_root_victims: usize,
            /// Max-over-mean link busy-time (1.0 = perfectly balanced).
            max_over_mean: f64,
            /// Gini coefficient of link busy-time (0 = balanced).
            gini: f64,
        },
        /// Rolling SLO snapshot from the `metrics` verb: the daemon's
        /// per-verb window plus live gauges.
        Metrics = "metrics" {
            /// Width of the rolling window the verb rows cover, nanoseconds.
            window_ns: u64,
            /// Requests waiting for a compute permit right now.
            queue_depth: u64,
            /// Response-cache hits (lifetime).
            cache_hits: u64,
            /// Response-cache misses (lifetime).
            cache_misses: u64,
            /// Rolling per-verb stats, one row per `VERBS` entry in table
            /// order.
            verbs: Vec<VerbWindow>,
        },
        /// Load shed: too many requests already wait for a compute
        /// permit, or the daemon drains. Retry later.
        Busy = "busy",
        /// Acknowledgement (shutdown).
        Ok = "ok",
        /// Structured failure; the connection stays usable.
        Error = "error" {
            /// Human-readable cause.
            message: String,
        },
    }
}

fn encode<T: Wire>(msg: &T) -> String {
    let mut out = String::with_capacity(128);
    msg.put(&mut out);
    out
}

/// Parses a frame and decodes its body. A top-level `"v"` member is
/// refused: the body object is the only envelope.
fn decode<T: Wire>(text: &str) -> Result<T, String> {
    let v = hfast_trace::parse(text)?;
    match Wire::get_field(&v, "v")? {
        None::<u64> => T::get(&v),
        Some(version) => Err(format!("field \"v\": unsupported wire version {version}")),
    }
}

/// Encodes a request canonically (the encoding is the cache-key basis).
pub fn encode_request(req: &Request) -> String {
    encode(req)
}

/// Encodes a response canonically.
pub fn encode_response(resp: &Response) -> String {
    encode(resp)
}

/// Decodes one request frame.
pub fn decode_request(text: &str) -> Result<Request, String> {
    decode(text)
}

/// Decodes one response frame.
pub fn decode_response(text: &str) -> Result<Response, String> {
    decode(text)
}

/// FNV-1a hash of a canonical request encoding — the response-cache key.
pub fn request_key(canonical: &str) -> u64 {
    FNV1A.bytes(FNV_OFFSET, canonical.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strategy-less requests must encode to exactly the pre-strategy wire
    /// bytes: these literals are pinned from before the `strategy` field
    /// existed, so old clients keep their cache keys (and cached entries)
    /// across the upgrade.
    #[test]
    fn strategyless_requests_keep_the_legacy_wire_format() {
        let provision = Request::Provision {
            app: AppSpec::Named {
                name: "GTC".into(),
                procs: 64,
            },
            block_ports: 16,
            cutoff: 2048,
            strategy: None,
        };
        assert_eq!(
            encode_request(&provision),
            r#"{"type":"provision","app":{"name":"GTC","procs":64},"block_ports":16,"cutoff":2048}"#
        );
        let simulate = Request::Simulate {
            app: AppSpec::Inline {
                n: 4,
                edges: vec![(0, 1, 4096, 2, 4096)],
            },
            fabric: FabricSpec::Hfast,
            cutoff: 2048,
            faults: None,
            strategy: None,
        };
        assert_eq!(
            encode_request(&simulate),
            r#"{"type":"simulate","app":{"n":4,"edges":[[0,1,4096,2,4096]]},"fabric":{"kind":"hfast"},"cutoff":2048}"#
        );
        // Naming the default strategy explicitly is a *different* request
        // (and key): equivalence is semantic, not wire-level.
        let explicit = Request::Provision {
            app: AppSpec::Named {
                name: "GTC".into(),
                procs: 64,
            },
            block_ports: 16,
            cutoff: 2048,
            strategy: Some(Strategy::PaperLinear),
        };
        assert_ne!(
            request_key(&encode_request(&provision)),
            request_key(&encode_request(&explicit))
        );
    }

    #[test]
    fn unknown_strategy_is_a_structured_error() {
        let enc = r#"{"type":"provision","app":{"name":"GTC","procs":64},"block_ports":16,"cutoff":2048,"strategy":"warp_speed"}"#;
        assert!(decode_request(enc).is_err());
    }

    #[test]
    fn keys_separate_distinct_requests() {
        let a = encode_request(&Request::Health);
        let b = encode_request(&Request::Stats);
        assert_ne!(request_key(&a), request_key(&b));
        assert_eq!(request_key(&a), request_key(&a));
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        assert!(decode_request("").is_err());
        assert!(decode_request("{}").is_err());
        assert!(decode_request(r#"{"type":"warp"}"#).is_err());
        assert!(decode_request(r#"{"type":"tdc","app":{"name":"GTC"}}"#).is_err());
        assert!(decode_request(r#"{"type":"provision","app":{"n":2,"edges":[[0]]}}"#).is_err());
        // A version tag is refused, whatever it says: misreading a v2
        // or future frame as a bare body would answer it untagged.
        for (frame, version) in [
            (r#"{"v":3,"type":"health"}"#, "3"),
            (r#"{"v":2,"type":"health"}"#, "2"),
        ] {
            let err = decode_request(frame).expect_err("a tagged frame");
            assert_eq!(
                err,
                format!("field \"v\": unsupported wire version {version}")
            );
        }
        let err = decode_request(r#"{"v":"2","type":"health"}"#).expect_err("a string tag");
        assert!(err.starts_with("field \"v\""), "{err}");
        // A member's type is its range: 2^32 + 1 credits is an error that
        // names the member, not a silently narrowed one-slot run.
        let scenario = |credits: &str| {
            decode_request(&format!(
                r#"{{"type":"scenario","kind":"incast","nodes":8,"seed":1,"fabric":{{"kind":"hfast"}},"credits":{credits}}}"#
            ))
        };
        assert!(scenario("4294967295").is_ok());
        for hostile in ["4294967297", "-1", "1.5", "1e400", "null", "\"2\""] {
            let err = scenario(hostile).expect_err("out of range");
            assert!(err.contains("\"credits\""), "{hostile}: {err}");
        }
        // Errors name the member at every level of nesting.
        let err = decode_request(r#"{"type":"cost","app":{"name":"GTC"},"block_ports":1}"#)
            .expect_err("no procs");
        assert!(
            err.contains("\"app\"") && err.contains("\"procs\""),
            "{err}"
        );
    }

    /// The scenario verb pins its wire form, and its cache keys separate
    /// every knob: kind, nodes, overrides, seed, fabric, strategy, and
    /// credits all land in the canonical encoding.
    #[test]
    fn scenario_requests_pin_their_wire_format_and_keys() {
        let preset = Request::Scenario {
            kind: ScenarioKind::Incast,
            nodes: 64,
            flows: None,
            bytes: None,
            seed: 49374,
            fabric: FabricSpec::FatTree { ports: 8 },
            strategy: None,
            credits: None,
        };
        assert_eq!(
            encode_request(&preset),
            r#"{"type":"scenario","kind":"incast","nodes":64,"seed":49374,"fabric":{"kind":"fattree","ports":8}}"#
        );
        let full = Request::Scenario {
            kind: ScenarioKind::HotSpot,
            nodes: 32,
            flows: Some(64),
            bytes: Some(65536),
            seed: 5,
            fabric: FabricSpec::Hfast,
            strategy: Some(Strategy::BffCircuit),
            credits: Some(2),
        };
        assert_eq!(
            encode_request(&full),
            r#"{"type":"scenario","kind":"hotspot","nodes":32,"flows":64,"bytes":65536,"seed":5,"fabric":{"kind":"hfast"},"strategy":"bff_circuit","credits":2}"#
        );
        // Every knob separates the cache key from the preset's.
        let key = |r: &Request| request_key(&encode_request(r));
        let mut variants = vec![preset.clone()];
        let mutators: [fn(&mut Request); 8] = [
            |r| {
                let Request::Scenario { kind, .. } = r else {
                    unreachable!()
                };
                *kind = ScenarioKind::Bursty;
            },
            |r| {
                let Request::Scenario { nodes, .. } = r else {
                    unreachable!()
                };
                *nodes = 32;
            },
            |r| {
                let Request::Scenario { flows, .. } = r else {
                    unreachable!()
                };
                *flows = Some(10);
            },
            |r| {
                let Request::Scenario { bytes, .. } = r else {
                    unreachable!()
                };
                *bytes = Some(1024);
            },
            |r| {
                let Request::Scenario { seed, .. } = r else {
                    unreachable!()
                };
                *seed = 1;
            },
            |r| {
                let Request::Scenario { fabric, .. } = r else {
                    unreachable!()
                };
                *fabric = FabricSpec::Hfast;
            },
            |r| {
                let Request::Scenario { strategy, .. } = r else {
                    unreachable!()
                };
                *strategy = Some(Strategy::PaperLinear);
            },
            |r| {
                let Request::Scenario { credits, .. } = r else {
                    unreachable!()
                };
                *credits = Some(4);
            },
        ];
        for f in mutators {
            let mut v = preset.clone();
            f(&mut v);
            variants.push(v);
        }
        for (i, a) in variants.iter().enumerate() {
            for b in variants.iter().skip(i + 1) {
                assert_ne!(key(a), key(b), "{a:?} and {b:?} collide");
            }
        }
        // An unknown kind is a structured decode error.
        assert!(decode_request(
            r#"{"type":"scenario","kind":"warp","nodes":8,"seed":1,"fabric":{"kind":"hfast"}}"#
        )
        .is_err());
    }

    /// The durable job queue's verbs are gone from the table, so an old
    /// client sending one gets a structured error naming the tag.
    #[test]
    fn retired_job_verbs_are_unknown_types() {
        for verb in ["submit", "poll", "fetch", "cancel"] {
            let err = decode_request(&format!(r#"{{"type":"{verb}","id":7}}"#))
                .expect_err("a retired verb");
            assert_eq!(err, format!("unknown Request type {verb:?}"));
        }
        for tag in ["job", "job_status"] {
            let err = decode_response(&format!(r#"{{"type":"{tag}","id":7}}"#))
                .expect_err("a retired response");
            assert_eq!(err, format!("unknown Response type {tag:?}"));
        }
    }

    /// The verb table is the single source of truth: every row's name is
    /// the endpoint string, indexes match `verb_index`, and the first
    /// eight rows keep their pre-table order (obs metric stability).
    #[test]
    fn verb_table_is_consistent() {
        assert_eq!(VERBS.len(), ENDPOINTS.len());
        for (i, spec) in VERBS.iter().enumerate() {
            assert_eq!(spec.name, ENDPOINTS[i]);
        }
        assert_eq!(
            &ENDPOINTS[..8],
            &[
                "health",
                "stats",
                "provision",
                "cost",
                "tdc",
                "simulate",
                "shutdown",
                "debug_panic"
            ]
        );
        // Every row's name is a tag some `Request` variant was declared
        // with, and a bare-tag frame that decodes lands back on its row
        // (`tests/wire_golden.rs` holds the variants with members to the
        // same rule, row by row).
        for (i, spec) in VERBS.iter().enumerate() {
            match decode_request(&format!("{{\"type\":\"{}\"}}", spec.name)) {
                Ok(req) => assert_eq!(req.verb_index(), i),
                Err(e) => assert!(e.starts_with("missing field"), "{}: {e}", spec.name),
            }
        }
        assert_eq!(Request::Metrics.endpoint(), "metrics");
        assert_eq!(ENDPOINTS[Request::Metrics.verb_index()], "metrics");
        assert!(!Request::Metrics.cacheable());
        let scenario = Request::Scenario {
            kind: ScenarioKind::Bursty,
            nodes: 16,
            flows: None,
            bytes: None,
            seed: 1,
            fabric: FabricSpec::Hfast,
            strategy: None,
            credits: None,
        };
        assert_eq!(scenario.endpoint(), "scenario");
        assert!(scenario.cacheable(), "seeded replays are pure functions");
        // Only computed verbs are cacheable.
        for spec in VERBS.iter().filter(|s| s.cacheable) {
            assert!(matches!(spec.handler, VerbHandler::Compute(_)));
        }
    }
}
