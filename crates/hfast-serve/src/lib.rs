//! Provisioning-as-a-service: a concurrent daemon over the HFAST toolkit.
//!
//! Everything this workspace can compute about the paper's applications —
//! HFAST provisioning, fat-tree cost comparisons, thresholded-degree
//! sweeps, full traffic replays with optional fault injection — is
//! exposed here as a network service, so one warm process answers many
//! clients instead of every caller paying profiling and fabric
//! construction from scratch.
//!
//! The daemon is std-only: `TcpListener` plus one thread per connection,
//! a length-prefixed JSON protocol (the in-repo parser from `hfast-trace`,
//! no external dependencies), and production shapes scaled down to
//! something auditable. Every verb is one request and one answer on the
//! connection that sent it; the worst-case verb times that make a job
//! queue unnecessary are recorded in EXPERIMENTS.md, "Why synchronous".
//!
//! - **Sharded response cache** ([`ResponseCache`]): cacheable endpoints
//!   are pure functions of their canonical request encoding, so responses
//!   are memoized under a byte budget with LRU eviction.
//! - **Admission control**: a compute request runs on its connection
//!   thread once it holds one of `workers` counting permits; a request
//!   that finds `queue_cap` others waiting sheds with [`Response::Busy`],
//!   and one still waiting at its deadline expires.
//! - **Panic isolation**: handlers run under `catch_unwind`; a panicking
//!   request produces a structured error and frees its permit, never
//!   kills a thread.
//! - **Graceful drain**: shutdown stops accepting, finishes in-flight
//!   work, then flushes `hfast-obs` metrics and the Perfetto trace.
//! - **One canonical wire form**: a frame is its bare JSON body, the same
//!   bytes the cache key hashes; a frame tagged with a `"v"` member is
//!   refused with a structured error.
//!
//! ```no_run
//! use hfast_serve::{start, Client, Request, Response, ServerConfig};
//!
//! let server = start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let resp = client
//!     .call(&Request::Provision {
//!         app: hfast_serve::AppSpec::Named { name: "GTC".into(), procs: 64 },
//!         block_ports: 16,
//!         cutoff: 2048,
//!         strategy: None,
//!     })
//!     .unwrap();
//! assert!(matches!(resp, Response::Provisioned { .. }));
//! client.call(&Request::Shutdown).unwrap();
//! server.join();
//! ```

#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![forbid(unsafe_code)]

mod cache;
mod client;
mod frame;
mod handlers;
mod protocol;
mod registry;
mod server;

pub use cache::{CacheStats, ResponseCache};
pub use client::{Client, ClientError};
pub use frame::{read_frame, write_frame, FrameError, FramePoll, FrameReader, MAX_FRAME_BYTES};
pub use handlers::execute;
pub use hfast_core::Strategy;
pub use hfast_netsim::{FabricSpec, ScenarioKind};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, request_key, AppSpec,
    FaultSpec, Request, Response, TdcRow, VerbLatency, VerbWindow, ENDPOINTS,
};
pub use registry::Registry;
pub use server::{start, ServerConfig, ServerHandle};
