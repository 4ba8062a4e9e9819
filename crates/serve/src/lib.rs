//! # cachekit-serve
//!
//! A long-running inference/simulation service over the cachekit
//! pipelines: JSON over HTTP/1.1, a sharded bounded job queue with
//! admission control, an LRU result cache, and first-class
//! observability — the workspace's step from batch experiments to a
//! production-shaped serving system.
//!
//! Like the rest of the workspace, the crate is dependency-free: the
//! HTTP layer ([`http`]) is a hand-rolled `Content-Length`-framed
//! subset in the spirit of the vendored JSON serializer, and the
//! worker pools come from `cachekit_sim::parallel`.
//!
//! ## Architecture
//!
//! ```text
//! TCP ──► epoll reactors (1/core; connections are state machines)
//!           │ parse + validate            → 400
//!           │ canonicalize → cache        → 200 X-Cache: hit   (on-reactor)
//!           │ single-flight registry      → follow the leader: coalesced
//!           ▼
//!         JobQueue (sharded, bounded)
//!           │ saturated                   → 429 Retry-After
//!           │ draining                    → 503
//!           ▼
//!         WorkerPool → deadline shed      → 503 X-Shed
//!                    → PipelineExecutor
//!                      → cache insert     → 200 X-Cache: miss
//!                      → Completion::send → eventfd wakes the reactor
//! ```
//!
//! The connection path is a hand-rolled nonblocking epoll event loop
//! ([`reactor`], on raw bindings from [`sys`]): no thread per
//! connection, no polling sleeps — idle connections are parked kernel
//! registrations, job completion and shutdown arrive as eventfd
//! readiness, and HTTP/1.1 pipelining is served in order from the
//! per-connection [`http::RequestDecoder`].
//!
//! Result bodies are deterministic functions of the canonical request
//! — timing lives in headers and `/metrics`, never in bodies — so a
//! cache hit is byte-identical to the cold execution it replays.
//!
//! ## Quick start
//!
//! ```
//! use cachekit_serve::http::client::Connection;
//! use cachekit_serve::server::{ServeConfig, Server};
//!
//! let handle = Server::start(ServeConfig::default()).unwrap();
//! let mut conn = Connection::open(&handle.addr().to_string()).unwrap();
//! let resp = conn
//!     .post_json("/v1/query", r#"{"type":"distances","policy":"LRU","assoc":4}"#)
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body_str().contains("\"evict_distance\":4"));
//! handle.shutdown();
//! ```

// `deny`, not `forbid`: the raw epoll/eventfd bindings in [`sys`] are
// the one sanctioned exception and re-allow it locally; everything
// else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod http;
pub mod proto;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod sys;

pub use cache::{CacheCounters, ResultCache};
pub use cachekit_bench::json::Json;
pub use exec::{Executor, PipelineExecutor};
pub use proto::{
    Request, RequestError, MAX_ATTACK_ASSOC, MAX_ATTACK_ROUNDS, MAX_HIERARCHY_LEVELS,
    MAX_SIMULATE_ACCESSES,
};
pub use queue::{Admission, DrainReport, JobQueue};
pub use reactor::{Completion, Outcome, ReactorPool, Service};
pub use server::{ServeConfig, Server, ServerHandle};
