//! # mg-server — the streaming partition service
//!
//! A long-running front end on top of the partitioners: clients submit
//! JSON-lines partition requests (inline COO triplets, a named collection
//! matrix, or a Matrix Market payload, plus method/ε/seed) and receive
//! JSON-lines responses (volume, imbalance, per-phase stats, optionally
//! the full assignment) streamed back **in submission order** while jobs
//! execute **out of order** on a pool of long-lived worker threads.
//!
//! Two transports share one protocol and one session runtime
//! ([`session`], which the router reuses unchanged):
//!
//! * **pipe mode** ([`Service::run_session`]) — requests on any reader,
//!   responses on any writer; fully testable without sockets, and what
//!   `mgpart serve` runs on stdin/stdout when `--listen` is omitted;
//! * **TCP** ([`TcpServer`]) — a threaded `std::net` listener with one
//!   session per connection over a shared engine and response cache.
//!
//! The engine provides bounded-queue backpressure, an LRU response cache
//! keyed by (matrix fingerprint, method, ε, seed), graceful
//! drain-on-shutdown, and the workspace's determinism contract extended
//! to serving: a session's response bytes are a pure function of its
//! request bytes, independent of thread count (see `PROTOCOL.md`).
//!
//! ```
//! use mg_server::{Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default());
//! let script = concat!(
//!     r#"{"id":1,"matrix":{"rows":2,"cols":2,"entries":[[0,0],[1,1]]}}"#,
//!     "\n",
//!     r#"{"id":2,"op":"ping"}"#,
//!     "\n",
//! );
//! let mut out = Vec::new();
//! service.run_session(script.as_bytes(), &mut out);
//! let text = String::from_utf8(out).unwrap();
//! assert_eq!(text.lines().count(), 2);
//! assert!(text.lines().next().unwrap().contains("\"status\":\"ok\""));
//! ```

pub mod cache;
pub mod codec;
pub mod json;
mod metrics;
pub mod protocol;
pub mod service;
pub mod session;

pub use cache::LruCache;
pub use codec::{UnitKind, UnitScanner, WireCodec};
pub use json::{Json, JsonError};
pub use protocol::{
    error_response, hello_response, ok_response, op_response, parse_request_line, stats_response,
    Request, RequestError, StatsSnapshot, DEFAULT_EPSILON, DEFAULT_METHOD,
};
pub use service::{Service, ServiceConfig, SessionSummary};
pub use session::TcpFrontEnd;

/// The partition service's TCP front end.
pub type TcpServer = TcpFrontEnd<Service>;
