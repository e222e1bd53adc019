//! # mg-router — the sharding front end
//!
//! A standalone process that speaks the exact `mg-server` JSON-lines
//! protocol (stdio + TCP), places every partition request onto one of N
//! downstream `mg-server` shards, and streams responses back in
//! per-session submission order:
//!
//! ```text
//! client ──▶ mg-router ──▶ mg-server shard s0
//!                     ├──▶ mg-server shard s1
//!                     └──▶ mg-server shard s2
//! ```
//!
//! Placement is a **rendezvous hash** over the request's placement key —
//! the matrix content fingerprint, or the collection-name fingerprint for
//! named matrices ([`mg_core::service::placement_key`], shared with the
//! shard cache) — and the shard ids. Every partition request is
//! forwarded, so a repeat reaches the shard that computed it and that
//! shard's cache answers it; per-shard connections replay their
//! unanswered requests after a reconnect; a bounded in-flight window per
//! shard provides backpressure.
//!
//! With `--replicas R` the top-R rendezvous ranks of each key form its
//! **replica set**: requests go to the best-ranked replica currently
//! believed alive (a background `ping` prober plus connection outcomes
//! maintain liveness), and when a replica dies its in-order pending
//! queue is replayed against the next rank — invisible to clients,
//! because every replica computes byte-identical response bytes.
//!
//! The service determinism contract extends to topology: a session's
//! response bytes are a pure function of its request bytes for *any*
//! shard count, *any* replication factor, at any thread count, even
//! across replica failures (shards configured identically; see
//! `crates/server/PROTOCOL.md` § Routing and § Replication).
//!
//! ```
//! use mg_router::{LocalCluster, RouterConfig};
//! use mg_server::ServiceConfig;
//!
//! let cluster = LocalCluster::spawn(2, |_| ServiceConfig::default());
//! let router = cluster.router(RouterConfig::default());
//! let mut out = Vec::new();
//! router.run_session(&b"{\"id\":1,\"op\":\"ping\"}\n"[..], &mut out);
//! assert_eq!(
//!     String::from_utf8(out).unwrap(),
//!     "{\"id\":1,\"status\":\"ok\",\"op\":\"ping\"}\n"
//! );
//! cluster.shutdown();
//! ```

pub mod config;
pub mod harness;
mod metrics;
pub mod placement;
pub mod router;
mod shard;

pub use config::{ShardSpec, Topology, TopologyError};
pub use harness::{LocalCluster, LocalShard, ShardProxy};
pub use placement::rank;
pub use router::{Router, RouterConfig, RouterSummary};

/// The router's TCP front end: the same session runtime and listener as
/// an `mg-server` shard, so a client cannot tell a router from a shard
/// by transport behaviour.
pub type RouterTcpServer = mg_server::TcpFrontEnd<Router>;
