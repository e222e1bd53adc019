//! Server-side metric handles in the process-global `mg-obs` registry.
//!
//! Handles are resolved once ([`server_metrics`]) so hot paths pay a
//! relaxed atomic op, not a registry lookup. Everything here is
//! *observability only*: the deterministic `stats` op reads the
//! engine-local counters in `service.rs`, never these globals (several
//! services in one process — tests, the router harness — share this
//! registry).

use mg_obs::{registry, Counter, Gauge, Histogram, PHASE_BOUNDS};
use std::sync::OnceLock;

pub(crate) struct ServerMetrics {
    /// Every decoded request unit, including ones that fail to parse.
    pub requests: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub errors: Counter,
    /// Open session drivers (stdio and TCP alike).
    pub sessions_live: Gauge,
    /// Jobs waiting in the engine's bounded submission queue.
    pub queue_depth: Gauge,
    /// Jobs executing right now: each worker increments it when it pops a
    /// job and decrements it once the job is resolved.
    pub inflight: Gauge,
}

/// The shared handle set, registered on first use.
pub(crate) fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        ServerMetrics {
            requests: r.counter("mgpart_requests_total", &[]),
            cache_hits: r.counter("mgpart_cache_hits_total", &[]),
            cache_misses: r.counter("mgpart_cache_misses_total", &[]),
            errors: r.counter("mgpart_errors_total", &[]),
            sessions_live: r.gauge("mgpart_sessions_live", &[]),
            queue_depth: r.gauge("mgpart_queue_depth", &[]),
            inflight: r.gauge("mgpart_inflight", &[]),
        }
    })
}

/// Per-op request counter (`op="partition"|"ping"|...`).
pub(crate) fn op_counter(op: &'static str) -> Counter {
    registry().counter("mgpart_requests_op_total", &[("op", op)])
}

/// End-to-end request latency histogram (`op="partition"|"ping"|...`):
/// unit decode through response encode, measured at delivery. Shares the
/// phase bucket ladder (10 µs … 10 s) so per-phase and per-request
/// latencies read on one scale.
pub(crate) fn request_seconds(op: &'static str) -> Histogram {
    registry().histogram("mgpart_request_seconds", &[("op", op)], PHASE_BOUNDS)
}

/// Counts request payload bytes by wire codec (`json` or `binary`).
pub(crate) fn bytes_in(codec: &'static str, n: u64) {
    registry()
        .counter("mgpart_bytes_in_total", &[("codec", codec)])
        .add(n);
}

/// Counts response payload bytes by wire codec. Responses are always
/// JSON text; the label records the framing they ride on.
pub(crate) fn bytes_out(codec: &'static str, n: u64) {
    registry()
        .counter("mgpart_bytes_out_total", &[("codec", codec)])
        .add(n);
}
