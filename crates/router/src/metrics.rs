//! Router-side metric handles in the process-global `mg-obs` registry.
//!
//! Observability only: the deterministic `stats` line reads
//! session/core-local counters in `router.rs`, never these globals
//! (several routers in one process — tests, the harness — share the
//! registry). Unlike the stats line, the exposition endpoint reports
//! `failovers`/`dead`/`replicas` state unconditionally, so healthy-run
//! failover counts are observable.

use mg_obs::{registry, Counter, Gauge, Histogram, PHASE_BOUNDS};
use std::sync::OnceLock;

pub(crate) struct RouterMetrics {
    /// Every decoded request unit, including ones that fail to parse.
    pub requests: Counter,
    /// Requests replayed or dispatched away from their primary replica.
    pub failovers: Counter,
    /// Forward attempts that blocked on a full per-shard window.
    pub window_stalls: Counter,
    /// Forwarded-but-unanswered requests across all sessions (replay
    /// depth: what a failover would need to replay right now).
    pub pending: Gauge,
    /// Open router sessions.
    pub sessions_live: Gauge,
}

/// The shared handle set, registered on first use.
pub(crate) fn router_metrics() -> &'static RouterMetrics {
    static METRICS: OnceLock<RouterMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        RouterMetrics {
            requests: r.counter("mgpart_router_requests_total", &[]),
            failovers: r.counter("mgpart_router_failovers_total", &[]),
            window_stalls: r.counter("mgpart_router_window_stalls_total", &[]),
            pending: r.gauge("mgpart_router_pending_requests", &[]),
            sessions_live: r.gauge("mgpart_router_sessions_live", &[]),
        }
    })
}

/// Per-shard dispatch counter (`shard=` is the topology id).
pub(crate) fn dispatch_counter(shard_id: &str) -> Counter {
    registry().counter("mgpart_router_dispatches_total", &[("shard", shard_id)])
}

/// End-to-end routed-request latency by resolving shard, decode through
/// delivery. Shares the phase bucket ladder so router, shard, and phase
/// latencies read on one scale.
pub(crate) fn router_request_seconds(shard_id: &str) -> Histogram {
    registry().histogram(
        "mgpart_router_request_seconds",
        &[("shard", shard_id)],
        PHASE_BOUNDS,
    )
}

/// Records a probe/health state transition for one shard: bumps the
/// `to="up"|"down"` transition counter and sets the liveness gauge.
pub(crate) fn health_transition(shard_id: &str, alive: bool) {
    let to = if alive { "up" } else { "down" };
    registry()
        .counter(
            "mgpart_router_probe_transitions_total",
            &[("shard", shard_id), ("to", to)],
        )
        .inc();
    set_shard_alive(shard_id, alive);
}

/// Sets the per-shard liveness gauge (1 = believed alive).
pub(crate) fn set_shard_alive(shard_id: &str, alive: bool) {
    registry()
        .gauge("mgpart_router_shard_alive", &[("shard", shard_id)])
        .set(u64::from(alive));
}

/// Records the configured replication factor.
pub(crate) fn set_replicas(replicas: usize) {
    registry()
        .gauge("mgpart_router_replicas", &[])
        .set(replicas as u64);
}
