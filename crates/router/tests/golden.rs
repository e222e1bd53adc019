//! The checked-in router smoke script and golden response stream,
//! replayed in-process over the multi-shard harness. CI runs the same
//! pair through the real binaries (`router-smoke` in
//! `.github/workflows/ci.yml`: two `mgpart serve` shard processes plus
//! `mgpart route` in stdio mode); this test catches drift locally under
//! plain `cargo test`.
//!
//! The script's first five lines are exactly
//! `crates/server/tests/data/smoke_requests.jsonl`, and the golden's
//! first five lines must match the single-server golden byte-for-byte —
//! the router adds no observable layer over the overlap.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::ServiceConfig;

const REQUESTS: &str = include_str!("data/route_requests.jsonl");
const GOLDEN: &str = include_str!("data/route_golden.jsonl");
const SERVER_REQUESTS: &str = include_str!("../../server/tests/data/smoke_requests.jsonl");
const SERVER_GOLDEN: &str = include_str!("../../server/tests/data/smoke_golden.jsonl");

/// The `mgpart serve` default configuration (what the CI shards run
/// with, shard thread count varied — the stream must not depend on it).
fn shard_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    }
}

fn run(shards: usize, threads: usize) -> String {
    run_with(shards, threads, RouterConfig::default())
}

fn run_with(shards: usize, threads: usize, config: RouterConfig) -> String {
    let cluster = LocalCluster::spawn(shards, |_| shard_config(threads));
    let router = cluster.router(config);
    let mut out = Vec::new();
    router.run_session(REQUESTS.as_bytes(), &mut out);
    drop(router);
    cluster.shutdown();
    String::from_utf8(out).unwrap()
}

#[test]
fn route_script_reproduces_the_checked_in_golden_stream() {
    for (shards, threads) in [(1usize, 4usize), (2, 1), (2, 4), (3, 2)] {
        assert_eq!(
            run(shards, threads),
            GOLDEN,
            "response stream drifted from tests/data/route_golden.jsonl \
             (shards={shards}, threads={threads}); if the change is \
             intentional, regenerate with two `mgpart serve --listen` \
             shards and `mgpart route` as in the router-smoke CI job"
        );
    }
}

/// Replication is invisible while everyone is healthy: `--replicas 2`
/// (and 3) over a healthy cluster replays the checked-in golden
/// byte-for-byte — the acceptance pin that turning replication on never
/// perturbs a stream, and that `--replicas 1` is the exact status quo.
#[test]
fn healthy_replicated_topologies_reproduce_the_golden_stream() {
    for (shards, threads, replicas) in [(2usize, 2usize, 2usize), (3, 4, 2), (3, 1, 3)] {
        let config = RouterConfig {
            replicas,
            ..RouterConfig::default()
        };
        assert_eq!(
            run_with(shards, threads, config),
            GOLDEN,
            "replicated healthy stream drifted (shards={shards}, \
             threads={threads}, replicas={replicas})"
        );
    }
}

#[test]
fn route_script_extends_the_server_smoke_script() {
    let overlap = SERVER_REQUESTS.lines().count();
    assert_eq!(overlap, 5);
    for (i, (route, server)) in REQUESTS.lines().zip(SERVER_REQUESTS.lines()).enumerate() {
        assert_eq!(route, server, "request line {i} drifted");
    }
    for (i, (route, server)) in GOLDEN.lines().zip(SERVER_GOLDEN.lines()).enumerate() {
        assert_eq!(
            route, server,
            "routed response {i} differs from the direct-server golden"
        );
    }
    assert_eq!(SERVER_GOLDEN.lines().count(), overlap);
}

#[test]
fn golden_stream_has_the_router_features_visible() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), 10);
    // Repeat answered as cached by the owning shard.
    assert!(lines[2].contains("\"cached\":true"));
    // Local decode errors short-circuit at the router: the retired
    // `geometric` backend and a made-up one.
    assert!(lines[3].contains("\"code\":\"unknown_backend\""));
    assert!(lines[4].contains("\"code\":\"unknown_backend\""));
    // A second collection matrix routes by name fingerprint.
    assert!(lines[5].contains("\"nnz\":1995"));
    // include_partition is its own cache identity: computed fresh.
    assert!(lines[6].contains("\"cached\":false"));
    assert!(lines[6].contains("\"partition\":["));
    // Router-local ops.
    assert!(lines[7].ends_with("\"op\":\"ping\"}"));
    assert!(lines[8].contains("\"op\":\"stats\",\"received\":9,\"cache_hits\":1,\"errors\":2"));
    assert!(lines[9].ends_with("\"op\":\"shutdown\"}"));
}
