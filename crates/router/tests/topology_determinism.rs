//! The routing determinism contract: one session's response byte stream
//! is a pure function of its request byte stream for **any shard count at
//! any worker-thread count** — 1, 2 and 4 identically-configured shards, each
//! at 1, 2 and 4 threads, must produce the same bytes, because placement
//! is a pure function of the request, every job is seeded from its key,
//! and the router cache only re-issues shard-produced lines.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::ServiceConfig;
use mg_sparse::{gen, io, Coo};

fn inline_payload(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

fn mtx_payload(a: &Coo) -> String {
    let mut text = Vec::new();
    io::write_matrix_market(a, &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();
    format!(
        "{{\"mtx\":\"{}\"}}",
        text.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('"', "\\\"")
    )
}

/// A script that spreads distinct matrices over the keyspace (so K > 1
/// actually shards the work), repeats keys (cache hits), crosses payload
/// kinds, selects backends, provokes every locally- and shard-answered
/// error, and exercises the auxiliary ops.
fn script() -> String {
    let matrices = [
        gen::laplacian_2d(9, 7),
        gen::arrow(40, 3),
        gen::laplacian_2d_9pt(8, 6),
        gen::laplacian_2d(12, 5),
        gen::arrow(25, 2),
        gen::laplacian_2d(6, 6),
    ];
    let mut lines: Vec<String> = Vec::new();
    let mut id = 0u64;
    // Distinct fresh jobs, spread across shards by content fingerprint.
    for a in &matrices {
        lines.push(format!(
            "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\"}}",
            inline_payload(a)
        ));
        id += 1;
    }
    // The same matrix as a Matrix Market payload: same fingerprint, same
    // shard, answered as a repeat.
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\"}}",
        mtx_payload(&matrices[0])
    ));
    id += 1;
    // Collection matrices route by name fingerprint.
    for name in ["laplace2d_00_k20", "arrow_00_n287_b2"] {
        lines.push(format!(
            "{{\"id\":{id},\"matrix\":{{\"collection\":{name:?}}},\"method\":\"lb\"}}"
        ));
        id += 1;
    }
    // Straight repeats → cached: true (router LRU or shard cache; the
    // bytes agree either way).
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\"}}",
        inline_payload(&matrices[1])
    ));
    id += 1;
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{{\"collection\":\"laplace2d_00_k20\"}},\"method\":\"lb\"}}"
    ));
    id += 1;
    // Another backend on a known matrix: separate key, computed fresh.
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{},\"backend\":\"geometric\"}}",
        inline_payload(&matrices[2])
    ));
    id += 1;
    // Full assignment requested (its own key at both cache levels).
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{},\"include_partition\":true}}",
        inline_payload(&matrices[3])
    ));
    id += 1;
    // Errors: local parse/validation failures and shard-side failures.
    lines.push("not json at all".to_string());
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{{\"collection\":\"no_such_matrix\"}}}}"
    ));
    id += 1;
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{{\"rows\":2,\"cols\":2,\"entries\":[[0,0]]}},\"backend\":\"quantum\"}}"
    ));
    id += 1;
    lines.push(format!(
        "{{\"id\":{id},\"matrix\":{{\"rows\":2,\"cols\":2,\"entries\":[[7,0]]}}}}"
    ));
    id += 1;
    // Auxiliary ops; stats is router-local and topology-independent.
    lines.push(format!("{{\"id\":{id},\"op\":\"ping\"}}"));
    id += 1;
    lines.push(format!("{{\"id\":{id},\"op\":\"stats\"}}"));
    id += 1;
    // In-band shutdown: drains the session, then every shard.
    lines.push(format!("{{\"id\":{id},\"op\":\"shutdown\"}}"));
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// Identical shard configuration at every index — the determinism
/// contract's precondition (untagged: shard ids would legitimately
/// differ across topologies on error diagnostics).
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
    let cluster = LocalCluster::spawn(shards, |_| shard_config(threads));
    let router = cluster.router(RouterConfig::default());
    let mut out = Vec::new();
    let summary = router.run_session(script().as_bytes(), &mut out);
    cluster.shutdown();
    assert_eq!(summary.received, summary.responses);
    String::from_utf8(out).unwrap()
}

#[test]
fn response_stream_is_identical_for_1_2_4_shards_at_1_2_4_threads() {
    let baseline = run(1, 1);
    assert!(baseline.contains("\"cached\":true"));
    assert!(baseline.contains("\"status\":\"error\""));
    assert!(baseline.contains("\"op\":\"stats\""));
    assert!(baseline.contains("\"op\":\"shutdown\""));
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            assert_eq!(
                baseline,
                run(shards, threads),
                "response stream diverged at {shards} shards / {threads} threads"
            );
        }
    }
}

#[test]
fn routed_streams_match_a_direct_server_session() {
    // The same script (minus the shutdown ack semantics, which are
    // identical anyway) through one un-routed server must produce the
    // same bytes — the router adds no observable layer.
    let direct_service = mg_server::Service::start(shard_config(2));
    let mut direct = Vec::new();
    direct_service.run_session(script().as_bytes(), &mut direct);
    direct_service.shutdown_and_join();
    let direct = String::from_utf8(direct).unwrap();
    let routed = run(2, 2);
    // The stats line is the only divergence: the server reports richer
    // counters (cache_misses, per-backend completions) than the router.
    let differing: Vec<(&str, &str)> = direct
        .lines()
        .zip(routed.lines())
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(
        differing.len(),
        1,
        "only the stats line may differ: {differing:#?}"
    );
    assert!(differing[0].0.contains("\"op\":\"stats\""));
    assert!(differing[0].1.contains("\"op\":\"stats\""));
}
