//! The service determinism contract (the sweep-level contract of
//! `crates/bench/tests/determinism.rs` extended to serving): the same
//! request script replayed through the stdio/pipe transport must produce
//! a byte-identical response stream at every `--threads` count, because
//! every job is seeded from its (matrix fingerprint, method, ε, seed) key
//! and the `cached` flag is decided in submission order.

use mg_collection::CollectionSpec;
use mg_server::{Service, ServiceConfig};
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

/// A script exercising every request shape: three matrix payload kinds,
/// several methods and epsilons, both backends, explicit seeds,
/// duplicates (cache hits and in-flight coalescing), include_partition,
/// malformed lines, and the auxiliary ops.
fn script() -> String {
    let laplace = gen::laplacian_2d(9, 7);
    let arrow = gen::arrow(40, 3);
    let band = gen::laplacian_2d_9pt(8, 6);
    let mut lines: Vec<String> = Vec::new();
    let mut id = 0u64;
    let mut push = |line: String| {
        lines.push(line);
    };
    for method in ["mg", "mg-ir", "lb", "fg-ir", "rn", "cn-ir"] {
        push(format!(
            "{{\"id\":{id},\"matrix\":{},\"method\":\"{method}\"}}",
            inline_payload(&laplace)
        ));
        id += 1;
    }
    // Request 1 (mg-ir) again on the other backend: see PATOH_REPEAT.
    push(format!(
        "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\",\"backend\":\"patoh\"}}",
        inline_payload(&laplace)
    ));
    id += 1;
    for eps in ["0.03", "0.1", "0.3"] {
        push(format!(
            "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\",\"epsilon\":{eps}}}",
            inline_payload(&arrow)
        ));
        id += 1;
    }
    // Explicit seeds, including one > 2^53 to exercise exact u64 parsing.
    for seed in ["7", "18446744073709551615"] {
        push(format!(
            "{{\"id\":{id},\"matrix\":{},\"seed\":{seed}}}",
            inline_payload(&band)
        ));
        id += 1;
    }
    // The same matrix as a Matrix Market payload: same fingerprint, so
    // this coalesces with the earlier inline mg-ir request.
    push(format!(
        "{{\"id\":{id},\"matrix\":{},\"method\":\"mg-ir\"}}",
        mtx_payload(&laplace)
    ));
    id += 1;
    // Collection matrices.
    push(format!(
        "{{\"id\":{id},\"matrix\":{{\"collection\":\"laplace2d_00_k20\"}},\"method\":\"lb-ir\"}}"
    ));
    id += 1;
    // Straight duplicates → cached: true.
    for method in ["mg", "lb"] {
        push(format!(
            "{{\"id\":{id},\"matrix\":{},\"method\":\"{method}\"}}",
            inline_payload(&laplace)
        ));
        id += 1;
    }
    // Full assignment requested.
    push(format!(
        "{{\"id\":{id},\"matrix\":{},\"include_partition\":true}}",
        inline_payload(&band)
    ));
    id += 1;
    // Errors must be deterministic too.
    push("this is not json".to_string());
    push(format!(
        "{{\"id\":{id},\"matrix\":{{\"collection\":\"no_such_matrix\"}}}}"
    ));
    id += 1;
    push(format!(
        "{{\"id\":{id},\"method\":\"zz\",\"matrix\":{{\"rows\":1,\"cols\":1,\"entries\":[]}}}}"
    ));
    id += 1;
    // Auxiliary ops.
    push(format!("{{\"id\":{id},\"op\":\"ping\"}}"));
    id += 1;
    push(format!("{{\"id\":{id},\"op\":\"stats\"}}"));
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// The id of the script's request that repeats request 1 (the Laplacian,
/// `mg-ir`, default backend) on `patoh`.
const PATOH_REPEAT: u64 = 6;

/// The response line answering request `id`.
fn response(stream: &str, id: u64) -> &str {
    let prefix = format!("{{\"id\":{id},");
    stream
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no response to request {id}"))
}

/// The `seed` field of a response line.
fn seed(line: &str) -> &str {
    let rest = &line[line.find("\"seed\":").expect("a seed field") + 7..];
    &rest[..rest.find(',').unwrap()]
}

fn run(threads: usize) -> String {
    let service = Service::start(ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: mg_collection::CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    });
    let mut out = Vec::new();
    let summary = service.run_session(script().as_bytes(), &mut out);
    assert_eq!(summary.received, summary.responses);
    String::from_utf8(out).unwrap()
}

#[test]
fn response_stream_is_byte_identical_for_1_2_4_8_threads() {
    let baseline = run(1);
    assert!(!baseline.is_empty());
    assert!(baseline.contains("\"cached\":true"));
    assert!(baseline.contains("\"status\":\"error\""));
    // Another backend on the same matrix and method computes fresh: the
    // backend is part of the cache key and of the seed derivation.
    let (mondriaan, patoh) = (response(&baseline, 1), response(&baseline, PATOH_REPEAT));
    assert!(
        mondriaan.contains("\"backend\":\"mondriaan\""),
        "{mondriaan}"
    );
    assert!(patoh.contains("\"backend\":\"patoh\""), "{patoh}");
    assert!(patoh.contains("\"cached\":false"), "{patoh}");
    assert_ne!(seed(mondriaan), seed(patoh));
    for threads in [2usize, 4, 8] {
        assert_eq!(
            baseline,
            run(threads),
            "response stream diverged at {threads} threads"
        );
    }
}

#[test]
fn repeated_sessions_are_byte_identical() {
    assert_eq!(run(3), run(3));
}
