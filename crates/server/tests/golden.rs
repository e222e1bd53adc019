//! The checked-in smoke script and golden response stream, replayed
//! in-process. CI runs the same pair through the real binary
//! (`mgpart serve` in stdio mode, see `.github/workflows/ci.yml`); this
//! test catches drift locally under plain `cargo test`.
//!
//! The script covers the transport-visible features: an inline-COO
//! request, a named collection matrix, a repeat served from the cache
//! (`"cached":true`), and two backends the registry does not hold — the
//! retired `geometric` and a made-up name — each answered with a typed
//! `unknown_backend` error that lists the registered two. (That another
//! backend on the same matrix computes fresh, with its own seed, is
//! checked by `determinism.rs`.) The service config below must
//! stay in sync with the `mgpart serve` defaults, since both must
//! reproduce the same golden bytes.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::{Service, ServiceConfig};

const REQUESTS: &str = include_str!("data/smoke_requests.jsonl");
const GOLDEN: &str = include_str!("data/smoke_golden.jsonl");

/// The `mgpart serve` default configuration (threads varied by the
/// caller; the stream must not depend on it).
fn cli_default_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn smoke_script_reproduces_the_checked_in_golden_stream() {
    for threads in [1usize, 4] {
        let service = Service::start(cli_default_config(threads));
        let mut out = Vec::new();
        let summary = service.run_session(REQUESTS.as_bytes(), &mut out);
        assert_eq!(summary.responses, 5);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.errors, 2);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            GOLDEN,
            "response stream drifted from tests/data/smoke_golden.jsonl \
             (threads={threads}); if the change is intentional, regenerate \
             the golden file with:\n  \
             target/release/mgpart serve < crates/server/tests/data/smoke_requests.jsonl \
             > crates/server/tests/data/smoke_golden.jsonl"
        );
    }
}

#[test]
fn golden_stream_has_the_five_features_visible() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), 5);
    assert!(lines[0].contains("\"cached\":false"));
    assert!(
        lines[0].contains("\"backend\":\"mondriaan\""),
        "default backend is echoed"
    );
    assert!(lines[1].contains("\"collection\"") || lines[1].contains("\"nnz\":1920"));
    assert!(lines[2].contains("\"cached\":true"));
    // `geometric` was retired: it is as unknown as a made-up name, and
    // both errors list the two registered engines.
    for (line, name) in [(lines[3], "geometric"), (lines[4], "quantum")] {
        assert!(line.contains("\"status\":\"error\""), "{line}");
        assert!(line.contains("\"code\":\"unknown_backend\""), "{line}");
        assert!(
            line.contains(&format!(
                "unknown backend \\\"{name}\\\" (expected one of mondriaan, patoh)"
            )),
            "{line}"
        );
    }
}
