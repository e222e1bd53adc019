//! Transport-agnostic request/response types of the partition service.
//!
//! The serving front end (`mg-server`) accepts JSON-lines requests and
//! streams JSON-lines responses; this module holds the *plain data* halves
//! of that protocol so they can be built, executed and tested without any
//! wire format or socket in sight. The wire codec lives next to the
//! transports in `mg-server`; the method spelling goes through the single
//! [`Method`] name codec so the CLI, the sweep records and the service can
//! never drift apart.

use crate::methods::Method;
use mg_sparse::{io, Coo, Idx};

/// Where a request's matrix comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixPayload {
    /// Inline COO triplets (0-based coordinates).
    Inline {
        /// Number of rows.
        rows: Idx,
        /// Number of columns.
        cols: Idx,
        /// `(row, col)` coordinates; arbitrary order, duplicates collapse.
        entries: Vec<(Idx, Idx)>,
    },
    /// A named matrix of the server's deterministic evaluation collection.
    Collection(String),
    /// A full Matrix Market document shipped as a string payload.
    MatrixMarket(String),
}

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// Bipartition a matrix (the default when no `op` field is present).
    Partition,
    /// Liveness probe; answered immediately in stream order.
    Ping,
    /// Session counters (received / cache hits / errors so far).
    Stats,
    /// Stop accepting new work, drain in-flight jobs, then exit.
    Shutdown,
    /// Negotiate the wire codec of this connection (JSON lines or binary
    /// frames); answered in stream order, the switch applies to every
    /// subsequent unit on both directions of the stream.
    Hello,
}

/// One partition request, decoded but not yet executed.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Matrix source.
    pub matrix: MatrixPayload,
    /// Bipartitioning method.
    pub method: Method,
    /// Requested engine: the canonical name of a registered
    /// [`crate::backend`] backend, resolved at decode time (so an unknown
    /// name fails the request with `unknown_backend` before anything is
    /// queued). `None` uses the server's default backend.
    pub backend: Option<&'static str>,
    /// Load-imbalance parameter ε of eqn (1).
    pub epsilon: f64,
    /// Optional client seed folded into the job-key hash; `None` uses the
    /// server's master seed.
    pub seed: Option<u64>,
    /// Include the full per-nonzero part vector in the response.
    pub include_partition: bool,
}

/// The deterministic result of executing one [`PartitionSpec`].
///
/// Everything here is a pure function of (matrix content, method, ε,
/// effective seed) — no wall-clock fields — so a response built from an
/// outcome is byte-identical however and whenever the job ran.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// Number of rows of the partitioned matrix.
    pub rows: Idx,
    /// Number of columns.
    pub cols: Idx,
    /// Number of (deduplicated) nonzeros.
    pub nnz: usize,
    /// Content fingerprint of the matrix ([`matrix_fingerprint`]).
    pub fingerprint: u64,
    /// Canonical backend name the job ran on (`mondriaan`, …).
    pub backend: &'static str,
    /// Canonical method name (`mg-ir`, …).
    pub method: &'static str,
    /// Load-imbalance parameter the job ran with.
    pub epsilon: f64,
    /// The effective RNG seed (derived via the job-key hash).
    pub seed: u64,
    /// Communication volume of the result (eqn (3)).
    pub volume: u64,
    /// Achieved load imbalance (eqn (1) left-hand side).
    pub imbalance: f64,
    /// Iterations of Algorithm 2 performed (0 without IR).
    pub ir_iterations: u32,
    /// Nonzeros assigned to parts 0 and 1.
    pub part_nnz: [u64; 2],
    /// Part id per nonzero, aligned with the canonical (row-major sorted,
    /// deduplicated) entry order of the matrix.
    pub partition: Vec<Idx>,
}

/// Machine-readable error classes of the service protocol.
///
/// The wire spelling ([`ErrorCode::as_str`]) is part of the public
/// protocol; see `crates/server/PROTOCOL.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON.
    BadJson,
    /// The request is valid JSON but structurally wrong (missing or
    /// ill-typed fields).
    BadRequest,
    /// The `method` field is not a known method name.
    BadMethod,
    /// The matrix payload does not decode (bad COO bounds, malformed
    /// Matrix Market text, …).
    BadMatrix,
    /// The `backend` field names no registered partition backend.
    UnknownBackend,
    /// The named collection matrix does not exist.
    UnknownCollection,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
    /// A syntactically valid `op` the server does not support.
    Unsupported,
    /// A client-side failure to reach the endpoint at all (emitted by
    /// `mgpart request` when the TCP connect fails; no server was
    /// involved).
    ConnectionRefused,
    /// The router lost a downstream shard and exhausted its
    /// reconnect-and-replay attempts for this request.
    ShardUnavailable,
    /// The request addressed a shard id that is not part of the router's
    /// topology.
    UnknownShard,
    /// A client-side read deadline expired (`mgpart request --timeout`):
    /// the endpoint accepted the connection but never answered.
    RequestTimeout,
    /// An internal worker failed (e.g. panicked) while the request was in
    /// flight; the request was lost but the session keeps draining.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of this error class.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::BadMethod => "bad_method",
            ErrorCode::BadMatrix => "bad_matrix",
            ErrorCode::UnknownBackend => "unknown_backend",
            ErrorCode::UnknownCollection => "unknown_collection",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ConnectionRefused => "connection_refused",
            ErrorCode::ShardUnavailable => "shard_unavailable",
            ErrorCode::UnknownShard => "unknown_shard",
            ErrorCode::RequestTimeout => "request_timeout",
            ErrorCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The shared SplitMix64 finaliser, defined in `mg-sparse` so crates below
/// the engine (the sweep's seed derivation) use the same function.
pub use mg_sparse::mix64;

/// A stable 64-bit content fingerprint of a matrix: FNV-1a over the
/// dimensions and the canonical entry list, finalised with [`mix64`].
///
/// Two matrices fingerprint equal iff they have the same shape and nonzero
/// pattern, whatever source they were decoded from — so an inline-COO
/// request and a Matrix Market request for the same matrix share cache
/// entries and derived seeds.
pub fn matrix_fingerprint(a: &Coo) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    eat(u64::from(a.rows()));
    eat(u64::from(a.cols()));
    eat(a.nnz() as u64);
    for (i, j) in a.iter() {
        eat((u64::from(i) << 32) | u64::from(j));
    }
    mix64(h)
}

/// A stable 64-bit fingerprint of a *name* (FNV-1a over the bytes,
/// finalised with [`mix64`]): the placement key of collection-matrix
/// requests, whose content only the shard knows.
pub fn name_fingerprint(name: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    mix64(h)
}

/// Decodes the matrix carried *inside* a payload: inline COO triplets and
/// Matrix Market text resolve to a [`Coo`] (with the library's typed
/// validation errors), collection names resolve to `None` — only the
/// serving side holds a collection.
///
/// This is the single decode path shared by the `mg-server` engine and
/// the `mg-router` front end, so a malformed payload produces the exact
/// same `(code, message)` pair whether a shard or the router rejects it.
/// A borrowed inline payload is copied; [`MatrixPayload::into_matrix`]
/// takes the entries instead.
pub fn payload_matrix(payload: &MatrixPayload) -> Result<Option<Coo>, (ErrorCode, String)> {
    match payload {
        MatrixPayload::Inline {
            rows,
            cols,
            entries,
        } => inline_matrix(*rows, *cols, entries.clone()).map(Some),
        MatrixPayload::Collection(_) => Ok(None),
        MatrixPayload::MatrixMarket(text) => io::parse_matrix_market(text.as_bytes())
            .map(Some)
            .map_err(|e| (ErrorCode::BadMatrix, e.to_string())),
    }
}

fn inline_matrix(
    rows: Idx,
    cols: Idx,
    entries: Vec<(Idx, Idx)>,
) -> Result<Coo, (ErrorCode, String)> {
    Coo::new(rows, cols, entries).map_err(|e| (ErrorCode::BadMatrix, e.to_string()))
}

impl MatrixPayload {
    /// [`payload_matrix`] of an owned payload: inline entries become the
    /// matrix's own storage.
    pub fn into_matrix(self) -> Result<Option<Coo>, (ErrorCode, String)> {
        match self {
            MatrixPayload::Inline {
                rows,
                cols,
                entries,
            } => inline_matrix(rows, cols, entries).map(Some),
            other => payload_matrix(&other),
        }
    }
}

/// Extracts the placement key of a payload — the key a router hashes to
/// pick a shard, and the request half of its cache identity:
/// [`matrix_fingerprint`] when the content travels with the request,
/// [`name_fingerprint`] when only a collection name does. Fails with the
/// same typed error the serving engine would produce for an undecodable
/// payload.
pub fn placement_key(payload: MatrixPayload) -> Result<u64, (ErrorCode, String)> {
    Ok(match payload {
        MatrixPayload::Collection(name) => name_fingerprint(&name),
        content => matrix_fingerprint(
            &content
                .into_matrix()?
                .expect("content payloads carry their matrix"),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_content_addressed() {
        // Same pattern via different constructions → same fingerprint.
        let a = Coo::new(3, 4, vec![(0, 1), (2, 3), (1, 1)]).unwrap();
        let b = Coo::new(3, 4, vec![(1, 1), (0, 1), (2, 3), (2, 3)]).unwrap();
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_shape_and_pattern() {
        let a = Coo::new(3, 4, vec![(0, 1)]).unwrap();
        let taller = Coo::new(4, 4, vec![(0, 1)]).unwrap();
        let moved = Coo::new(3, 4, vec![(0, 2)]).unwrap();
        let empty = Coo::empty(3, 4);
        let fps = [&a, &taller, &moved, &empty].map(matrix_fingerprint);
        for x in 0..fps.len() {
            for y in x + 1..fps.len() {
                assert_ne!(fps[x], fps[y], "{x} vs {y}");
            }
        }
    }

    #[test]
    fn error_codes_have_stable_wire_spellings() {
        assert_eq!(ErrorCode::BadJson.as_str(), "bad_json");
        assert_eq!(ErrorCode::UnknownBackend.as_str(), "unknown_backend");
        assert_eq!(ErrorCode::ShuttingDown.to_string(), "shutting_down");
        assert_eq!(ErrorCode::ConnectionRefused.as_str(), "connection_refused");
        assert_eq!(ErrorCode::ShardUnavailable.as_str(), "shard_unavailable");
        assert_eq!(ErrorCode::UnknownShard.as_str(), "unknown_shard");
        assert_eq!(ErrorCode::RequestTimeout.as_str(), "request_timeout");
        assert_eq!(ErrorCode::Internal.as_str(), "internal");
    }

    #[test]
    fn placement_keys_match_fingerprints_for_content_payloads() {
        let inline = MatrixPayload::Inline {
            rows: 3,
            cols: 4,
            entries: vec![(0, 1), (2, 3), (1, 1)],
        };
        let mtx = MatrixPayload::MatrixMarket(
            "%%MatrixMarket matrix coordinate pattern general\n3 4 3\n1 2\n3 4\n2 2\n".into(),
        );
        let a = Coo::new(3, 4, vec![(0, 1), (2, 3), (1, 1)]).unwrap();
        for payload in [inline, mtx] {
            assert_eq!(placement_key(payload).unwrap(), matrix_fingerprint(&a));
        }
    }

    #[test]
    fn placement_keys_hash_collection_names_without_content() {
        let key = placement_key(MatrixPayload::Collection("laplace2d_00_k10".into())).unwrap();
        assert_eq!(key, name_fingerprint("laplace2d_00_k10"));
        assert_ne!(
            name_fingerprint("laplace2d_00_k10"),
            name_fingerprint("laplace2d_00_k20")
        );
    }

    #[test]
    fn bad_payloads_fail_placement_with_the_engine_error_class() {
        let bad = MatrixPayload::Inline {
            rows: 2,
            cols: 2,
            entries: vec![(5, 0)],
        };
        let (code, message) = placement_key(bad).unwrap_err();
        assert_eq!(code, ErrorCode::BadMatrix);
        assert!(!message.is_empty());
        let bad_mtx = MatrixPayload::MatrixMarket("not a matrix market header".into());
        assert_eq!(placement_key(bad_mtx).unwrap_err().0, ErrorCode::BadMatrix);
    }

    #[test]
    fn mix64_separates_adjacent_inputs() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..1000u64 {
            assert!(seen.insert(mix64(x)));
        }
    }
}
