//! The JSON-lines wire codec: request decoding and response encoding.
//!
//! One request per line, one response per line, streamed back in
//! submission order. The full schema (fields, defaults, error codes) is
//! specified in `crates/server/PROTOCOL.md`; this module is its only
//! implementation. Method names go through the canonical
//! [`Method::parse_name`] codec, matrix payloads through the same
//! [`Coo`](mg_sparse::Coo) constructors and Matrix Market reader as the rest of the
//! workspace — so a malformed payload surfaces the library's typed errors
//! verbatim in the `message` field.

use crate::codec::WireCodec;
use crate::json::{obj, Json, PairFault};
use mg_core::service::{ErrorCode, MatrixPayload, PartitionOutcome, PartitionSpec, RequestOp};
use mg_core::Method;
use mg_sparse::Idx;

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed verbatim (`null` when absent).
    pub id: Json,
    /// What the line asks for.
    pub op: RequestOp,
    /// The partition job; present iff `op == Partition`.
    pub spec: Option<PartitionSpec>,
    /// Shard addressing of a `stats` request (`{"op":"stats","shard":
    /// "s1"}`): a router forwards the line to the named shard; a plain
    /// server answers with its own counters regardless.
    pub shard: Option<String>,
    /// The wire codec a `hello` request asks to switch to (`{"op":
    /// "hello","codec":"binary"}`); `None` on a bare hello means "stay
    /// on JSON lines". Only present when `op == Hello`.
    pub codec: Option<WireCodec>,
    /// Propagated trace context (`{"trace":{"id":"…32 hex…","parent":
    /// "…16 hex…"}}`), only on partition requests. Tracing is strictly
    /// out-of-band: the field never changes response bytes (see
    /// PROTOCOL.md § Tracing).
    pub trace: Option<mg_obs::WireTrace>,
}

/// A request that failed to decode: the (best-effort) id to echo plus the
/// error class and message for the response line.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Echoed id (`null` when the line was not even valid JSON).
    pub id: Json,
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(id: &Json, code: ErrorCode, message: impl Into<String>) -> Self {
        RequestError {
            id: id.clone(),
            code,
            message: message.into(),
        }
    }
}

/// Default ε when a partition request has no `epsilon` field (the paper's
/// evaluation setting).
pub const DEFAULT_EPSILON: f64 = 0.03;

/// Default method when a partition request has no `method` field —
/// medium-grain with iterative refinement, Mondriaan 4.0's default.
pub const DEFAULT_METHOD: &str = "mg-ir";

/// Decodes one request line, in one pass over its bytes: inline entries
/// come out of the JSON parser as pairs ([`Json::parse_request`]) and
/// move into the payload, as does Matrix Market text.
pub fn parse_request_line(line: &str) -> Result<Request, RequestError> {
    let mut doc = Json::parse_request(line)
        .map_err(|e| RequestError::new(&Json::Null, ErrorCode::BadJson, e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(RequestError::new(
            &Json::Null,
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);

    let op = match doc.get("op") {
        None => RequestOp::Partition,
        Some(Json::Str(s)) => match s.as_str() {
            "partition" => RequestOp::Partition,
            "ping" => RequestOp::Ping,
            "stats" => RequestOp::Stats,
            "shutdown" => RequestOp::Shutdown,
            "hello" => RequestOp::Hello,
            other => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::Unsupported,
                    format!("unsupported op {other:?}"),
                ))
            }
        },
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"op\" must be a string",
            ))
        }
    };
    let shard = match doc.get("shard") {
        None => None,
        Some(Json::Str(s)) if op == RequestOp::Stats => Some(s.clone()),
        Some(_) if op == RequestOp::Stats => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"shard\" must be a string",
            ))
        }
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"shard\" only applies to stats requests",
            ))
        }
    };
    let codec = match doc.get("codec") {
        None => None,
        Some(Json::Str(s)) if op == RequestOp::Hello => match WireCodec::parse(s) {
            Some(c) => Some(c),
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    format!("unknown codec {s:?} (expected \"json\" or \"binary\")"),
                ))
            }
        },
        Some(_) if op == RequestOp::Hello => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"codec\" must be a string",
            ))
        }
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"codec\" only applies to hello requests",
            ))
        }
    };
    let trace = match doc.get("trace") {
        None => None,
        Some(v) if op == RequestOp::Partition => Some(parse_trace_field(&id, v)?),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"trace\" only applies to partition requests",
            ))
        }
    };
    if op != RequestOp::Partition {
        return Ok(Request {
            id,
            op,
            spec: None,
            shard,
            codec,
            trace: None,
        });
    }

    let method_name = match doc.get("method") {
        None => DEFAULT_METHOD.to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"method\" must be a string",
            ))
        }
    };
    let method = Method::parse_name(&method_name)
        .map_err(|e| RequestError::new(&id, ErrorCode::BadMethod, e))?;

    let backend = match doc.get("backend") {
        None => None,
        Some(Json::Str(s)) => Some(
            mg_core::parse_backend(s)
                .map_err(|e| RequestError::new(&id, ErrorCode::UnknownBackend, e))?
                .name(),
        ),
        Some(_) => {
            return Err(RequestError::new(
                &id,
                ErrorCode::BadRequest,
                "\"backend\" must be a string",
            ))
        }
    };

    let epsilon = match doc.get("epsilon") {
        None => DEFAULT_EPSILON,
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => x,
            _ => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"epsilon\" must be a finite non-negative number",
                ))
            }
        },
    };

    let seed = match doc.get("seed") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(s) => Some(s),
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"seed\" must be a non-negative integer",
                ))
            }
        },
    };

    let include_partition = match doc.get("include_partition") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => {
                return Err(RequestError::new(
                    &id,
                    ErrorCode::BadRequest,
                    "\"include_partition\" must be a boolean",
                ))
            }
        },
    };

    let matrix = decode_matrix(&id, doc.get_mut("matrix"))?;

    Ok(Request {
        id,
        op,
        spec: Some(PartitionSpec {
            matrix,
            method,
            backend,
            epsilon,
            seed,
            include_partition,
        }),
        shard: None,
        codec: None,
        trace,
    })
}

/// Decodes the `trace` request field: an object with a mandatory 32-hex
/// `id` and an optional 16-hex `parent`. The field only carries
/// diagnostic identity, so validation is strict but the values never
/// reach a response.
fn parse_trace_field(id: &Json, v: &Json) -> Result<mg_obs::WireTrace, RequestError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"trace\" must be an object",
        ));
    }
    let trace_id = match v.get("id") {
        Some(Json::Str(s)) => mg_obs::trace::parse_trace_id(s).ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.id\" must be 32 lowercase hex chars",
            )
        })?,
        _ => {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace\" needs a string \"id\" field",
            ))
        }
    };
    let parent = match v.get("parent") {
        None => None,
        Some(Json::Str(s)) => Some(mg_obs::trace::parse_span_id(s).ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.parent\" must be 16 lowercase hex chars",
            )
        })?),
        Some(_) => {
            return Err(RequestError::new(
                id,
                ErrorCode::BadRequest,
                "\"trace.parent\" must be a string",
            ))
        }
    };
    Ok(mg_obs::WireTrace { trace_id, parent })
}

fn decode_matrix(id: &Json, field: Option<&mut Json>) -> Result<MatrixPayload, RequestError> {
    let Some(m) = field else {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "partition requests need a \"matrix\" field",
        ));
    };
    if !matches!(m, Json::Obj(_)) {
        return Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"matrix\" must be an object",
        ));
    }
    let sources = [
        m.get("entries").is_some() || m.get("rows").is_some() || m.get("cols").is_some(),
        m.get("collection").is_some(),
        m.get("mtx").is_some(),
    ];
    match sources {
        [true, false, false] => {
            let rows = dim(id, m, "rows")?;
            let cols = dim(id, m, "cols")?;
            let Some(Json::Pairs(decoded)) = m.get_mut("entries") else {
                return Err(RequestError::new(
                    id,
                    ErrorCode::BadRequest,
                    "inline matrices need an \"entries\" array",
                ));
            };
            if let Some(fault) = decoded.fault {
                let message = match fault {
                    PairFault::Shape(k) => format!("entry {k} must be a [row, col] pair"),
                    PairFault::Row(k) => format!("entry {k}: row must be a 0-based u32 index"),
                    PairFault::Col(k) => format!("entry {k}: col must be a 0-based u32 index"),
                };
                return Err(RequestError::new(id, ErrorCode::BadMatrix, message));
            }
            Ok(MatrixPayload::Inline {
                rows,
                cols,
                entries: std::mem::take(&mut decoded.pairs),
            })
        }
        [false, true, false] => {
            let name = m.get("collection").and_then(Json::as_str).ok_or_else(|| {
                RequestError::new(id, ErrorCode::BadRequest, "\"collection\" must be a string")
            })?;
            Ok(MatrixPayload::Collection(name.to_string()))
        }
        [false, false, true] => {
            let Some(Json::Str(text)) = m.get_mut("mtx") else {
                return Err(RequestError::new(
                    id,
                    ErrorCode::BadRequest,
                    "\"mtx\" must be a string",
                ));
            };
            Ok(MatrixPayload::MatrixMarket(std::mem::take(text)))
        }
        _ => Err(RequestError::new(
            id,
            ErrorCode::BadRequest,
            "\"matrix\" must be exactly one of inline {rows, cols, entries}, \
             {collection}, or {mtx}",
        )),
    }
}

fn dim(id: &Json, m: &Json, name: &str) -> Result<Idx, RequestError> {
    m.get(name)
        .and_then(Json::as_u64)
        .filter(|&v| v < u64::from(Idx::MAX))
        .map(|v| v as Idx)
        .ok_or_else(|| {
            RequestError::new(
                id,
                ErrorCode::BadRequest,
                format!("inline matrices need a u32 \"{name}\" field"),
            )
        })
}

/// Encodes the success response for an executed (or cache-served) job.
///
/// Every field is a pure function of (matrix content, method, ε, seed) —
/// plus the submission-order-deterministic `cached` flag — so the line is
/// byte-identical whatever thread count or scheduling produced it.
/// `time_ms` is the only exception and is emitted solely when the server
/// runs with timing enabled (a non-deterministic, human-facing mode).
pub fn ok_response(
    id: &Json,
    outcome: &PartitionOutcome,
    cached: bool,
    include_partition: bool,
    time_ms: Option<f64>,
) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        (
            "matrix",
            obj(vec![
                ("rows", Json::UInt(u64::from(outcome.rows))),
                ("cols", Json::UInt(u64::from(outcome.cols))),
                ("nnz", Json::UInt(outcome.nnz as u64)),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", outcome.fingerprint)),
                ),
            ]),
        ),
        ("backend", Json::Str(outcome.backend.into())),
        ("method", Json::Str(outcome.method.into())),
        ("epsilon", Json::Num(outcome.epsilon)),
        ("seed", Json::UInt(outcome.seed)),
        ("volume", Json::UInt(outcome.volume)),
        ("imbalance", Json::Num(outcome.imbalance)),
        (
            "ir_iterations",
            Json::UInt(u64::from(outcome.ir_iterations)),
        ),
        (
            "part_nnz",
            Json::Arr(vec![
                Json::UInt(outcome.part_nnz[0]),
                Json::UInt(outcome.part_nnz[1]),
            ]),
        ),
        ("cached", Json::Bool(cached)),
    ];
    if include_partition {
        fields.push((
            "partition",
            Json::Arr(
                outcome
                    .partition
                    .iter()
                    .map(|&p| Json::UInt(u64::from(p)))
                    .collect(),
            ),
        ));
    }
    if let Some(ms) = time_ms {
        fields.push(("time_ms", Json::Num(ms)));
    }
    obj(fields).to_string()
}

/// Encodes an error response line. `shard` is the serving shard's
/// diagnostic tag (`--shard-id`), appended so a client behind a router
/// can see which shard rejected the request; untagged servers (the
/// default) omit the field entirely.
pub fn error_response(id: &Json, code: ErrorCode, message: &str, shard: Option<&str>) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("error".into())),
        ("code", Json::Str(code.as_str().into())),
        ("message", Json::Str(message.into())),
    ];
    if let Some(shard) = shard {
        fields.push(("shard", Json::Str(shard.into())));
    }
    obj(fields).to_string()
}

/// Encodes the acknowledgement of a `hello` codec negotiation. The ack
/// itself travels in the codec that was in effect *before* the hello;
/// every unit after it uses the acknowledged codec.
pub fn hello_response(id: &Json, codec: WireCodec) -> String {
    obj(vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str("hello".into())),
        ("codec", Json::Str(codec.name().into())),
    ])
    .to_string()
}

/// Encodes the response to a `ping` / `shutdown` op.
pub fn op_response(id: &Json, op: &str) -> String {
    obj(vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str(op.into())),
    ])
    .to_string()
}

/// Session counters snapshotted when a `stats` request is decoded; all
/// are decided at submission time in stream order, so they are a pure
/// function of the request prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Request lines decoded so far (including this one).
    pub received: u64,
    /// Partition requests served from the cache or coalesced onto an
    /// in-flight twin.
    pub cache_hits: u64,
    /// Partition requests that missed the cache and queued a fresh job.
    pub cache_misses: u64,
    /// Error responses so far.
    pub errors: u64,
    /// Open sessions on the serving engine when this request was
    /// decoded (always counts at least the asking session).
    pub sessions: u64,
}

/// Encodes the response to a `stats` op. The snapshot counters reflect
/// the session stream strictly *up to and including* this request;
/// `completed` counts the jobs *computed* (not cache-served) per backend
/// among the responses delivered before this line — also a pure function
/// of the request prefix, because responses are delivered in submission
/// order. `queue_depth` is the session's still-undelivered partition
/// jobs at render time — deterministically 0 unless partition requests
/// trail the stats request in flight (see PROTOCOL.md). Backends with
/// zero completed jobs are omitted; `shard` is the serving shard's
/// diagnostic tag, omitted when the server is untagged.
pub fn stats_response(
    id: &Json,
    snapshot: StatsSnapshot,
    completed: &[(&'static str, u64)],
    queue_depth: u64,
    shard: Option<&str>,
) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("status", Json::Str("ok".into())),
        ("op", Json::Str("stats".into())),
        ("received", Json::UInt(snapshot.received)),
        ("cache_hits", Json::UInt(snapshot.cache_hits)),
        ("cache_misses", Json::UInt(snapshot.cache_misses)),
        ("errors", Json::UInt(snapshot.errors)),
        ("sessions", Json::UInt(snapshot.sessions)),
        ("queue_depth", Json::UInt(queue_depth)),
        (
            "backends",
            Json::Obj(
                completed
                    .iter()
                    .filter(|(_, count)| *count > 0)
                    .map(|(name, count)| (name.to_string(), Json::UInt(*count)))
                    .collect(),
            ),
        ),
    ];
    if let Some(shard) = shard {
        fields.push(("shard", Json::Str(shard.into())));
    }
    obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_minimal_inline_request() {
        let r =
            parse_request_line(r#"{"id":1,"matrix":{"rows":2,"cols":2,"entries":[[0,0],[1,1]]}}"#)
                .unwrap();
        assert_eq!(r.id, Json::UInt(1));
        assert_eq!(r.op, RequestOp::Partition);
        let spec = r.spec.unwrap();
        assert_eq!(spec.method, Method::MediumGrain { refine: true });
        assert_eq!(spec.backend, None, "no backend field means server default");
        assert_eq!(spec.epsilon, DEFAULT_EPSILON);
        assert_eq!(spec.seed, None);
        assert!(!spec.include_partition);
        assert_eq!(
            spec.matrix,
            MatrixPayload::Inline {
                rows: 2,
                cols: 2,
                entries: vec![(0, 0), (1, 1)]
            }
        );
    }

    #[test]
    fn decodes_and_validates_the_trace_field() {
        let tid = "00112233445566778899aabbccddeeff";
        let line = format!(
            r#"{{"id":1,"matrix":{{"rows":2,"cols":2,"entries":[[0,0],[1,1]]}},"trace":{{"id":"{tid}","parent":"0011223344556677"}}}}"#
        );
        let r = parse_request_line(&line).unwrap();
        let trace = r.trace.expect("trace field decodes");
        assert_eq!(trace.trace_id, 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        assert_eq!(trace.parent, Some(0x0011_2233_4455_6677));

        // `parent` is optional.
        let line = format!(
            r#"{{"matrix":{{"rows":1,"cols":1,"entries":[[0,0]]}},"trace":{{"id":"{tid}"}}}}"#
        );
        assert_eq!(
            parse_request_line(&line).unwrap().trace,
            Some(mg_obs::WireTrace {
                trace_id: 0x0011_2233_4455_6677_8899_aabb_ccdd_eeff,
                parent: None
            })
        );

        // Malformed ids, wrong shapes, and misplaced fields are typed errors.
        for bad in [
            r#"{"matrix":{"rows":1,"cols":1,"entries":[[0,0]]},"trace":"abc"}"#.to_string(),
            r#"{"matrix":{"rows":1,"cols":1,"entries":[[0,0]]},"trace":{"id":"xyz"}}"#.to_string(),
            format!(
                r#"{{"matrix":{{"rows":1,"cols":1,"entries":[[0,0]]}},"trace":{{"id":"{tid}","parent":7}}}}"#
            ),
            format!(r#"{{"op":"ping","trace":{{"id":"{tid}"}}}}"#),
        ] {
            let e = parse_request_line(&bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "line: {bad}");
        }
        let e = parse_request_line(&format!(r#"{{"op":"ping","trace":{{"id":"{tid}"}}}}"#))
            .unwrap_err();
        assert!(
            e.message.contains("only applies to partition"),
            "{}",
            e.message
        );
    }

    #[test]
    fn decodes_hello_and_validates_the_codec_field() {
        let r = parse_request_line(r#"{"id":9,"op":"hello","codec":"binary"}"#).unwrap();
        assert_eq!(r.op, RequestOp::Hello);
        assert_eq!(r.codec, Some(WireCodec::Binary));
        assert_eq!(
            hello_response(&r.id, WireCodec::Binary),
            r#"{"id":9,"status":"ok","op":"hello","codec":"binary"}"#
        );

        // Omitting the codec is a no-op hello (stays on JSON lines).
        let r = parse_request_line(r#"{"op":"hello"}"#).unwrap();
        assert_eq!(r.codec, None);
        assert_eq!(
            hello_response(&r.id, WireCodec::JsonLines),
            r#"{"id":null,"status":"ok","op":"hello","codec":"json"}"#
        );

        // Unknown codec names and non-string values are typed errors.
        let e = parse_request_line(r#"{"op":"hello","codec":"msgpack"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("msgpack"), "{}", e.message);
        let e = parse_request_line(r#"{"op":"hello","codec":2}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);

        // `codec` is meaningless outside hello.
        let e = parse_request_line(r#"{"op":"ping","codec":"json"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("only applies to hello"), "{}", e.message);
    }

    #[test]
    fn decodes_collection_and_mtx_payloads() {
        let r = parse_request_line(
            r#"{"matrix":{"collection":"laplace2d_00_k10"},"method":"lb","epsilon":0.1,"seed":7}"#,
        )
        .unwrap();
        let spec = r.spec.unwrap();
        assert_eq!(
            spec.matrix,
            MatrixPayload::Collection("laplace2d_00_k10".into())
        );
        assert_eq!(spec.method, Method::LocalBest { refine: false });
        assert_eq!(spec.epsilon, 0.1);
        assert_eq!(spec.seed, Some(7));

        let r = parse_request_line(r#"{"matrix":{"mtx":"%%MatrixMarket ..."}}"#).unwrap();
        assert!(matches!(
            r.spec.unwrap().matrix,
            MatrixPayload::MatrixMarket(_)
        ));
    }

    #[test]
    fn decodes_the_backend_field_through_the_registry() {
        for (raw, canonical) in [
            ("geometric", "geometric"),
            ("coarse_grain", "coarse-grain"),
            ("PATOH", "patoh"),
        ] {
            let r = parse_request_line(&format!(
                r#"{{"matrix":{{"rows":2,"cols":2,"entries":[[0,0]]}},"backend":"{raw}"}}"#
            ))
            .unwrap();
            assert_eq!(r.spec.unwrap().backend, Some(canonical), "{raw}");
        }
    }

    #[test]
    fn unknown_backends_fail_with_their_own_code() {
        let err = parse_request_line(
            r#"{"id":9,"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"backend":"hmetis"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownBackend);
        assert!(err.message.contains("hmetis"), "{}", err.message);
        assert!(
            err.message.contains("coarse-grain"),
            "message lists the registry: {}",
            err.message
        );
        let line = error_response(&err.id, err.code, &err.message, None);
        assert!(line.contains("\"code\":\"unknown_backend\""));
    }

    #[test]
    fn decodes_ops_without_matrices() {
        for (op, expected) in [
            ("ping", RequestOp::Ping),
            ("stats", RequestOp::Stats),
            ("shutdown", RequestOp::Shutdown),
        ] {
            let r = parse_request_line(&format!(r#"{{"id":"x","op":"{op}"}}"#)).unwrap();
            assert_eq!(r.op, expected);
            assert!(r.spec.is_none());
            assert!(r.shard.is_none());
        }
    }

    #[test]
    fn decodes_shard_addressed_stats() {
        let r = parse_request_line(r#"{"op":"stats","shard":"s1"}"#).unwrap();
        assert_eq!(r.op, RequestOp::Stats);
        assert_eq!(r.shard.as_deref(), Some("s1"));
        let bad = parse_request_line(r#"{"op":"stats","shard":7}"#).unwrap_err();
        assert_eq!(bad.code, ErrorCode::BadRequest);
        assert!(bad.message.contains("string"), "{}", bad.message);
        let misplaced = parse_request_line(r#"{"op":"ping","shard":"s1"}"#).unwrap_err();
        assert_eq!(misplaced.code, ErrorCode::BadRequest);
        assert!(misplaced.message.contains("stats"), "{}", misplaced.message);
    }

    #[test]
    fn rejects_bad_requests_with_the_right_code() {
        let cases: Vec<(&str, ErrorCode)> = vec![
            ("not json", ErrorCode::BadJson),
            ("[1,2]", ErrorCode::BadRequest),
            (r#"{"op":"dance"}"#, ErrorCode::Unsupported),
            (r#"{"op":7}"#, ErrorCode::BadRequest),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"method":"zz"}"#,
                ErrorCode::BadMethod,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"backend":7}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"epsilon":-1}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,0]]},"seed":-3}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"method":"mg"}"#, ErrorCode::BadRequest),
            (r#"{"matrix":{}}"#, ErrorCode::BadRequest),
            (
                r#"{"matrix":{"collection":"a","mtx":"b"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0]]}}"#,
                ErrorCode::BadMatrix,
            ),
            (
                r#"{"matrix":{"rows":2,"cols":2,"entries":[[0,"x"]]}}"#,
                ErrorCode::BadMatrix,
            ),
        ];
        for (line, code) in cases {
            let err = parse_request_line(line).unwrap_err();
            assert_eq!(err.code, code, "line {line:?} → {err:?}");
        }
    }

    #[test]
    fn request_ids_are_echoed_even_on_errors() {
        let err = parse_request_line(r#"{"id":"req-9","op":"dance"}"#).unwrap_err();
        assert_eq!(err.id, Json::Str("req-9".into()));
        let line = error_response(&err.id, err.code, &err.message, None);
        assert!(line.starts_with(r#"{"id":"req-9","status":"error","code":"unsupported""#));
        assert!(!line.contains("shard"), "untagged servers omit the field");
    }

    #[test]
    fn shard_tags_append_to_error_responses() {
        let line = error_response(
            &Json::UInt(4),
            ErrorCode::UnknownCollection,
            "no such matrix",
            Some("s1"),
        );
        assert!(line.ends_with(r#","shard":"s1"}"#), "{line}");
    }

    #[test]
    fn ok_response_shape_is_stable() {
        let outcome = PartitionOutcome {
            rows: 2,
            cols: 3,
            nnz: 4,
            fingerprint: 0xAB,
            backend: "mondriaan",
            method: "mg-ir",
            epsilon: 0.03,
            seed: 99,
            volume: 1,
            imbalance: 0.0,
            ir_iterations: 2,
            part_nnz: [2, 2],
            partition: vec![0, 1, 1, 0],
        };
        let line = ok_response(&Json::UInt(5), &outcome, false, false, None);
        assert_eq!(
            line,
            "{\"id\":5,\"status\":\"ok\",\
             \"matrix\":{\"rows\":2,\"cols\":3,\"nnz\":4,\"fingerprint\":\"00000000000000ab\"},\
             \"backend\":\"mondriaan\",\
             \"method\":\"mg-ir\",\"epsilon\":0.03,\"seed\":99,\"volume\":1,\"imbalance\":0,\
             \"ir_iterations\":2,\"part_nnz\":[2,2],\"cached\":false}"
        );
        let with_partition = ok_response(&Json::Null, &outcome, true, true, None);
        assert!(with_partition.contains("\"partition\":[0,1,1,0]"));
        assert!(with_partition.contains("\"cached\":true"));
        assert!(!line.contains("time_ms"));
        let timed = ok_response(&Json::Null, &outcome, false, false, Some(1.5));
        assert!(timed.contains("\"time_ms\":1.5"));
    }

    #[test]
    fn stats_and_op_responses_are_deterministic() {
        let snapshot = StatsSnapshot {
            received: 3,
            cache_hits: 1,
            cache_misses: 1,
            errors: 0,
            sessions: 1,
        };
        assert_eq!(
            stats_response(
                &Json::UInt(3),
                snapshot,
                &[("mondriaan", 1), ("patoh", 0)],
                0,
                None
            ),
            "{\"id\":3,\"status\":\"ok\",\"op\":\"stats\",\"received\":3,\"cache_hits\":1,\
             \"cache_misses\":1,\"errors\":0,\"sessions\":1,\"queue_depth\":0,\
             \"backends\":{\"mondriaan\":1}}"
        );
        assert_eq!(
            stats_response(&Json::UInt(3), snapshot, &[], 2, Some("s0")),
            "{\"id\":3,\"status\":\"ok\",\"op\":\"stats\",\"received\":3,\"cache_hits\":1,\
             \"cache_misses\":1,\"errors\":0,\"sessions\":1,\"queue_depth\":2,\
             \"backends\":{},\"shard\":\"s0\"}"
        );
        assert_eq!(
            op_response(&Json::Null, "ping"),
            r#"{"id":null,"status":"ok","op":"ping"}"#
        );
    }

    /// Inline entries, Matrix Market text and a binary `0x02` frame of one
    /// matrix decode to the same `Coo`, placement key and fingerprint —
    /// unsorted and duplicate entries, the largest index a `Coo` of the
    /// largest dimensions accepts, and no entries at all.
    #[test]
    fn every_payload_form_decodes_to_the_same_matrix() {
        use crate::codec::{decode_partition_payload, partition_payload};
        use mg_core::service::{matrix_fingerprint, placement_key};
        let top = Idx::MAX - 2;
        for (dims, entries) in [
            (
                (Idx::MAX - 1, Idx::MAX - 1),
                vec![(2, 1), (0, 0), (top, top), (2, 1), (0, 5), (top, 0)],
            ),
            ((3, 2), vec![]),
        ] {
            let pairs: Vec<String> = entries.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
            let inline = format!(
                r#"{{"matrix":{{"rows":{},"cols":{},"entries":[{}]}}}}"#,
                dims.0,
                dims.1,
                pairs.join(",")
            );
            let mut text = format!(
                "%%MatrixMarket matrix coordinate pattern general\n{} {} {}\n",
                dims.0,
                dims.1,
                entries.len()
            );
            for (i, j) in &entries {
                text.push_str(&format!("{} {}\n", i + 1, j + 1));
            }
            let mtx = format!(r#"{{"matrix":{{"mtx":{}}}}}"#, Json::Str(text));
            let inline = parse_request_line(&inline).unwrap();
            let frame = partition_payload(&inline).unwrap();
            let binary = decode_partition_payload(&frame[1..]).unwrap();
            let mtx = parse_request_line(&mtx).unwrap();
            let payloads = [inline, mtx, binary].map(|r| r.spec.unwrap().matrix);
            let expected = mg_sparse::Coo::new(dims.0, dims.1, entries.clone()).unwrap();
            for payload in payloads {
                let key = placement_key(payload.clone()).unwrap();
                let matrix = payload.into_matrix().unwrap().unwrap();
                assert_eq!(matrix, expected);
                assert_eq!(key, matrix_fingerprint(&expected));
            }
        }
    }

    /// The exact response line of each entry the decoder does not take as
    /// a pair, and of the number forms it does take.
    #[test]
    fn malformed_entries_fail_with_pinned_error_lines() {
        let line = |entries: &str| {
            format!(r#"{{"id":7,"matrix":{{"rows":9,"cols":9,"entries":{entries}}}}}"#)
        };
        let bad_matrix = |message: &str| {
            format!(r#"{{"id":7,"status":"error","code":"bad_matrix","message":"{message}"}}"#)
        };
        for (entries, expected) in [
            ("[[0,1],5]", bad_matrix("entry 1 must be a [row, col] pair")),
            ("[[0]]", bad_matrix("entry 0 must be a [row, col] pair")),
            ("[[0,1,2]]", bad_matrix("entry 0 must be a [row, col] pair")),
            ("[[1.5,\"x\",3]]", bad_matrix("entry 0 must be a [row, col] pair")),
            ("[null]", bad_matrix("entry 0 must be a [row, col] pair")),
            ("[[-1,0]]", bad_matrix("entry 0: row must be a 0-based u32 index")),
            ("[[0,0],[1.5,0]]", bad_matrix("entry 1: row must be a 0-based u32 index")),
            ("[[4294967295,0]]", bad_matrix("entry 0: row must be a 0-based u32 index")),
            ("[[\"0\",\"x\"]]", bad_matrix("entry 0: row must be a 0-based u32 index")),
            ("[[0,1e40]]", bad_matrix("entry 0: col must be a 0-based u32 index")),
            ("[[0,-0]]", bad_matrix("entry 0: col must be a 0-based u32 index")),
            // The first fault wins, and a later syntax error beats it.
            ("[[0],[-1,0]]", bad_matrix("entry 0 must be a [row, col] pair")),
            (
                "[[0],[0,0}",
                r#"{"id":null,"status":"error","code":"bad_json","message":"invalid JSON at byte 55: expected ',' or ']'"}"#.to_string(),
            ),
            (
                "7",
                r#"{"id":7,"status":"error","code":"bad_request","message":"inline matrices need an \"entries\" array"}"#.to_string(),
            ),
        ] {
            let err = parse_request_line(&line(entries)).unwrap_err();
            assert_eq!(
                error_response(&err.id, err.code, &err.message, None),
                expected,
                "{entries}"
            );
        }
        // Integral fractions and exponents, and a negative zero fraction,
        // are indices, as `Json::as_u64` reads them.
        let spec = parse_request_line(&line("[[1.0,2e1],[-0.0,0E+0],[8,1e0]]"))
            .unwrap()
            .spec
            .unwrap();
        let MatrixPayload::Inline { entries, .. } = spec.matrix else {
            panic!("inline payload");
        };
        assert_eq!(entries, vec![(1, 20), (0, 0), (8, 1)]);
    }

    /// The first `entries` of the first `matrix` is the payload; a later
    /// duplicate is still parsed, so its syntax errors fail the line, but
    /// its entries are never checked.
    #[test]
    fn the_first_duplicate_entries_key_wins() {
        let spec = parse_request_line(
            r#"{"matrix":{"rows":2,"cols":2,"entries":[[1,1]],"entries":[[9]]},"matrix":5}"#,
        )
        .unwrap()
        .spec
        .unwrap();
        assert_eq!(
            spec.matrix,
            MatrixPayload::Inline {
                rows: 2,
                cols: 2,
                entries: vec![(1, 1)]
            }
        );
        let err = parse_request_line(
            r#"{"matrix":{"rows":2,"cols":2,"entries":[[1,1]],"entries":[[0,]]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadJson);
        assert_eq!(
            err.message,
            "invalid JSON at byte 61: unexpected character ']'"
        );
    }
}
