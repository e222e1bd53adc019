//! Router-side tracing (PROTOCOL.md § Tracing, "Propagation"): one
//! traced partition request through an in-process cluster must leave a
//! router `request` root whose `decode`, `route` and `dispatch` children
//! cover its legs, with the shard's own `request` parented under the
//! dispatch leg.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_obs::trace::{self, SpanRecord};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::ServiceConfig;

const TRACE_ID: u128 = 0x5eed_0000_0000_0000_0000_0000_0000_0001;
const CLIENT_SPAN: u64 = 0x00c1_1e47;

#[test]
fn routed_request_span_covers_decode_route_and_dispatch() {
    let cluster = LocalCluster::spawn(2, |_| ServiceConfig {
        threads: 1,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    });
    let router = cluster.router(RouterConfig::default());
    let line = format!(
        "{{\"id\":1,\"matrix\":{{\"rows\":4,\"cols\":4,\
         \"entries\":[[0,0],[1,1],[2,2],[3,3],[0,3]]}},\
         \"trace\":{{\"id\":\"{}\",\"parent\":\"{}\"}}}}\n",
        trace::trace_id_hex(TRACE_ID),
        trace::span_id_hex(CLIENT_SPAN),
    );
    let mut out = Vec::new();
    let summary = router.run_session(line.as_bytes(), &mut out);
    cluster.shutdown();
    assert_eq!(summary.responses, 1);
    assert!(String::from_utf8(out).unwrap().contains("\"volume\""));

    // Every span is recorded before its response is written, so the
    // finished session's spans are all in the collector.
    let (_, spans) = trace::collector().snapshot();
    let spans: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == TRACE_ID).collect();
    let root = spans
        .iter()
        .find(|s| s.name == "request" && s.parent_id == Some(CLIENT_SPAN))
        .expect("the router's request root, parented to the client span");
    let child = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name && s.parent_id == Some(root.span_id))
            .unwrap_or_else(|| panic!("no router {name:?} span under the request root"))
    };
    let decode = child("decode");
    assert!(
        decode.start_us >= root.start_us,
        "decode starts inside the root"
    );
    child("route");
    let dispatch = child("dispatch");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "request" && s.parent_id == Some(dispatch.span_id)),
        "the shard's request span parents under the router's dispatch leg"
    );
}
