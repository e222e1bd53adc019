//! Binary framing through the router: a client that negotiates binary
//! frames gets the same response *texts* a JSON-lines client gets —
//! the router decodes compact partition payloads once, forwards the
//! canonical line to its (always JSON-lines) shards, and re-frames the
//! shard's response bytes untouched.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig};
use mg_server::codec::{
    encode_frame, json_payload, partition_payload, request_json_line, KIND_JSON,
};
use mg_server::{parse_request_line, Service, ServiceConfig};
use mg_sparse::{gen, Coo};

fn inline_payload(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

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

/// Request lines in canonical rendering (what the router forwards for a
/// binary-framed request), so the JSON-lines control run sends the
/// byte-identical lines to its shards.
fn canonical_requests() -> Vec<String> {
    let matrices = [
        gen::laplacian_2d(9, 7),
        gen::arrow(40, 3),
        gen::laplacian_2d(6, 6),
    ];
    let mut lines: Vec<String> = Vec::new();
    for (id, a) in matrices.iter().enumerate() {
        lines.push(format!(
            "{{\"id\":{id},\"matrix\":{},\"seed\":5}}",
            inline_payload(a)
        ));
    }
    // Repeat of id 0's key → a shard cache hit in both codecs.
    lines.push(format!(
        "{{\"id\":9,\"matrix\":{},\"seed\":5}}",
        inline_payload(&matrices[0])
    ));
    lines.push("{\"id\":10,\"op\":\"ping\"}".to_string());
    lines.push("{\"id\":11,\"method\":\"zz\"}".to_string());
    lines
        .iter()
        .map(|line| match parse_request_line(line) {
            Ok(request) => request_json_line(&request),
            // Deliberately invalid requests can't be canonicalized; both
            // codecs answer them locally from the same text.
            Err(_) => line.clone(),
        })
        .collect()
}

fn response_texts(out: &[u8]) -> Vec<String> {
    let mut texts = Vec::new();
    let mut pos = 0;
    let mut binary = false;
    while pos < out.len() {
        let text = if binary {
            let len = u32::from_le_bytes(out[pos..pos + 4].try_into().unwrap()) as usize;
            assert_eq!(
                out[pos + 4],
                KIND_JSON,
                "responses are always JSON payloads"
            );
            let text = std::str::from_utf8(&out[pos + 5..pos + 4 + len]).unwrap();
            pos += 4 + len;
            text.to_string()
        } else {
            let nl = out[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("unterminated response line");
            let text = std::str::from_utf8(&out[pos..pos + nl])
                .unwrap()
                .to_string();
            pos += nl + 1;
            text
        };
        if text.contains("\"op\":\"hello\"") && text.contains("\"codec\":\"binary\"") {
            binary = true;
        }
        texts.push(text);
    }
    texts
}

#[test]
fn binary_clients_match_json_clients_through_the_router() {
    let requests = canonical_requests();

    // Control: a fresh 2-shard cluster, JSON lines end to end.
    let cluster = LocalCluster::spawn(2, |_| shard_config(2));
    let router = cluster.router(RouterConfig::default());
    let script: Vec<u8> = requests
        .iter()
        .flat_map(|r| format!("{r}\n").into_bytes())
        .collect();
    let mut json_out = Vec::new();
    let json_summary = router.run_session(script.as_slice(), &mut json_out);
    cluster.shutdown();
    let json_texts = response_texts(&json_out);

    // Same requests as binary frames through a fresh identical cluster:
    // compact kind-0x02 payloads for partitions, JSON payloads otherwise.
    let cluster = LocalCluster::spawn(2, |_| shard_config(2));
    let router = cluster.router(RouterConfig::default());
    let mut script = b"{\"id\":\"hs\",\"op\":\"hello\",\"codec\":\"binary\"}\n".to_vec();
    for line in &requests {
        let payload = parse_request_line(line)
            .ok()
            .and_then(|request| partition_payload(&request))
            .unwrap_or_else(|| json_payload(line));
        script.extend_from_slice(&encode_frame(&payload));
    }
    let mut binary_out = Vec::new();
    let binary_summary = router.run_session(script.as_slice(), &mut binary_out);
    cluster.shutdown();
    let binary_texts = response_texts(&binary_out);

    // Hello ack first (as a JSON line), then frame-for-line parity.
    assert_eq!(
        binary_texts[0],
        "{\"id\":\"hs\",\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"binary\"}"
    );
    assert_eq!(json_texts, binary_texts[1..].to_vec());

    // Both runs did the same routed work.
    assert_eq!(json_summary.responses, requests.len() as u64);
    assert_eq!(binary_summary.responses, requests.len() as u64 + 1);
    assert_eq!(json_summary.forwarded, binary_summary.forwarded);
    // The repeat is served from the owning shard's cache in both runs.
    assert_eq!(json_summary.errors, binary_summary.errors);
    let repeat = json_texts
        .iter()
        .find(|t| t.contains("\"id\":9"))
        .expect("repeat response");
    assert!(repeat.contains("\"cached\":true"), "{repeat}");
}

#[test]
fn a_kind_0x03_frame_gets_the_shards_unknown_kind_error_through_the_router() {
    // Shaped like the retired batch kind: one length-prefixed ping.
    let mut batch = vec![0x03];
    batch.extend_from_slice(&encode_frame(&json_payload("{\"id\":8,\"op\":\"ping\"}")));
    let mut script = b"{\"id\":\"hs\",\"op\":\"hello\",\"codec\":\"binary\"}\n".to_vec();
    script.extend_from_slice(&encode_frame(&batch));
    script.extend_from_slice(&encode_frame(&json_payload("{\"id\":9,\"op\":\"ping\"}")));

    let cluster = LocalCluster::spawn(2, |_| shard_config(1));
    let mut routed = Vec::new();
    cluster
        .router(RouterConfig::default())
        .run_session(script.as_slice(), &mut routed);
    cluster.shutdown();
    let mut direct = Vec::new();
    Service::start(shard_config(1)).run_session(script.as_slice(), &mut direct);

    let texts = response_texts(&routed);
    assert_eq!(texts.len(), 3, "{texts:?}");
    assert!(texts[1].contains("unknown frame kind 0x03"), "{}", texts[1]);
    assert!(texts[2].contains("\"id\":9"), "{}", texts[2]);
    assert_eq!(routed, direct, "router and shard answer byte for byte");
}
