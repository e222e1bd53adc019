//! Binary framing integration tests: hello negotiation, the per-codec
//! determinism contract (response texts byte-identical to JSON-lines
//! mode at any thread count), and framing errors.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::codec::{encode_frame, json_payload, partition_payload, KIND_JSON, MAX_FRAME};
use mg_server::{parse_request_line, Service, ServiceConfig};
use mg_sparse::{gen, Coo};
use std::sync::Arc;

fn smoke_service(threads: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

const HELLO_BINARY: &str = "{\"id\":\"hs\",\"op\":\"hello\",\"codec\":\"binary\"}";

/// A session script: the binary hello as a JSON line, then every request
/// as a binary frame — partition requests in the compact kind-0x02 form
/// when they qualify, everything else as a kind-0x01 JSON payload.
fn binary_script(requests: &[&str]) -> Vec<u8> {
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    for line in requests {
        let payload = parse_request_line(line)
            .ok()
            .and_then(|request| partition_payload(&request))
            .unwrap_or_else(|| json_payload(line));
        script.extend_from_slice(&encode_frame(&payload));
    }
    script
}

/// Splits a response byte stream back into response texts, tracking the
/// codec switch: JSON lines until a binary hello ack, frames after.
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

/// A partition request for `a` as an inline-COO line, seed 5, with
/// `extra` (`,"key":value` pairs) appended to the request object.
fn inline_request(id: u64, a: &Coo, extra: &str) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"id\":{id},\"matrix\":{{\"rows\":{},\"cols\":{},\"entries\":[{}]}},\"seed\":5{extra}}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

const INLINE: &str = "{\"id\":1,\"matrix\":{\"rows\":4,\"cols\":4,\
                      \"entries\":[[0,0],[1,1],[2,2],[3,3],[0,1],[1,2],[2,3]]},\"seed\":5}";

#[test]
fn hello_negotiates_binary_and_acks_in_the_old_codec() {
    let service = smoke_service(2);
    let script = binary_script(&["{\"id\":2,\"op\":\"ping\"}", INLINE]);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.received, 3);
    assert_eq!(summary.responses, 3);

    // The ack travels in the codec the hello arrived in: a JSON line.
    let nl = out.iter().position(|&b| b == b'\n').unwrap();
    let ack = std::str::from_utf8(&out[..nl]).unwrap();
    assert_eq!(
        ack,
        "{\"id\":\"hs\",\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"binary\"}"
    );
    // Everything after is frames.
    let texts = response_texts(&out);
    assert_eq!(texts.len(), 3);
    assert!(texts[1].contains("\"id\":2") && texts[1].contains("\"op\":\"ping\""));
    assert!(texts[2].contains("\"id\":1") && texts[2].contains("\"volume\""));
}

/// The determinism contract across codecs: the *response document text*
/// for a request stream is byte-identical whether the stream travels as
/// JSON lines or binary frames, at any thread count. Only the framing
/// around the text differs.
#[test]
fn binary_responses_are_byte_identical_to_json_lines_at_any_thread_count() {
    let grid = gen::laplacian_2d(20, 17);
    let grid_first = inline_request(7, &grid, "");
    let grid_again = inline_request(8, &grid, ""); // cache hit on id 7's key
    let with_partition =
        inline_request(10, &gen::laplacian_2d(9, 9), ",\"include_partition\":true");
    let requests = [
        INLINE,
        "{\"id\":2,\"op\":\"ping\"}",
        INLINE, // cache hit: same key as id 1 (ids are not part of the key)
        "{\"id\":4,\"matrix\":{\"collection\":\"laplace2d_00_k10\"},\"seed\":3}",
        "{\"id\":5,\"method\":\"zz\"}", // typed error, same text both ways
        "{\"id\":6,\"matrix\":{\"rows\":3,\"cols\":3,\
          \"entries\":[[0,0],[1,1],[2,2]]},\"seed\":5,\"include_partition\":true}",
        &grid_first,
        &grid_again,
        "{\"id\":9,\"matrix\":{\"collection\":\"laplace2d_00_k20\"},\"seed\":3}",
        &with_partition,
    ];
    let mut json_texts_by_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let service = smoke_service(threads);
        let json_script: Vec<u8> = requests
            .iter()
            .flat_map(|r| format!("{r}\n").into_bytes())
            .collect();
        let mut json_out = Vec::new();
        let json_summary = service.run_session(json_script.as_slice(), &mut json_out);
        let json_texts = response_texts(&json_out);

        let service = smoke_service(threads);
        let mut binary_out = Vec::new();
        let binary_summary =
            service.run_session(binary_script(&requests).as_slice(), &mut binary_out);
        let binary_texts = response_texts(&binary_out);

        assert_eq!(json_summary.responses + 1, binary_summary.responses);
        assert_eq!(json_summary.cache_hits, binary_summary.cache_hits);
        assert_eq!(json_summary.errors, binary_summary.errors);
        // Drop the binary session's hello ack; the rest must match the
        // JSON-lines run byte for byte.
        assert_eq!(
            json_texts,
            binary_texts[1..].to_vec(),
            "codec changed response text at {threads} threads"
        );
        json_texts_by_threads.push(json_texts);
    }
    // And thread count never changes the stream either.
    assert_eq!(json_texts_by_threads[0], json_texts_by_threads[1]);
    assert_eq!(json_texts_by_threads[0], json_texts_by_threads[2]);
    assert!(json_texts_by_threads[0][7].contains("\"cached\":true"));
}

#[test]
fn framing_violations_get_typed_errors() {
    // An oversized declared frame length ends the session with one
    // typed error — there is no way to resynchronise past it.
    let service = smoke_service(1);
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    script.extend_from_slice(&[0u8; 16]);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.responses, 2);
    let texts = response_texts(&out);
    assert!(
        texts[1].contains("\"status\":\"error\"")
            && texts[1].contains("bad_request")
            && texts[1].contains("cap"),
        "{}",
        texts[1]
    );

    // An unknown payload kind is an in-band error; the session goes on.
    // Kind 0x03 is one too: a frame shaped like a batch of one ping
    // (length-prefixed sub-payload) gets one error, not a pong.
    let mut batch = vec![0x03];
    batch.extend_from_slice(&encode_frame(&json_payload("{\"id\":8,\"op\":\"ping\"}")));
    for (payload, kind) in [(vec![0x07, 1, 2, 3], "0x07"), (batch, "0x03")] {
        let service = smoke_service(1);
        let mut script = format!("{HELLO_BINARY}\n").into_bytes();
        script.extend_from_slice(&encode_frame(&payload));
        script.extend_from_slice(&encode_frame(&json_payload("{\"id\":9,\"op\":\"ping\"}")));
        let mut out = Vec::new();
        let summary = service.run_session(script.as_slice(), &mut out);
        assert_eq!(summary.responses, 3);
        let texts = response_texts(&out);
        let expected = format!("unknown frame kind {kind}");
        assert!(texts[1].contains(&expected), "{}", texts[1]);
        assert!(texts[2].contains("\"id\":9"), "{}", texts[2]);
    }

    // A truncated binary partition payload is a typed bad_request.
    let service = smoke_service(1);
    let full = partition_payload(&parse_request_line(INLINE).unwrap()).unwrap();
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    script.extend_from_slice(&encode_frame(&full[..full.len() - 3]));
    let mut out = Vec::new();
    service.run_session(script.as_slice(), &mut out);
    let texts = response_texts(&out);
    assert!(
        texts[1].contains("bad_request") || texts[1].contains("bad_matrix"),
        "{}",
        texts[1]
    );
}

#[test]
fn unknown_codec_is_rejected_and_the_session_stays_on_json_lines() {
    let service = smoke_service(1);
    let script = "{\"id\":1,\"op\":\"hello\",\"codec\":\"msgpack\"}\n\
                  {\"id\":2,\"op\":\"ping\"}\n";
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.responses, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"status\":\"error\"") && lines[0].contains("msgpack"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"id\":2") && lines[1].contains("\"op\":\"ping\""));
}

#[test]
fn hello_json_is_a_no_op_negotiation() {
    let service = smoke_service(1);
    let script = "{\"id\":1,\"op\":\"hello\",\"codec\":\"json\"}\n\
                  {\"id\":2,\"op\":\"ping\"}\n";
    let mut out = Vec::new();
    service.run_session(script.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "{\"id\":1,\"status\":\"ok\",\"op\":\"hello\",\"codec\":\"json\"}"
    );
    assert!(lines[1].contains("\"op\":\"ping\""));
}
