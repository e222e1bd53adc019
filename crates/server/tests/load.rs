//! Load and transport integration tests: ordered streaming under a
//! saturated bounded queue (pipe mode), concurrent TCP sessions over one
//! shared engine, and graceful drain-on-shutdown with no dropped
//! responses.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::{Json, Service, ServiceConfig, TcpServer};
use mg_sparse::{gen, Coo};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn inline_payload(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

fn smoke_service(threads: usize, queue_capacity: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        threads,
        queue_capacity,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

/// Extracts the `id` field of a response line (all test ids are numeric).
fn response_id(line: &str) -> u64 {
    Json::parse(line)
        .unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
        .get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response without numeric id: {line}"))
}

#[test]
fn pipe_load_respects_order_under_backpressure() {
    // 120 requests over 10 distinct jobs through a 4-slot queue: the
    // reader must block (backpressure) rather than lose or reorder
    // anything.
    let matrices: Vec<Coo> = (0..10u32).map(|k| gen::laplacian_2d(6 + k, 7)).collect();
    let mut script = String::new();
    for r in 0..120u64 {
        let payload = inline_payload(&matrices[(r % 10) as usize]);
        script.push_str(&format!("{{\"id\":{r},\"matrix\":{payload}}}\n"));
    }
    let service = smoke_service(4, 4);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.received, 120);
    assert_eq!(summary.responses, 120);
    assert_eq!(summary.errors, 0);
    // 10 distinct jobs execute, 110 coalesce or hit the cache.
    assert_eq!(summary.cache_hits, 110);

    let text = String::from_utf8(out).unwrap();
    let ids: Vec<u64> = text.lines().map(response_id).collect();
    assert_eq!(ids, (0..120).collect::<Vec<_>>(), "responses out of order");
    for line in text.lines() {
        assert!(
            line.contains("\"status\":\"ok\""),
            "failed response: {line}"
        );
    }
}

#[test]
fn mixed_load_counts_errors_and_hits_deterministically() {
    let a = gen::laplacian_2d(8, 8);
    let mut script = String::new();
    for r in 0..30u64 {
        match r % 3 {
            0 => script.push_str(&format!(
                "{{\"id\":{r},\"matrix\":{}}}\n",
                inline_payload(&a)
            )),
            1 => script.push_str(&format!("{{\"id\":{r},\"method\":\"zz\"}}\n")),
            _ => script.push_str(&format!("{{\"id\":{r},\"op\":\"ping\"}}\n")),
        }
    }
    let service = smoke_service(2, 8);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.received, 30);
    assert_eq!(summary.responses, 30);
    assert_eq!(summary.errors, 10);
    // One fresh partition job, nine repeats.
    assert_eq!(summary.cache_hits, 9);
}

#[test]
fn cache_serves_partitions_only_to_requesters_that_asked() {
    // include_partition is part of the job identity: plain keys cache
    // outcomes *stripped* of the O(nnz) partition vector, so an
    // include_partition request never reuses a plain twin — it computes
    // its own entry (same seed, same payload bytes apart from `cached`
    // and the vector) which then serves later include_partition repeats.
    let a = gen::laplacian_2d(7, 7);
    let payload = inline_payload(&a);
    let script = format!(
        "{{\"id\":0,\"matrix\":{payload}}}\n\
         {{\"id\":1,\"matrix\":{payload},\"include_partition\":true}}\n\
         {{\"id\":2,\"matrix\":{payload},\"include_partition\":true}}\n\
         {{\"id\":3,\"matrix\":{payload}}}\n"
    );
    let service = smoke_service(2, 8);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.responses, 4);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // 0: fresh, no partition. 1: distinct key → fresh, with partition.
    assert!(lines[0].contains("\"cached\":false") && !lines[0].contains("\"partition\""));
    assert!(lines[1].contains("\"cached\":false") && lines[1].contains("\"partition\":["));
    // 2: now cached WITH the vector. 3: plain repeat, cached, no vector.
    assert!(lines[2].contains("\"cached\":true") && lines[2].contains("\"partition\":["));
    assert!(lines[3].contains("\"cached\":true") && !lines[3].contains("\"partition\""));
    assert_eq!(summary.cache_hits, 2);
    // Identical payloads apart from the cached flag / partition field.
    let volume = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("volume")
            .and_then(Json::as_u64)
            .unwrap()
    };
    let seeds: Vec<u64> = lines
        .iter()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("seed")
                .and_then(Json::as_u64)
                .unwrap()
        })
        .collect();
    assert!(seeds.windows(2).all(|w| w[0] == w[1]));
    assert!(lines
        .iter()
        .map(|l| volume(l))
        .all(|v| v == volume(lines[0])));
}

#[test]
fn shutdown_drains_in_flight_jobs_without_dropping_responses() {
    // Queue up plenty of distinct jobs behind a tiny queue, then shut
    // down in-band: every accepted request must still get its response
    // before the session ends.
    let matrices: Vec<Coo> = (0..24u32).map(|k| gen::laplacian_2d(5 + k, 6)).collect();
    let mut script = String::new();
    for (r, m) in matrices.iter().enumerate() {
        script.push_str(&format!(
            "{{\"id\":{r},\"matrix\":{}}}\n",
            inline_payload(m)
        ));
    }
    script.push_str("{\"id\":99,\"op\":\"shutdown\"}\n");
    // A line after shutdown must NOT be read (the session stops first).
    script.push_str("{\"id\":100,\"op\":\"ping\"}\n");

    let service = smoke_service(4, 2);
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    service.shutdown_and_join();

    assert_eq!(summary.received, 25, "shutdown must stop the reader");
    assert_eq!(summary.responses, 25);
    let text = String::from_utf8(out).unwrap();
    let ids: Vec<u64> = text.lines().map(response_id).collect();
    let mut expected: Vec<u64> = (0..24).collect();
    expected.push(99);
    assert_eq!(ids, expected);
    for line in text.lines().take(24) {
        assert!(line.contains("\"volume\""), "dropped job response: {line}");
    }
    assert!(text
        .lines()
        .nth(24)
        .unwrap()
        .contains("\"op\":\"shutdown\""));
}

fn tcp_roundtrip(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..lines.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        responses.push(line.trim_end().to_string());
    }
    responses
}

#[test]
fn tcp_sessions_share_one_engine_and_drain_on_shutdown() {
    let service = smoke_service(4, 16);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr;

    // Four concurrent client connections, each with its own request
    // stream over the shared engine.
    let a = gen::laplacian_2d(10, 10);
    let payload = inline_payload(&a);
    let clients: Vec<std::thread::JoinHandle<Vec<String>>> = (0..4u64)
        .map(|c| {
            let payload = payload.clone();
            std::thread::spawn(move || {
                let lines: Vec<String> = (0..6u64)
                    .map(|r| {
                        format!(
                            "{{\"id\":{},\"matrix\":{payload},\"epsilon\":0.0{}}}",
                            c * 100 + r,
                            c + 1
                        )
                    })
                    .collect();
                tcp_roundtrip(addr, &lines)
            })
        })
        .collect();
    for (c, client) in clients.into_iter().enumerate() {
        let responses = client.join().expect("client thread");
        assert_eq!(responses.len(), 6);
        for (r, line) in responses.iter().enumerate() {
            assert_eq!(response_id(line), c as u64 * 100 + r as u64);
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
        // Within one connection, requests 1..5 repeat request 0's key.
        assert!(responses[0].contains("\"cached\":false"));
        for line in &responses[1..] {
            assert!(line.contains("\"cached\":true"), "{line}");
        }
    }

    // In-band shutdown from a final connection, then a full drain.
    let bye = tcp_roundtrip(addr, &["{\"id\":7,\"op\":\"shutdown\"}".to_string()]);
    assert!(bye[0].contains("\"op\":\"shutdown\""));
    server.join();
    assert!(service.is_shutting_down());
}

#[test]
fn tcp_rejects_work_after_shutdown() {
    let service = smoke_service(2, 8);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr;
    // Shut down while a second connection is still open and idle: that
    // session must terminate (via its read timeout) without hanging the
    // drain.
    let idle = TcpStream::connect(addr).expect("connect idle");
    let bye = tcp_roundtrip(addr, &["{\"op\":\"shutdown\"}".to_string()]);
    assert!(bye[0].contains("\"op\":\"shutdown\""));
    server.join();
    drop(idle);
}
