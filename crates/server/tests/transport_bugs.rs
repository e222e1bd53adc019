//! Regression tests for wire-path correctness bugs: a final request
//! losing its newline to the connection close, invalid UTF-8 request
//! bytes, the accept loop's per-connection handle bookkeeping, a
//! newline-free stream that would buffer without bound, and JSON nested
//! past the parser's depth guard.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::codec::MAX_FRAME;
use mg_server::{Service, ServiceConfig, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

/// A client that sends its last request and closes the socket without a
/// trailing `\n` must still get that request answered: the buffered
/// remainder at EOF is a complete request, not garbage to drop.
#[test]
fn tcp_answers_the_final_request_without_a_trailing_newline() {
    let service = smoke_service(2);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr;

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"ping\"}")
        .expect("send");
    stream.flush().expect("flush");
    // Half-close: EOF on the server's read side, response path still open.
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "connection closed before both responses");
        responses.push(line.trim_end().to_string());
    }
    assert!(responses[0].contains("\"id\":1"), "{}", responses[0]);
    assert!(
        responses[1].contains("\"id\":2") && responses[1].contains("\"status\":\"ok\""),
        "newline-less final request dropped: {}",
        responses[1]
    );

    server.shutdown_and_join();
}

/// Pipe mode has the same contract: `run_session` on input that ends
/// mid-line still answers the final request.
#[test]
fn pipe_answers_the_final_request_without_a_trailing_newline() {
    let service = smoke_service(1);
    let script = b"{\"id\":7,\"op\":\"ping\"}".to_vec();
    let mut out = Vec::new();
    let summary = service.run_session(script.as_slice(), &mut out);
    assert_eq!(summary.received, 1);
    assert_eq!(summary.responses, 1);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"id\":7"), "{text}");
}

/// Request bytes that are not valid UTF-8 get a *typed* protocol error —
/// not a lossy mangling that then fails JSON parsing with a misleading
/// message, and not a dropped connection.
#[test]
fn invalid_utf8_request_bytes_get_a_typed_error() {
    let service = smoke_service(1);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr;

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut raw = b"{\"id\":1,\"op\":\"p".to_vec();
    raw.extend_from_slice(&[0xFF, 0xFE, 0x80]); // not UTF-8 in any reading
    raw.extend_from_slice(b"ing\"}\n{\"id\":2,\"op\":\"ping\"}\n");
    stream.write_all(&raw).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read");
    assert!(
        first.contains("\"status\":\"error\"") && first.contains("bad_request"),
        "wanted a typed bad_request, got: {first}"
    );
    assert!(first.contains("UTF-8"), "{first}");
    // The session survives: the next (well-formed) line is answered.
    let mut second = String::new();
    reader.read_line(&mut second).expect("read");
    assert!(
        second.contains("\"id\":2") && second.contains("\"status\":\"ok\""),
        "{second}"
    );

    server.shutdown_and_join();
}

fn wait_for_live(server: &TcpServer, target: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() != target {
        assert!(
            Instant::now() < deadline,
            "live_sessions stuck at {} (wanted {target})",
            server.live_sessions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The accept loop must reap finished session handles as connections
/// come and go: after N sequential connect/close cycles the server holds
/// zero live handles, not N.
#[test]
fn accept_loop_reaps_finished_session_handles_under_churn() {
    let service = smoke_service(2);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr;

    for r in 0..30u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{{\"id\":{r},\"op\":\"ping\"}}\n").as_bytes())
            .expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        drop(reader);
        drop(stream);
    }
    // Every connection is closed; the gauge must drain to zero (the
    // pre-fix behaviour held one JoinHandle per connection ever made).
    wait_for_live(&server, 0);

    // And the gauge tracks concurrently open connections.
    let held: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() < 3 {
        assert!(Instant::now() < deadline, "open connections not counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.live_sessions() <= 3);
    drop(held);
    wait_for_live(&server, 0);

    server.shutdown_and_join();
}

fn ping(stream: &TcpStream) -> String {
    let mut w = stream;
    w.write_all(b"{\"id\":1,\"op\":\"ping\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    line
}

/// A newline-free stream must not buffer without bound: past the
/// `MAX_FRAME` cap the session answers one `bad_request` and closes,
/// and a ping on a second session is answered while the stream is in
/// flight and after.
#[test]
fn a_line_over_the_cap_ends_its_session_with_one_bad_request() {
    let service = smoke_service(1);
    let server = TcpServer::bind(service.clone(), "127.0.0.1:0").expect("bind");

    let bystander = TcpStream::connect(server.local_addr).expect("connect");
    let stream = TcpStream::connect(server.local_addr).expect("connect");
    // Fail rather than hang if the session is never closed.
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let (half_sent, mid_stream) = mpsc::channel();
    let sender = {
        let mut stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            let block = vec![b'a'; 1 << 20];
            let blocks = MAX_FRAME / block.len();
            for sent in 0..blocks {
                if sent == blocks / 2 {
                    half_sent.send(()).expect("the test waits");
                }
                stream.write_all(&block)?;
            }
            stream.write_all(b"a")
        })
    };
    mid_stream.recv().expect("the sender runs");
    assert!(ping(&bystander).contains("\"status\":\"ok\""));
    let lines: Vec<String> = BufReader::new(&stream)
        .lines()
        .map(|line| line.expect("read"))
        .collect();
    sender
        .join()
        .unwrap()
        .expect("the server reads the whole stream");
    assert_eq!(
        lines,
        vec![format!(
            "{{\"id\":null,\"status\":\"error\",\"code\":\"bad_request\",\"message\":\"line exceeds the {MAX_FRAME}-byte cap\"}}"
        )]
    );
    assert!(ping(&bystander).contains("\"status\":\"ok\""));

    server.shutdown_and_join();
}

/// JSON nested past the parser's 128-level guard gets one `bad_json`
/// line, never a stack overflow, and the session goes on: the `ping`
/// behind each hostile line is answered.
#[test]
fn pipe_refuses_json_nested_past_the_depth_guard_and_keeps_serving() {
    let service = smoke_service(1);
    let mut script = "[".repeat(100_000);
    script.push('\n');
    script.push_str("{\"id\":1,\"op\":\"ping\"}\n");
    script.push_str("{\"id\":2,\"rows\":2,\"cols\":2,\"entries\":");
    script.push_str(&"[".repeat(129));
    script.push_str(&"]".repeat(129));
    script.push_str("}\n{\"id\":3,\"op\":\"ping\"}\n");
    let mut out = Vec::new();
    let summary = service.run_session(script.as_bytes(), &mut out);
    assert_eq!(summary.responses, 4);
    assert_eq!(summary.errors, 2);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            "{\"id\":null,\"status\":\"error\",\"code\":\"bad_json\",\"message\":\"invalid JSON at byte 129: nesting too deep\"}",
            "{\"id\":1,\"status\":\"ok\",\"op\":\"ping\"}",
            "{\"id\":null,\"status\":\"error\",\"code\":\"bad_json\",\"message\":\"invalid JSON at byte 164: nesting too deep\"}",
            "{\"id\":3,\"status\":\"ok\",\"op\":\"ping\"}",
        ]
    );
}
