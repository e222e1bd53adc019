//! The router's TCP front end is the shard's: the same session runtime,
//! so the wire-path guarantees the server's transport tests pin hold at
//! the router too — the unterminated final request, typed errors for
//! non-UTF-8 bytes, session reaping, the line-length cap, and JSON nested
//! past the parser's depth guard.

use mg_collection::{CollectionScale, CollectionSpec};
use mg_router::{LocalCluster, RouterConfig, RouterTcpServer};
use mg_server::codec::MAX_FRAME;
use mg_server::ServiceConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn cluster() -> LocalCluster {
    LocalCluster::spawn(2, |_| ServiceConfig {
        threads: 1,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

fn read_lines(stream: TcpStream, n: usize) -> Vec<String> {
    let mut reader = BufReader::new(stream);
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        })
        .collect()
}

#[test]
fn routed_tcp_answers_unterminated_and_non_utf8_requests() {
    let cluster = cluster();
    let router = Arc::new(cluster.router(RouterConfig::default()));
    let server = RouterTcpServer::bind(router.clone(), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(server.local_addr).expect("connect");
    let mut raw = b"{\"id\":1,\"op\":\"p".to_vec();
    raw.extend_from_slice(&[0xFF, 0xFE]);
    raw.extend_from_slice(b"ing\"}\n{\"id\":2,\"matrix\":{\"collection\":\"laplace2d_00_k20\"}}\n{\"id\":3,\"op\":\"ping\"}");
    stream.write_all(&raw).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let lines = read_lines(stream, 3);
    assert!(
        lines[0].contains("\"code\":\"bad_request\"") && lines[0].contains("UTF-8"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("{\"id\":2,\"status\":\"ok\""),
        "{}",
        lines[1]
    );
    assert_eq!(lines[2], "{\"id\":3,\"status\":\"ok\",\"op\":\"ping\"}");

    router.initiate_shutdown();
    server.join();
    drop(router);
    cluster.shutdown();
}

fn wait_for_live(server: &RouterTcpServer, target: usize) {
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

fn ping(stream: &TcpStream) -> String {
    let mut w = stream;
    w.write_all(b"{\"id\":1,\"op\":\"ping\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    line
}

#[test]
fn routed_tcp_reaps_closed_sessions() {
    let cluster = cluster();
    let router = Arc::new(cluster.router(RouterConfig::default()));
    let server = RouterTcpServer::bind(router.clone(), "127.0.0.1:0").expect("bind");

    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.local_addr).expect("connect"))
        .collect();
    for stream in &held {
        assert!(ping(stream).contains("\"status\":\"ok\""));
    }
    wait_for_live(&server, 2);

    drop(held);
    wait_for_live(&server, 0);
    let again = TcpStream::connect(server.local_addr).expect("connect");
    assert!(ping(&again).contains("\"status\":\"ok\""));
    drop(again);

    router.initiate_shutdown();
    server.join();
    drop(router);
    cluster.shutdown();
}

/// A newline-free stream past the `MAX_FRAME` cap gets one `bad_request`
/// from the router itself, which then closes the session; a ping on a
/// second session is answered while the stream is in flight and after.
#[test]
fn routed_line_over_the_cap_ends_its_session_with_one_bad_request() {
    let cluster = cluster();
    let router = Arc::new(cluster.router(RouterConfig::default()));
    let server = RouterTcpServer::bind(router.clone(), "127.0.0.1:0").expect("bind");

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
        .expect("the router reads the whole stream");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("\"code\":\"bad_request\"")
            && lines[0].contains(&format!("line exceeds the {MAX_FRAME}-byte cap")),
        "{}",
        lines[0]
    );
    assert!(ping(&bystander).contains("\"status\":\"ok\""));

    router.initiate_shutdown();
    server.join();
    drop(router);
    cluster.shutdown();
}

/// The routed twin of the server's depth-guard case: JSON nested past
/// 128 levels gets one `bad_json` line and the session goes on.
#[test]
fn routed_pipe_refuses_json_nested_past_the_depth_guard_and_keeps_serving() {
    let cluster = cluster();
    let router = cluster.router(RouterConfig::default());
    let mut script = "[".repeat(100_000);
    script.push('\n');
    script.push_str("{\"id\":1,\"op\":\"ping\"}\n");
    script.push_str("{\"id\":2,\"rows\":2,\"cols\":2,\"entries\":");
    script.push_str(&"[".repeat(129));
    script.push_str(&"]".repeat(129));
    script.push_str("}\n{\"id\":3,\"op\":\"ping\"}\n");
    let mut out = Vec::new();
    let summary = router.run_session(script.as_bytes(), &mut out);
    drop(router);
    cluster.shutdown();
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
