//! Failure handling and shard diagnostics: reconnect-and-replay against
//! a flaky shard, replica-set failover (kill the top replica mid-stream,
//! stream stays byte-identical), prober flap re-admission, typed
//! `shard_unavailable` errors for a lost shard, `unknown_shard` for bad
//! addressing, shard-tagged stats/error responses, and the
//! topology-validation seam.

use mg_core::service::placement_key;
use mg_router::{rank, LocalCluster, Router, RouterConfig, ShardSpec, Topology, TopologyError};
use mg_server::{protocol, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const PING: &str = "{\"id\":1,\"op\":\"ping\"}\n";
const PARTITION: &str =
    "{\"id\":7,\"matrix\":{\"rows\":4,\"cols\":4,\"entries\":[[0,0],[1,1],[2,2],[3,3],[0,3]]}}\n";

fn fast_config() -> RouterConfig {
    RouterConfig {
        connect_attempts: 2,
        retry_delay: Duration::from_millis(50),
        ..RouterConfig::default()
    }
}

/// A script source that fires a callback right before the session reads
/// line `kill_at` (0-based) — i.e. after every earlier line has been
/// routed — so tests can sever a shard at an exact point in the stream.
struct ScriptReader<F: FnMut()> {
    lines: Vec<Vec<u8>>,
    next: usize,
    offset: usize,
    kill_at: usize,
    kill: Option<F>,
}

impl<F: FnMut()> ScriptReader<F> {
    fn new(script: &[&str], kill_at: usize, kill: F) -> BufReader<Self> {
        BufReader::new(ScriptReader {
            lines: script
                .iter()
                .map(|l| format!("{l}\n").into_bytes())
                .collect(),
            next: 0,
            offset: 0,
            kill_at,
            kill: Some(kill),
        })
    }
}

impl<F: FnMut()> Read for ScriptReader<F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.next >= self.lines.len() {
            return Ok(0);
        }
        if self.offset == 0 && self.next == self.kill_at {
            if let Some(mut kill) = self.kill.take() {
                kill();
            }
        }
        let line = &self.lines[self.next];
        let n = (line.len() - self.offset).min(buf.len());
        buf[..n].copy_from_slice(&line[self.offset..self.offset + n]);
        self.offset += n;
        if self.offset == line.len() {
            self.next += 1;
            self.offset = 0;
        }
        Ok(n)
    }
}

/// The replica set a partition request line maps to under the given
/// topology — computed through the same public seams the router uses.
fn replica_set(line: &str, topology: &Topology, r: usize) -> Vec<usize> {
    let request = protocol::parse_request_line(line).expect("test script line parses");
    let spec = request.spec.expect("partition line carries a spec");
    let key = placement_key(spec.matrix).expect("placement key");
    rank(key, topology.shards(), r)
}

/// Six distinct small matrices (no repeats, so every response is
/// deterministically `cached: false`) plus a ping — the kill-mid-stream
/// script.
fn distinct_script() -> Vec<String> {
    let mut lines: Vec<String> = (0..6u64)
        .map(|i| {
            let n = 3 + i;
            let entries: Vec<String> = (0..n)
                .map(|d| format!("[{d},{d}]"))
                .chain((1..n).map(|d| format!("[{},{}]", d - 1, d)))
                .collect();
            format!(
                "{{\"id\":{i},\"matrix\":{{\"rows\":{n},\"cols\":{n},\"entries\":[{}]}}}}",
                entries.join(",")
            )
        })
        .collect();
    lines.push("{\"id\":\"bye\",\"op\":\"ping\"}".to_string());
    lines
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole acceptance pin: with `--replicas 2` over three shards,
/// SIGKILL-equivalently severing the top replica of an in-flight stream
/// leaves the client's response bytes identical to a healthy
/// single-shard run — at shard thread counts 1, 2 and 4.
#[test]
fn killing_the_top_replica_mid_stream_keeps_the_stream_byte_identical() {
    let script = distinct_script();
    let script_refs: Vec<&str> = script.iter().map(String::as_str).collect();
    // Healthy reference: one plain shard, default (replicas = 1) router.
    let reference = {
        let cluster = LocalCluster::spawn(1, |_| ServiceConfig::default());
        let router = cluster.router(RouterConfig::default());
        let mut out = Vec::new();
        let input = script.iter().map(|l| format!("{l}\n")).collect::<String>();
        router.run_session(input.as_bytes(), &mut out);
        drop(router);
        cluster.shutdown();
        String::from_utf8(out).unwrap()
    };
    assert_eq!(reference.lines().count(), script.len());

    for threads in [1usize, 2, 4] {
        let mut cluster = LocalCluster::spawn_killable(3, |_| ServiceConfig {
            threads,
            ..ServiceConfig::default()
        });
        let topology = cluster.topology();
        let router = cluster.router(RouterConfig {
            replicas: 2,
            connect_attempts: 2,
            retry_delay: Duration::from_millis(50),
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        });
        // Sever the primary of the line that will be read right after
        // the kill: that request *must* fail over to its rank-2 replica,
        // and any unanswered earlier request on the same shard must be
        // replayed too.
        let kill_at = 3usize;
        let victim = replica_set(&script[kill_at], &topology, 2)[0];
        let victim_id = topology.shards()[victim].id.clone();
        let shard = &mut cluster.shards[victim];
        let input = ScriptReader::new(&script_refs, kill_at, || shard.kill());
        let mut out = Vec::new();
        let summary = router.run_session(input, &mut out);
        assert_eq!(summary.received, script.len() as u64);
        assert_eq!(
            router.shard_alive(&victim_id),
            Some(false),
            "the killed replica is marked dead (threads={threads})"
        );
        drop(router);
        cluster.shutdown();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            reference,
            "failover must be invisible in the stream (threads={threads}, victim={victim_id})"
        );
    }
}

/// Dead replicas surface in the router-local stats line (and the public
/// accessors), while healthy replicated runs report byte-identically to
/// unreplicated ones.
#[test]
fn dead_replicas_surface_in_router_stats() {
    let mut cluster = LocalCluster::spawn_killable(2, |_| ServiceConfig::default());
    let topology = cluster.topology();
    let router = cluster.router(RouterConfig {
        replicas: 2,
        connect_attempts: 2,
        retry_delay: Duration::from_millis(50),
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    });
    // Kill the request's primary before any traffic and let the prober
    // notice, so the session deterministically dispatches to the rank-2
    // replica and the stats line (written only after every earlier slot
    // resolved) reports the casualty.
    let victim = replica_set(PARTITION.trim(), &topology, 2)[0];
    let victim_id = topology.shards()[victim].id.clone();
    cluster.shards[victim].kill();
    wait_until(
        "the prober to mark the shard dead",
        Duration::from_secs(10),
        || router.shard_alive(&victim_id) == Some(false),
    );
    let script = format!("{PARTITION}{{\"id\":8,\"op\":\"stats\"}}\n");
    let mut out = Vec::new();
    router.run_session(script.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    let stats = text.lines().last().unwrap();
    assert!(
        text.lines()
            .next()
            .unwrap()
            .contains("\"id\":7,\"status\":\"ok\""),
        "the failed-over request is still answered for real: {text}"
    );
    assert!(stats.contains("\"replicas\":2"), "{stats}");
    assert!(
        stats.contains(&format!("\"dead\":[\"{victim_id}\"]")),
        "stats names the dead replica: {stats}"
    );
    assert!(stats.contains("\"failovers\":"), "{stats}");
    assert!(router.failovers() >= 1);
    drop(router);
    cluster.shutdown();
}

/// The health prober marks a killed replica dead and — once it flaps
/// back — re-admits it, so traffic returns to the primary.
#[test]
fn prober_flaps_readmit_a_revived_replica() {
    let mut cluster = LocalCluster::spawn_killable(2, |_| ServiceConfig::default());
    let router = cluster.router(RouterConfig {
        replicas: 2,
        connect_attempts: 2,
        retry_delay: Duration::from_millis(25),
        probe_interval: Duration::from_millis(25),
        ..RouterConfig::default()
    });
    let id = cluster.shards[0].spec.id.clone();
    assert_eq!(router.shard_alive(&id), Some(true));
    assert_eq!(router.shard_alive("nope"), None);
    cluster.shards[0].kill();
    wait_until(
        "the prober to mark the shard dead",
        Duration::from_secs(10),
        || router.shard_alive(&id) == Some(false),
    );
    cluster.shards[0].revive();
    wait_until(
        "the prober to re-admit the shard",
        Duration::from_secs(10),
        || router.shard_alive(&id) == Some(true),
    );
    // The re-admitted replica serves again: a fresh session works no
    // matter which shard owns the key.
    let mut out = Vec::new();
    let summary = router.run_session(PARTITION.as_bytes(), &mut out);
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"id\":7,\"status\":\"ok\""), "{text}");
    drop(router);
    cluster.shutdown();
}

/// A shard whose first connection reads one request and drops dead
/// mid-flight; subsequent connections are served by a real engine. The
/// router must reconnect and replay, and the client must still see the
/// real answer.
#[test]
fn reconnect_and_replay_survives_a_dropped_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let flaky = std::thread::spawn(move || {
        // First connection: swallow one request line, then hang up.
        let (first, _) = listener.accept().unwrap();
        {
            let mut line = String::new();
            let mut reader = BufReader::new(first.try_clone().unwrap());
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"id\":7"), "swallowed: {line}");
            drop(reader);
            drop(first);
        }
        // Second connection: a real serving engine takes over.
        let service = Service::start(ServiceConfig::default());
        let (second, _) = listener.accept().unwrap();
        let reader = BufReader::new(second.try_clone().unwrap());
        service.run_session(reader, second);
        service.shutdown_and_join();
    });

    let topology = Topology::parse(&addr).unwrap();
    let router = Router::new(topology, fast_config()).unwrap();
    let mut out = Vec::new();
    let summary = router.run_session(PARTITION.as_bytes(), &mut out);
    // Dropping the router closes the pooled connection; the fake shard's
    // session sees EOF and its thread can finish.
    drop(router);
    flaky.join().unwrap();

    let text = String::from_utf8(out).unwrap();
    assert_eq!(summary.forwarded, 1);
    assert!(
        text.contains("\"id\":7,\"status\":\"ok\"") && text.contains("\"volume\""),
        "replayed request must be answered for real: {text}"
    );
}

#[test]
fn a_lost_shard_yields_typed_shard_unavailable_errors() {
    // Bind and immediately drop a listener: the port is plausibly real
    // but refuses connections.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let topology = Topology::parse(&format!("lost={addr}")).unwrap();
    let router = Router::new(topology, fast_config()).unwrap();
    let mut out = Vec::new();
    let summary = router.run_session(PARTITION.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(summary.errors, 1);
    assert!(text.contains("\"code\":\"shard_unavailable\""), "{text}");
    assert!(
        text.contains("\"shard\":\"lost\""),
        "the failing shard is named: {text}"
    );
    assert!(text.contains("\"id\":7"), "the id is echoed: {text}");
}

#[test]
fn shard_addressed_stats_carry_the_shard_tag() {
    let cluster = LocalCluster::spawn(2, |index| ServiceConfig {
        shard_id: Some(format!("shard-{index}")),
        ..ServiceConfig::default()
    });
    let router = cluster.router(RouterConfig::default());
    let script = concat!(
        "{\"id\":1,\"matrix\":{\"rows\":2,\"cols\":2,\"entries\":[[0,0],[1,1]]}}\n",
        "{\"id\":2,\"op\":\"stats\",\"shard\":\"shard-0\"}\n",
        "{\"id\":3,\"op\":\"stats\",\"shard\":\"shard-1\"}\n",
        "{\"id\":4,\"op\":\"stats\",\"shard\":\"nope\"}\n",
        "{\"id\":5,\"op\":\"stats\",\"shard\":7}\n",
        "{\"id\":6,\"op\":\"stats\"}\n",
    );
    let mut out = Vec::new();
    router.run_session(script.as_bytes(), &mut out);
    cluster.shutdown();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6);
    // Forwarded stats: per-shard counters, tagged with the shard id, and
    // carrying the new cache/backends fields.
    assert!(lines[1].contains("\"shard\":\"shard-0\""), "{}", lines[1]);
    assert!(lines[1].contains("\"cache_misses\":"), "{}", lines[1]);
    assert!(lines[1].contains("\"backends\":"), "{}", lines[1]);
    assert!(lines[2].contains("\"shard\":\"shard-1\""), "{}", lines[2]);
    // Exactly one of the two shards saw the partition request.
    let received: Vec<bool> = [1, 2]
        .iter()
        .map(|&i| lines[i].contains("\"received\":2"))
        .collect();
    assert_eq!(
        received.iter().filter(|&&r| r).count(),
        1,
        "the job landed on exactly one shard: {:?} / {:?}",
        lines[1],
        lines[2]
    );
    // Bad addressing: typed errors.
    assert!(
        lines[3].contains("\"code\":\"unknown_shard\""),
        "{}",
        lines[3]
    );
    assert!(
        lines[3].contains("shard-0"),
        "lists the topology: {}",
        lines[3]
    );
    assert!(
        lines[4].contains("\"code\":\"bad_request\""),
        "{}",
        lines[4]
    );
    // Router-local stats: topology-independent shape, no shard tag.
    assert!(
        lines[5].contains("\"op\":\"stats\",\"received\":6"),
        "{}",
        lines[5]
    );
    assert!(!lines[5].contains("\"shard\""), "{}", lines[5]);
}

#[test]
fn shard_tagged_errors_name_the_rejecting_shard() {
    let cluster = LocalCluster::spawn(1, |_| ServiceConfig {
        shard_id: Some("only".into()),
        ..ServiceConfig::default()
    });
    let router = cluster.router(RouterConfig::default());
    let mut out = Vec::new();
    router.run_session(
        &b"{\"id\":9,\"matrix\":{\"collection\":\"missing\"}}\n"[..],
        &mut out,
    );
    cluster.shutdown();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"code\":\"unknown_collection\""), "{text}");
    assert!(text.contains("\"shard\":\"only\""), "{text}");
}

#[test]
fn router_cache_short_circuits_repeats_without_recrossing_the_wire() {
    let cluster = LocalCluster::spawn(2, |_| ServiceConfig::default());
    let router = cluster.router(RouterConfig::default());
    // Session 1 computes; session 2 repeats the same request and must be
    // served from the router cache (the summary counts it), with the
    // response marked cached and re-issued under the new id.
    let mut first = Vec::new();
    let s1 = router.run_session(PARTITION.as_bytes(), &mut first);
    assert_eq!(s1.cache_hits, 0);
    assert_eq!(s1.forwarded, 1);
    let repeat = PARTITION.replace("\"id\":7", "\"id\":\"again\"");
    let mut second = Vec::new();
    let s2 = router.run_session(repeat.as_bytes(), &mut second);
    cluster.shutdown();
    assert_eq!(s2.cache_hits, 1, "router LRU must answer the repeat");
    assert_eq!(s2.forwarded, 0);
    let first = String::from_utf8(first).unwrap();
    let second = String::from_utf8(second).unwrap();
    assert!(second.contains("\"id\":\"again\""), "{second}");
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        second.replace("\"id\":\"again\"", "\"id\":7"),
        first.replace("\"cached\":false", "\"cached\":true"),
        "a cache hit is the original line modulo id and cached flag"
    );
}

#[test]
fn in_band_shutdown_drains_the_shards_too() {
    let cluster = LocalCluster::spawn(2, |_| ServiceConfig::default());
    let router = cluster.router(RouterConfig::default());
    let script = format!("{PARTITION}{{\"id\":99,\"op\":\"shutdown\"}}\n");
    let mut out = Vec::new();
    router.run_session(script.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\"id\":7,\"status\":\"ok\""), "{text}");
    assert!(
        text.ends_with("{\"id\":99,\"status\":\"ok\",\"op\":\"shutdown\"}\n"),
        "shutdown acks last: {text}"
    );
    assert!(router.is_shutting_down());
    // Every shard engine saw the forwarded shutdown: joining the TCP
    // front ends returns promptly instead of hanging on live accept
    // loops.
    for shard in &cluster.shards {
        assert!(shard.is_shutting_down());
    }
    cluster.shutdown();
}

#[test]
fn topology_validation_is_a_typed_seam() {
    assert_eq!(Topology::parse(""), Err(TopologyError::Empty));
    let dup = Topology::new(vec![
        ShardSpec {
            id: "a".into(),
            addr: "h:1".into(),
        },
        ShardSpec {
            id: "a".into(),
            addr: "h:2".into(),
        },
    ]);
    assert_eq!(dup, Err(TopologyError::DuplicateId("a".into())));
    // And a Router cannot be built around the seam: Topology is the only
    // way in, so an invalid topology never reaches Router::new.
    let ok = Topology::parse("127.0.0.1:1").unwrap();
    assert!(Router::new(ok, RouterConfig::default()).is_ok());
}

#[test]
fn sequential_sessions_reuse_pooled_connections() {
    let cluster = LocalCluster::spawn(1, |_| ServiceConfig::default());
    let router = cluster.router(RouterConfig::default());
    for i in 0..3 {
        let mut out = Vec::new();
        let script = PARTITION.replace("\"id\":7", &format!("\"id\":{i}"));
        let mut with_ping = script;
        with_ping.push_str(PING);
        let summary = router.run_session(with_ping.as_bytes(), &mut out);
        assert_eq!(summary.responses, 2, "session {i}");
    }
    cluster.shutdown();
}
