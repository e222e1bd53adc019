//! The routing engine: placement, the router-level response cache, the
//! health prober, and the router's session handler.
//!
//! ## Execution model
//!
//! A router session is an `mg_server::session` handler: the shared
//! session runtime pumps request units into it and writes its responses
//! in submission order, exactly as for a shard. The handler answers what
//! it can locally (parse errors, `ping`, `stats`, router-cache hits) and
//! forwards the rest — the *original raw line*, so shards decode exactly
//! what the client sent — to the shard that [`crate::placement`] picks
//! for the request's placement key. Each session holds at most one
//! connection per shard (`shard.rs`); responses come back in FIFO
//! order per connection and resolve the session's response slots.
//!
//! ## Replication and failure handling
//!
//! With `--replicas R` (R > 1), placement returns the top-R rendezvous
//! ranks of a key instead of just the winner; a request goes to its
//! top-ranked replica that is currently believed alive. Liveness is
//! tracked per shard by a background prober (the protocol's `ping` op
//! under a read deadline) and by connection outcomes.
//!
//! Every forwarded-but-unanswered request stays in the connection's
//! pending queue. When a connection dies (EOF, read or write error, or —
//! when configured — an expired per-connection read deadline), the
//! reader thread redials and replays the queue in order; if the shard
//! stays unreachable through the configured attempts, the shard is
//! marked dead and each pending request **fails over**: it is replayed,
//! still in order, against its next-ranked live replica. Only when a
//! request exhausts its replica set does it fail with a typed
//! `shard_unavailable` error. The pending queue is also the backpressure
//! bound: submissions block while `window` requests are in flight to one
//! shard.
//!
//! ## Determinism
//!
//! Placement is a pure function of the request, shards are configured
//! identically, and the router cache only ever serves a byte-rewrite
//! (fresh id, `cached: true`) of a line some shard produced — so a
//! session's response stream is the same for 1 shard and K shards at any
//! thread count, **and failover is invisible**: any replica computes
//! byte-identical response bytes for a request, so a replayed request
//! returns exactly the line the dead replica would have produced (see
//! `PROTOCOL.md` § Routing for the exact contract).

use crate::cache::{with_id, RouterKey};
use crate::config::Topology;
use crate::metrics::{
    dispatch_counter, health_transition, router_metrics, router_request_seconds, set_replicas,
    set_shard_alive,
};
use crate::placement::place_replicas;
use crate::shard::{EntryTrace, PendingEntry, SessionState, ShardConn};
use mg_core::service::{placement_key, ErrorCode, RequestOp};
use mg_core::{parse_backend, DEFAULT_BACKEND};
use mg_obs::trace;
use mg_server::codec::{self, UnitKind, WireCodec};
use mg_server::json::obj;
use mg_server::session::{
    self, lock_ok, wait_ok, Handler, Render, RequestTrace, Responses, Runtime, Stamp,
};
use mg_server::{protocol, Json, LruCache};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Largest number of forwarded-but-unanswered requests per shard
    /// connection; full ⇒ the session's reader blocks (backpressure).
    pub window: usize,
    /// Router-level LRU response cache capacity in entries; 0 disables.
    pub cache_capacity: usize,
    /// Backend assumed for cost estimation when a request carries no
    /// `backend` field. Must match the shards' default backend for the
    /// cost model to reflect what actually runs.
    pub default_backend: &'static str,
    /// Estimated-cost threshold ([`mg_core::PartitionBackend::estimated_cost`])
    /// above which a request counts shard capacity *squared* in placement,
    /// biasing heavy jobs toward larger shards.
    pub heavy_cost: u64,
    /// Dial attempts per connect/reconnect before a shard counts as down.
    pub connect_attempts: u32,
    /// Delay between dial attempts.
    pub retry_delay: Duration,
    /// Replication factor R: each key's top-R rendezvous ranks form its
    /// replica set. 1 (the default) preserves single-owner placement
    /// bit-for-bit and disables the health prober.
    pub replicas: usize,
    /// Period of the background health prober (`ping` per shard). Only
    /// runs when `replicas > 1`; `Duration::ZERO` disables it outright.
    pub probe_interval: Duration,
    /// Per-connection read deadline: a forwarded request unanswered this
    /// long marks the replica dead and triggers failover (or typed
    /// errors at `replicas == 1`). `None` (the default) waits forever,
    /// preserving historical behaviour. Set it above the worst-case job
    /// latency of the workload. Also bounds each probe's response wait.
    pub read_deadline: Option<Duration>,
    /// Slow-request trace sampler: an untraced partition request gets a
    /// speculative trace, kept only when its end-to-end latency reaches
    /// this threshold (`Duration::ZERO` keeps every request). `None`
    /// (the default) disables the sampler; explicitly traced requests
    /// are always recorded regardless.
    pub trace_slow: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            window: 64,
            cache_capacity: 128,
            default_backend: DEFAULT_BACKEND,
            heavy_cost: 10_000_000,
            connect_attempts: 5,
            retry_delay: Duration::from_millis(200),
            replicas: 1,
            probe_interval: Duration::from_millis(500),
            read_deadline: None,
            trace_slow: None,
        }
    }
}

impl RouterConfig {
    /// How long a probe waits for its `ping` reply.
    fn probe_deadline(&self) -> Duration {
        self.read_deadline.unwrap_or(Duration::from_secs(2))
    }
}

/// Per-session counters (the router-side analogue of
/// [`mg_server::SessionSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterSummary {
    /// Request lines decoded (including failed ones).
    pub received: u64,
    /// Responses written.
    pub responses: u64,
    /// Requests forwarded to a shard.
    pub forwarded: u64,
    /// Requests short-circuited by the router cache.
    pub cache_hits: u64,
    /// Locally answered error responses.
    pub errors: u64,
}

pub(crate) struct RouterCore {
    pub(crate) topology: Topology,
    pub(crate) config: RouterConfig,
    cache: Mutex<LruCache<RouterKey, String>>,
    /// Idle, reader-less connections per shard, reusable across sessions.
    pools: Vec<Mutex<Vec<TcpStream>>>,
    /// Believed liveness per shard: written by the prober and by
    /// connection outcomes, read by placement and failover.
    health: Vec<AtomicBool>,
    /// Total requests replayed onto a lower-ranked replica.
    failovers: AtomicU64,
    /// Open sessions on this router. The `stats` op samples it at decode
    /// time, so its value is deterministic per session script: a session
    /// always counts at least itself.
    sessions: AtomicU64,
    shutdown: AtomicBool,
    /// Guards the one-shot forwarding of `shutdown` to every shard.
    teardown_done: Mutex<bool>,
}

/// The background health prober's lifecycle handle.
struct Prober {
    /// `true` under the mutex once the router wants the prober gone; the
    /// condvar wakes it out of its between-rounds sleep immediately.
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prober {
    fn stop(&mut self) {
        let (flag, wake) = &*self.stop;
        *lock_ok(flag) = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A running router: validated topology + shared cache + connection
/// pools + (with `replicas > 1`) a background health prober. Sessions
/// attach via [`Router::run_session`] (pipe transports) or the TCP front
/// end ([`crate::RouterTcpServer`]).
pub struct Router {
    pub(crate) core: Arc<RouterCore>,
    prober: Option<Prober>,
}

impl Router {
    /// Builds a router over a validated topology. Fails (with a message)
    /// when `config.default_backend` is not a registered backend or
    /// `config.replicas` is 0.
    pub fn new(topology: Topology, mut config: RouterConfig) -> Result<Router, String> {
        config.default_backend = parse_backend(config.default_backend)?.name();
        if config.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        let pools = (0..topology.len())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let health = (0..topology.len()).map(|_| AtomicBool::new(true)).collect();
        let spawn_prober = config.replicas > 1 && !config.probe_interval.is_zero();
        let core = Arc::new(RouterCore {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            pools,
            health,
            failovers: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            teardown_done: Mutex::new(false),
            topology,
            config,
        });
        // Register the router's metric families eagerly: the exposition
        // endpoint reports failover/replica/liveness diagnostics from
        // startup, unconditionally — unlike the deterministic `stats`
        // line, which only mentions replicas once something is dead.
        let _ = router_metrics();
        set_replicas(core.config.replicas);
        for shard in core.topology.shards() {
            set_shard_alive(&shard.id, true);
        }
        let prober = if spawn_prober {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let handle = std::thread::Builder::new()
                .name("mg-router-prober".into())
                .spawn({
                    let core = core.clone();
                    let stop = stop.clone();
                    move || probe_loop(&core, &stop)
                })
                .map_err(|e| format!("spawning health prober: {e}"))?;
            Some(Prober {
                stop,
                handle: Some(handle),
            })
        } else {
            None
        };
        Ok(Router { core, prober })
    }

    /// The validated topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// The believed liveness of the shard named `id` (`None` when the id
    /// is not in the topology). Always `true` at `replicas == 1` startup;
    /// flips with prober results and connection outcomes.
    pub fn shard_alive(&self, id: &str) -> Option<bool> {
        let index = self.core.topology.index_of(id)?;
        Some(self.core.health[index].load(Ordering::SeqCst))
    }

    /// Total requests replayed onto a lower-ranked replica so far
    /// (router-wide, monotone).
    pub fn failovers(&self) -> u64 {
        self.core.failovers.load(Ordering::SeqCst)
    }

    /// Dials every shard once (with the configured retries), parking the
    /// connections in the pools — the startup barrier of `mgpart route`,
    /// so a mistyped address fails before the first request.
    pub fn connect_all(&self) -> Result<(), String> {
        for (index, shard) in self.core.topology.shards().iter().enumerate() {
            let stream = self.core.dial(index).map_err(|e| {
                format!("connecting to shard {:?} at {}: {e}", shard.id, shard.addr)
            })?;
            lock_ok(&self.core.pools[index]).push(stream);
        }
        Ok(())
    }

    /// `true` once an in-band `shutdown` has been observed.
    pub fn is_shutting_down(&self) -> bool {
        self.core.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting forwarded work (the out-of-band analogue of the
    /// `shutdown` op; does not contact the shards).
    pub fn initiate_shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
    }

    /// Runs one full session over a generic byte transport (pipe mode):
    /// requests are read from `input` on the calling thread, responses
    /// stream to `output` from a writer thread in submission order.
    /// Returns when the input is exhausted (EOF or in-band `shutdown`)
    /// and every response has been written.
    pub fn run_session<R: BufRead, W: Write + Send>(&self, input: R, output: W) -> RouterSummary {
        let mut driver = RouterSessionDriver::new(self.core.clone());
        let responses = session::run(&mut driver, input, output, &|| false);
        RouterSummary {
            responses,
            ..driver.summary
        }
    }
}

impl Runtime for Router {
    const NAME: &'static str = "mg-router";

    fn open(&self) -> impl Handler + '_ {
        RouterSessionDriver::new(self.core.clone())
    }

    fn is_shutting_down(&self) -> bool {
        Router::is_shutting_down(self)
    }

    fn initiate_shutdown(&self) {
        Router::initiate_shutdown(self);
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if let Some(prober) = &mut self.prober {
            prober.stop();
        }
    }
}

impl RouterCore {
    pub(crate) fn dial(&self, shard: usize) -> std::io::Result<TcpStream> {
        let addr = &self.topology.shards()[shard].addr;
        let mut last = None;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.config.retry_delay);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no attempts made")))
    }

    /// A connection for `shard`: pooled if available, freshly dialed
    /// otherwise.
    pub(crate) fn take_connection(&self, shard: usize) -> std::io::Result<TcpStream> {
        if let Some(stream) = lock_ok(&self.pools[shard]).pop() {
            return Ok(stream);
        }
        self.dial(shard)
    }

    pub(crate) fn return_connection(&self, shard: usize, stream: TcpStream) {
        lock_ok(&self.pools[shard]).push(stream);
    }

    pub(crate) fn alive(&self, shard: usize) -> bool {
        self.health[shard].load(Ordering::SeqCst)
    }

    pub(crate) fn mark_alive(&self, shard: usize, alive: bool) {
        let was = self.health[shard].swap(alive, Ordering::SeqCst);
        if was != alive {
            let id = &self.topology.shards()[shard].id;
            health_transition(id, alive);
            let level = if alive {
                mg_obs::Level::Info
            } else {
                mg_obs::Level::Warn
            };
            mg_obs::log::event(
                level,
                "shard_health",
                &[("shard", id.as_str().into()), ("alive", alive.into())],
            );
        }
    }

    /// Counts one request moved off its primary replica.
    pub(crate) fn count_failover(&self) {
        self.failovers.fetch_add(1, Ordering::SeqCst);
        router_metrics().failovers.inc();
    }

    /// Ids of the shards currently believed dead, in topology order.
    fn dead_ids(&self) -> Vec<String> {
        self.topology
            .shards()
            .iter()
            .enumerate()
            .filter(|(index, _)| !self.alive(*index))
            .map(|(_, spec)| spec.id.clone())
            .collect()
    }

    pub(crate) fn cache_put(&self, key: RouterKey, line: String) {
        lock_ok(&self.cache).insert(key, line);
    }

    /// Forwards `shutdown` to every shard exactly once (whichever session
    /// gets there first wins), draining each: the shard answers all
    /// earlier requests on the connection, acks the shutdown, and exits.
    /// `session_conns` donates the calling session's live (drained)
    /// connections so shards are not redialed needlessly. Shards believed
    /// dead are skipped rather than redialed — a torn-down topology must
    /// not stall on its casualties.
    fn teardown_shards(&self, mut session_conns: Vec<Option<TcpStream>>) {
        let mut done = lock_ok(&self.teardown_done);
        if *done {
            return;
        }
        *done = true;
        session_conns.resize_with(self.topology.len(), || None);
        for (index, slot) in session_conns.iter_mut().enumerate() {
            let stream = slot
                .take()
                .or_else(|| lock_ok(&self.pools[index]).pop())
                .or_else(|| {
                    if self.alive(index) {
                        self.dial(index).ok()
                    } else {
                        None
                    }
                });
            // Await the ack so the shard has fully drained before we
            // report our own shutdown; the content is irrelevant.
            if let Some(stream) = stream {
                let shutdown = b"{\"op\":\"shutdown\"}\n";
                exchange(
                    &mut BufReader::new(stream),
                    shutdown,
                    Duration::from_secs(10),
                );
            }
        }
    }
}

/// The background health prober: one `ping` per shard per round over the
/// prober's own connections (never the session pools), each answered
/// within [`RouterConfig::probe_deadline`] or the shard is marked dead.
/// A later successful probe re-admits a flapped replica.
fn probe_loop(core: &Arc<RouterCore>, stop: &Arc<(Mutex<bool>, Condvar)>) {
    let mut conns: Vec<Option<BufReader<TcpStream>>> = Vec::new();
    conns.resize_with(core.topology.len(), || None);
    loop {
        for (shard, slot) in conns.iter_mut().enumerate() {
            if *lock_ok(&stop.0) {
                return;
            }
            let alive = probe_once(core, shard, slot);
            core.mark_alive(shard, alive);
        }
        let (flag, wake) = &**stop;
        let guard = lock_ok(flag);
        let (guard, _) = wake
            .wait_timeout(guard, core.config.probe_interval)
            .unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return;
        }
    }
}

/// One probe: dial (if needed), send `ping`, await any response line
/// under the probe deadline. Any failure drops the probe connection so
/// the next round starts from a clean dial.
fn probe_once(core: &RouterCore, shard: usize, slot: &mut Option<BufReader<TcpStream>>) -> bool {
    if slot.is_none() {
        let Ok(stream) = TcpStream::connect(&core.topology.shards()[shard].addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        *slot = Some(BufReader::new(stream));
    }
    let reader = slot.as_mut().expect("just installed");
    let alive = exchange(reader, b"{\"op\":\"ping\"}\n", core.config.probe_deadline());
    if !alive {
        *slot = None;
    }
    alive
}

/// Sends one request line to a shard and waits up to `timeout` for any
/// reply line. `false` when the write fails or no reply arrives.
fn exchange(reader: &mut BufReader<TcpStream>, line: &[u8], timeout: Duration) -> bool {
    let _ = reader.get_ref().set_read_timeout(Some(timeout));
    let mut w = reader.get_ref();
    let mut reply = String::new();
    w.write_all(line).is_ok()
        && w.flush().is_ok()
        && matches!(reader.read_line(&mut reply), Ok(n) if n > 0)
}

/// Returns `raw` with its top-level `"trace"` field inserted or
/// replaced by the router's propagation context, so shard-side spans
/// parent under the router's `dispatch` leg. Falls back to the
/// unstamped line if `raw` fails to re-parse (the shard then records a
/// trace rooted at the client's context, or none at all).
pub(crate) fn stamp_trace(raw: &str, trace_id: u128, parent: u64) -> String {
    let Ok(mut doc) = Json::parse(raw) else {
        return raw.to_string();
    };
    let Json::Obj(fields) = &mut doc else {
        return raw.to_string();
    };
    let stamped = obj(vec![
        ("id", Json::Str(trace::trace_id_hex(trace_id))),
        ("parent", Json::Str(trace::span_id_hex(parent))),
    ]);
    match fields.iter_mut().find(|(k, _)| k == "trace") {
        Some((_, v)) => *v = stamped,
        None => fields.push(("trace".into(), stamped)),
    }
    doc.to_string()
}

/// Removes and returns the best remaining candidate: the first replica
/// currently believed alive, or — when everything looks dead — the first
/// remaining one (the dial will be the judge). `None` when exhausted.
pub(crate) fn next_candidate(core: &RouterCore, fallbacks: &mut Vec<usize>) -> Option<usize> {
    if fallbacks.is_empty() {
        return None;
    }
    let position = fallbacks
        .iter()
        .position(|&shard| core.alive(shard))
        .unwrap_or(0);
    Some(fallbacks.remove(position))
}

/// One resolved response slot of a router session. `stats` slots are
/// deferred so their counters cover exactly the delivered prefix.
pub(crate) enum RSlot {
    Ready {
        line: String,
        /// The response says `cached: true` (shard- or router-served).
        cached: bool,
        /// The response is an error line.
        error: bool,
        /// A `hello` negotiation: the writer emits this line in the old
        /// codec, then switches.
        switch: Option<WireCodec>,
    },
    Stats {
        id: Json,
        received: u64,
        /// Open sessions on the router, sampled at decode time (≥ 1:
        /// the asking session counts itself).
        sessions: u64,
    },
}

impl RSlot {
    pub(crate) fn line(line: String, cached: bool, error: bool) -> RSlot {
        RSlot::Ready {
            line,
            cached,
            error,
            switch: None,
        }
    }
}

/// Writer half of a router session: tallies `cached: true` and error
/// lines as they pass, so a deferred `stats` slot reports exactly its
/// prefix. Shard responses are forwarded opaquely: whatever codec the
/// *client* negotiated, the response text is the shard line
/// byte-for-byte — only the framing around it changes.
struct RouterRender {
    session: Arc<SessionState>,
    cache_hits: u64,
    errors: u64,
}

impl Render for RouterRender {
    type Slot = RSlot;

    fn slots(&self) -> &Responses<RSlot> {
        &self.session.slots
    }

    fn render(&mut self, slot: RSlot) -> (String, Option<WireCodec>) {
        match slot {
            RSlot::Ready {
                line,
                cached,
                error,
                switch,
            } => {
                self.cache_hits += u64::from(cached);
                self.errors += u64::from(error);
                (line, switch)
            }
            RSlot::Stats {
                id,
                received,
                sessions,
            } => {
                let mut fields = vec![
                    ("id", id),
                    ("status", Json::Str("ok".into())),
                    ("op", Json::Str("stats".into())),
                    ("received", Json::UInt(received)),
                    ("cache_hits", Json::UInt(self.cache_hits)),
                    ("errors", Json::UInt(self.errors)),
                    ("sessions", Json::UInt(sessions)),
                    (
                        "queue_depth",
                        Json::UInt(self.slots().outstanding.load(Ordering::SeqCst)),
                    ),
                ];
                // Replica diagnostics, only when something is actually
                // dead: a healthy replicated topology reports byte-
                // identically to an unreplicated one. Sampled here, after
                // every earlier response (and so every failover that
                // produced one) has resolved.
                let core = &self.session.core;
                if core.config.replicas > 1 {
                    let dead = core.dead_ids();
                    if !dead.is_empty() {
                        fields.push(("replicas", Json::UInt(core.config.replicas as u64)));
                        fields.push(("dead", Json::Arr(dead.into_iter().map(Json::Str).collect())));
                        fields.push((
                            "failovers",
                            Json::UInt(core.failovers.load(Ordering::SeqCst)),
                        ));
                    }
                }
                (obj(fields).to_string(), None)
            }
        }
    }
}

/// Reader half of a router session: the [`Handler`] the session runtime
/// feeds request units into.
struct RouterSessionDriver {
    session: Arc<SessionState>,
    summary: RouterSummary,
    /// A `hello` just switched the *inbound* codec; the pump takes this
    /// and retunes its scanner before the next unit.
    pending_switch: Option<WireCodec>,
}

impl Handler for RouterSessionDriver {
    type Render = RouterRender;

    fn writer(&self) -> RouterRender {
        RouterRender {
            session: self.session.clone(),
            cache_hits: 0,
            errors: 0,
        }
    }

    /// Binary partition frames are decoded once and forwarded to the
    /// (JSON-lines) shards as their canonical re-rendered line; text
    /// requests are forwarded as the original text.
    fn handle_unit(&mut self, kind: UnitKind, bytes: &[u8]) -> bool {
        let t0 = Stamp::now();
        session::decode_unit(kind, bytes, &mut |decoded| {
            let index = self.begin();
            match decoded {
                Ok((request, Some(line))) => self.dispatch(index, request, line, t0),
                Ok((request, None)) => {
                    let line = codec::request_json_line(&request);
                    self.dispatch(index, request, &line, t0)
                }
                Err(e) => {
                    self.local_error(index, &e.id, e.code, &e.message, None);
                    true
                }
            }
        })
    }

    fn take_codec_switch(&mut self) -> Option<WireCodec> {
        self.pending_switch.take()
    }

    fn protocol_error(&mut self, message: &str) {
        let index = self.begin();
        self.local_error(index, &Json::Null, ErrorCode::BadRequest, message, None);
    }

    /// Ends the session: waits out in-flight forwards, retires the
    /// connections (pooling the clean ones), and releases the writer.
    fn finish(&mut self) {
        self.session.slots.drain(None);
        for (shard, conn) in self.session.take_conns().into_iter().enumerate() {
            if let Some(stream) = conn.and_then(ShardConn::retire) {
                if !self.core().shutdown.load(Ordering::SeqCst) {
                    self.core().return_connection(shard, stream);
                }
            }
        }
        self.session.slots.finish_input();
    }
}

impl RouterSessionDriver {
    fn new(core: Arc<RouterCore>) -> Self {
        core.sessions.fetch_add(1, Ordering::SeqCst);
        router_metrics().sessions_live.inc();
        RouterSessionDriver {
            session: SessionState::new(core),
            summary: RouterSummary::default(),
            pending_switch: None,
        }
    }

    fn core(&self) -> &Arc<RouterCore> {
        &self.session.core
    }

    /// Opens the next response slot in stream order.
    fn begin(&mut self) -> u64 {
        self.summary.received += 1;
        router_metrics().requests.inc();
        self.session.slots.open()
    }

    /// Routes one decoded request whose unit arrived at `t0`. Returns
    /// `false` when the session should stop reading (an in-band
    /// `shutdown`).
    fn dispatch(&mut self, index: u64, request: protocol::Request, line: &str, t0: Stamp) -> bool {
        match request.op {
            RequestOp::Ping => {
                let line = protocol::op_response(&request.id, "ping");
                self.session
                    .slots
                    .resolve(index, RSlot::line(line, false, false));
            }
            RequestOp::Stats => self.handle_stats(index, line, request.id, request.shard),
            RequestOp::Shutdown => {
                self.handle_shutdown(index, request.id);
                return false;
            }
            RequestOp::Hello => {
                // Codec negotiation is strictly between client and
                // router; shard connections always speak JSON lines.
                let codec = request.codec.unwrap_or(WireCodec::JsonLines);
                self.pending_switch = Some(codec);
                let line = protocol::hello_response(&request.id, codec);
                self.session.slots.resolve(
                    index,
                    RSlot::Ready {
                        line,
                        cached: false,
                        error: false,
                        switch: Some(codec),
                    },
                );
            }
            RequestOp::Partition => {
                let spec = request.spec.expect("partition requests carry a spec");
                self.route_partition(index, line, request.id, spec, request.trace, t0);
            }
        }
        true
    }

    fn local_error(
        &mut self,
        index: u64,
        id: &Json,
        code: ErrorCode,
        message: &str,
        shard: Option<&str>,
    ) {
        self.summary.errors += 1;
        let line = protocol::error_response(id, code, message, shard);
        self.session
            .slots
            .resolve(index, RSlot::line(line, false, true));
    }

    /// `stats` without a `shard` field is answered by the router itself
    /// (topology-independent, deferred to the writer); with one — decoded
    /// and validated by the protocol codec — the raw line is forwarded to
    /// the named shard, whose response carries its own counters and
    /// `shard` tag.
    fn handle_stats(&mut self, index: u64, raw: &str, id: Json, shard: Option<String>) {
        match shard {
            None => {
                let received = self.summary.received;
                let sessions = self.core().sessions.load(Ordering::SeqCst);
                self.session.slots.resolve(
                    index,
                    RSlot::Stats {
                        id,
                        received,
                        sessions,
                    },
                );
            }
            Some(name) => match self.core().topology.index_of(&name) {
                Some(shard) => self.forward(
                    &ForwardReq {
                        index,
                        raw,
                        key: None,
                        id: &id,
                        rt: None,
                    },
                    vec![shard],
                ),
                None => {
                    let message = format!(
                        "no shard named {name:?} in the topology ({})",
                        self.core()
                            .topology
                            .shards()
                            .iter()
                            .map(|s| s.id.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    self.local_error(index, &id, ErrorCode::UnknownShard, &message, None);
                }
            },
        }
    }

    /// Records the `route` span of a traced request: the synchronous
    /// routing decision (placement, cache lookup, replica ranking).
    fn close_route_span(route_span: Option<(trace::TraceContext, Stamp)>) {
        if let Some((rs, start)) = route_span {
            trace::record_span(
                rs.trace_id,
                rs.span_id,
                rs.parent_id,
                "route",
                start.us,
                start.at.elapsed(),
            );
        }
    }

    fn route_partition(
        &mut self,
        index: u64,
        raw: &str,
        id: Json,
        spec: mg_core::service::PartitionSpec,
        wire: Option<mg_obs::WireTrace>,
        t0: Stamp,
    ) {
        // As on the server, the root `request` span opens where the unit
        // arrived, so it covers decode; `route` starts where decode ends.
        let trace_slow = self.core().config.trace_slow;
        let rt = RequestTrace::open(wire, trace_slow, t0);
        let route_span = rt.as_ref().map(|rt| {
            t0.record_child(&rt.ctx, "decode");
            (rt.ctx.child(), Stamp::now())
        });
        let placed = if self.core().shutdown.load(Ordering::SeqCst) {
            Err((
                ErrorCode::ShuttingDown,
                "router is draining; request rejected".to_string(),
            ))
        } else {
            placement_key(&spec.matrix)
        };
        let placement = match placed {
            Ok(placement) => placement,
            Err((code, message)) => {
                self.local_error(index, &id, code, &message, None);
                if let Some(rt) = &rt {
                    rt.close(trace_slow);
                }
                return;
            }
        };
        let key: RouterKey = (
            placement.key,
            spec.method,
            spec.backend,
            spec.epsilon.to_bits(),
            spec.seed,
            spec.include_partition,
        );
        let lookup = Stamp::now();
        let stored = lock_ok(&self.core().cache).get(&key).cloned();
        if let Some((rs, _)) = &route_span {
            lookup.record_child(rs, "cache_lookup");
        }
        if let Some(line) = stored.and_then(|stored| with_id(&stored, &id)) {
            self.summary.cache_hits += 1;
            router_metrics().cache_hits.inc();
            self.session
                .slots
                .resolve(index, RSlot::line(line, true, false));
            Self::close_route_span(route_span);
            if let Some(rt) = &rt {
                rt.close(trace_slow);
            }
            router_request_seconds("router").observe(t0.at.elapsed().as_secs_f64());
            return;
        }
        // Pre-validated: the request field by the protocol decoder, the
        // default by Router::new.
        let backend = parse_backend(spec.backend.unwrap_or(self.core().config.default_backend))
            .expect("backend names are validated at decode/config time");
        let heavy = placement
            .matrix
            .as_ref()
            .is_some_and(|m| backend.estimated_cost(m) >= self.core().config.heavy_cost);
        let replicas = self.core().config.replicas;
        let ranked = place_replicas(
            placement.key,
            self.core().topology.shards(),
            heavy,
            replicas,
        );
        // Close `route` before the forward: the dispatch leg owns the
        // enqueue-through-delivery window, and a speculative trace may
        // be settled by the reader the moment the write lands.
        Self::close_route_span(route_span);
        self.forward(
            &ForwardReq {
                index,
                raw,
                key: Some(key),
                id: &id,
                rt,
            },
            ranked,
        );
    }

    /// Forwards the raw request line to the best live candidate shard,
    /// blocking while the in-flight window is full. Walks down the
    /// ranking as candidates fail to connect; a typed `shard_unavailable`
    /// error only once the whole replica set is exhausted.
    fn forward(&mut self, req: &ForwardReq, candidates: Vec<usize>) {
        let primary = candidates[0];
        let mut remaining = candidates;
        loop {
            let Some(shard) = next_candidate(self.core(), &mut remaining) else {
                unreachable!("forward always receives at least one candidate");
            };
            match self.try_forward(req, shard, &remaining) {
                Ok(()) => {
                    if shard != primary {
                        // Dispatched away from its top rank — whether the
                        // primary is believed dead or just failed to
                        // connect, this request failed over.
                        self.core().count_failover();
                    }
                    self.summary.forwarded += 1;
                    return;
                }
                Err(message) => {
                    self.core().mark_alive(shard, false);
                    if remaining.is_empty() {
                        let shard_id = self.core().topology.shards()[shard].id.clone();
                        self.local_error(
                            req.index,
                            req.id,
                            ErrorCode::ShardUnavailable,
                            &message,
                            Some(&shard_id),
                        );
                        if let Some(rt) = &req.rt {
                            rt.close(self.core().config.trace_slow);
                        }
                        return;
                    }
                }
            }
        }
    }

    /// One forwarding attempt against one shard: `Ok` once the request is
    /// enqueued and written (or poked for replay), so the shard reader
    /// answers or fails it over; `Err` with the would-be
    /// `shard_unavailable` diagnostic when the shard cannot take it.
    fn try_forward(
        &mut self,
        req: &ForwardReq,
        shard: usize,
        fallbacks: &[usize],
    ) -> Result<(), String> {
        let spec = &self.core().topology.shards()[shard];
        let conn = self
            .session
            .connection(shard)
            .map_err(|e| format!("shard {:?} at {} is unreachable: {e}", spec.id, spec.addr))?;
        // Window backpressure: wait for room (the reader signals `space`
        // as responses land or the connection fails).
        let window = self.core().config.window.max(1);
        {
            let mut pending = lock_ok(&conn.pending);
            if pending.len() >= window {
                router_metrics().window_stalls.inc();
            }
            while pending.len() >= window && !conn.dead.load(Ordering::SeqCst) {
                pending = wait_ok(&conn.space, pending);
            }
        }
        // A traced forward opens its `dispatch` leg here and stamps the
        // propagated context into the line it sends, so the shard's
        // spans parent under this leg. Untraced lines are forwarded
        // byte-for-byte.
        let trace = req.rt.map(|rt| EntryTrace::leg(rt, rt.ctx.span_id));
        let send = match &trace {
            Some(t) => stamp_trace(req.raw, t.req.ctx.trace_id, t.dispatch_span),
            None => req.raw.to_string(),
        };
        let entry = PendingEntry {
            index: req.index,
            raw: send,
            key: req.key,
            id: req.id.clone(),
            fallbacks: fallbacks.to_vec(),
            enqueued: Instant::now(),
            started: req.rt.map_or_else(Instant::now, |rt| rt.start.at),
            trace,
        };
        conn.send(entry, || {
            self.session
                .slots
                .outstanding
                .fetch_add(1, Ordering::SeqCst);
            router_metrics().pending.inc();
            dispatch_counter(&spec.id).inc();
        })
        .map_err(|_| {
            format!(
                "shard {:?} at {} became unreachable; request not forwarded",
                spec.id, spec.addr
            )
        })
    }

    /// The in-band `shutdown`: reject new work router-wide, drain this
    /// session's forwards, forward the shutdown to every shard (drain
    /// semantics, once per router), then ack.
    fn handle_shutdown(&mut self, index: u64, id: Json) {
        self.core().shutdown.store(true, Ordering::SeqCst);
        self.session.slots.drain(Some(index));
        let streams: Vec<Option<TcpStream>> = self
            .session
            .take_conns()
            .into_iter()
            .map(|conn| conn.and_then(ShardConn::retire))
            .collect();
        self.core().teardown_shards(streams);
        let line = protocol::op_response(&id, "shutdown");
        self.session
            .slots
            .resolve(index, RSlot::line(line, false, false));
    }
}

impl Drop for RouterSessionDriver {
    fn drop(&mut self) {
        self.session.core.sessions.fetch_sub(1, Ordering::SeqCst);
        router_metrics().sessions_live.dec();
    }
}

/// One client request on its way to a shard: the session index, the
/// line to forward, the router-cache key, the echoed id, and the
/// optional trace handle.
struct ForwardReq<'a> {
    index: u64,
    raw: &'a str,
    key: Option<RouterKey>,
    id: &'a Json,
    rt: Option<RequestTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let shared = Arc::new(Mutex::new(41u64));
        let poisoner = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.is_poisoned(), "the panic must have poisoned it");
        // lock_ok recovers the inner data where .lock().expect() would
        // abort the caller.
        let mut guard = lock_ok(&shared);
        assert_eq!(*guard, 41);
        *guard += 1;
        drop(guard);
        assert_eq!(*lock_ok(&shared), 42);
    }

    #[test]
    fn poisoned_condvar_waits_recover_too() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let poisoner = state.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.0.lock().unwrap();
            panic!("poison the condvar mutex");
        })
        .join();
        let flipper = state.clone();
        std::thread::spawn(move || {
            *lock_ok(&flipper.0) = true;
            flipper.1.notify_all();
        });
        let mut guard = lock_ok(&state.0);
        while !*guard {
            guard = wait_ok(&state.1, guard);
        }
    }

    #[test]
    fn next_candidate_prefers_live_replicas_in_rank_order() {
        let topology = Topology::parse("a=h:1,b=h:2,c=h:3").unwrap();
        let router = Router::new(topology, RouterConfig::default()).unwrap();
        let core = &router.core;
        let mut fallbacks = vec![1, 2, 0];
        core.mark_alive(1, false);
        assert_eq!(next_candidate(core, &mut fallbacks), Some(2));
        assert_eq!(fallbacks, vec![1, 0]);
        core.mark_alive(0, false);
        // Only dead ones left alive-wise? 1 and 0 are dead: take the
        // best-ranked anyway and let the dial decide.
        assert_eq!(next_candidate(core, &mut fallbacks), Some(1));
        assert_eq!(next_candidate(core, &mut fallbacks), Some(0));
        assert_eq!(next_candidate(core, &mut fallbacks), None);
    }

    #[test]
    fn stamp_trace_inserts_or_replaces_the_trace_field() {
        let raw = r#"{"op":"partition","id":7,"matrix":{"rows":1,"cols":1,"entries":[[0,0]]}}"#;
        let stamped = stamp_trace(raw, 0xabc, 0x123);
        let doc = Json::parse(&stamped).expect("stamped line parses");
        let t = doc.get("trace").expect("trace field present");
        assert_eq!(
            t.get("id").and_then(Json::as_str),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(
            t.get("parent").and_then(Json::as_str),
            Some("0000000000000123")
        );
        // Everything else survives the re-render.
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        // Restamping (the failover path) replaces, never duplicates.
        let restamped = stamp_trace(&stamped, 0xabc, 0x456);
        let doc = Json::parse(&restamped).expect("restamped line parses");
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        assert_eq!(fields.iter().filter(|(k, _)| k == "trace").count(), 1);
        assert_eq!(
            doc.get("trace")
                .and_then(|t| t.get("parent"))
                .and_then(Json::as_str),
            Some("0000000000000456")
        );
    }

    #[test]
    fn zero_replicas_is_a_config_error() {
        let topology = Topology::parse("127.0.0.1:1").unwrap();
        let config = RouterConfig {
            replicas: 0,
            ..RouterConfig::default()
        };
        assert!(Router::new(topology, config).is_err());
    }
}
