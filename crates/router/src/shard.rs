//! A router session's shard connections: at most one per shard, each
//! with a FIFO pending queue of forwarded-but-unanswered requests and a
//! reader thread that pairs response lines with it, reconnects and
//! replays the queue when the connection drops, and fails the queue over
//! to the next-ranked replicas when the shard stays down.

use crate::cache::{cached_true_of, RouterKey};
use crate::metrics::{router_metrics, router_request_seconds};
use crate::router::{next_candidate, stamp_trace, RSlot, RouterCore};
use mg_core::service::ErrorCode;
use mg_obs::trace;
use mg_server::session::{lock_ok, RequestTrace, Responses, Stamp};
use mg_server::{protocol, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One dispatch leg of a traced entry: the span covering
/// enqueue-on-a-connection through delivery. Failover opens a fresh leg
/// parented under its `failover_replay` span.
#[derive(Clone, Copy)]
pub(crate) struct EntryTrace {
    pub(crate) req: RequestTrace,
    /// Pre-allocated `dispatch` span id — stamped into the forwarded
    /// line so shard-side spans parent under this leg.
    pub(crate) dispatch_span: u64,
    dispatch_parent: u64,
    dispatch: Stamp,
}

impl EntryTrace {
    /// Opens a dispatch leg of `req`'s trace under the span `parent`.
    pub(crate) fn leg(req: RequestTrace, parent: u64) -> EntryTrace {
        EntryTrace {
            req,
            dispatch_span: trace::next_span_id(),
            dispatch_parent: parent,
            dispatch: Stamp::now(),
        }
    }
}

/// One forwarded-but-unanswered request.
pub(crate) struct PendingEntry {
    /// Session submission index (the response slot to fill).
    pub(crate) index: u64,
    /// The request line a replay resends: the original bytes, except
    /// that traced entries carry the router's propagated `trace` field.
    pub(crate) raw: String,
    /// Router-cache key for cacheable (partition) requests.
    pub(crate) key: Option<RouterKey>,
    /// The request id, kept so a failure response can echo it without
    /// re-parsing the raw line.
    pub(crate) id: Json,
    /// Lower-ranked replicas still untried, best first — where this
    /// request fails over if the current shard dies. Empty at
    /// `replicas == 1`.
    pub(crate) fallbacks: Vec<usize>,
    /// When the entry was (re)written to the current connection; the
    /// read-deadline clock.
    pub(crate) enqueued: Instant,
    /// When the session admitted the entry; the latency-histogram clock.
    pub(crate) started: Instant,
    /// Trace state, present when the request is explicitly traced or
    /// the slow-request sampler is on.
    pub(crate) trace: Option<EntryTrace>,
}

impl PendingEntry {
    /// Records the current `dispatch` leg of a traced entry — called
    /// exactly once per leg, where the leg ends (delivery, connection
    /// death, or reader failure).
    fn end_leg(&self) {
        if let Some(t) = &self.trace {
            trace::record_span(
                t.req.ctx.trace_id,
                t.dispatch_span,
                Some(t.dispatch_parent),
                "dispatch",
                t.dispatch.us,
                t.dispatch.at.elapsed(),
            );
        }
    }
}

/// State shared between a session and one shard-connection reader thread.
pub(crate) struct ConnShared {
    /// The live stream; the reader swaps it on reconnect, the session
    /// writes requests through it. Lock order: `stream` before `pending`.
    stream: Mutex<TcpStream>,
    pub(crate) pending: Mutex<VecDeque<PendingEntry>>,
    /// Signalled whenever `pending` shrinks (window space / drain).
    pub(crate) space: Condvar,
    /// Session is over; exit once `pending` is empty.
    stop: AtomicBool,
    /// The connection failed for good (reconnects exhausted); pending
    /// requests were failed over or failed with `shard_unavailable`.
    pub(crate) dead: AtomicBool,
}

impl ConnShared {
    /// Enqueues `entry` and writes its line, both under the stream lock,
    /// so the wire order always equals the pending order (what a replay
    /// resends). The dead-check happens under the pending lock, mirroring
    /// the reader's idle-EOF retirement, so no entry lands on a retired
    /// connection unseen: a dead connection hands the entry back.
    /// `enqueued` runs under the pending lock once the entry is in.
    pub(crate) fn send(
        &self,
        mut entry: PendingEntry,
        enqueued: impl FnOnce(),
    ) -> Result<(), Box<PendingEntry>> {
        let raw = entry.raw.clone();
        let stream = lock_ok(&self.stream);
        {
            let mut pending = lock_ok(&self.pending);
            if self.dead.load(Ordering::SeqCst) {
                return Err(Box::new(entry));
            }
            entry.enqueued = Instant::now();
            pending.push_back(entry);
            enqueued();
        }
        let mut w = &*stream;
        let write_ok =
            w.write_all(raw.as_bytes()).is_ok() && w.write_all(b"\n").is_ok() && w.flush().is_ok();
        if !write_ok {
            // Poke the reader: shut the read half down so it stops
            // waiting on a dead socket and runs reconnect-and-replay (the
            // entry is already pending, so the replay resends it — or
            // fails it over to the next replica).
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        Ok(())
    }
}

pub(crate) struct ShardConn {
    shared: Arc<ConnShared>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl ShardConn {
    /// Stops the reader (it notices within its read timeout) and joins
    /// it, returning the stream if the connection is still clean enough
    /// to pool (no pending, not dead).
    pub(crate) fn retire(mut self) -> Option<TcpStream> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let clean =
            !self.shared.dead.load(Ordering::SeqCst) && lock_ok(&self.shared.pending).is_empty();
        if !clean {
            return None;
        }
        let stream = lock_ok(&self.shared.stream);
        stream.try_clone().ok()
    }
}

/// The connection table of one session, shared with its reader threads
/// so a dying connection can fail its pending requests over to other
/// replicas (which may need fresh connections) from the reader itself.
pub(crate) struct SessionState {
    pub(crate) core: Arc<RouterCore>,
    pub(crate) slots: Arc<Responses<RSlot>>,
    conns: Mutex<Vec<Option<ShardConn>>>,
}

impl SessionState {
    pub(crate) fn new(core: Arc<RouterCore>) -> Arc<SessionState> {
        let shards = core.topology.len();
        Arc::new(SessionState {
            core,
            slots: Arc::new(Responses::default()),
            conns: Mutex::new((0..shards).map(|_| None).collect()),
        })
    }

    /// Takes every connection out of the table (to retire them).
    pub(crate) fn take_conns(&self) -> Vec<Option<ShardConn>> {
        lock_ok(&self.conns).iter_mut().map(Option::take).collect()
    }

    /// The session's connection to `shard`, creating or reviving it as
    /// needed (pool first, fresh dial second). Callable from the session
    /// thread and from failing-over reader threads alike.
    pub(crate) fn connection(self: &Arc<Self>, shard: usize) -> std::io::Result<Arc<ConnShared>> {
        loop {
            let stale = {
                let mut conns = lock_ok(&self.conns);
                match &conns[shard] {
                    Some(conn) if !conn.shared.dead.load(Ordering::SeqCst) => {
                        return Ok(conn.shared.clone());
                    }
                    // Revive: retire the dead reader outside the table
                    // lock (retire joins the reader, which may itself be
                    // waiting on the table while failing over).
                    Some(_) => conns[shard].take(),
                    None => None,
                }
            };
            if let Some(stale) = stale {
                stale.retire();
                continue;
            }
            let stream = self.core.take_connection(shard)?;
            let shared = Arc::new(ConnShared {
                stream: Mutex::new(stream),
                pending: Mutex::new(VecDeque::new()),
                space: Condvar::new(),
                stop: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            });
            let reader = std::thread::Builder::new()
                .name(format!("mg-router-shard-{shard}"))
                .spawn({
                    let session = self.clone();
                    let conn = shared.clone();
                    move || reader_thread(&session, shard, &conn)
                })?;
            let ours = ShardConn {
                shared: shared.clone(),
                reader: Some(reader),
            };
            let stale = {
                let mut conns = lock_ok(&self.conns);
                match &conns[shard] {
                    // Lost an install race against another thread whose
                    // connection is live: keep theirs, retire ours.
                    Some(existing) if !existing.shared.dead.load(Ordering::SeqCst) => {
                        let winner = existing.shared.clone();
                        drop(conns);
                        if let Some(stream) = ours.retire() {
                            self.core.return_connection(shard, stream);
                        }
                        return Ok(winner);
                    }
                    _ => conns[shard].replace(ours),
                }
            };
            if let Some(stale) = stale {
                stale.retire();
            }
            return Ok(shared);
        }
    }

    /// Marks `conn` dead and takes its pending queue. `dead` is set under
    /// the pending lock so a racing `send` either sees the flag before
    /// enqueueing or its entry is drained here — never an orphan.
    fn kill(conn: &ConnShared) -> Vec<PendingEntry> {
        let drained = {
            let mut pending = lock_ok(&conn.pending);
            conn.dead.store(true, Ordering::SeqCst);
            pending.drain(..).collect()
        };
        conn.space.notify_all();
        drained
    }

    /// Fails a lost connection: marks the shard dead (for placement and
    /// the prober to re-admit later), drains the pending queue, and
    /// replays each entry against its next-ranked live replica — typed
    /// `shard_unavailable` errors only for entries whose replica set is
    /// exhausted.
    fn fail_over(self: &Arc<Self>, shard: usize, conn: &ConnShared) {
        self.core.mark_alive(shard, false);
        for entry in Self::kill(conn) {
            self.dispatch_failover(entry, shard);
        }
    }

    /// Replays one orphaned entry on the best remaining replica, walking
    /// down the ranking as candidates fail.
    fn dispatch_failover(self: &Arc<Self>, mut entry: PendingEntry, mut last_shard: usize) {
        // The leg on the dead connection ends here, whatever happens to
        // the entry next.
        entry.end_leg();
        loop {
            let Some(next) = next_candidate(&self.core, &mut entry.fallbacks) else {
                self.fail_entry(entry, last_shard);
                return;
            };
            let from = last_shard;
            last_shard = next;
            // A traced replay rides under a `failover_replay` span: a
            // fresh dispatch leg parented to it, restamped into the
            // resent line so the surviving shard's spans link back
            // through the replay.
            let replay = entry.trace.map(|t| {
                let span = t.req.ctx.child();
                let leg = EntryTrace::leg(t.req, span.span_id);
                entry.raw = stamp_trace(&entry.raw, t.req.ctx.trace_id, leg.dispatch_span);
                entry.trace = Some(leg);
                (span, leg.dispatch)
            });
            // No window wait: the entry consumed its backpressure budget
            // when the session first admitted it, and failover must not
            // park one reader thread on another connection's window.
            let sent = match self.connection(next) {
                Ok(conn) => conn.send(entry, || {}),
                Err(_) => Err(Box::new(entry)),
            };
            match sent {
                Ok(()) => {
                    if let Some((span, start)) = replay {
                        trace::record_span(
                            span.trace_id,
                            span.span_id,
                            span.parent_id,
                            "failover_replay",
                            start.us,
                            start.at.elapsed(),
                        );
                    }
                    self.core.count_failover();
                    let shards = self.core.topology.shards();
                    let mut fields = vec![
                        ("from_shard", shards[from].id.as_str().into()),
                        ("to_shard", shards[next].id.as_str().into()),
                    ];
                    // A traced entry's event joins its trace by id.
                    if let Some((span, _)) = replay {
                        fields.push(("trace_id", trace::trace_id_hex(span.trace_id).into()));
                    }
                    mg_obs::log::warn("router_failover", &fields);
                    return;
                }
                Err(returned) => {
                    self.core.mark_alive(next, false);
                    entry = *returned;
                }
            }
        }
    }

    /// Resolves an entry that is lost for good with a typed error
    /// naming `shard`, closing its trace and latency clock. The current
    /// dispatch leg must already be recorded.
    fn resolve_lost(&self, entry: &PendingEntry, shard: usize, code: ErrorCode, message: &str) {
        let spec = &self.core.topology.shards()[shard];
        let line = protocol::error_response(&entry.id, code, message, Some(&spec.id));
        if let Some(t) = &entry.trace {
            t.req.close(self.core.config.trace_slow);
        }
        router_request_seconds(&spec.id).observe(entry.started.elapsed().as_secs_f64());
        // Decrement before resolving, as in `deliver_response`.
        self.slots.outstanding.fetch_sub(1, Ordering::SeqCst);
        router_metrics().pending.dec();
        self.slots
            .resolve(entry.index, RSlot::line(line, false, true));
    }

    /// Resolves an entry whose replica set is exhausted with the typed
    /// `shard_unavailable` error naming the last shard that owned it.
    fn fail_entry(&self, entry: PendingEntry, shard: usize) {
        let spec = &self.core.topology.shards()[shard];
        let message = format!(
            "shard {:?} at {} became unreachable; request lost after replay attempts",
            spec.id, spec.addr
        );
        self.resolve_lost(&entry, shard, ErrorCode::ShardUnavailable, &message);
    }

    /// Resolves every pending entry of a conn with a typed `internal`
    /// error — the degraded (but draining) outcome of a panicked reader.
    fn fail_internal(&self, shard: usize, conn: &ConnShared) {
        let message = format!(
            "router worker for shard {:?} failed; request lost",
            self.core.topology.shards()[shard].id
        );
        for entry in Self::kill(conn) {
            entry.end_leg();
            self.resolve_lost(&entry, shard, ErrorCode::Internal, &message);
        }
    }
}

/// Reader half of one shard connection, with a panic firewall: a
/// panicking reader resolves its pending requests with typed `internal`
/// errors instead of hanging the session (the writer would otherwise
/// wait forever on the orphaned slots).
fn reader_thread(session: &Arc<SessionState>, shard: usize, conn: &Arc<ConnShared>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reader_loop(session, shard, conn);
    }));
    if outcome.is_err() {
        session.fail_internal(shard, conn);
    }
}

/// Reader loop body: pairs response lines with the FIFO pending queue,
/// fills session slots, feeds the router cache, and owns
/// reconnect-and-replay plus the failover hand-off.
fn reader_loop(session: &Arc<SessionState>, shard: usize, conn: &Arc<ConnShared>) {
    let core = &session.core;
    'connection: loop {
        let handle = {
            let stream = lock_ok(&conn.stream);
            match stream.try_clone() {
                Ok(h) => h,
                Err(_) => {
                    session.fail_over(shard, conn);
                    return;
                }
            }
        };
        let _ = handle.set_read_timeout(Some(Duration::from_millis(50)));
        let mut reader = BufReader::new(handle);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let idle = lock_ok(&conn.pending).is_empty();
            if conn.stop.load(Ordering::SeqCst) && idle {
                return;
            }
            // Read-deadline: a connection that owes its oldest response
            // for longer than the deadline is hung — mark the replica
            // dead and fail over (a hung shard accepts connections, so
            // reconnect-and-replay would just hang again).
            if let Some(deadline) = core.config.read_deadline {
                let expired = lock_ok(&conn.pending)
                    .front()
                    .is_some_and(|entry| entry.enqueued.elapsed() > deadline);
                if expired {
                    session.fail_over(shard, conn);
                    return;
                }
            }
            let lost = match reader.read_until(b'\n', &mut buf) {
                Ok(0) => {
                    // Shard closed the connection. Idle close (e.g. a
                    // shard restarting) just retires this reader; a close
                    // with pending work triggers reconnect-and-replay.
                    // `dead` is set under the pending lock so a racing
                    // `send` either sees the flag before enqueueing or
                    // its entry is seen here — never an orphaned request.
                    let pending = lock_ok(&conn.pending);
                    if pending.is_empty() {
                        conn.dead.store(true, Ordering::SeqCst);
                        return;
                    }
                    true
                }
                Ok(_) => {
                    // A timeout mid-line keeps the prefix for the retry.
                    if buf.last() == Some(&b'\n') {
                        let line = String::from_utf8_lossy(&buf)
                            .trim_end_matches(['\r', '\n'])
                            .to_string();
                        buf.clear();
                        deliver_response(core, shard, conn, &session.slots, &line);
                    }
                    false
                }
                Err(e) => !matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ),
            };
            if lost {
                if !reconnect_and_replay(core, shard, conn) {
                    session.fail_over(shard, conn);
                    return;
                }
                continue 'connection;
            }
        }
    }
}

/// Matches one shard response line with the oldest pending request:
/// stores cacheable successes in the router cache (as their
/// `cached: true` variant), closes the entry's trace spans, observes
/// the per-shard latency histogram, and resolves the session slot.
fn deliver_response(
    core: &RouterCore,
    shard: usize,
    conn: &ConnShared,
    slots: &Responses<RSlot>,
    line: &str,
) {
    let entry = {
        let mut pending = lock_ok(&conn.pending);
        let entry = pending.pop_front();
        conn.space.notify_all();
        entry
    };
    let Some(entry) = entry else {
        // A response with no matching request: protocol violation; drop
        // the line rather than corrupting slot order.
        return;
    };
    // One parse per response line: metadata and the cache-stored rewrite
    // both come from this document.
    let doc = Json::parse(line).ok();
    let field = |name: &str| doc.as_ref().and_then(|d| d.get(name));
    let status = field("status").and_then(Json::as_str).unwrap_or("");
    let cached = field("cached").and_then(Json::as_bool).unwrap_or(false);
    let error = status == "error";
    if status == "ok" {
        if let (Some(key), Some(doc)) = (entry.key, &doc) {
            if let Some(stored) = cached_true_of(doc) {
                core.cache_put(key, stored);
            }
        }
    }
    entry.end_leg();
    if let Some(t) = &entry.trace {
        t.req.close(core.config.trace_slow);
    }
    router_request_seconds(&core.topology.shards()[shard].id)
        .observe(entry.started.elapsed().as_secs_f64());
    // Decrement *before* resolving the slot: the writer samples
    // `outstanding` when it renders a `stats` slot, which it can only
    // reach after every preceding slot resolved — so decrementing first
    // keeps the sampled value deterministic.
    slots.outstanding.fetch_sub(1, Ordering::SeqCst);
    router_metrics().pending.dec();
    slots.resolve(entry.index, RSlot::line(line.to_string(), cached, error));
}

/// Redials the shard and replays the pending queue in order. Returns
/// `false` when the shard stayed unreachable through the configured
/// attempts.
fn reconnect_and_replay(core: &RouterCore, shard: usize, conn: &ConnShared) -> bool {
    let Ok(fresh) = core.dial(shard) else {
        return false;
    };
    let mut stream = lock_ok(&conn.stream);
    let mut pending = lock_ok(&conn.pending);
    let now = Instant::now();
    for entry in pending.iter_mut() {
        if fresh.peer_addr().is_err() {
            return false;
        }
        let mut w = &fresh;
        if w.write_all(entry.raw.as_bytes()).is_err()
            || w.write_all(b"\n").is_err()
            || w.flush().is_err()
        {
            return false;
        }
        // The deadline clock restarts with the rewrite.
        entry.enqueued = now;
    }
    *stream = fresh;
    true
}
