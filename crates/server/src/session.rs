//! The session runtime shared by the partition server and the router.
//!
//! Both front ends speak one protocol over the same transports, so
//! everything between the socket and the protocol logic lives here, once:
//!
//! * [`run`] — the read pump: transport reads into a [`UnitScanner`], one
//!   protocol unit at a time into a [`Handler`], the unterminated EOF
//!   remainder as a final line, the inbound codec switch after a `hello`,
//!   and one typed error before closing on a framing violation;
//! * [`Responses`] — the ordered response writer: requests resolve out of
//!   order, a writer thread emits them in submission order through the
//!   session's [`Render`];
//! * [`TcpFrontEnd`] — the threaded TCP listener over any [`Runtime`],
//!   with session reaping;
//! * [`decode_unit`] — the unit → request decoding both handlers share;
//! * [`lock_ok`] / [`wait_ok`] — poison-tolerant locking, so a panicking
//!   thread degrades its own request instead of every session sharing
//!   the state.
//!
//! [`crate::Service`] and the router are the two [`Runtime`]s; their
//! session drivers are the two [`Handler`]s.

use crate::codec::{self, UnitKind, UnitScanner, WireCodec};
use crate::json::Json;
use crate::protocol::{self, Request, RequestError};
use mg_core::service::ErrorCode;
use mg_obs::trace::{self, TraceContext};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Transport read size: each TCP read hands the scanner at most this much.
const READ_CHUNK: usize = 16 * 1024;

/// How often an idle TCP session wakes up to notice shutdown.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// Locks a mutex, recovering the data from a poisoned lock: a panicking
/// thread must degrade to a typed `internal` error for its own request,
/// never abort every other session sharing the state.
pub fn lock_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_ok`].
pub fn wait_ok<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A span start: the UNIX-epoch microseconds spans are stamped with, and
/// the monotonic instant their durations are measured from.
#[derive(Clone, Copy)]
pub struct Stamp {
    /// [`trace::now_us`] at the start.
    pub us: u64,
    /// Monotonic twin of `us`.
    pub at: Instant,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp {
            us: trace::now_us(),
            at: Instant::now(),
        }
    }

    /// Records a child span of `parent` from this start until now.
    pub fn record_child(&self, parent: &TraceContext, name: &'static str) {
        trace::record_child(parent, name, self.us, self.at.elapsed());
    }
}

/// The root `request` span of one traced partition request. It comes
/// either from the client's stamped `trace` field, and then always
/// records, or from the slow-request sampler, and then survives only if
/// the request proves slow.
#[derive(Clone, Copy)]
pub struct RequestTrace {
    /// The root span: `span_id` is the `request` span, `parent_id` the
    /// client's span when the request arrived traced.
    pub ctx: TraceContext,
    /// Opened by the slow-request sampler rather than the client.
    speculative: bool,
    /// When the root span starts.
    pub start: Stamp,
}

impl RequestTrace {
    /// Opens the trace of a request that started at `start`: under the
    /// client's `wire` context when stamped, else a speculative trace when
    /// the sampler threshold `slow` is set, else none.
    pub fn open(
        wire: Option<mg_obs::WireTrace>,
        slow: Option<Duration>,
        start: Stamp,
    ) -> Option<RequestTrace> {
        let (ctx, speculative) = match wire {
            Some(w) => (
                TraceContext {
                    trace_id: w.trace_id,
                    span_id: trace::next_span_id(),
                    parent_id: w.parent,
                },
                false,
            ),
            None => {
                slow?;
                (trace::collector().begin_speculative(), true)
            }
        };
        Some(RequestTrace {
            ctx,
            speculative,
            start,
        })
    }

    /// Records the root span and settles a speculative trace: kept iff the
    /// request took at least `slow`.
    pub fn close(&self, slow: Option<Duration>) {
        let total = self.start.at.elapsed();
        trace::record_span(
            self.ctx.trace_id,
            self.ctx.span_id,
            self.ctx.parent_id,
            "request",
            self.start.us,
            total,
        );
        if self.speculative {
            if slow.is_some_and(|threshold| total >= threshold) {
                trace::collector().commit(self.ctx.trace_id);
            } else {
                self.abandon();
            }
        }
    }

    /// Drops a speculative trace without recording its root span (the
    /// request never ran).
    pub fn abandon(&self) {
        if self.speculative {
            trace::collector().discard(self.ctx.trace_id);
        }
    }
}

/// The reader half of one session, as [`run`] drives it.
pub trait Handler {
    /// The writer half, which renders this session's resolved responses.
    type Render: Render;

    /// A renderer over this session's response slots, for its writer
    /// thread.
    fn writer(&self) -> Self::Render;

    /// Handles one scanned protocol unit: a request line, or a binary
    /// frame payload. Returns `false` when the session should stop
    /// reading (an in-band `shutdown`).
    fn handle_unit(&mut self, kind: UnitKind, bytes: &[u8]) -> bool;

    /// After a unit that contained a `hello`: the codec the scanner must
    /// switch to before the next unit. The outbound switch rides on the
    /// response slot and is applied by the writer.
    fn take_codec_switch(&mut self) -> Option<WireCodec>;

    /// Answers a fatal framing violation with a typed error. The session
    /// ends after it, since the stream cannot be resynchronised.
    fn protocol_error(&mut self, message: &str);

    /// The input has ended: settle what is in flight, then let the writer
    /// finish once every response is out.
    fn finish(&mut self);
}

/// One decoded request unit: the request, with its JSON text when it
/// arrived as text (binary partition frames have none), or the typed
/// error that answers it.
pub type Decoded<'a> = Result<(Request, Option<&'a str>), RequestError>;

/// Decodes one scanned unit and calls `each` once per response slot it
/// needs, in stream order: one per non-blank line, one per frame, one per
/// sub-frame of a batch. Stops early, returning `false`, as soon as
/// `each` does.
pub fn decode_unit(
    kind: UnitKind,
    bytes: &[u8],
    each: &mut dyn FnMut(Decoded<'_>) -> bool,
) -> bool {
    match kind {
        UnitKind::Line => decode_text(bytes, each),
        UnitKind::Frame => decode_frame(bytes, each),
    }
}

fn bad_request(message: String) -> RequestError {
    RequestError {
        id: Json::Null,
        code: ErrorCode::BadRequest,
        message,
    }
}

fn decode_text(bytes: &[u8], each: &mut dyn FnMut(Decoded<'_>) -> bool) -> bool {
    // Non-UTF-8 request bytes get a typed error, never a lossily mangled
    // parse.
    let Ok(text) = std::str::from_utf8(bytes) else {
        return each(Err(bad_request("request bytes are not valid UTF-8".into())));
    };
    let line = text.trim();
    if line.is_empty() {
        return true;
    }
    each(protocol::parse_request_line(line).map(|request| (request, Some(line))))
}

fn decode_frame(payload: &[u8], each: &mut dyn FnMut(Decoded<'_>) -> bool) -> bool {
    match payload.split_first() {
        None => each(Err(bad_request("empty frame".into()))),
        Some((&codec::KIND_JSON, body)) => decode_text(body, each),
        Some((&codec::KIND_PARTITION, body)) => {
            each(codec::decode_partition_payload(body).map(|request| (request, None)))
        }
        Some((&codec::KIND_BATCH, body)) => match codec::batch_subframes(body) {
            Ok(subs) => subs.into_iter().all(|sub| decode_frame(&body[sub], each)),
            Err(message) => each(Err(bad_request(message))),
        },
        Some((&kind, _)) => each(Err(bad_request(format!("unknown frame kind 0x{kind:02x}")))),
    }
}

/// Runs one session to completion: reads protocol units from `input` on
/// the calling thread into `handler`, while a scoped writer thread
/// streams the responses to `output` in submission order. The stream
/// starts as JSON lines; a `hello` can switch it to binary frames in both
/// directions. A read timeout ends the session only once `stopping`
/// says so. Returns the number of responses written.
pub fn run<H: Handler, R: BufRead, W: Write + Send>(
    handler: &mut H,
    input: R,
    mut output: W,
    stopping: &dyn Fn() -> bool,
) -> u64 {
    let mut render = handler.writer();
    std::thread::scope(|scope| {
        let writer = std::thread::Builder::new()
            .name("mg-session-writer".into())
            .spawn_scoped(scope, || write_ordered(&mut render, &mut output));
        if writer.is_ok() {
            pump(handler, input, stopping);
        }
        handler.finish();
        // A panicked writer fails this session only: it reports zero
        // written responses.
        writer.map_or(0, |writer| writer.join().unwrap_or(0))
    })
}

/// The read loop: a request split across reads (or read timeouts) stays
/// buffered in the scanner until its terminator, or its declared frame
/// length, arrives.
fn pump<H: Handler>(handler: &mut H, mut input: impl BufRead, stopping: &dyn Fn() -> bool) {
    let mut scanner = UnitScanner::new();
    loop {
        let consumed = match input.fill_buf() {
            Ok([]) => {
                // End of input. A final request without its `\n`
                // terminator is still a request.
                if let Some(tail) = scanner.take_eof_remainder() {
                    handler.handle_unit(UnitKind::Line, &tail);
                }
                return;
            }
            Ok(chunk) => {
                scanner.push(chunk);
                chunk.len()
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stopping() {
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        input.consume(consumed);
        loop {
            match scanner.next_unit() {
                Ok(Some((kind, range))) => {
                    let go = handler.handle_unit(kind, scanner.bytes(&range));
                    if let Some(codec) = handler.take_codec_switch() {
                        scanner.set_codec(codec);
                    }
                    if !go {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    handler.protocol_error(&e.message);
                    return;
                }
            }
        }
    }
}

/// The response slots of one session: a sliding window in submission
/// order. The reader opens a slot per request; whoever answers the
/// request resolves it, in any order; the writer pops resolved slots
/// from the front. `base` is the index of the front slot, so memory stays
/// bounded by the in-flight window rather than the session length.
pub struct Responses<T> {
    window: Mutex<Window<T>>,
    ready: Condvar,
    /// This session's submitted-but-unanswered jobs. A `stats` slot
    /// samples it when the writer renders it: every preceding response
    /// has resolved by then, so the value is deterministic whenever no
    /// job trails the stats request in flight (see PROTOCOL.md). Answer
    /// paths decrement it *before* resolving their slot for that reason.
    pub outstanding: AtomicU64,
}

struct Window<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    input_done: bool,
}

impl<T> Default for Responses<T> {
    fn default() -> Self {
        Responses {
            window: Mutex::new(Window {
                base: 0,
                slots: VecDeque::new(),
                input_done: false,
            }),
            ready: Condvar::new(),
            outstanding: AtomicU64::new(0),
        }
    }
}

impl<T> Responses<T> {
    /// Opens the next slot in submission order and returns its index.
    pub fn open(&self) -> u64 {
        let mut window = lock_ok(&self.window);
        window.slots.push_back(None);
        window.base + window.slots.len() as u64 - 1
    }

    /// Resolves slot `index`.
    pub fn resolve(&self, index: u64, slot: T) {
        let mut window = lock_ok(&self.window);
        let offset = (index - window.base) as usize;
        window.slots[offset] = Some(slot);
        self.ready.notify_all();
    }

    /// Marks the input finished: the writer ends once every open slot is
    /// written.
    pub fn finish_input(&self) {
        lock_ok(&self.window).input_done = true;
        self.ready.notify_all();
    }

    /// Blocks until every open slot except `skip` is resolved.
    pub fn drain(&self, skip: Option<u64>) {
        let mut window = lock_ok(&self.window);
        loop {
            let base = window.base;
            let unresolved = window
                .slots
                .iter()
                .enumerate()
                .any(|(offset, slot)| slot.is_none() && Some(base + offset as u64) != skip);
            if !unresolved {
                return;
            }
            window = wait_ok(&self.ready, window);
        }
    }

    /// The writer's side: blocks until the front slot resolves and pops
    /// it; `None` once the input is done and every slot was popped.
    fn next(&self) -> Option<T> {
        let mut window = lock_ok(&self.window);
        loop {
            match window.slots.front() {
                Some(Some(_)) => break,
                None if window.input_done => return None,
                _ => window = wait_ok(&self.ready, window),
            }
        }
        window.base += 1;
        window.slots.pop_front().flatten()
    }
}

/// The writer half of a session: turns resolved slots into response
/// lines, strictly in submission order, on the writer thread. Deferred
/// slots (`stats`) render here, when every earlier response is out.
pub trait Render: Send {
    /// What a resolved response slot holds.
    type Slot: Send;

    /// The session's response slots.
    fn slots(&self) -> &Responses<Self::Slot>;

    /// The response line of `slot`, and the codec to switch to after
    /// writing it (a `hello` ack travels in the old codec).
    fn render(&mut self, slot: Self::Slot) -> (String, Option<WireCodec>);

    /// Called after each response unit reaches the output.
    fn written(&mut self, _wire: WireCodec, _bytes: u64) {}
}

/// The writer loop: emits every slot in submission order, flushing each
/// so clients see results as they land. Returns the responses written.
fn write_ordered<R: Render, W: Write>(render: &mut R, output: &mut W) -> u64 {
    let mut written = 0u64;
    let mut wire = WireCodec::JsonLines;
    while let Some(slot) = render.slots().next() {
        let (line, switch) = render.render(slot);
        // A broken pipe means the client is gone; keep draining slots so
        // the session still terminates cleanly.
        if codec::write_response_unit(output, wire, &line).is_ok() {
            written += 1;
            render.written(wire, line.len() as u64 + 1);
        }
        if let Some(next) = switch {
            wire = next;
        }
    }
    written
}

/// What a [`TcpFrontEnd`] serves sessions from: the partition service or
/// the router.
pub trait Runtime: Send + Sync + 'static {
    /// Prefix of the front end's thread names.
    const NAME: &'static str;

    /// Opens the handler of one new session.
    fn open(&self) -> impl Handler + '_;

    /// `true` once shutdown began: the accept loop stops, idle sessions
    /// close.
    fn is_shutting_down(&self) -> bool;

    /// Begins shutdown without the in-band op.
    fn initiate_shutdown(&self);

    /// Runs once the accept loop and every session it spawned have ended.
    fn drain(&self) {}
}

/// A running TCP front end: a threaded `std::net` listener with one
/// session thread per connection over a shared [`Runtime`]. Each
/// connection starts in JSON-lines mode and may negotiate binary frames
/// via `hello`. Backpressure is the socket's: a blocked session reader
/// stops draining its connection.
pub struct TcpFrontEnd<S: Runtime> {
    /// The bound address (useful with port 0).
    pub local_addr: SocketAddr,
    accept_thread: std::thread::JoinHandle<()>,
    runtime: Arc<S>,
    live_sessions: Arc<AtomicUsize>,
}

impl<S: Runtime> TcpFrontEnd<S> {
    /// Binds `addr` (e.g. `127.0.0.1:7077`, port 0 for ephemeral) and
    /// starts accepting connections.
    pub fn bind(runtime: Arc<S>, addr: &str) -> std::io::Result<TcpFrontEnd<S>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let live_sessions = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", S::NAME))
            .spawn({
                let runtime = runtime.clone();
                let live = live_sessions.clone();
                move || accept_loop(&runtime, &listener, &live)
            })?;
        Ok(TcpFrontEnd {
            local_addr,
            accept_thread,
            runtime,
            live_sessions,
        })
    }

    /// Session threads the accept loop currently holds: the sessions
    /// still running plus finished ones not yet reaped by the next sweep.
    /// Bounded by the number of *concurrently open* connections, however
    /// many have come and gone.
    pub fn live_sessions(&self) -> usize {
        self.live_sessions.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop, and every session it spawned, to end,
    /// which happens once shutdown begins; then drains the runtime.
    pub fn join(self) {
        self.accept_thread.join().expect("accept loop panicked");
        self.runtime.drain();
    }

    /// Initiates shutdown, then drains like [`TcpFrontEnd::join`].
    pub fn shutdown_and_join(self) {
        self.runtime.initiate_shutdown();
        self.join();
    }
}

fn accept_loop<S: Runtime>(runtime: &Arc<S>, listener: &TcpListener, live: &AtomicUsize) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Reap finished sessions on every pass, idle ticks included, so a
        // long-lived front end holds threads only for open connections.
        sessions.retain(|session| !session.is_finished());
        live.store(sessions.len(), Ordering::SeqCst);
        if runtime.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let session_runtime = runtime.clone();
                match std::thread::Builder::new()
                    .name(format!("{}-session", S::NAME))
                    .spawn(move || tcp_session(&*session_runtime, stream))
                {
                    Ok(handle) => sessions.push(handle),
                    Err(_) => break,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Drain: every open session notices the shutdown within its read
    // timeout, stops reading, and writes all its in-flight responses.
    for session in sessions {
        let _ = session.join();
    }
    live.store(0, Ordering::SeqCst);
}

/// One TCP connection: the read pump on this thread, the writer on a
/// scoped one over a cloned handle of the same socket.
fn tcp_session<S: Runtime>(runtime: &S, stream: TcpStream) {
    // The read timeout is what lets an idle connection notice shutdown.
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut handler = runtime.open();
    let input = BufReader::with_capacity(READ_CHUNK, stream);
    run(&mut handler, input, write_half, &|| {
        runtime.is_shutting_down()
    });
}
