//! Distributed tracing: trace-context propagation, a bounded
//! ring-buffer collector, and a deterministic Chrome-trace-event
//! (Perfetto) JSON exporter.
//!
//! A [`TraceContext`] is a 128-bit trace id plus the 64-bit id of the
//! span that owns the current scope (and that span's parent). Contexts
//! cross the wire as an optional `trace` request field (see
//! PROTOCOL.md) and cross threads either explicitly or through the
//! thread-local installed by [`enter`]. Finished spans land in the
//! process-global [`collector()`], a bounded ring guarded by one
//! short-held mutex, and are exported out-of-band on the metrics
//! endpoint's `/trace` route — tracing never touches protocol bytes.
//!
//! The collector also supports *speculative* traces for the
//! `--trace-slow-ms` sampler: spans buffer in a side map until the
//! request finishes, then are committed to the ring (slow request) or
//! discarded (fast request).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Propagated trace identity: which trace we are in, which span owns
/// the current scope, and that span's parent (if any).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span of one request tree.
    pub trace_id: u128,
    /// The span that owns the current scope; children parent to it.
    pub span_id: u64,
    /// Parent of `span_id`, when known (root spans have none).
    pub parent_id: Option<u64>,
}

impl TraceContext {
    /// A fresh root context: new trace id, new span id, no parent.
    pub fn new_root() -> TraceContext {
        TraceContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
            parent_id: None,
        }
    }

    /// A child context under this one: same trace, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_span_id(),
            parent_id: Some(self.span_id),
        }
    }
}

/// A context as carried by the wire `trace` request field: the trace
/// id plus the sender's span id (`trace.parent`), which receiver-side
/// spans parent to. `parent` is `None` when the sender stamped a trace
/// id without opening a span of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireTrace {
    pub trace_id: u128,
    pub parent: Option<u64>,
}

/// One finished span, as stored in the collector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace_id: u128,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: &'static str,
    /// Wall-clock start, microseconds since the UNIX epoch, so spans
    /// from different processes line up on one Perfetto timeline.
    pub start_us: u64,
    pub dur_us: u64,
}

// --- id generation --------------------------------------------------

/// SplitMix64 finaliser: a cheap, well-distributed bijection on u64.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        mix64(nanos ^ (std::process::id() as u64).rotate_left(32))
    })
}

/// A fresh nonzero span id, unique within this process and unlikely to
/// collide across processes (seeded from wall clock and pid). Trace
/// output is out-of-band, so ids need uniqueness, not determinism.
pub fn next_span_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = mix64(process_seed() ^ n);
        if id != 0 {
            return id;
        }
    }
}

/// A fresh nonzero 128-bit trace id.
pub fn next_trace_id() -> u128 {
    loop {
        let id = ((next_span_id() as u128) << 64) | next_span_id() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// Microseconds since the UNIX epoch, now.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

// --- wire encoding --------------------------------------------------

/// 32 lowercase hex chars — the `trace.id` wire spelling.
pub fn trace_id_hex(id: u128) -> String {
    format!("{id:032x}")
}

/// 16 lowercase hex chars — the `trace.parent` wire spelling.
pub fn span_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a `trace.id` value: exactly 32 lowercase hex chars.
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32
        || !s
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Parses a `trace.parent` value: exactly 16 lowercase hex chars.
pub fn parse_span_id(s: &str) -> Option<u64> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

// --- thread-local propagation ---------------------------------------

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context installed on this thread, if any. Phase timers consult
/// this to decide whether to record child spans.
pub fn current() -> Option<TraceContext> {
    CURRENT.get()
}

/// Installs `ctx` on this thread until the guard drops (the previous
/// context, if any, is restored).
pub fn enter(ctx: TraceContext) -> ScopeGuard {
    ScopeGuard {
        prev: CURRENT.replace(Some(ctx)),
    }
}

/// Restores the previous thread-local context on drop.
pub struct ScopeGuard {
    prev: Option<TraceContext>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.set(self.prev.take());
    }
}

// --- the collector --------------------------------------------------

/// Default ring capacity: enough for a few hundred request trees.
pub const DEFAULT_CAPACITY: usize = 4096;

/// At most this many speculative traces buffer at once; the oldest is
/// dropped when a new one would exceed it.
const PENDING_TRACES: usize = 256;

/// At most this many spans per speculative trace. The root `request`
/// span is recorded last, so a trace that reaches the cap loses its
/// root: the cap leaves room for a 2-way MG+IR request, whose Algorithm 2
/// records two phase spans per KL run (at most 64 runs) next to about 15
/// others.
const PENDING_SPANS: usize = 256;

struct Inner {
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    pending: HashMap<u128, Vec<SpanRecord>>,
    pending_order: VecDeque<u128>,
    dropped: u64,
    process: String,
}

/// A bounded buffer of finished spans. The mutex is held only for a
/// push or a snapshot — there is no per-span allocation beyond the
/// record itself.
pub struct TraceCollector {
    inner: Mutex<Inner>,
}

impl TraceCollector {
    /// An empty collector holding at most `capacity` committed spans.
    pub fn new(capacity: usize) -> TraceCollector {
        TraceCollector {
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                pending: HashMap::new(),
                pending_order: VecDeque::new(),
                dropped: 0,
                process: String::from("mgpart"),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Names this process in exported traces (`router`, `shard:s1`, ...).
    pub fn set_process(&self, name: &str) {
        name.clone_into(&mut self.lock().process);
    }

    /// Adds one finished span. Spans of a speculative trace buffer
    /// aside until [`commit`](Self::commit) or
    /// [`discard`](Self::discard); everything else goes straight to the
    /// ring, evicting the oldest span when full.
    pub fn record(&self, rec: SpanRecord) {
        let mut inner = self.lock();
        if let Some(buf) = inner.pending.get_mut(&rec.trace_id) {
            if buf.len() < PENDING_SPANS {
                buf.push(rec);
            } else {
                inner.dropped += 1;
            }
            return;
        }
        push_ring(&mut inner, rec);
    }

    /// Opens a speculative trace for the slow-request sampler: a fresh
    /// root context whose spans buffer aside until the verdict.
    pub fn begin_speculative(&self) -> TraceContext {
        let ctx = TraceContext::new_root();
        let mut inner = self.lock();
        while inner.pending.len() >= PENDING_TRACES {
            match inner.pending_order.pop_front() {
                Some(old) => {
                    if let Some(buf) = inner.pending.remove(&old) {
                        inner.dropped += buf.len() as u64;
                    }
                }
                None => break,
            }
        }
        inner.pending.insert(ctx.trace_id, Vec::new());
        inner.pending_order.push_back(ctx.trace_id);
        ctx
    }

    /// Moves a speculative trace's spans into the ring (the request was
    /// slow enough to keep).
    pub fn commit(&self, trace_id: u128) {
        let mut inner = self.lock();
        if let Some(buf) = inner.pending.remove(&trace_id) {
            inner.pending_order.retain(|&t| t != trace_id);
            for rec in buf {
                push_ring(&mut inner, rec);
            }
        }
    }

    /// Drops a speculative trace (the request finished fast).
    pub fn discard(&self, trace_id: u128) {
        let mut inner = self.lock();
        if inner.pending.remove(&trace_id).is_some() {
            inner.pending_order.retain(|&t| t != trace_id);
        }
    }

    /// The committed spans, oldest first, plus the process name.
    pub fn snapshot(&self) -> (String, Vec<SpanRecord>) {
        let inner = self.lock();
        (inner.process.clone(), inner.ring.iter().cloned().collect())
    }

    /// Number of committed spans currently held.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when no committed spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted or rejected so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Empties the ring and the speculative buffers (tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.ring.clear();
        inner.pending.clear();
        inner.pending_order.clear();
        inner.dropped = 0;
    }

    /// The collector's contents as Chrome-trace-event JSON.
    pub fn export_json(&self) -> String {
        let (process, spans) = self.snapshot();
        render_trace_json(&process, &spans)
    }
}

fn push_ring(inner: &mut Inner, rec: SpanRecord) {
    if inner.ring.len() >= inner.capacity {
        inner.ring.pop_front();
        inner.dropped += 1;
    }
    inner.ring.push_back(rec);
}

/// The process-global collector every layer records into.
pub fn collector() -> &'static TraceCollector {
    static GLOBAL: OnceLock<TraceCollector> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceCollector::new(DEFAULT_CAPACITY))
}

// --- recording helpers ----------------------------------------------

/// Records a finished span with a pre-allocated id into the global
/// collector. `start_us` comes from [`now_us`] at span start.
pub fn record_span(
    trace_id: u128,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    start_us: u64,
    dur: Duration,
) {
    collector().record(SpanRecord {
        trace_id,
        span_id,
        parent_id,
        name,
        start_us,
        dur_us: dur.as_micros() as u64,
    });
}

/// Records a finished child span under `parent`, allocating its id;
/// returns the new span's id.
pub fn record_child(
    parent: &TraceContext,
    name: &'static str,
    start_us: u64,
    dur: Duration,
) -> u64 {
    let id = next_span_id();
    record_span(
        parent.trace_id,
        id,
        Some(parent.span_id),
        name,
        start_us,
        dur,
    );
    id
}

// --- exporter -------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders spans as a deterministic Chrome-trace-event document: one
/// `process_name` metadata event, then complete (`ph:"X"`) events
/// sorted by `(trace_id, start_us, span_id)`. Timestamps are UNIX
/// microseconds; `args` carries the hex trace/span/parent ids. The
/// output loads in Perfetto (ui.perfetto.dev) and `chrome://tracing`,
/// and parses with the strict server-side JSON reader.
pub fn render_trace_json(process: &str, spans: &[SpanRecord]) -> String {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by_key(|s| (s.trace_id, s.start_us, s.span_id));
    let mut out = String::with_capacity(64 + 192 * order.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"",
    );
    escape_json(process, &mut out);
    out.push_str("\"}}");
    for s in order {
        out.push_str(",{\"name\":\"");
        escape_json(s.name, &mut out);
        out.push_str("\",\"cat\":\"mgpart\",\"ph\":\"X\",\"ts\":");
        out.push_str(&s.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&s.dur_us.to_string());
        out.push_str(",\"pid\":1,\"tid\":1,\"args\":{\"trace\":\"");
        out.push_str(&trace_id_hex(s.trace_id));
        out.push_str("\",\"span\":\"");
        out.push_str(&span_id_hex(s.span_id));
        out.push('"');
        if let Some(parent) = s.parent_id {
            out.push_str(",\"parent\":\"");
            out.push_str(&span_id_hex(parent));
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u128, span_id: u64, parent: Option<u64>, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id: parent,
            name: "execute",
            start_us: start,
            dur_us: 5,
        }
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_ne!(next_trace_id(), next_trace_id());
    }

    #[test]
    fn hex_roundtrip_is_strict() {
        let t = 0x0123_4567_89ab_cdef_0123_4567_89ab_cdefu128;
        assert_eq!(parse_trace_id(&trace_id_hex(t)), Some(t));
        let s = 0xdead_beef_0000_0001u64;
        assert_eq!(parse_span_id(&span_id_hex(s)), Some(s));
        assert_eq!(parse_trace_id("abc"), None); // wrong length
        assert_eq!(parse_span_id("ABCDEF0123456789"), None); // uppercase
        assert_eq!(parse_trace_id(&"g".repeat(32)), None); // not hex
    }

    #[test]
    fn child_context_links_to_parent() {
        let root = TraceContext::new_root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn thread_local_scope_nests_and_restores() {
        assert_eq!(current(), None);
        let a = TraceContext::new_root();
        let g1 = enter(a);
        assert_eq!(current(), Some(a));
        {
            let b = a.child();
            let _g2 = enter(b);
            assert_eq!(current(), Some(b));
        }
        assert_eq!(current(), Some(a));
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let c = TraceCollector::new(3);
        for i in 0..5u64 {
            c.record(rec(7, i + 1, None, 100 + i));
        }
        let (_, spans) = c.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].span_id, 3); // 1 and 2 evicted
        assert_eq!(c.dropped(), 2);
    }

    #[test]
    fn speculative_commit_keeps_and_discard_drops() {
        let c = TraceCollector::new(16);
        let kept = c.begin_speculative();
        let gone = c.begin_speculative();
        c.record(rec(kept.trace_id, 10, Some(kept.span_id), 1));
        c.record(rec(gone.trace_id, 11, Some(gone.span_id), 2));
        assert!(c.is_empty(), "speculative spans must not be visible yet");
        c.commit(kept.trace_id);
        c.discard(gone.trace_id);
        let (_, spans) = c.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, kept.trace_id);
    }

    /// A long Algorithm 2 run (two phase spans per KL run, 64 runs at
    /// most) fits a speculative trace whole, root span included.
    #[test]
    fn speculative_trace_keeps_a_full_refinement_tree() {
        let c = TraceCollector::new(1024);
        let ctx = c.begin_speculative();
        for i in 0..2 * 64 + 15 {
            c.record(rec(ctx.trace_id, 100 + i, Some(ctx.span_id), i));
        }
        c.record(rec(ctx.trace_id, ctx.span_id, None, 0));
        c.commit(ctx.trace_id);
        let (_, spans) = c.snapshot();
        assert_eq!(spans.len(), 2 * 64 + 16);
        assert!(spans.iter().any(|s| s.span_id == ctx.span_id));
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn export_is_deterministic_and_sorted() {
        let c = TraceCollector::new(16);
        c.set_process("router");
        c.record(rec(9, 2, Some(1), 200));
        c.record(rec(9, 1, None, 100));
        let a = c.export_json();
        assert_eq!(a, c.export_json());
        let first = a.find("\"ts\":100").unwrap();
        let second = a.find("\"ts\":200").unwrap();
        assert!(first < second, "events must sort by start time: {a}");
        assert!(a.contains("\"name\":\"router\""));
    }
}
