//! The serving engine: a bounded submission queue feeding a persistent
//! worker pool, per-session ordered response streams, and a shared LRU
//! response cache.
//!
//! ## Execution model
//!
//! Sessions (one per stdio pipe or TCP connection) decode request lines
//! and submit jobs to the shared engine. A fixed set of long-lived
//! worker threads pops jobs off the queue one at a time, executes each,
//! and resolves the job itself: it caches the result, takes the
//! coalesced followers, and fills the owning sessions' response slots.
//! Jobs finish in any order; each session's writer emits responses in
//! its own submission order. A panicking job is answered with a typed
//! `internal` error and the worker keeps serving.
//!
//! ## Determinism
//!
//! Every job's RNG stream is seeded with [`mg_collection::job_seed`] over
//! the (backend, matrix fingerprint, method, ε) key folded with the
//! request seed — never from scheduling state — so a response's payload
//! is a pure function of the request. The `cached` flag is decided at *submission
//! time* in stream order (completed key → cache hit; in-flight key →
//! follower of the running job; fresh key → new job), which makes a
//! single session's response bytes identical at any `--threads` count,
//! provided the session's distinct-job working set fits the cache
//! capacity (see `PROTOCOL.md` for the exact contract).
//!
//! ## Backpressure and shutdown
//!
//! The submission queue is bounded: submitters block when it is full,
//! which in turn blocks the session's reader — TCP clients experience
//! socket backpressure instead of unbounded server memory. Shutdown (the
//! `shutdown` op or [`Service::initiate_shutdown`]) stops new
//! submissions, drains every queued and in-flight job, flushes every
//! pending response, then lets the workers exit.

use crate::cache::LruCache;
use crate::codec::{UnitKind, WireCodec};
use crate::json::Json;
use crate::metrics::{bytes_in, bytes_out, op_counter, request_seconds, server_metrics};
use crate::protocol;
use crate::session::{
    self, lock_ok, wait_ok, Handler, Render, RequestTrace, Responses, Runtime, Stamp,
};
use mg_collection::{generate, job_seed, worker_count, CollectionSpec};
use mg_core::service::{matrix_fingerprint, ErrorCode, MatrixPayload, PartitionOutcome, RequestOp};
use mg_core::{parse_backend, Method, PartitionBackend, DEFAULT_BACKEND};
use mg_obs::trace::{self, TraceContext};
use mg_sparse::{load_imbalance, Coo};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Long-lived worker threads, each running one job at a time;
    /// 0 = one per available core.
    pub threads: usize,
    /// Bounded submission-queue capacity; full ⇒ submitters block
    /// (backpressure all the way to the client socket).
    pub queue_capacity: usize,
    /// LRU response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Master seed folded into every job-key hash when a request carries
    /// no seed of its own.
    pub master_seed: u64,
    /// Canonical name of the backend used for requests without a
    /// `backend` field (must be registered in [`mg_core::backend`]).
    pub default_backend: &'static str,
    /// The deterministic collection served for `{"collection": name}`
    /// payloads (generated lazily on first use).
    pub collection: CollectionSpec,
    /// Diagnostic shard tag (`mgpart serve --shard-id`): when set, stats
    /// and error responses carry a `"shard"` field so clients behind a
    /// router can attribute them. `None` (the default) leaves every
    /// response byte-identical to an untagged server.
    pub shard_id: Option<String>,
    /// Slow-request trace sampler (`--trace-slow-ms N`): partition
    /// requests without a client-stamped trace get a speculative trace
    /// that is kept only when end-to-end latency reaches the threshold.
    /// `None` disables sampling; explicit `trace` fields always record.
    pub trace_slow: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            queue_capacity: 256,
            cache_capacity: 128,
            master_seed: 2014,
            default_backend: DEFAULT_BACKEND,
            collection: CollectionSpec::default(),
            shard_id: None,
            trace_slow: None,
        }
    }
}

/// (matrix fingerprint, backend, method, ε bits, request seed base,
/// include_partition) — the identity of a job for caching and in-flight
/// coalescing.
///
/// The backend is the *effective* canonical name (request field or server
/// default), so the same matrix partitioned on two engines occupies two
/// cache entries, and the key stays fingerprint-compatible: requests
/// agree on a key iff they agree on every result-determining input.
///
/// `include_partition` is part of the key so that plain requests and
/// full-assignment requests never coalesce: cache entries for plain keys
/// are stored *stripped* of the O(nnz) partition vector (it would pin
/// large matrices in memory for clients that never asked for it), and
/// keeping the two shapes apart keeps the `cached` flag a pure function
/// of the submission stream. The RNG seed ignores the flag
/// ([`seed_of`]), so both shapes report identical volumes and seeds.
type CacheKey = (u64, &'static str, Method, u64, u64, bool);

/// Completion callback: `(outcome, cached)`; the outcome is `None` when
/// the job panicked.
type Deliver = Box<dyn FnOnce(Option<Arc<PartitionOutcome>>, bool) + Send>;

/// Trace identity of a queued job's primary: the request's root span
/// (`queue_wait` and `execute` record under it) plus when it queued.
#[derive(Clone, Copy)]
struct JobTrace {
    ctx: TraceContext,
    queued: Stamp,
}

struct EngineJob {
    key: CacheKey,
    /// Resolved once at submission; workers never re-parse the name.
    backend: &'static dyn PartitionBackend,
    matrix: Arc<Coo>,
    deliver: Deliver,
    /// Present when the primary request is traced: workers record
    /// `queue_wait`/`execute` spans and install the context so phase
    /// timers nest under `execute`.
    trace: Option<JobTrace>,
}

/// Name → matrix map of the lazily generated collection.
type CollectionMap = HashMap<String, Arc<Coo>>;

struct EngineInner {
    queue: VecDeque<EngineJob>,
    /// Keys currently queued or executing, with follower callbacks to run
    /// (as cache hits) when the primary completes.
    inflight: HashMap<CacheKey, Vec<Deliver>>,
    cache: LruCache<CacheKey, Arc<PartitionOutcome>>,
    shutdown: bool,
}

struct Engine {
    inner: Mutex<EngineInner>,
    /// Signals idle workers that work (or shutdown) is available.
    work: Condvar,
    /// Signals blocked submitters that queue space freed up.
    space: Condvar,
    /// Lazily generated collection, name → matrix.
    collection: Mutex<Option<Arc<CollectionMap>>>,
    /// Open session drivers on this service. Sampled at decode time by
    /// the `stats` op (deterministic for a given request prefix: a
    /// session always sees at least itself).
    sessions: AtomicU64,
    config: ServiceConfig,
}

enum SubmitOutcome {
    CacheHit,
    Follower,
    Queued,
    Rejected,
}

impl Engine {
    fn lock(&self) -> std::sync::MutexGuard<'_, EngineInner> {
        lock_ok(&self.inner)
    }

    fn submit(
        &self,
        key: CacheKey,
        backend: &'static dyn PartitionBackend,
        matrix: Arc<Coo>,
        deliver: Deliver,
        trace: Option<JobTrace>,
    ) -> SubmitOutcome {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return SubmitOutcome::Rejected;
            }
            if let Some(hit) = inner.cache.get(&key) {
                let outcome = hit.clone();
                drop(inner);
                deliver(Some(outcome), true);
                return SubmitOutcome::CacheHit;
            }
            if let Some(followers) = inner.inflight.get_mut(&key) {
                followers.push(deliver);
                return SubmitOutcome::Follower;
            }
            if inner.queue.len() >= self.config.queue_capacity.max(1) {
                inner = wait_ok(&self.space, inner);
                continue;
            }
            inner.inflight.insert(key, Vec::new());
            inner.queue.push_back(EngineJob {
                key,
                backend,
                matrix,
                deliver,
                trace,
            });
            server_metrics().queue_depth.set(inner.queue.len() as u64);
            self.work.notify_one();
            return SubmitOutcome::Queued;
        }
    }

    /// Blocks until a job is queued and pops it; `None` once shutdown is
    /// set *and* the queue is empty, so every accepted job still runs.
    fn next_job(&self) -> Option<EngineJob> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                server_metrics().queue_depth.set(inner.queue.len() as u64);
                drop(inner);
                self.space.notify_all();
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = wait_ok(&self.work, inner);
        }
    }

    fn initiate_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    fn is_shutting_down(&self) -> bool {
        self.lock().shutdown
    }

    fn collection_matrix(&self, name: &str) -> Option<Arc<Coo>> {
        let mut slot = lock_ok(&self.collection);
        if slot.is_none() {
            let map: HashMap<String, Arc<Coo>> = generate(&self.config.collection)
                .into_iter()
                .map(|entry| (entry.name, Arc::new(entry.matrix)))
                .collect();
            *slot = Some(Arc::new(map));
        }
        slot.as_ref().expect("just filled").get(name).cloned()
    }

    fn resolve_matrix(&self, payload: MatrixPayload) -> Result<Arc<Coo>, (ErrorCode, String)> {
        // The decode path is shared with the router's placement-key
        // extraction (mg_core::service), so both reject a malformed
        // payload with byte-identical (code, message) pairs.
        match payload {
            MatrixPayload::Collection(name) => self.collection_matrix(&name).ok_or_else(|| {
                (
                    ErrorCode::UnknownCollection,
                    format!("no collection matrix named {name:?}"),
                )
            }),
            content => Ok(Arc::new(
                content
                    .into_matrix()?
                    .expect("content payloads carry their matrix"),
            )),
        }
    }
}

/// Executes one job. Pure: the result depends only on the arguments.
fn execute(
    matrix: &Coo,
    backend: &'static dyn PartitionBackend,
    key: &CacheKey,
) -> PartitionOutcome {
    let (fingerprint, _, method, eps_bits, _, _) = *key;
    let epsilon = f64::from_bits(eps_bits);
    let seed = seed_of(key);
    let result = backend.bipartition(matrix, method, epsilon, seed);
    let mut part_nnz = [0u64; 2];
    for (p, &size) in result.partition.part_sizes().iter().take(2).enumerate() {
        part_nnz[p] = size;
    }
    let imbalance = if matrix.nnz() == 0 {
        0.0
    } else {
        load_imbalance(&result.partition)
    };
    PartitionOutcome {
        rows: matrix.rows(),
        cols: matrix.cols(),
        nnz: matrix.nnz(),
        fingerprint,
        backend: backend.name(),
        method: method.name(),
        epsilon,
        seed,
        volume: result.volume,
        imbalance,
        ir_iterations: result.ir_iterations,
        part_nnz,
        partition: result.partition.parts().to_vec(),
    }
}

/// One pool worker: runs queued jobs until shutdown drains the queue.
fn worker_loop(engine: &Engine) {
    while let Some(job) = engine.next_job() {
        server_metrics().inflight.inc();
        run_job(engine, job);
        server_metrics().inflight.dec();
    }
}

/// Executes one job and resolves it: caches the result, then answers
/// the primary and every follower coalesced onto its key. A panic in
/// the backend is caught here and answered as a typed `internal` error,
/// so it costs only the requests waiting on this key.
fn run_job(engine: &Engine, job: EngineJob) {
    let EngineJob {
        key,
        backend,
        matrix,
        deliver,
        trace: job_trace,
    } = job;
    let (fingerprint, _, method, _, _, wants_partition) = key;
    // Traced jobs: queue_wait ran from submission to now, and execute
    // gets its own span installed thread-locally so the partitioner's
    // phase timers record as its children.
    let exec_span = job_trace.map(|jt| {
        jt.queued.record_child(&jt.ctx, "queue_wait");
        (jt.ctx.child(), Stamp::now())
    });
    let result = {
        let _scope = exec_span.map(|(ctx, _)| trace::enter(ctx));
        catch_unwind(AssertUnwindSafe(|| execute(&matrix, backend, &key)))
    };
    if let Some((ctx, start)) = exec_span {
        trace::record_span(
            ctx.trace_id,
            ctx.span_id,
            ctx.parent_id,
            "execute",
            start.us,
            start.at.elapsed(),
        );
    }
    let outcome = result.map(Arc::new);
    // Keys that never asked for the assignment cache a *stripped* copy:
    // the partition vector is O(nnz) and would otherwise pin every large
    // matrix in memory. A panicked job caches nothing.
    let cached_copy = outcome.as_ref().ok().map(|outcome| {
        if wants_partition || outcome.partition.is_empty() {
            outcome.clone()
        } else {
            let mut stripped = (**outcome).clone();
            stripped.partition = Vec::new();
            Arc::new(stripped)
        }
    });
    let followers = {
        let mut inner = engine.lock();
        if let Some(copy) = cached_copy {
            inner.cache.insert(key, copy);
        }
        inner.inflight.remove(&key).unwrap_or_default()
    };
    let outcome = match outcome {
        Ok(outcome) => Some(outcome),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            let mut fields = vec![
                ("backend", backend.name().into()),
                ("method", method.name().into()),
                ("fingerprint", format!("{fingerprint:016x}").into()),
                ("followers", followers.len().into()),
                ("message", message.into()),
            ];
            // A traced job's event joins its trace by id.
            if let Some(jt) = job_trace {
                fields.push(("trace_id", trace::trace_id_hex(jt.ctx.trace_id).into()));
            }
            mg_obs::log::error("job_panicked", &fields);
            None
        }
    };
    deliver(outcome.clone(), false);
    for follower in followers {
        follower(outcome.clone(), true);
    }
}

/// The effective RNG seed of a job: [`job_seed`] over the backend name,
/// the fingerprint (as a hex key string), the canonical method name and
/// ε, folded with the request's seed base. Identical requests therefore
/// share one RNG stream at any thread count — §V's determinism contract,
/// extended from sweeps to the service — and requests differing only in
/// backend draw independent streams, exactly like sweep cells.
fn seed_of(key: &CacheKey) -> u64 {
    // include_partition deliberately excluded: asking for the assignment
    // must not change the result.
    let (fingerprint, backend, method, eps_bits, seed_base, _include_partition) = *key;
    job_seed(
        seed_base,
        backend,
        &format!("{fingerprint:016x}"),
        method.name(),
        f64::from_bits(eps_bits),
    )
}

/// A running partition service: the shared engine plus its worker
/// threads. Create with [`Service::start`], attach any number of sessions
/// ([`Service::run_session`], or a [`crate::TcpServer`]), and stop with
/// [`Service::initiate_shutdown`] (or the in-band `shutdown` op).
pub struct Service {
    engine: Arc<Engine>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Per-session counters, all submission-order-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionSummary {
    /// Request lines decoded (including failed ones).
    pub received: u64,
    /// Responses written.
    pub responses: u64,
    /// Requests served from the cache or coalesced onto an in-flight
    /// twin (`cached: true` responses).
    pub cache_hits: u64,
    /// Partition requests that missed the cache and queued fresh work.
    pub cache_misses: u64,
    /// Error responses.
    pub errors: u64,
}

impl Service {
    /// Starts the engine and its [`worker_count`]`(config.threads)` worker
    /// threads.
    ///
    /// Panics if `config.default_backend` is not a registered backend —
    /// a config error surfaces here, not on the first request. The name
    /// is also canonicalized, so a non-canonical spelling (`"PATOH"`)
    /// seeds and caches identically to an explicit `backend: "patoh"`
    /// request field.
    pub fn start(mut config: ServiceConfig) -> Arc<Service> {
        config.default_backend = parse_backend(config.default_backend)
            .unwrap_or_else(|e| panic!("invalid default backend: {e}"))
            .name();
        let engine = Arc::new(Engine {
            inner: Mutex::new(EngineInner {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                cache: LruCache::new(config.cache_capacity),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            collection: Mutex::new(None),
            sessions: AtomicU64::new(0),
            config,
        });
        let workers = (0..worker_count(engine.config.threads))
            .map(|i| {
                let engine = engine.clone();
                std::thread::Builder::new()
                    .name(format!("mg-server-worker-{i}"))
                    .spawn(move || worker_loop(&engine))
                    .expect("spawning worker")
            })
            .collect();
        Arc::new(Service {
            engine,
            workers: Mutex::new(workers),
        })
    }

    /// Stops accepting new jobs. Queued and executing jobs still finish
    /// and their responses are still delivered (drain semantics).
    pub fn initiate_shutdown(&self) {
        self.engine.initiate_shutdown();
    }

    /// `true` once shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.engine.is_shutting_down()
    }

    /// Waits for the workers to drain the queue and exit. Implies
    /// [`Service::initiate_shutdown`].
    pub fn shutdown_and_join(&self) {
        self.engine.initiate_shutdown();
        let workers = std::mem::take(&mut *lock_ok(&self.workers));
        for handle in workers {
            // Job panics are caught in `run_job`; a worker can only die
            // in a response callback, which must not abort the drain.
            let _ = handle.join();
        }
    }

    fn open_session(&self) -> SessionDriver<'_> {
        self.engine.sessions.fetch_add(1, Ordering::SeqCst);
        server_metrics().sessions_live.inc();
        SessionDriver {
            service: self,
            slots: Arc::new(Responses::default()),
            summary: SessionSummary::default(),
            pending_switch: None,
        }
    }

    /// Runs a full session over a generic byte transport (pipe mode):
    /// reads requests from `input` on the calling thread while a writer
    /// thread streams responses to `output` in submission order. Returns
    /// when the input is exhausted (EOF or an in-band `shutdown`) and
    /// every response has been written.
    pub fn run_session<R: BufRead, W: Write + Send>(&self, input: R, output: W) -> SessionSummary {
        let mut driver = self.open_session();
        let responses = session::run(&mut driver, input, output, &|| false);
        SessionSummary {
            responses,
            ..driver.summary
        }
    }
}

impl Runtime for Service {
    const NAME: &'static str = "mg-server";

    fn open(&self) -> impl Handler + '_ {
        self.open_session()
    }

    fn is_shutting_down(&self) -> bool {
        self.engine.is_shutting_down()
    }

    fn initiate_shutdown(&self) {
        self.engine.initiate_shutdown();
    }

    /// Drains the engine: every accepted request is answered before
    /// [`crate::TcpServer::join`] returns.
    fn drain(&self) {
        self.shutdown_and_join();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// One resolved response slot.
///
/// `Stats` slots are *deferred*: the snapshot counters are fixed at
/// decode time, but the per-backend completed-job counts are only known
/// once every preceding response has been delivered — which is exactly
/// when the writer reaches the slot, since responses stream in submission
/// order. Rendering there keeps the line a pure function of the request
/// prefix at any thread count.
enum Slot {
    /// A finished response line; `computed` names the backend when the
    /// line is a freshly computed (not cache-served) partition result, so
    /// the writer can tally per-backend completions in stream order.
    /// `switch` carries a `hello` codec negotiation.
    Ready {
        line: String,
        computed: Option<&'static str>,
        switch: Option<WireCodec>,
    },
    /// A `stats` request, rendered by the writer when it reaches it.
    Stats {
        id: Json,
        snapshot: protocol::StatsSnapshot,
    },
}

impl Slot {
    fn line(line: String) -> Slot {
        Slot::Ready {
            line,
            computed: None,
            switch: None,
        }
    }
}

/// Writer half of a server session: tallies freshly computed jobs per
/// backend as their lines pass, so a deferred `stats` slot reports
/// exactly the completions among its prefix.
struct Tally {
    slots: Arc<Responses<Slot>>,
    /// The server's diagnostic shard tag, echoed on stats lines.
    shard: Option<String>,
    completed: Vec<(&'static str, u64)>,
}

impl Render for Tally {
    type Slot = Slot;

    fn slots(&self) -> &Responses<Slot> {
        &self.slots
    }

    fn render(&mut self, slot: Slot) -> (String, Option<WireCodec>) {
        match slot {
            Slot::Ready {
                line,
                computed,
                switch,
            } => {
                if let Some(backend) = computed {
                    if let Some(entry) =
                        self.completed.iter_mut().find(|(name, _)| *name == backend)
                    {
                        entry.1 += 1;
                    }
                }
                (line, switch)
            }
            Slot::Stats { id, snapshot } => {
                let line = protocol::stats_response(
                    &id,
                    snapshot,
                    &self.completed,
                    self.slots.outstanding.load(Ordering::SeqCst),
                    self.shard.as_deref(),
                );
                (line, None)
            }
        }
    }

    fn written(&mut self, wire: WireCodec, bytes: u64) {
        bytes_out(wire.name(), bytes);
    }
}

/// Reader half of a server session: the [`Handler`] the session runtime
/// feeds request units into.
struct SessionDriver<'s> {
    service: &'s Service,
    slots: Arc<Responses<Slot>>,
    summary: SessionSummary,
    /// A `hello` just switched the *inbound* codec; the pump takes this
    /// and retunes its scanner before parsing the next unit.
    pending_switch: Option<WireCodec>,
}

impl Handler for SessionDriver<'_> {
    type Render = Tally;

    fn writer(&self) -> Tally {
        Tally {
            slots: self.slots.clone(),
            shard: self.service.engine.config.shard_id.clone(),
            completed: mg_core::all_backends()
                .iter()
                .map(|b| (b.name(), 0u64))
                .collect(),
        }
    }

    fn handle_unit(&mut self, kind: UnitKind, bytes: &[u8]) -> bool {
        let t0 = Stamp::now();
        let codec = match kind {
            UnitKind::Line => WireCodec::JsonLines,
            UnitKind::Frame => WireCodec::Binary,
        };
        bytes_in(codec.name(), bytes.len() as u64);
        let Some(decoded) = session::decode_unit(kind, bytes) else {
            return true;
        };
        let index = self.begin();
        match decoded {
            Ok((request, _)) => self.dispatch(index, request, t0),
            Err(e) => {
                self.fail(index, &e.id, e.code, &e.message);
                true
            }
        }
    }

    fn take_codec_switch(&mut self) -> Option<WireCodec> {
        self.pending_switch.take()
    }

    fn protocol_error(&mut self, message: &str) {
        let index = self.begin();
        self.fail(index, &Json::Null, ErrorCode::BadRequest, message);
    }

    fn finish(&mut self) {
        self.slots.finish_input();
    }
}

impl SessionDriver<'_> {
    /// Opens the next response slot in stream order.
    fn begin(&mut self) -> u64 {
        self.summary.received += 1;
        server_metrics().requests.inc();
        self.slots.open()
    }

    fn fail(&mut self, index: u64, id: &Json, code: ErrorCode, message: &str) {
        self.summary.errors += 1;
        server_metrics().errors.inc();
        let line = protocol::error_response(id, code, message, self.shard());
        self.slots.resolve(index, Slot::line(line));
    }

    fn dispatch(&mut self, index: u64, request: protocol::Request, t0: Stamp) -> bool {
        match request.op {
            RequestOp::Ping => {
                op_counter("ping").inc();
                let line = protocol::op_response(&request.id, "ping");
                self.slots.resolve(index, Slot::line(line));
                request_seconds("ping").observe(t0.at.elapsed().as_secs_f64());
                true
            }
            RequestOp::Stats => {
                op_counter("stats").inc();
                // The snapshot counters are fixed now (in stream order);
                // the per-backend completed counts are filled in by the
                // writer when every preceding response has been delivered.
                let snapshot = protocol::StatsSnapshot {
                    received: self.summary.received,
                    cache_hits: self.summary.cache_hits,
                    cache_misses: self.summary.cache_misses,
                    errors: self.summary.errors,
                    sessions: self.service.engine.sessions.load(Ordering::SeqCst),
                };
                let id = request.id;
                self.slots.resolve(index, Slot::Stats { id, snapshot });
                request_seconds("stats").observe(t0.at.elapsed().as_secs_f64());
                true
            }
            RequestOp::Shutdown => {
                op_counter("shutdown").inc();
                self.service.initiate_shutdown();
                let line = protocol::op_response(&request.id, "shutdown");
                self.slots.resolve(index, Slot::line(line));
                false
            }
            RequestOp::Hello => {
                op_counter("hello").inc();
                // A bare hello (no codec field) re-affirms JSON lines.
                let codec = request.codec.unwrap_or(WireCodec::JsonLines);
                self.pending_switch = Some(codec);
                let line = protocol::hello_response(&request.id, codec);
                self.slots.resolve(
                    index,
                    Slot::Ready {
                        line,
                        computed: None,
                        switch: Some(codec),
                    },
                );
                true
            }
            RequestOp::Partition => {
                op_counter("partition").inc();
                let spec = request.spec.expect("partition requests carry a spec");
                self.submit_partition(index, request.id, spec, request.trace, t0);
                true
            }
        }
    }

    fn shard(&self) -> Option<&str> {
        self.service.engine.config.shard_id.as_deref()
    }

    fn submit_partition(
        &mut self,
        index: u64,
        id: Json,
        spec: mg_core::service::PartitionSpec,
        wire_trace: Option<mg_obs::WireTrace>,
        t0: Stamp,
    ) {
        let engine = &self.service.engine;
        let matrix = match engine.resolve_matrix(spec.matrix) {
            Ok(matrix) => matrix,
            Err((code, message)) => {
                self.fail(index, &id, code, &message);
                request_seconds("partition").observe(t0.at.elapsed().as_secs_f64());
                return;
            }
        };
        let fingerprint = matrix_fingerprint(&matrix);
        let seed_base = spec.seed.unwrap_or(engine.config.master_seed);
        // Both sources are pre-validated canonical names: the request
        // field by the protocol decoder, the default by Service::start.
        let backend = parse_backend(spec.backend.unwrap_or(engine.config.default_backend))
            .expect("backend names are validated at decode/config time");
        let key: CacheKey = (
            fingerprint,
            backend.name(),
            spec.method,
            spec.epsilon.to_bits(),
            seed_base,
            spec.include_partition,
        );

        // Trace identity of this request, if any: a client-stamped trace
        // records directly; the slow sampler opens a speculative one that
        // only survives if the request proves slow. Either way the root
        // `request` span covers decode through encode, and the `trace`
        // field has already been stripped from everything that shapes
        // response bytes (the key, the spec, the encoders).
        let trace_slow = engine.config.trace_slow;
        let req_trace = RequestTrace::open(wire_trace, trace_slow, t0);
        if let Some(rt) = &req_trace {
            t0.record_child(&rt.ctx, "decode");
        }
        let job_trace = req_trace.map(|rt| JobTrace {
            ctx: rt.ctx,
            queued: Stamp::now(),
        });

        let slots = self.slots.clone();
        let include_partition = spec.include_partition;
        let deliver_id = id.clone();
        let shard = engine.config.shard_id.clone();
        // Count the job as outstanding from submission until delivery;
        // synchronous cache hits cancel out before anyone can observe
        // the increment through a stats slot.
        self.slots.outstanding.fetch_add(1, Ordering::SeqCst);
        let deliver: Deliver = Box::new(move |outcome, cached| {
            slots.outstanding.fetch_sub(1, Ordering::SeqCst);
            let encode = req_trace.map(|rt| (rt, Stamp::now()));
            // Tag freshly computed lines with their backend so the writer
            // can tally per-backend completions for deferred stats slots.
            let (line, computed) = match outcome {
                Some(outcome) => (
                    protocol::ok_response(&deliver_id, &outcome, cached, include_partition),
                    (!cached).then_some(outcome.backend),
                ),
                None => {
                    server_metrics().errors.inc();
                    let line = protocol::error_response(
                        &deliver_id,
                        ErrorCode::Internal,
                        "partition job panicked; request lost",
                        shard.as_deref(),
                    );
                    (line, None)
                }
            };
            if let Some((rt, encode)) = &encode {
                encode.record_child(&rt.ctx, "encode");
                rt.close(trace_slow);
            }
            request_seconds("partition").observe(t0.at.elapsed().as_secs_f64());
            slots.resolve(
                index,
                Slot::Ready {
                    line,
                    computed,
                    switch: None,
                },
            );
        });

        match engine.submit(key, backend, matrix, deliver, job_trace) {
            SubmitOutcome::CacheHit | SubmitOutcome::Follower => {
                self.summary.cache_hits += 1;
                server_metrics().cache_hits.inc();
            }
            SubmitOutcome::Queued => {
                self.summary.cache_misses += 1;
                server_metrics().cache_misses.inc();
            }
            SubmitOutcome::Rejected => {
                // The deliver callback never runs for rejected jobs.
                if let Some(rt) = &req_trace {
                    rt.abandon();
                }
                self.slots.outstanding.fetch_sub(1, Ordering::SeqCst);
                self.fail(
                    index,
                    &id,
                    ErrorCode::ShuttingDown,
                    "server is draining; request rejected",
                );
            }
        }
    }
}

impl Drop for SessionDriver<'_> {
    fn drop(&mut self) {
        self.service.engine.sessions.fetch_sub(1, Ordering::SeqCst);
        server_metrics().sessions_live.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_core::BipartitionResult;
    use mg_partitioner::BisectionTargets;
    use std::sync::mpsc::{channel, Receiver, Sender};

    const WAIT: Duration = Duration::from_secs(30);

    /// Test backend: signals `started`, then holds the job until
    /// `release` fires (or [`WAIT`] expires) and either panics or
    /// delegates to the default backend.
    struct Gated {
        started: Sender<()>,
        release: Mutex<Receiver<()>>,
        panics: bool,
    }

    fn real() -> &'static dyn PartitionBackend {
        parse_backend(DEFAULT_BACKEND).unwrap()
    }

    impl PartitionBackend for Gated {
        fn name(&self) -> &'static str {
            "test-gated"
        }
        fn description(&self) -> &'static str {
            "waits for a release signal, then panics or partitions"
        }
        fn bipartition_with_targets(
            &self,
            a: &Coo,
            method: Method,
            targets: &BisectionTargets,
            seed: u64,
        ) -> BipartitionResult {
            self.started.send(()).unwrap();
            let _ = lock_ok(&self.release).recv_timeout(WAIT);
            assert!(!self.panics, "injected backend panic");
            real().bipartition_with_targets(a, method, targets, seed)
        }
    }

    /// A leaked [`Gated`] backend plus its `started` and `release` ends.
    fn gated(panics: bool) -> (&'static Gated, Receiver<()>, Sender<()>) {
        let (started, started_rx) = channel();
        let (release_tx, release) = channel();
        let backend = Box::leak(Box::new(Gated {
            started,
            release: Mutex::new(release),
            panics,
        }));
        (backend, started_rx, release_tx)
    }

    fn submit(
        service: &Service,
        backend: &'static dyn PartitionBackend,
        matrix: Coo,
        deliver: impl FnOnce(Option<Arc<PartitionOutcome>>, bool) + Send + 'static,
    ) -> SubmitOutcome {
        let method = Method::MediumGrain { refine: true };
        let key = (
            matrix_fingerprint(&matrix),
            backend.name(),
            method,
            0.03f64.to_bits(),
            2014,
            false,
        );
        service
            .engine
            .submit(key, backend, Arc::new(matrix), Box::new(deliver), None)
    }

    #[test]
    fn a_light_job_runs_beside_a_running_heavy_one() {
        // Job A holds its worker until job B, submitted after A started,
        // has been delivered: B must not wait for A.
        let service = Service::start(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        });
        let (backend, started, release) = gated(false);
        let (tx, delivered) = channel();
        let tx_a = tx.clone();
        let heavy = mg_sparse::gen::laplacian_2d(12, 12);
        let queued = submit(&service, backend, heavy, move |_, _| {
            tx_a.send("A").unwrap();
        });
        assert!(matches!(queued, SubmitOutcome::Queued));
        started.recv_timeout(WAIT).expect("job A started");
        let light = mg_sparse::gen::laplacian_2d(4, 4);
        let queued = submit(&service, real(), light, move |_, _| {
            tx.send("B").unwrap();
            release.send(()).unwrap();
        });
        assert!(matches!(queued, SubmitOutcome::Queued));
        let order: Vec<&str> = (0..2)
            .map(|_| delivered.recv_timeout(2 * WAIT).expect("delivery"))
            .collect();
        assert_eq!(order, ["B", "A"], "the light job waited for the heavy one");
        service.shutdown_and_join();
    }

    #[test]
    fn a_panicking_job_answers_internal_and_the_pool_keeps_serving() {
        let service = Service::start(ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        });
        let (backend, started, release) = gated(true);
        let (tx, delivered) = channel();
        let matrix = mg_sparse::gen::laplacian_2d(6, 6);
        let record = |tag: &'static str| {
            let tx = tx.clone();
            move |outcome: Option<Arc<PartitionOutcome>>, cached| {
                tx.send((tag, outcome.is_some(), cached)).unwrap();
            }
        };
        let primary = submit(&service, backend, matrix.clone(), record("primary"));
        assert!(matches!(primary, SubmitOutcome::Queued));
        started.recv_timeout(WAIT).expect("job started");
        let follower = submit(&service, backend, matrix.clone(), record("follower"));
        assert!(matches!(follower, SubmitOutcome::Follower));
        release.send(()).unwrap();
        let mut got: Vec<_> = (0..2)
            .map(|_| delivered.recv_timeout(WAIT).expect("delivery"))
            .collect();
        got.sort();
        // No outcome: the session renders these as `internal` errors.
        assert_eq!(got, [("follower", false, true), ("primary", false, false)]);
        {
            let inner = service.engine.lock();
            assert!(inner.inflight.is_empty());
            assert!(inner.cache.is_empty(), "a panicked job must not be cached");
        }

        let next = submit(&service, real(), matrix, record("next"));
        assert!(matches!(next, SubmitOutcome::Queued));
        assert_eq!(delivered.recv_timeout(WAIT).unwrap(), ("next", true, false));
        service.shutdown_and_join();
    }

    #[test]
    fn start_canonicalizes_the_default_backend_name() {
        let service = Service::start(ServiceConfig {
            default_backend: "PATOH",
            ..ServiceConfig::default()
        });
        assert_eq!(service.engine.config.default_backend, "patoh");
        service.shutdown_and_join();
    }

    #[test]
    #[should_panic(expected = "invalid default backend")]
    fn start_rejects_unregistered_default_backends() {
        let _ = Service::start(ServiceConfig {
            default_backend: "typo",
            ..ServiceConfig::default()
        });
    }
}
