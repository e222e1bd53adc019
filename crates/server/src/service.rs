//! The serving engine: a bounded submission queue feeding the
//! work-stealing batch pool, per-session ordered response streams, and a
//! shared LRU response cache.
//!
//! ## Execution model
//!
//! Sessions (one per stdio pipe or TCP connection) decode request lines
//! and submit jobs to the shared [`Engine`]. A dispatcher thread drains
//! the queue in *micro-batches* and runs each batch on the existing
//! [`mg_collection::run_batch_ordered`] work-stealing pool — jobs execute
//! out of order across workers, but results are delivered in order and
//! each session's writer emits responses in its own submission order.
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
//! pending response, then lets the dispatcher exit.

use crate::cache::LruCache;
use crate::codec::{UnitKind, WireCodec};
use crate::json::Json;
use crate::metrics::{bytes_in, bytes_out, op_counter, request_seconds, server_metrics};
use crate::protocol;
use crate::session::{
    self, lock_ok, wait_ok, Handler, Render, RequestTrace, Responses, Runtime, Stamp,
};
use mg_collection::{generate, job_seed, run_batch_ordered, worker_count, CollectionSpec};
use mg_core::service::{matrix_fingerprint, ErrorCode, MatrixPayload, PartitionOutcome, RequestOp};
use mg_core::{parse_backend, Method, PartitionBackend, DEFAULT_BACKEND};
use mg_obs::trace::{self, TraceContext};
use mg_sparse::{load_imbalance, Coo};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the batch pool; 0 = one per available core.
    pub threads: usize,
    /// Largest micro-batch the dispatcher hands to the pool at once.
    pub max_batch: usize,
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
    /// Append a non-deterministic `time_ms` field to computed responses.
    pub timing: bool,
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
            max_batch: 32,
            queue_capacity: 256,
            cache_capacity: 128,
            master_seed: 2014,
            default_backend: DEFAULT_BACKEND,
            collection: CollectionSpec::default(),
            timing: false,
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

/// Completion callback: `(outcome, cached, compute_seconds)`.
type Deliver = Box<dyn FnOnce(Arc<PartitionOutcome>, bool, f64) + Send>;

/// One queued job as handed to the ordered batch pool: cache key,
/// resolved backend, matrix, and the optional trace handle.
type JobSpec = (
    CacheKey,
    &'static dyn PartitionBackend,
    Arc<Coo>,
    Option<JobTrace>,
);

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
    /// Signals the dispatcher that work (or shutdown) is available.
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
                deliver(outcome, true, 0.0);
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
            self.work.notify_all();
            return SubmitOutcome::Queued;
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

    fn resolve_matrix(&self, payload: &MatrixPayload) -> Result<Arc<Coo>, (ErrorCode, String)> {
        // The decode path is shared with the router's placement-key
        // extraction (mg_core::service), so both reject a malformed
        // payload with byte-identical (code, message) pairs.
        match mg_core::service::payload_matrix(payload)? {
            Some(matrix) => Ok(Arc::new(matrix)),
            None => match payload {
                MatrixPayload::Collection(name) => self.collection_matrix(name).ok_or_else(|| {
                    (
                        ErrorCode::UnknownCollection,
                        format!("no collection matrix named {name:?}"),
                    )
                }),
                _ => unreachable!("payload_matrix returns None only for collections"),
            },
        }
    }
}

/// Executes one job. Pure: the result depends only on the arguments.
fn execute(
    matrix: &Coo,
    backend: &'static dyn PartitionBackend,
    method: Method,
    epsilon: f64,
    seed: u64,
    fingerprint: u64,
) -> PartitionOutcome {
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

/// The dispatcher: drains the queue in micro-batches and runs each batch
/// on the ordered work-stealing pool, resolving primaries and followers
/// as results stream back. Exits once shutdown is requested *and* the
/// queue is fully drained — never dropping an accepted job.
fn dispatcher_loop(engine: &Engine) {
    loop {
        let batch: Vec<EngineJob> = {
            let mut inner = engine.lock();
            loop {
                if !inner.queue.is_empty() {
                    break;
                }
                if inner.shutdown {
                    return;
                }
                inner = wait_ok(&engine.work, inner);
            }
            let n = inner.queue.len().min(engine.config.max_batch.max(1));
            let drained: Vec<EngineJob> = inner.queue.drain(..n).collect();
            server_metrics().queue_depth.set(inner.queue.len() as u64);
            drained
        };
        engine.space.notify_all();

        let mut delivers: Vec<Option<Deliver>> = Vec::with_capacity(batch.len());
        let mut specs: Vec<JobSpec> = Vec::with_capacity(batch.len());
        for job in batch {
            specs.push((job.key, job.backend, job.matrix, job.trace));
            delivers.push(Some(job.deliver));
        }
        let threads = worker_count(engine.config.threads).min(specs.len()).max(1);
        let specs = &specs;
        server_metrics().inflight.set(specs.len() as u64);
        run_batch_ordered(
            specs.len(),
            threads,
            |i| {
                let ((fingerprint, _, method, eps_bits, _, _), backend, matrix, job_trace) =
                    &specs[i];
                let seed = seed_of(&specs[i].0);
                // Traced jobs: queue_wait ran from submission to now, and
                // execute gets its own span installed thread-locally so
                // the partitioner's phase timers record as its children.
                let exec_span = job_trace.map(|jt| {
                    jt.queued.record_child(&jt.ctx, "queue_wait");
                    (jt.ctx.child(), trace::now_us())
                });
                let _scope = exec_span.map(|(ctx, _)| trace::enter(ctx));
                let start = Instant::now();
                let outcome = execute(
                    matrix,
                    *backend,
                    *method,
                    f64::from_bits(*eps_bits),
                    seed,
                    *fingerprint,
                );
                let elapsed = start.elapsed();
                drop(_scope);
                if let Some((ctx, start_us)) = exec_span {
                    trace::record_span(
                        ctx.trace_id,
                        ctx.span_id,
                        ctx.parent_id,
                        "execute",
                        start_us,
                        elapsed,
                    );
                }
                (outcome, elapsed.as_secs_f64())
            },
            |i, (outcome, secs)| {
                let outcome = Arc::new(outcome);
                let followers = {
                    let mut inner = engine.lock();
                    // Keys that never asked for the assignment cache a
                    // *stripped* copy: the partition vector is O(nnz) and
                    // would otherwise pin every large matrix in memory.
                    let wants_partition = specs[i].0 .5;
                    let cached_copy = if wants_partition || outcome.partition.is_empty() {
                        outcome.clone()
                    } else {
                        let mut stripped = (*outcome).clone();
                        stripped.partition = Vec::new();
                        Arc::new(stripped)
                    };
                    inner.cache.insert(specs[i].0, cached_copy);
                    inner.inflight.remove(&specs[i].0).unwrap_or_default()
                };
                if let Some(primary) = delivers[i].take() {
                    primary(outcome.clone(), false, secs);
                }
                for follower in followers {
                    follower(outcome.clone(), true, 0.0);
                }
            },
        );
        server_metrics().inflight.set(0);
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

/// A running partition service: the shared engine plus its dispatcher
/// thread. Create with [`Service::start`], attach any number of sessions
/// ([`Service::run_session`], or a [`crate::TcpServer`]), and stop with
/// [`Service::initiate_shutdown`] (or the in-band `shutdown` op).
pub struct Service {
    engine: Arc<Engine>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
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
    /// Starts the engine and its dispatcher thread.
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
        let dispatcher_engine = engine.clone();
        let dispatcher = std::thread::Builder::new()
            .name("mg-server-dispatcher".into())
            .spawn(move || dispatcher_loop(&dispatcher_engine))
            .expect("spawning dispatcher");
        Arc::new(Service {
            engine,
            dispatcher: Mutex::new(Some(dispatcher)),
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

    /// Waits for the dispatcher to drain and exit. Implies
    /// [`Service::initiate_shutdown`].
    pub fn shutdown_and_join(&self) {
        self.engine.initiate_shutdown();
        if let Some(handle) = lock_ok(&self.dispatcher).take() {
            handle.join().expect("dispatcher panicked");
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
        session::decode_unit(kind, bytes, &mut |decoded| {
            let index = self.begin();
            match decoded {
                Ok((request, _)) => self.dispatch(index, request, t0),
                Err(e) => {
                    self.fail(index, &e.id, e.code, &e.message);
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
        let matrix = match engine.resolve_matrix(&spec.matrix) {
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
        let timing = engine.config.timing;
        let deliver_id = id.clone();
        // Count the job as outstanding from submission until delivery;
        // synchronous cache hits cancel out before anyone can observe
        // the increment through a stats slot.
        self.slots.outstanding.fetch_add(1, Ordering::SeqCst);
        let deliver: Deliver = Box::new(move |outcome, cached, secs| {
            slots.outstanding.fetch_sub(1, Ordering::SeqCst);
            let time_ms = timing.then_some(secs * 1000.0);
            let encode = req_trace.map(|rt| (rt, Stamp::now()));
            let line =
                protocol::ok_response(&deliver_id, &outcome, cached, include_partition, time_ms);
            if let Some((rt, encode)) = &encode {
                encode.record_child(&rt.ctx, "encode");
                rt.close(trace_slow);
            }
            request_seconds("partition").observe(t0.at.elapsed().as_secs_f64());
            // Tag freshly computed lines with their backend so the writer
            // can tally per-backend completions for deferred stats slots.
            slots.resolve(
                index,
                Slot::Ready {
                    line,
                    computed: (!cached).then_some(outcome.backend),
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
