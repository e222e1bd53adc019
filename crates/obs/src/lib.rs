//! `mg-obs` — observability primitives shared by every layer of the
//! mediumgrain stack.
//!
//! Three strictly separated channels keep the wire protocol's
//! byte-determinism contract intact:
//!
//! 1. **Metrics** ([`metrics`]): a process-global registry of counters,
//!    gauges and fixed-bucket histograms backed by `AtomicU64` cells.
//!    Handles are registered once and updated lock-free; the registry
//!    mutex is touched only at registration and render time.
//! 2. **Diagnostic log** ([`log`]): leveled, structured JSON lines on
//!    **stderr** — never stdout, which belongs to protocol responses.
//! 3. **Exposition** ([`expose`]): an out-of-band TCP endpoint serving a
//!    Prometheus-style text snapshot of the registry, plus the matching
//!    scraper and schema validator.
//!
//! [`span`] holds the phase timers: they record into the
//! `mgpart_phase_seconds` histogram (the paper's Fig. 5 phases) and, when
//! a trace is active, add a child span per phase.
//!
//! [`trace`] adds per-request distributed tracing on the same
//! out-of-band rules: propagated 128-bit trace contexts, a bounded
//! ring-buffer collector, and Perfetto-loadable JSON served on the
//! exposition endpoint's `/trace` route.

pub mod expose;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

pub use expose::{parse_schema, scrape, scrape_trace, validate_exposition, MetricsServer};
pub use log::{Level, Value};
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use span::{phase, phase_stats, PhaseTimer, PHASES, PHASE_BOUNDS};
pub use trace::{TraceCollector, TraceContext, WireTrace};
