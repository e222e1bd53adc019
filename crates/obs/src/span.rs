//! Phase timers that feed the `mgpart_phase_seconds` histogram (the
//! paper's Fig. 5 time profile, live) and, under an active trace, record
//! one child span per phase.

use crate::metrics::{registry, Histogram};
use crate::trace::{self, TraceContext};
use std::time::Instant;

/// The partitioner's phases, mirroring the paper's Fig. 5 breakdown:
/// medium-grain A^c/A^r model build, coarsening, initial partition, FM
/// refinement during uncoarsening, and the final λ−1 volume count over
/// the mapped nonzero partition (eqn (3)).
pub const PHASES: &[&str] = &[
    "medium_grain_build",
    "coarsening",
    "initial_partition",
    "fm_refinement",
    "volume_count",
];

/// Bucket upper bounds (seconds) for phase histograms: 10 µs … 10 s.
pub const PHASE_BOUNDS: &[f64] = &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// The histogram family phase timers record into.
pub const PHASE_METRIC: &str = "mgpart_phase_seconds";

/// Starts timing one phase; the elapsed time is recorded into
/// `mgpart_phase_seconds{phase="..."}` when the returned timer drops.
pub fn phase(name: &'static str) -> PhaseTimer {
    PhaseTimer {
        histogram: registry().histogram(PHASE_METRIC, &[("phase", name)], PHASE_BOUNDS),
        name,
        trace: trace::current().map(|ctx| (ctx, trace::now_us())),
        start: Instant::now(),
    }
}

/// `(count, sum_seconds)` recorded so far for one phase — the bench
/// harness snapshots these around a run to compute per-phase deltas.
pub fn phase_stats(name: &str) -> (u64, f64) {
    let h = registry().histogram(PHASE_METRIC, &[("phase", name)], PHASE_BOUNDS);
    (h.count(), h.sum_seconds())
}

/// A running phase timer; records on drop. When a trace context is
/// installed on the opening thread, the drop also records a child span
/// named after the phase, so one traced request shows its FM
/// refinement (etc.) nested under the engine's `execute` span.
pub struct PhaseTimer {
    histogram: Histogram,
    name: &'static str,
    trace: Option<(TraceContext, u64)>,
    start: Instant,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.histogram.observe(elapsed.as_secs_f64());
        if let Some((ctx, start_us)) = self.trace {
            trace::record_child(&ctx, self.name, start_us, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_records_into_global_histogram() {
        let (count0, _) = phase_stats("medium_grain_build");
        {
            let _t = phase("medium_grain_build");
        }
        let (count1, _) = phase_stats("medium_grain_build");
        assert!(count1 > count0);
    }

    #[test]
    fn phase_timer_records_trace_child_span_when_context_active() {
        let ctx = trace::TraceContext::new_root();
        {
            let _g = trace::enter(ctx);
            let _t = phase("volume_count");
        }
        let (_, spans) = trace::collector().snapshot();
        let child = spans
            .iter()
            .find(|s| s.trace_id == ctx.trace_id && s.name == "volume_count")
            .expect("phase drop records a child span under the active trace");
        assert_eq!(child.parent_id, Some(ctx.span_id));
    }
}
