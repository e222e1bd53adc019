//! The traced run's span pipeline: drain the process-global collector
//! while the load runs, then join each traced request's spans with the
//! client's own timing and split its time into named self-times.

use crate::client::Exchange;
use mg_obs::trace::{collector, SpanRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the collector is read. Its ring holds 4096 spans; the
/// busiest workload records well under that many in this interval.
const DRAIN_EVERY: Duration = Duration::from_millis(5);

/// Copies every span the collector records while it runs. The collector
/// is only read, never cleared, so nothing recorded concurrently is lost:
/// each read keeps what follows the last span seen before.
pub struct Drain {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Drained>,
}

pub struct Drained {
    pub spans: Vec<SpanRecord>,
    /// Spans the ring evicted before they were read.
    pub lost: u64,
}

struct Reader {
    last: Option<u64>,
    last_len: usize,
    dropped: u64,
    out: Drained,
}

impl Reader {
    fn start() -> Reader {
        let (_, ring) = collector().snapshot();
        Reader {
            last: ring.last().map(|s| s.span_id),
            last_len: ring.len(),
            dropped: collector().dropped(),
            out: Drained {
                spans: Vec::new(),
                lost: 0,
            },
        }
    }

    fn read(&mut self) {
        let dropped = collector().dropped();
        let (_, ring) = collector().snapshot();
        let evicted = dropped - self.dropped;
        let fresh = match self.last {
            None => {
                self.out.lost += evicted;
                0
            }
            Some(last) => match ring.iter().rposition(|s| s.span_id == last) {
                Some(pos) => pos + 1,
                None => {
                    // Everything seen before was evicted; so may have been
                    // spans recorded after it.
                    self.out.lost += evicted.saturating_sub(self.last_len as u64);
                    0
                }
            },
        };
        self.out.spans.extend_from_slice(&ring[fresh..]);
        if let Some(s) = ring.last() {
            self.last = Some(s.span_id);
        }
        self.last_len = ring.len();
        self.dropped = dropped;
    }
}

impl Drain {
    pub fn start() -> Drain {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let mut reader = Reader::start();
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(DRAIN_EVERY);
                reader.read();
            }
            std::thread::sleep(DRAIN_EVERY);
            reader.read();
            reader.out
        });
        Drain { stop, handle }
    }

    /// Stops after one last read, an interval after the call. Call once
    /// every traced response is in: the program records a request's spans
    /// around writing its response (a router cache hit just after), so
    /// the interval covers the last ones.
    pub fn finish(self) -> Drained {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("span drain panicked")
    }
}

pub const PHASES: [&str; 5] = [
    "medium_grain_build",
    "coarsening",
    "initial_partition",
    "fm_refinement",
    "volume_count",
];

/// One traced request's time, in µs. `read` runs from the client's first
/// byte to the front end's `request` span, `write` from that span's end to
/// the client's last byte. Container spans (`request`, `execute`) count
/// only through their children; their own uncovered time is
/// `unattributed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    pub total: f64,
    pub read: f64,
    pub write: f64,
    pub request: f64,
    pub decode: f64,
    pub queue_wait: f64,
    pub execute: f64,
    pub encode: f64,
    pub phases: [f64; 5],
    pub router_request: f64,
    pub route: f64,
    pub cache_lookup: f64,
    pub dispatch: f64,
    pub router_self: f64,
    pub unattributed: f64,
}

struct Tree<'a> {
    kids: HashMap<u64, Vec<&'a SpanRecord>>,
}

impl<'a> Tree<'a> {
    fn children(&self, span: &SpanRecord) -> &[&'a SpanRecord] {
        self.kids.get(&span.span_id).map_or(&[], Vec::as_slice)
    }

    fn child(&self, span: &SpanRecord, name: &str) -> Option<&'a SpanRecord> {
        self.children(span).iter().copied().find(|s| s.name == name)
    }

    fn sum(&self, span: &SpanRecord, name: &str) -> f64 {
        self.children(span)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64)
            .sum()
    }

    /// Duration of `span` not covered by any of its children.
    fn self_time(&self, span: &SpanRecord) -> f64 {
        let end = span.start_us + span.dur_us;
        let mut intervals: Vec<(u64, u64)> = self
            .children(span)
            .iter()
            .map(|c| {
                let s = c.start_us.clamp(span.start_us, end);
                (s, (c.start_us + c.dur_us).clamp(s, end))
            })
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_us;
        for (s, e) in intervals {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (span.dur_us - covered) as f64
    }
}

/// Fills the service-side part of `b` from a server `request` span.
fn service_part(tree: &Tree, req: &SpanRecord, b: &mut Breakdown) {
    b.request = req.dur_us as f64;
    b.decode = tree.sum(req, "decode");
    b.queue_wait = tree.sum(req, "queue_wait");
    b.encode = tree.sum(req, "encode");
    b.unattributed += tree.self_time(req);
    if let Some(exec) = tree.child(req, "execute") {
        b.execute = exec.dur_us as f64;
        for (slot, phase) in b.phases.iter_mut().zip(PHASES) {
            *slot = tree.sum(exec, phase);
        }
        b.unattributed += tree.self_time(exec);
    }
}

/// Drained spans grouped by trace id.
pub fn by_trace(spans: &[SpanRecord]) -> HashMap<u128, Vec<&SpanRecord>> {
    let mut map: HashMap<u128, Vec<&SpanRecord>> = HashMap::new();
    for span in spans {
        map.entry(span.trace_id).or_default().push(span);
    }
    map
}

/// Spans the traced run lost: those the ring evicted before they were
/// read, plus one for each traced request whose root span never arrived.
pub fn dropped<'a>(
    drained: &Drained,
    breakdowns: impl IntoIterator<Item = &'a Option<Breakdown>>,
) -> u64 {
    drained.lost + breakdowns.into_iter().filter(|b| b.is_none()).count() as u64
}

/// Breaks down one traced exchange; `None` when it was not traced or its
/// root span never arrived.
pub fn breakdown(ex: &Exchange, traces: &HashMap<u128, Vec<&SpanRecord>>) -> Option<Breakdown> {
    let wire = ex.trace?;
    let records = traces.get(&wire.trace_id)?;
    let mut kids: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for &s in records {
        if let Some(p) = s.parent_id {
            kids.entry(p).or_default().push(s);
        }
    }
    let tree = Tree { kids };
    let root = records
        .iter()
        .copied()
        .find(|s| s.name == "request" && s.parent_id == Some(wire.parent))?;
    let t = &ex.timing;
    let mut b = Breakdown {
        total: t.end_us().saturating_sub(t.start_us) as f64,
        read: root.start_us.saturating_sub(t.start_us) as f64,
        write: t.end_us().saturating_sub(root.start_us + root.dur_us) as f64,
        ..Breakdown::default()
    };
    match tree.child(root, "route") {
        Some(route) => {
            b.router_request = root.dur_us as f64;
            b.route = route.dur_us as f64;
            b.cache_lookup = tree.sum(route, "cache_lookup");
            b.dispatch = tree.sum(root, "dispatch");
            b.router_self = b.router_request - b.dispatch;
            b.unattributed += tree.self_time(root);
            let legs = tree.children(root).iter().filter(|s| s.name == "dispatch");
            for leg in legs {
                if let Some(shard) = tree.child(leg, "request") {
                    service_part(&tree, shard, &mut b);
                }
            }
        }
        None => service_part(&tree, root, &mut b),
    }
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Timing;
    use crate::gen::WireTrace;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 7,
            span_id: id,
            parent_id: Some(parent),
            name,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_the_client_time() {
        let spans = vec![
            span(2, 1, "request", 1_010, 100),
            span(3, 2, "decode", 1_010, 10),
            span(4, 2, "queue_wait", 1_020, 5),
            span(5, 2, "execute", 1_025, 70),
            span(6, 5, "coarsening", 1_030, 40),
            span(7, 5, "fm_refinement", 1_070, 20),
            span(8, 2, "encode", 1_095, 15),
        ];
        let ex = Exchange {
            stream: 1,
            index: 0,
            id: 1,
            trace: Some(WireTrace {
                trace_id: 7,
                parent: 1,
            }),
            timing: Timing {
                start_us: 1_000,
                encode_us: 1.0,
                send_us: 20.0,
                wait_us: 80.0,
                recv_us: 20.0,
            },
            bytes_out: 0,
            bytes_in: 0,
            response: Vec::new(),
        };
        let b = breakdown(&ex, &by_trace(&spans)).expect("root span present");
        assert_eq!((b.total, b.read, b.write), (120.0, 10.0, 10.0));
        assert_eq!(
            (b.decode, b.queue_wait, b.execute, b.encode),
            (10.0, 5.0, 70.0, 15.0)
        );
        // execute: 70 − 60 of phases; request: fully covered.
        assert_eq!(b.unattributed, 10.0);
        let named = b.read + b.write + b.decode + b.queue_wait + b.encode;
        let phases: f64 = b.phases.iter().sum();
        assert_eq!(named + phases + b.unattributed, b.total);

        assert!(breakdown(&ex, &by_trace(&spans[1..])).is_none());
    }
}
