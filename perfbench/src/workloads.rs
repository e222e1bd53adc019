//! The four workloads: what each sends, over which topology and
//! connections, and how the load is shaped.
//!
//! Every workload carries a *light* class: small distinct inline requests
//! (~2·10³ nonzeros). A run sends some of them alone, one at a time, half
//! before its traffic and half after it, and mixes more into the traffic;
//! the light metrics compare the two, so every workload reports how its
//! load delays a small request.

use crate::client::{pipelined, round_trip, Conn, Exchange, Ticket};
use crate::gen::{matrix, Body, Class, Enc, Family, Req, Rng, WireTrace, FAMILIES};
use crate::topology::{Running, Topo};
use mg_collection::{generate, CollectionSpec};
use mg_obs::trace::{next_span_id, next_trace_id};
use mg_sparse::Coo;
use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "large_single",
    "mixed_sessions",
    "small_pipelined",
    "routed_large",
];

const LIGHT_NNZ: (usize, usize) = (1_800, 2_200);
/// Light requests sent alone, and the pause before each: the machine's
/// speed drifts within seconds, so the baseline is spread over about two
/// seconds before the traffic and one more after it rather than taken at
/// once.
const ALONE: usize = 60;
const ALONE_PAUSE: Duration = Duration::from_millis(30);
/// Light requests after each large one (or pair) in the closed loops:
/// enough samples for a light tail near p90.
const LIGHT_BURST: usize = 4;
/// Distinct collection names per `small_pipelined` script (assumed).
const NAMES: usize = 6;
/// How long after each heavy request the `mixed_sessions` light session
/// sends its next one: long enough for the heavy request to be decoded
/// and queued, so the light one arrives while the heavy job runs.
const LIGHT_DELAY: Duration = Duration::from_millis(100);

#[derive(Clone, Copy)]
pub enum Shape {
    /// Stream 1, one request in flight; binary requests use a second,
    /// hello-negotiated connection.
    Closed,
    /// Stream 1 over one connection with this many requests in flight.
    Pipelined(usize),
    /// Streams 1 and 2 as two concurrent closed-loop sessions; stream 2
    /// sends its k-th request this long after stream 1 sent its k-th.
    Concurrent(Duration),
}

pub struct Plan {
    pub topo: Topo,
    pub shape: Shape,
    pub warm_up: Req,
    /// Stream 0 holds the light requests sent alone; the rest are the
    /// traffic sessions.
    pub streams: Vec<Vec<Req>>,
}

/// Draws fresh matrices, never repeating a shape, so that no two fresh
/// requests of a run can share a cache entry.
struct Source {
    rng: Rng,
    shapes: HashSet<(u32, u32, usize)>,
}

impl Source {
    /// A matrix of about `nnz` nonzeros whose shape no earlier draw had;
    /// the size creeps up until one is free (small grids have few shapes).
    fn draw(&mut self, family: Family, mut nnz: usize) -> Coo {
        loop {
            let coo = matrix(family, nnz, &mut self.rng);
            if self.shapes.insert((coo.rows(), coo.cols(), coo.nnz())) {
                return coo;
            }
            nnz += 1 + nnz / 100;
        }
    }

    fn uniform(&mut self, family: Family, lo: usize, hi: usize) -> Coo {
        let nnz = self.rng.range(lo, hi);
        self.draw(family, nnz)
    }

    /// Request `k` of `n` large ones: sizes follow a fixed low-discrepancy
    /// ladder over `lo..hi` with a seeded jitter inside each rung, so every
    /// seed sends the same size mix and only the matrices differ.
    fn laddered(&mut self, family: Family, k: usize, n: usize, lo: usize, hi: usize) -> Coo {
        let jitter = self.rng.unit() / n as f64;
        let t = (k as f64 * 0.618_033_988_75 + jitter).fract();
        self.draw(family, lo + ((hi - lo) as f64 * t) as usize)
    }

    fn light(&mut self) -> Req {
        let coo = self.uniform(Family::Random, LIGHT_NNZ.0, LIGHT_NNZ.1);
        Req::fresh(Class::Light, coo, Enc::Inline)
    }

    fn lights(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.light()).collect()
    }
}

/// The collection matrices small enough for small requests, by name; the
/// first one is the warm-up.
fn small_collection() -> Vec<(String, Arc<Coo>)> {
    let mut entries: Vec<(String, Arc<Coo>)> = generate(&CollectionSpec::default())
        .into_iter()
        .filter(|e| e.matrix.nnz() <= 10_000)
        .map(|e| (e.name, Arc::new(e.matrix)))
        .collect();
    entries.sort_by_key(|(name, m)| (m.nnz(), name.clone()));
    entries
}

fn collection_req((name, coo): &(String, Arc<Coo>)) -> Req {
    Req {
        class: Class::Main,
        body: Body::Collection {
            name: name.clone(),
            coo: coo.clone(),
        },
        repeat_of: None,
        kind: 0,
    }
}

/// Builds a workload's script. `scale` multiplies the amount of traffic
/// (1 at the benchmark's run length).
pub fn plan(name: &str, seed: u64, scale: f64) -> Option<Plan> {
    let count = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let collection = small_collection();
    let mut src = Source {
        rng: Rng::new(seed ^ fnv(name)),
        shapes: HashSet::new(),
    };
    let alone = src.lights(ALONE);
    let warm_up = collection_req(&collection[0]);
    let (topo, shape, sessions) = match name {
        // Large distinct matrices, payload rotating through mtx, inline
        // JSON and binary frames, each followed by a burst of light ones.
        "large_single" => {
            let mut reqs = Vec::new();
            let n = count(30);
            for i in 0..n {
                let coo = src.laddered(FAMILIES[i % 3], i, n, 100_000, 300_000);
                let enc = [Enc::Mtx, Enc::Inline, Enc::Binary][(i / 3) % 3];
                reqs.push(Req::fresh(Class::Main, coo, enc).of_kind(i % 9));
                reqs.extend(src.lights(LIGHT_BURST));
            }
            (Topo::Single { threads: nproc() }, Shape::Closed, vec![reqs])
        }
        // A heavy session of ~10⁵-nonzero requests next to a light one
        // that sends one small request into each heavy job. The heavy
        // ones are random and power-law matrices, whose jobs outlast the
        // light session's delay; a Laplacian job of this size may not.
        "mixed_sessions" => {
            let n = count(30);
            let heavy = (0..n)
                .map(|i| {
                    let family = [Family::Random, Family::PowerLaw][i % 2];
                    let coo = src.laddered(family, i, n, 80_000, 120_000);
                    Req::fresh(Class::Main, coo, Enc::Inline).of_kind(i % 2)
                })
                .collect();
            let light = src.lights(n);
            (
                Topo::Single { threads: nproc() },
                Shape::Concurrent(LIGHT_DELAY),
                vec![heavy, light],
            )
        }
        // Many small requests in flight: fresh inline matrices (40 %),
        // repeats of recent ones (20 %), collection names (10 %), pings
        // (10 %) and light requests (20 %). The mix and the window of 8
        // are assumed, not measured traffic; the README records how the
        // results move with the window and the repeat share.
        "small_pipelined" => {
            let mut reqs: Vec<Req> = Vec::new();
            let mut fresh: Vec<usize> = Vec::new();
            let mut named: HashMap<usize, usize> = HashMap::new();
            let n = count(2600);
            for i in 0..n {
                // Every 10th request names one of a few collection matrices
                // in turn, so each is asked for again every 60 requests, long
                // before the service's 128-entry cache could evict it.
                let req = if i % 10 == 9 {
                    let pick = 1 + (i / 10 % NAMES) * (collection.len() - 1) / NAMES;
                    let mut req = collection_req(&collection[pick]);
                    req.repeat_of = named.get(&pick).copied();
                    named.entry(pick).or_insert(reqs.len());
                    req
                } else {
                    match src.rng.below(9) {
                        0..=3 => {
                            let k = fresh.len();
                            fresh.push(reqs.len());
                            let coo = src.laddered(FAMILIES[k % 3], k, n, 1_000, 10_000);
                            Req::fresh(Class::Main, coo, Enc::Inline).of_kind(k % 3)
                        }
                        // Repeats stay within the last 48 fresh requests:
                        // with the light ones and the names in between,
                        // well inside the cache.
                        4..=5 if !fresh.is_empty() => {
                            let back = src.rng.below(fresh.len().min(48) as u64) as usize;
                            let of = fresh[fresh.len() - 1 - back];
                            Req {
                                repeat_of: Some(of),
                                ..reqs[of].clone()
                            }
                        }
                        6 => Req {
                            class: Class::Main,
                            body: Body::Ping,
                            repeat_of: None,
                            kind: 0,
                        },
                        _ => src.light(),
                    }
                };
                reqs.push(req);
            }
            (
                Topo::Single { threads: nproc() },
                Shape::Pipelined(8),
                vec![reqs],
            )
        }
        // Large JSON lines through a router, each sent twice so the second
        // copy is answered from the router's cache. The copies form their
        // own class: mixed into the main one, they would put its median
        // between two clusters.
        "routed_large" => {
            let mut reqs = Vec::new();
            let n = count(22);
            for i in 0..n {
                let coo = src.laddered(FAMILIES[i % 3], i, n, 100_000, 200_000);
                let enc = [Enc::Mtx, Enc::Inline][(i / 3) % 2];
                let first = reqs.len();
                let req = Req::fresh(Class::Main, coo, enc).of_kind(i % 6);
                reqs.push(req.clone());
                reqs.push(Req {
                    class: Class::Repeat,
                    repeat_of: Some(first),
                    ..req
                });
                reqs.extend(src.lights(LIGHT_BURST));
            }
            (Topo::Routed { shards: 2 }, Shape::Closed, vec![reqs])
        }
        _ => return None,
    };
    let mut streams = vec![alone];
    streams.extend(sessions);
    Some(Plan {
        topo,
        shape,
        warm_up,
        streams,
    })
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Requests that can carry a trace field: JSON-borne partition requests.
pub fn traceable(req: &Req) -> bool {
    !req.is_binary() && !matches!(req.body, Body::Ping)
}

/// In a traced run, every other traceable request of each class and kind
/// is traced, and a repeat follows the request it repeats; the rest
/// measure the same traffic mix untraced.
fn traced_flags(reqs: &[Req]) -> Vec<bool> {
    let mut seen: HashMap<(bool, u8), usize> = HashMap::new();
    let mut flags: Vec<bool> = Vec::with_capacity(reqs.len());
    for req in reqs {
        let flag = match req.repeat_of {
            Some(j) => flags[j],
            None if traceable(req) => {
                let n = seen
                    .entry((req.class == Class::Light, req.kind))
                    .or_default();
                *n += 1;
                *n % 2 == 1
            }
            None => false,
        };
        flags.push(flag);
    }
    flags
}

fn tickets(stream: usize, reqs: &[Req], traced: bool) -> Vec<Ticket> {
    let flags = traced_flags(reqs);
    (0..reqs.len())
        .map(|index| Ticket {
            stream,
            index,
            id: index as u64 + 1,
            trace: (traced && flags[index]).then(|| WireTrace {
                trace_id: next_trace_id(),
                parent: next_span_id(),
            }),
        })
        .collect()
}

/// One request in flight.
fn closed_loop(
    conns: &mut [Conn],
    stream: usize,
    reqs: &[Req],
    traced: bool,
) -> io::Result<Vec<Exchange>> {
    reqs.iter()
        .zip(tickets(stream, reqs, traced))
        .map(|(req, ticket)| {
            let conn = &mut conns[usize::from(req.is_binary())];
            round_trip(conn, req, ticket, || ())
        })
        .collect()
}

/// Sends the light requests `range` of stream 0 alone, one at a time with
/// a pause before each, on their own connection.
pub fn alone(plan: &Plan, running: &Running, range: Range<usize>) -> io::Result<Vec<Exchange>> {
    let mut conn = Conn::connect(running.addr)?;
    let reqs = &plan.streams[0];
    let tickets = tickets(0, reqs, false);
    range
        .map(|i| {
            std::thread::sleep(ALONE_PAUSE);
            round_trip(&mut conn, &reqs[i], tickets[i], || ())
        })
        .collect()
}

/// Runs the traffic sessions; returns their exchanges and the seconds
/// from the first request sent to the last response received.
pub fn traffic(plan: &Plan, running: &Running, traced: bool) -> io::Result<(Vec<Exchange>, f64)> {
    match plan.shape {
        Shape::Closed => {
            let mut conns = vec![Conn::connect(running.addr)?];
            if plan.streams[1].iter().any(Req::is_binary) {
                let mut binary = Conn::connect(running.addr)?;
                binary.hello_binary()?;
                conns.push(binary);
            }
            let t0 = Instant::now();
            let out = closed_loop(&mut conns, 1, &plan.streams[1], traced)?;
            Ok((out, t0.elapsed().as_secs_f64()))
        }
        Shape::Pipelined(window) => {
            let conn = Conn::connect(running.addr)?;
            let reqs = &plan.streams[1];
            let tickets = tickets(1, reqs, traced);
            let t0 = Instant::now();
            let out = pipelined(conn, reqs, &tickets, window)?;
            Ok((out, t0.elapsed().as_secs_f64()))
        }
        Shape::Concurrent(delay) => {
            let mut heavy = Conn::connect(running.addr)?;
            let mut light = Conn::connect(running.addr)?;
            let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
            let t0 = Instant::now();
            let (a, b) = std::thread::scope(|scope| {
                let h = scope.spawn(move || {
                    let reqs = &plan.streams[1];
                    reqs.iter()
                        .zip(tickets(1, reqs, traced))
                        .map(|(req, ticket)| {
                            round_trip(&mut heavy, req, ticket, || {
                                let _ = sent_tx.send(Instant::now());
                            })
                        })
                        .collect::<io::Result<Vec<_>>>()
                });
                let reqs = &plan.streams[2];
                let pairs = reqs.iter().zip(tickets(2, reqs, traced));
                let l = pairs
                    .zip(sent_rx.iter())
                    .map(|((req, ticket), sent)| {
                        std::thread::sleep(
                            (sent + delay).saturating_duration_since(Instant::now()),
                        );
                        round_trip(&mut light, req, ticket, || ())
                    })
                    .collect::<io::Result<Vec<_>>>();
                (h.join().expect("heavy session panicked"), l)
            });
            let secs = t0.elapsed().as_secs_f64();
            let mut out = a?;
            out.extend(b?);
            Ok((out, secs))
        }
    }
}
