//! The repository benchmark: drives the real `mg_server` service and the
//! `mg_router` router in-process over loopback TCP, checks every response,
//! and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload large_single --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run. See
//! `perfbench/README.md` for the metrics and how to read them.

mod check;
mod client;
mod gen;
mod probes;
mod spans;
mod stats;
mod topology;
mod workloads;

use client::Exchange;
use gen::{Body, Class};
use mg_obs::{phase_stats, registry};
use stats::{geomean, mean, median, tail};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{plan, Plan, WORKLOADS};

/// The run length the scripts are sized for; `--seconds` scales them.
const NOMINAL_SECONDS: f64 = 20.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let args = Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Ordered `name → (value, unit)` metrics.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (k, (name, value, unit)) in metrics.0.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}").expect("string");
    }
    out.push_str("}}");
    out
}

/// Requests counted as failed: those that failed their output check, plus
/// one for each router failover and each span the traced run lost, both
/// of which must be 0. At most `attempted`.
fn failures(attempted: usize, ok: usize, failovers: u64, spans_dropped: u64) -> usize {
    let extra = usize::try_from(failovers + spans_dropped).unwrap_or(usize::MAX);
    (attempted - ok).saturating_add(extra).min(attempted)
}

/// A `/proc/self/status` field given in kB, in MB; 0 where there is none.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's resident-set high-water mark (`VmHWM`) to its
/// current resident set and returns that, in MB, so that a peak read later
/// counts only what the process grew by from here.
fn reset_peak_rss() -> f64 {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak resident set: {e}");
    }
    status_mb("VmRSS:")
}

fn phase_snapshot() -> Vec<(u64, f64)> {
    spans::PHASES.iter().map(|p| phase_stats(p)).collect()
}

fn router_cache_hits() -> u64 {
    registry()
        .counter("mgpart_router_cache_hits_total", &[])
        .get()
}

/// Everything one run measured, before it is turned into metrics.
struct Run {
    setup_secs: Vec<f64>,
    /// The light requests sent alone, half before the traffic and half
    /// after it.
    alone: Vec<Exchange>,
    traffic: Vec<Exchange>,
    traffic_secs: f64,
    phases: Vec<(u64, f64)>,
    router_hits: u64,
    failovers: u64,
    drained: Option<spans::Drained>,
    /// How far this process (which hosts the system) grew its resident set
    /// from just before set-up to its peak at the end of the traffic,
    /// before any probe runs. The script built earlier is not in it; the
    /// responses kept for checking are.
    peak_rss_mb: f64,
}

fn execute(plan: &Plan, traced: bool) -> std::io::Result<Run> {
    let rss_before = reset_peak_rss();
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut running = None;
    for _ in 0..repeats {
        if let Some(previous) = running.take() {
            topology::Running::stop(previous);
        }
        let (r, secs) = topology::setup(plan.topo, &plan.warm_up)?;
        setup_secs.push(secs);
        running = Some(r);
    }
    let running = running.expect("at least one set-up");
    let body = || -> std::io::Result<Run> {
        let lights = plan.streams[0].len();
        let mut alone = workloads::alone(plan, &running, 0..lights / 2)?;
        let phases0 = phase_snapshot();
        let hits0 = router_cache_hits();
        let drain = traced.then(spans::Drain::start);
        let traffic = workloads::traffic(plan, &running, traced);
        let drained = drain.map(spans::Drain::finish);
        let (traffic, traffic_secs) = traffic?;
        let phases = phase_snapshot()
            .iter()
            .zip(phases0)
            .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
            .collect();
        let router_hits = router_cache_hits() - hits0;
        let peak_rss_mb = status_mb("VmHWM:") - rss_before;
        alone.extend(workloads::alone(plan, &running, lights / 2..lights)?);
        Ok(Run {
            setup_secs: setup_secs.clone(),
            alone,
            traffic,
            traffic_secs,
            phases,
            router_hits,
            failovers: running.failovers(),
            drained,
            peak_rss_mb,
        })
    };
    let run = body();
    running.stop();
    run
}

/// Per-exchange verification results.
struct Checked {
    ok: usize,
    /// What each partition response that passed reported, by
    /// `(stream, index)`.
    verified: HashMap<(usize, usize), check::Verified>,
}

fn verify(plan: &Plan, run: &Run) -> Checked {
    let all: Vec<&Exchange> = run.alone.iter().chain(&run.traffic).collect();
    let by_key: HashMap<(usize, usize), &Exchange> =
        all.iter().map(|e| ((e.stream, e.index), *e)).collect();
    let mut checked = Checked {
        ok: 0,
        verified: HashMap::new(),
    };
    for ex in &all {
        let req = &plan.streams[ex.stream][ex.index];
        let first = req
            .repeat_of
            .and_then(|j| by_key.get(&(ex.stream, j)))
            .map(|e| e.response.as_slice());
        if req.repeat_of.is_some() && first.is_none() {
            eprintln!(
                "stream {} request {}: repeat of a missing response",
                ex.stream, ex.index
            );
            continue;
        }
        match check::check(req, ex.id, &ex.response, first) {
            Ok(v) => {
                checked.ok += 1;
                if let Some(v) = v {
                    checked.verified.insert((ex.stream, ex.index), v);
                }
            }
            Err(e) => eprintln!(
                "stream {} request {} (repeat of {:?}): {e}",
                ex.stream, ex.index, req.repeat_of
            ),
        }
    }
    checked
}

fn latencies<'a>(exchanges: impl Iterator<Item = &'a Exchange>) -> Vec<f64> {
    exchanges.map(|e| e.timing.latency_ms()).collect()
}

/// Mean per-request breakdown of one class, in ms, for the reader.
fn summary(of_class: &[&spans::Breakdown]) -> String {
    let avg = |f: fn(&spans::Breakdown) -> f64| {
        mean(&of_class.iter().map(|b| f(b)).collect::<Vec<_>>()) / 1e3
    };
    format!(
        "n={} total={:.2} read={:.2} router={:.2} decode={:.2} queue_wait={:.2} \
         execute={:.2} phases={:.2} encode={:.2} write={:.2} unattributed={:.2}",
        of_class.len(),
        avg(|b| b.total),
        avg(|b| b.read),
        avg(|b| b.router_request - b.dispatch),
        avg(|b| b.decode),
        avg(|b| b.queue_wait),
        avg(|b| b.execute),
        avg(|b| b.phases.iter().sum()),
        avg(|b| b.encode),
        avg(|b| b.write),
        avg(|b| b.unattributed),
    )
}

fn deciles(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (1..10)
        .filter_map(|d| v.get(d * v.len() / 10))
        .map(|x| format!("{x:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn class_of(plan: &Plan, e: &Exchange) -> Class {
    plan.streams[e.stream][e.index].class
}

fn end_to_end(plan: &Plan, run: &Run, checked: &Checked, m: &mut Metrics) {
    let main = latencies(
        run.traffic
            .iter()
            .filter(|e| class_of(plan, e) == Class::Main),
    );
    let light = latencies(
        run.traffic
            .iter()
            .filter(|e| class_of(plan, e) == Class::Light),
    );
    let alone = latencies(run.alone.iter());
    let computed: Vec<&check::Verified> = run
        .traffic
        .iter()
        .filter_map(|e| checked.verified.get(&(e.stream, e.index)))
        .filter(|v| !v.cached)
        .collect();
    let nnz: usize = computed.iter().map(|v| v.nnz).sum();
    let volumes: Vec<u64> = computed.iter().map(|v| v.volume).collect();
    let (main_tail, main_pct) = tail(&main).unwrap_or_default();
    let (light_tail, light_pct) = tail(&light).unwrap_or_default();
    println!(
        "latency_tail_ms is p{main_pct:.1} of {} main requests; light_latency_tail_ms is \
         p{light_pct:.1} of {} light requests; the light-alone p50 is over {} requests",
        main.len(),
        light.len(),
        alone.len()
    );
    for (class, values) in [("main", &main), ("light", &light), ("light alone", &alone)] {
        println!("{class} latency deciles (ms): {}", deciles(values));
    }
    m.add("setup_s", median(&run.setup_secs), "s");
    m.add(
        "throughput_rps",
        run.traffic.len() as f64 / run.traffic_secs,
        "1/s",
    );
    m.add(
        "throughput_nnz_per_s",
        nnz as f64 / run.traffic_secs,
        "nnz/s",
    );
    m.add("latency_p50_ms", median(&main), "ms");
    m.add("latency_tail_ms", main_tail, "ms");
    m.add("light_latency_p50_ms", median(&light), "ms");
    m.add("light_latency_tail_ms", light_tail, "ms");
    m.add("light_slowdown", median(&light) / median(&alone), "ratio");
    m.add("comm_volume_geomean", geomean(&volumes), "count");
}

/// Adds the per-layer metrics; returns the spans the traced run lost.
fn per_layer(
    plan: &Plan,
    run: &Run,
    checked: &Checked,
    probes: &probes::Probes,
    m: &mut Metrics,
) -> u64 {
    let mb = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    let per = |us: f64, n: usize| if n == 0 { 0.0 } else { us / 1e3 / n as f64 };
    let (lines_us, lines_b, lines_n) = probes.scan_lines;
    let (frames_us, frames_b, frames_n) = probes.scan_frames;
    m.add(
        "codec.scan_ms",
        per(lines_us + frames_us, lines_n + frames_n),
        "ms",
    );
    m.add(
        "codec.scan_mb_per_s",
        mb(lines_b + frames_b) / ((lines_us + frames_us) / 1e6),
        "MB/s",
    );
    let ms_per_mb = |us: f64, b: usize| if b == 0 { 0.0 } else { us / 1e3 / mb(b) };
    m.add(
        "codec.scan_ms_per_mb.lines",
        ms_per_mb(lines_us, lines_b),
        "ms/MB",
    );
    m.add(
        "codec.scan_ms_per_mb.frames",
        ms_per_mb(frames_us, frames_b),
        "ms/MB",
    );
    m.add(
        "protocol.decode_ms",
        per(probes.decode_us, probes.decode_units),
        "ms",
    );
    m.add(
        "protocol.decode_mb_per_s",
        mb(probes.decode_bytes) / (probes.decode_us / 1e6),
        "MB/s",
    );
    m.add(
        "core.payload_ms",
        per(probes.payload_us, probes.payload_units),
        "ms",
    );
    m.add(
        "core.bipartition_ms",
        per(probes.bipartition_us, probes.bipartition_calls),
        "ms",
    );
    m.add(
        "core.bipartition_nnz_per_s",
        probes.bipartition_nnz as f64 / (probes.bipartition_us / 1e6),
        "nnz/s",
    );

    let computed = run
        .traffic
        .iter()
        .filter_map(|e| checked.verified.get(&(e.stream, e.index)))
        .filter(|v| !v.cached)
        .count();
    for (name, (count, secs)) in spans::PHASES.iter().zip(&run.phases) {
        m.add(&format!("phase.{name}_ms"), per(secs * 1e6, computed), "ms");
        m.add(&format!("phase.{name}.count"), *count as f64, "count");
    }

    let drained = run.drained.as_ref().expect("traced runs drain spans");
    let traces = spans::by_trace(&drained.spans);
    let traced: Vec<(Class, Option<spans::Breakdown>)> = run
        .traffic
        .iter()
        .filter(|e| e.trace.is_some())
        .map(|e| (class_of(plan, e), spans::breakdown(e, &traces)))
        .collect();
    let dropped = spans::dropped(drained, traced.iter().map(|(_, b)| b));
    let breakdowns: Vec<spans::Breakdown> = traced.iter().filter_map(|(_, b)| *b).collect();
    for class in [Class::Main, Class::Light] {
        let of_class: Vec<&spans::Breakdown> = traced
            .iter()
            .filter(|(c, _)| *c == class)
            .filter_map(|(_, b)| b.as_ref())
            .collect();
        println!("{class:?} traced requests: {}", summary(&of_class));
    }
    let avg =
        |f: fn(&spans::Breakdown) -> f64| mean(&breakdowns.iter().map(f).collect::<Vec<_>>()) / 1e3;
    m.add("service.read_ms", avg(|b| b.read), "ms");
    m.add("service.decode_ms", avg(|b| b.decode), "ms");
    m.add("service.queue_wait_ms", avg(|b| b.queue_wait), "ms");
    m.add("service.execute_ms", avg(|b| b.execute), "ms");
    m.add("service.encode_ms", avg(|b| b.encode), "ms");
    m.add("service.request_ms", avg(|b| b.request), "ms");
    m.add("service.write_ms", avg(|b| b.write), "ms");
    let partition_responses: Vec<&check::Verified> = run
        .traffic
        .iter()
        .filter_map(|e| checked.verified.get(&(e.stream, e.index)))
        .collect();
    let hits = partition_responses.iter().filter(|v| v.cached).count();
    let ratio = |n: u64| {
        if partition_responses.is_empty() {
            0.0
        } else {
            n as f64 / partition_responses.len() as f64
        }
    };
    m.add("service.cache_hit_ratio", ratio(hits as u64), "ratio");
    m.add("router.request_ms", avg(|b| b.router_request), "ms");
    m.add("router.cache_lookup_ms", avg(|b| b.cache_lookup), "ms");
    m.add("router.route_ms", avg(|b| b.route), "ms");
    m.add("router.dispatch_ms", avg(|b| b.dispatch), "ms");
    m.add("router.self_ms", avg(|b| b.router_self), "ms");
    m.add("router.cache_hit_ratio", ratio(run.router_hits), "ratio");
    m.add("router.failovers", run.failovers as f64, "count");

    let client_avg =
        |f: fn(&Exchange) -> f64| mean(&run.traffic.iter().map(f).collect::<Vec<_>>()) / 1e3;
    m.add("client.encode_ms", client_avg(|e| e.timing.encode_us), "ms");
    m.add("client.send_ms", client_avg(|e| e.timing.send_us), "ms");
    m.add("client.wait_ms", client_avg(|e| e.timing.wait_us), "ms");
    m.add("client.recv_ms", client_avg(|e| e.timing.recv_us), "ms");
    m.add(
        "client.bytes_out",
        run.traffic.iter().map(|e| e.bytes_out).sum::<usize>() as f64,
        "bytes",
    );
    m.add(
        "client.bytes_in",
        run.traffic.iter().map(|e| e.bytes_in).sum::<usize>() as f64,
        "bytes",
    );

    let main_traceable = |e: &&Exchange| {
        let req = &plan.streams[e.stream][e.index];
        req.class == Class::Main && workloads::traceable(req)
    };
    let on = latencies(
        run.traffic
            .iter()
            .filter(main_traceable)
            .filter(|e| e.trace.is_some()),
    );
    let off = latencies(
        run.traffic
            .iter()
            .filter(main_traceable)
            .filter(|e| e.trace.is_none()),
    );
    m.add(
        "obs.tracing_overhead",
        median(&on) / median(&off) - 1.0,
        "ratio",
    );
    m.add("obs.spans_dropped", dropped as f64, "count");
    let total: f64 = breakdowns.iter().map(|b| b.total).sum();
    let unattributed: f64 = breakdowns.iter().map(|b| b.unattributed).sum();
    m.add("unattributed_fraction", unattributed / total, "ratio");
    m.add("peak_rss_mb", run.peak_rss_mb, "MB");
    dropped
}

fn run_probes(plan: &Plan, run: &Run, checked: &Checked) -> Result<probes::Probes, String> {
    let mut p = probes::Probes::default();
    for reqs in &plan.streams[1..] {
        probes::replay(reqs, &mut p)?;
    }
    let jobs: Vec<(&gen::Req, u64, u64)> = run
        .traffic
        .iter()
        .filter_map(|e| {
            let v = checked.verified.get(&(e.stream, e.index))?;
            let req = &plan.streams[e.stream][e.index];
            (!v.cached && matches!(req.body, Body::Matrix { .. }))
                .then_some((req, v.seed, v.volume))
        })
        .collect();
    probes::bipartition(&jobs, &mut p)?;
    Ok(p)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = args.seconds / NOMINAL_SECONDS;
    let plan = plan(&args.workload, args.seed, scale).expect("workload name was validated");
    let attempted: usize = plan.streams.iter().map(Vec::len).sum();
    let run = match execute(&plan, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            println!(
                "{}",
                result_line(false, attempted, attempted, &Metrics::default())
            );
            return ExitCode::FAILURE;
        }
    };
    let checked = verify(&plan, &run);
    let mut metrics = Metrics::default();
    let mut probe_failed = false;
    let mut spans_dropped = 0;
    if args.trace {
        let probes = run_probes(&plan, &run, &checked).unwrap_or_else(|e| {
            eprintln!("perfbench: layer probe failed: {e}");
            probe_failed = true;
            probes::Probes::default()
        });
        spans_dropped = per_layer(&plan, &run, &checked, &probes, &mut metrics);
    } else {
        end_to_end(&plan, &run, &checked, &mut metrics);
    }
    if run.failovers > 0 {
        eprintln!(
            "perfbench: the router failed over {} requests",
            run.failovers
        );
    }
    if spans_dropped > 0 {
        eprintln!("perfbench: the traced run lost {spans_dropped} spans");
    }
    let failed = (failures(attempted, checked.ok, run.failovers, spans_dropped)
        + usize::from(probe_failed))
    .min(attempted);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use spans::{dropped, Breakdown, Drained};

    #[test]
    fn a_lost_span_or_a_failover_fails_the_run() {
        let drained = |lost| Drained {
            spans: Vec::new(),
            lost,
        };
        let complete = [Some(Breakdown::default()); 3];
        assert_eq!(failures(10, 10, 0, dropped(&drained(0), &complete)), 0);
        // A span evicted from the ring before it was read.
        assert_eq!(failures(10, 10, 0, dropped(&drained(1), &complete)), 1);
        // A traced request whose root span never arrived.
        let missing = [Some(Breakdown::default()), None];
        assert_eq!(failures(10, 10, 0, dropped(&drained(0), &missing)), 1);
        // A request the router moved off its primary shard.
        assert_eq!(failures(10, 10, 1, 0), 1);
        assert_eq!(failures(10, 8, 0, 0), 2);
        assert_eq!(failures(10, 5, 4, 9), 10);
    }
}
