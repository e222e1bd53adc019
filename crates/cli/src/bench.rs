//! `mgpart bench` — the wire-path benchmark harness (the BENCH
//! trajectory).
//!
//! Drives in-process serve sessions over both wire codecs and emits
//! machine-readable JSON (`{"schema":"mgpart-bench/v1", ...}`) so CI can
//! diff trajectories.
//!
//! Two modes:
//!
//! * default run: measure every pipe workload under both codecs and
//!   print a table (`--json` / `-o FILE` for the JSON document instead);
//!   the run ends with the *compute trajectory* — fresh large inline
//!   partitions per backend, sized so the partitioner phases (not the
//!   wire) dominate, summarised in the document's `compute` block;
//! * `--validate FILE`: schema-check a bench document and enforce the
//!   trajectory gates (binary beats JSON on bytes for inline payloads,
//!   on throughput for the decode-bound cached workload, and — for a
//!   document carrying a compute `improvement` block, like the committed
//!   `BENCH_9.json` — the kernel-speedup gate).
//!   `--against COMMITTED` additionally compares the validated
//!   document's compute-phase *shares* to the committed trajectory file
//!   within a tolerance band, so CI catches per-phase regressions
//!   without depending on wall-clock absolutes.

use crate::args::Parsed;
use mg_collection::{CollectionScale, CollectionSpec};
use mg_server::codec::{encode_frame, json_payload, partition_payload};
use mg_server::json::obj;
use mg_server::{parse_request_line, Json, Service, ServiceConfig};
use mg_sparse::{gen, Coo, Idx};
use std::sync::Arc;
use std::time::Instant;

const SCHEMA: &str = "mgpart-bench/v1";
const TRAJECTORY: u64 = 9;
const HELLO_BINARY: &str = "{\"id\":\"bench\",\"op\":\"hello\",\"codec\":\"binary\"}";

/// The workloads every codec is measured on. `inline` is fresh compute
/// over distinct inline-COO matrices; `inline_cached` repeats one large
/// inline matrix so the cache answers everything after the first request
/// and the wire + decode path dominates; `collection` names server-side
/// matrices (tiny requests); `ping` is pure protocol overhead.
const PIPE_WORKLOADS: &[&str] = &["inline", "inline_cached", "collection", "ping"];

/// The backends the compute trajectory partitions fresh large matrices
/// through (one preset with boundary FM off, one with it on, so both FM
/// seeding disciplines are measured).
const COMPUTE_BACKENDS: &[&str] = &["mondriaan", "patoh"];

/// The phases the kernel-speedup gate is allowed to count: the three hot
/// loops of the raw-speed pass (ROADMAP "part 2"). A committed document
/// carrying a compute `improvement` block must show ≥ [`GATE_SPEEDUP`]×
/// on at least [`GATE_PHASES_REQUIRED`] of them.
const GATE_PHASES: &[&str] = &["medium_grain_build", "fm_refinement", "volume_count"];
const GATE_SPEEDUP: f64 = 1.3;
const GATE_PHASES_REQUIRED: usize = 2;

/// Minimum fraction of compute-trajectory phase seconds that must land in
/// the gate phases: proves the workloads are sized so the hot kernels
/// (not coarsest-level initial partitioning) dominate.
const COMPUTE_HOT_MIN: f64 = 0.25;

/// Tolerance band of the `--against` share comparison: a phase's share of
/// compute time may exceed the committed document's share by at most
/// `share * SHARE_BAND_FACTOR + SHARE_BAND_FLOOR`. Shares are
/// machine-speed independent, so this catches a kernel regressing
/// relative to its siblings without gating on wall-clock absolutes.
const SHARE_BAND_FACTOR: f64 = 2.0;
const SHARE_BAND_FLOOR: f64 = 0.10;

struct BenchConfig {
    requests: u64,
    threads: usize,
    quick: bool,
}

/// One measured pipe session (every row travels the in-process pipe).
struct Row {
    workload: String,
    codec: &'static str,
    requests: u64,
    responses: u64,
    seconds: f64,
    bytes_out: u64,
    bytes_in: u64,
    cache_hits: u64,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.seconds.max(1e-9)
    }
}

pub fn bench(parsed: &Parsed) -> Result<(), String> {
    if let Some(path) = parsed.flag_opt("--validate") {
        return validate_file(&path, parsed.flag_opt("--against").as_deref());
    }
    let quick = parsed.has("--quick");
    let config = BenchConfig {
        requests: parsed.flag_parse("--requests", if quick { 24 } else { 96 })?,
        threads: parsed.flag_parse("--threads", 0usize)?,
        quick,
    };
    if config.requests == 0 {
        return Err("--requests must be at least 1".into());
    }

    // Snapshot the per-phase timing histograms (paper Fig. 5) so the
    // document reports the compute breakdown of exactly this run.
    let phase_before = phase_snapshot();

    let mut rows: Vec<Row> = Vec::new();
    for &workload in PIPE_WORKLOADS {
        let lines = workload_lines(workload, &config);
        for codec in ["json", "binary"] {
            rows.push(pipe_run(&config, workload, codec, &lines));
        }
    }

    // The compute trajectory: fresh large inline partitions per backend,
    // snapshotting the phase histograms around exactly these cells so the
    // `compute` block reports a wire-free kernel profile.
    let compute_before = phase_snapshot();
    let compute_rows: Vec<Row> = COMPUTE_BACKENDS
        .iter()
        .map(|backend| {
            let lines = compute_lines(backend, &config);
            pipe_run(&config, &format!("compute_{backend}"), "binary", &lines)
        })
        .collect();
    let compute = compute_json(&compute_rows, &compute_before);
    rows.extend(compute_rows);

    let phases = phase_deltas(&phase_before)
        .into_iter()
        .map(|(p, c, s)| phase_entry(p, c, s))
        .collect();
    let document = render_document(&config, &rows, phases, compute);
    if let Some(path) = parsed.flag_opt("-o") {
        std::fs::write(&path, format!("{document}\n"))
            .map_err(|e| format!("writing {path}: {e}"))?;
        mg_obs::log::info(
            "bench_written",
            &[("path", path.as_str().into()), ("rows", rows.len().into())],
        );
    } else if parsed.has("--json") {
        println!("{document}");
    } else {
        print_table(&rows);
    }
    Ok(())
}

fn fresh_service(threads: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        threads,
        collection: CollectionSpec {
            seed: 11,
            scale: CollectionScale::Smoke,
        },
        ..ServiceConfig::default()
    })
}

fn inline_json(a: &Coo) -> String {
    let entries: Vec<String> = a.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!(
        "{{\"rows\":{},\"cols\":{},\"entries\":[{}]}}",
        a.rows(),
        a.cols(),
        entries.join(",")
    )
}

/// The request lines of one workload (ids increase, keys as described on
/// [`PIPE_WORKLOADS`]).
fn workload_lines(workload: &str, config: &BenchConfig) -> Vec<String> {
    let n = config.requests;
    match workload {
        // Distinct matrices → every request computes. Dimensions vary
        // per request so the keyspace is spread but each job stays small.
        "inline" => (0..n.min(if config.quick { 16 } else { 48 }))
            .map(|r| {
                let a = gen::laplacian_2d(16 + r as Idx, 18);
                format!("{{\"id\":{r},\"matrix\":{},\"seed\":5}}", inline_json(&a))
            })
            .collect(),
        // One big inline matrix repeated: request 0 computes, the rest
        // hit the cache — wire bytes and request decode dominate, which
        // is exactly what the codecs differ on.
        "inline_cached" => {
            let a = gen::laplacian_2d(48, 48);
            let payload = inline_json(&a);
            (0..2 * n)
                .map(|r| format!("{{\"id\":{r},\"matrix\":{payload},\"seed\":5}}"))
                .collect()
        }
        "collection" => (0..n)
            .map(|r| {
                let name = ["laplace2d_00_k20", "arrow_00_n287_b2"][(r % 2) as usize];
                format!("{{\"id\":{r},\"matrix\":{{\"collection\":{name:?}}},\"seed\":3}}")
            })
            .collect(),
        "ping" => (0..8 * n)
            .map(|r| format!("{{\"id\":{r},\"op\":\"ping\"}}"))
            .collect(),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The request lines of one compute-trajectory cell: fresh large 2D
/// Laplacians (distinct dimensions per request, so every request computes)
/// partitioned through an explicit backend. Sized so `medium_grain_build`,
/// `fm_refinement` and `volume_count` dominate the phase profile — the
/// wire carries a few hundred KB but the partitioner does the work.
fn compute_lines(backend: &str, config: &BenchConfig) -> Vec<String> {
    let (count, base) = if config.quick {
        (5u32, 120)
    } else {
        (8u32, 144)
    };
    (0..count)
        .map(|r| {
            let k = (base + r) as Idx;
            let a = gen::laplacian_2d(k, k);
            format!(
                "{{\"id\":{r},\"matrix\":{},\"seed\":7,\"backend\":\"{backend}\"}}",
                inline_json(&a)
            )
        })
        .collect()
}

/// `(count, seconds)` recorded so far for every phase of
/// [`mg_obs::PHASES`], in order.
fn phase_snapshot() -> Vec<(u64, f64)> {
    mg_obs::PHASES
        .iter()
        .map(|p| mg_obs::phase_stats(p))
        .collect()
}

/// Per-phase `(phase, count, seconds)` recorded since `before`, a
/// [`phase_snapshot`]: deltas of the global `mgpart_phase_seconds`
/// histograms (paper Fig. 5).
fn phase_deltas(before: &[(u64, f64)]) -> Vec<(&'static str, u64, f64)> {
    mg_obs::PHASES
        .iter()
        .zip(before)
        .map(|(phase, (count_before, seconds_before))| {
            let (count_now, seconds_now) = mg_obs::phase_stats(phase);
            (
                *phase,
                count_now.saturating_sub(*count_before),
                (seconds_now - seconds_before).max(0.0),
            )
        })
        .collect()
}

/// Renders one phase-delta array entry.
fn phase_entry(phase: &str, count: u64, seconds: f64) -> Json {
    obj(vec![
        ("phase", Json::Str(phase.into())),
        ("count", Json::UInt(count)),
        ("seconds", Json::Num(seconds)),
        ("mean_seconds", Json::Num(seconds / count.max(1) as f64)),
    ])
}

/// The `compute` block: per-backend cells, the phase deltas of exactly
/// those cells, and the hot-phase fraction.
fn compute_json(rows: &[Row], before: &[(u64, f64)]) -> Json {
    let deltas = phase_deltas(before);
    let total: f64 = deltas.iter().map(|(_, _, s)| s).sum();
    let hot: f64 = deltas
        .iter()
        .filter(|(p, _, _)| GATE_PHASES.contains(p))
        .map(|(_, _, s)| s)
        .sum();
    obj(vec![
        ("workloads", Json::Arr(rows.iter().map(row_json).collect())),
        (
            "requests",
            Json::UInt(rows.iter().map(|r| r.requests).sum()),
        ),
        ("seconds", Json::Num(rows.iter().map(|r| r.seconds).sum())),
        (
            "phases",
            Json::Arr(
                deltas
                    .into_iter()
                    .map(|(p, c, s)| phase_entry(p, c, s))
                    .collect(),
            ),
        ),
        (
            "hot_fraction",
            Json::Num(if total > 0.0 { hot / total } else { 0.0 }),
        ),
    ])
}

fn json_script(lines: &[String]) -> Vec<u8> {
    let mut script = Vec::new();
    for line in lines {
        script.extend_from_slice(line.as_bytes());
        script.push(b'\n');
    }
    script
}

/// The binary hello, then every request as a frame: partition requests
/// in the compact kind-0x02 form when they qualify, everything else as a
/// kind-0x01 JSON payload.
fn binary_script(lines: &[String]) -> Vec<u8> {
    let mut script = format!("{HELLO_BINARY}\n").into_bytes();
    for line in lines {
        let payload = parse_request_line(line)
            .ok()
            .and_then(|request| partition_payload(&request))
            .unwrap_or_else(|| json_payload(line));
        script.extend_from_slice(&encode_frame(&payload));
    }
    script
}

fn pipe_run(config: &BenchConfig, workload: &str, codec: &'static str, lines: &[String]) -> Row {
    let service = fresh_service(config.threads);
    let script = match codec {
        "json" => json_script(lines),
        _ => binary_script(lines),
    };
    let mut out = Vec::new();
    let start = Instant::now();
    let summary = service.run_session(script.as_slice(), &mut out);
    let seconds = start.elapsed().as_secs_f64();
    service.shutdown_and_join();
    let hello = u64::from(codec == "binary");
    assert_eq!(summary.responses, lines.len() as u64 + hello);
    Row {
        workload: workload.to_string(),
        codec,
        requests: lines.len() as u64,
        responses: summary.responses - hello,
        seconds,
        bytes_out: script.len() as u64,
        bytes_in: out.len() as u64,
        cache_hits: summary.cache_hits,
    }
}

fn row_json(row: &Row) -> Json {
    obj(vec![
        ("workload", Json::Str(row.workload.clone())),
        ("codec", Json::Str(row.codec.into())),
        ("transport", Json::Str("pipe".into())),
        ("requests", Json::UInt(row.requests)),
        ("responses", Json::UInt(row.responses)),
        ("seconds", Json::Num(row.seconds)),
        ("throughput_rps", Json::Num(row.throughput())),
        ("bytes_out", Json::UInt(row.bytes_out)),
        ("bytes_in", Json::UInt(row.bytes_in)),
        ("cache_hits", Json::UInt(row.cache_hits)),
    ])
}

fn find<'a>(rows: &'a [Row], workload: &str, codec: &str) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.workload == workload && r.codec == codec)
}

/// The codec comparisons CI gates on: per pipe workload, binary/json
/// ratios for bytes-on-wire (request direction) and throughput.
fn comparisons_json(rows: &[Row]) -> Vec<Json> {
    let mut comparisons = Vec::new();
    for &workload in PIPE_WORKLOADS {
        let (Some(json), Some(binary)) =
            (find(rows, workload, "json"), find(rows, workload, "binary"))
        else {
            continue;
        };
        comparisons.push(obj(vec![
            ("workload", Json::Str(workload.into())),
            ("transport", Json::Str("pipe".into())),
            ("metric", Json::Str("bytes_out".into())),
            ("json", Json::UInt(json.bytes_out)),
            ("binary", Json::UInt(binary.bytes_out)),
            (
                "binary_over_json",
                Json::Num(binary.bytes_out as f64 / json.bytes_out.max(1) as f64),
            ),
        ]));
        comparisons.push(obj(vec![
            ("workload", Json::Str(workload.into())),
            ("transport", Json::Str("pipe".into())),
            ("metric", Json::Str("throughput_rps".into())),
            ("json", Json::Num(json.throughput())),
            ("binary", Json::Num(binary.throughput())),
            (
                "binary_over_json",
                Json::Num(binary.throughput() / json.throughput().max(1e-9)),
            ),
        ]));
    }
    comparisons
}

fn render_document(config: &BenchConfig, rows: &[Row], phases: Vec<Json>, compute: Json) -> String {
    obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("trajectory", Json::UInt(TRAJECTORY)),
        (
            "config",
            obj(vec![
                ("requests", Json::UInt(config.requests)),
                ("threads", Json::UInt(config.threads as u64)),
                ("quick", Json::Bool(config.quick)),
            ]),
        ),
        ("results", Json::Arr(rows.iter().map(row_json).collect())),
        ("phases", Json::Arr(phases)),
        ("compute", compute),
        ("comparisons", Json::Arr(comparisons_json(rows))),
    ])
    .to_string()
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<20} {:<7} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "workload", "codec", "requests", "rps", "bytes_out", "bytes_in", "cache_hits"
    );
    for row in rows {
        println!(
            "{:<20} {:<7} {:>8} {:>12.0} {:>12} {:>12} {:>10}",
            row.workload,
            row.codec,
            row.requests,
            row.throughput(),
            row.bytes_out,
            row.bytes_in,
            row.cache_hits,
        );
    }
}

// ---------------------------------------------------------------------
// --validate: schema + trajectory gates on a bench document
// ---------------------------------------------------------------------

fn validate_file(path: &str, against: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let document = Json::parse(text.trim()).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    validate_document(&document).map_err(|e| format!("{path}: {e}"))?;
    if let Some(committed) = against {
        validate_against(&document, committed).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok (compute shares within band of {committed})");
    } else {
        println!("{path}: ok");
    }
    Ok(())
}

/// Per-phase seconds of a document's `compute.phases` block.
fn compute_seconds(document: &Json) -> Result<Vec<(String, f64)>, String> {
    let phases = document
        .get("compute")
        .and_then(|c| c.get("phases"))
        .and_then(Json::as_array)
        .ok_or("missing compute.phases block")?;
    Ok(phases
        .iter()
        .filter_map(|entry| {
            let phase = entry.get("phase").and_then(Json::as_str)?;
            let seconds = entry.get("seconds").and_then(Json::as_f64)?;
            Some((phase.to_string(), seconds))
        })
        .collect())
}

/// The `--against` regression gate: compare the fresh document's
/// compute-phase *shares* (seconds / total compute seconds) to the
/// committed trajectory document's shares. Shares are machine-speed
/// independent, so a slow CI runner passes while a kernel that regressed
/// relative to its siblings fails. The band is generous
/// ([`SHARE_BAND_FACTOR`]× + [`SHARE_BAND_FLOOR`]) because speeding one
/// phase up mechanically inflates every other phase's share.
fn validate_against(fresh: &Json, committed_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("reading {committed_path}: {e}"))?;
    let committed =
        Json::parse(text.trim()).map_err(|e| format!("{committed_path}: not valid JSON: {e}"))?;
    let fresh_phases = compute_seconds(fresh)?;
    let committed_phases =
        compute_seconds(&committed).map_err(|e| format!("{committed_path}: {e}"))?;
    let fresh_total: f64 = fresh_phases.iter().map(|(_, s)| s).sum();
    let committed_total: f64 = committed_phases.iter().map(|(_, s)| s).sum();
    if fresh_total <= 0.0 || committed_total <= 0.0 {
        return Err("compute phase totals must be positive on both sides".into());
    }
    for (phase, seconds) in &fresh_phases {
        let committed_seconds = committed_phases
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, s)| *s)
            .ok_or_else(|| format!("{committed_path}: no compute phase {phase:?}"))?;
        let share = seconds / fresh_total;
        let committed_share = committed_seconds / committed_total;
        let band = committed_share * SHARE_BAND_FACTOR + SHARE_BAND_FLOOR;
        if share > band {
            return Err(format!(
                "compute phase {phase:?} regressed: share {share:.3} exceeds \
                 committed share {committed_share:.3} band (≤ {band:.3})"
            ));
        }
    }
    Ok(())
}

fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))
}

fn validate_document(document: &Json) -> Result<(), String> {
    let schema = field(document, "schema")?
        .as_str()
        .ok_or("schema must be a string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let trajectory = field(document, "trajectory")?
        .as_u64()
        .ok_or("trajectory must be an unsigned integer")?;
    if trajectory != TRAJECTORY {
        return Err(format!("trajectory {trajectory}, expected {TRAJECTORY}"));
    }

    let results = field(document, "results")?
        .as_array()
        .ok_or("results must be an array")?;
    if results.is_empty() {
        return Err("results is empty".into());
    }
    for (index, row) in results.iter().enumerate() {
        let label = || {
            format!(
                "results[{index}] ({})",
                row.get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("<unnamed>")
            )
        };
        for name in ["workload", "codec", "transport"] {
            field(row, name)?
                .as_str()
                .ok_or_else(|| format!("{}: {name} must be a string", label()))?;
        }
        for name in ["requests", "responses", "bytes_out", "bytes_in"] {
            field(row, name)?
                .as_u64()
                .ok_or_else(|| format!("{}: {name} must be an unsigned integer", label()))?;
        }
        for name in ["seconds", "throughput_rps"] {
            let value = field(row, name)?
                .as_f64()
                .ok_or_else(|| format!("{}: {name} must be a number", label()))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("{}: {name} must be positive, got {value}", label()));
            }
        }
        let requests = row.get("requests").and_then(Json::as_u64).unwrap_or(0);
        let responses = row.get("responses").and_then(Json::as_u64).unwrap_or(0);
        if requests != responses {
            return Err(format!(
                "{}: {requests} requests but {responses} responses",
                label()
            ));
        }
    }
    // Full pipe coverage: every workload measured under both codecs.
    for &workload in PIPE_WORKLOADS {
        for codec in ["json", "binary"] {
            if !results.iter().any(|row| {
                row.get("workload").and_then(Json::as_str) == Some(workload)
                    && row.get("codec").and_then(Json::as_str) == Some(codec)
                    && row.get("transport").and_then(Json::as_str) == Some("pipe")
            }) {
                return Err(format!("missing pipe row for {workload}/{codec}"));
            }
        }
    }

    // The per-phase compute breakdown: all four multilevel phases (paper
    // Fig. 5) must have been observed during the run.
    let phases = field(document, "phases")?
        .as_array()
        .ok_or("phases must be an array")?;
    for required in mg_obs::PHASES {
        let entry = phases
            .iter()
            .find(|p| p.get("phase").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("missing phase entry {required:?}"))?;
        let count = field(entry, "count")?
            .as_u64()
            .ok_or_else(|| format!("phase {required:?}: count must be an unsigned integer"))?;
        if count == 0 {
            return Err(format!("phase {required:?} recorded no observations"));
        }
        for name in ["seconds", "mean_seconds"] {
            let value = field(entry, name)?
                .as_f64()
                .ok_or_else(|| format!("phase {required:?}: {name} must be a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "phase {required:?}: {name} must be non-negative, got {value}"
                ));
            }
        }
    }

    // The compute trajectory: per-backend cells present, the gate phases
    // observed, and — for the committed BENCH_9 document, which carries a
    // baseline — the kernel-speedup gate.
    let compute = field(document, "compute")?;
    for &backend in COMPUTE_BACKENDS {
        let name = format!("compute_{backend}");
        if !results
            .iter()
            .any(|row| row.get("workload").and_then(Json::as_str) == Some(name.as_str()))
        {
            return Err(format!("missing compute row for backend {backend}"));
        }
    }
    let compute_phases = field(compute, "phases")?
        .as_array()
        .ok_or("compute.phases must be an array")?;
    for required in GATE_PHASES {
        let entry = compute_phases
            .iter()
            .find(|p| p.get("phase").and_then(Json::as_str) == Some(required))
            .ok_or_else(|| format!("missing compute phase entry {required:?}"))?;
        let count = field(entry, "count")?.as_u64().ok_or_else(|| {
            format!("compute phase {required:?}: count must be an unsigned integer")
        })?;
        if count == 0 {
            return Err(format!(
                "compute phase {required:?} recorded no observations"
            ));
        }
    }
    let hot_fraction = field(compute, "hot_fraction")?
        .as_f64()
        .ok_or("compute.hot_fraction must be a number")?;
    if hot_fraction.is_nan() || hot_fraction < COMPUTE_HOT_MIN {
        return Err(format!(
            "compute workloads are not kernel-bound: hot_fraction {hot_fraction:.3} \
             < {COMPUTE_HOT_MIN} (gate phases must dominate)"
        ));
    }
    if let Some(improvement) = compute.get("improvement").and_then(Json::as_array) {
        let passing = improvement
            .iter()
            .filter(|entry| {
                let phase = entry.get("phase").and_then(Json::as_str).unwrap_or("");
                let speedup = entry.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                GATE_PHASES.contains(&phase) && speedup >= GATE_SPEEDUP
            })
            .count();
        if passing < GATE_PHASES_REQUIRED {
            return Err(format!(
                "kernel-speedup gate: only {passing} of {GATE_PHASES:?} reached \
                 {GATE_SPEEDUP}× vs baseline (need {GATE_PHASES_REQUIRED})"
            ));
        }
    }

    // The trajectory gates, from the comparisons block.
    let comparisons = field(document, "comparisons")?
        .as_array()
        .ok_or("comparisons must be an array")?;
    let ratio = |workload: &str, metric: &str| -> Result<f64, String> {
        comparisons
            .iter()
            .find(|c| {
                c.get("workload").and_then(Json::as_str) == Some(workload)
                    && c.get("metric").and_then(Json::as_str) == Some(metric)
            })
            .and_then(|c| c.get("binary_over_json").and_then(Json::as_f64))
            .ok_or_else(|| format!("missing comparison {workload}/{metric}"))
    };
    for workload in ["inline", "inline_cached"] {
        let r = ratio(workload, "bytes_out")?;
        if r >= 1.0 {
            return Err(format!(
                "binary does not beat JSON on bytes-on-wire for {workload} (ratio {r:.3})"
            ));
        }
    }
    let r = ratio("inline_cached", "throughput_rps")?;
    if r <= 1.0 {
        return Err(format!(
            "binary does not beat JSON on throughput for inline_cached (ratio {r:.3})"
        ));
    }
    Ok(())
}
