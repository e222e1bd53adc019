//! Layer replay probes, run after the timed window: the workload's exact
//! inbound bytes go through the codec scanner, the protocol decoders, the
//! matrix construction and the partitioner, called directly from here.

use crate::gen::{encode, Body, Req};
use mg_core::service::{payload_matrix, MatrixPayload};
use mg_core::{parse_backend, Method, DEFAULT_BACKEND};
use mg_server::codec::decode_partition_payload;
use mg_server::{parse_request_line, UnitKind, UnitScanner, WireCodec};
use std::ops::Range;
use std::time::Instant;

/// The transports' read size: the scanner sees units in chunks this big.
const READ_CHUNK: usize = 16 * 1024;

/// Replay budget per stream and framing: units are replayed in script
/// order until this many bytes (at least one unit).
const REPLAY_BYTES: usize = 24 << 20;

/// Partitioner budget: calls stop once this many nonzeros were
/// partitioned (at least one call).
const BIPARTITION_NNZ: usize = 1_000_000;

#[derive(Default, Debug)]
pub struct Probes {
    /// Scan time (µs), bytes and units for JSON lines and binary frames.
    pub scan_lines: (f64, usize, usize),
    pub scan_frames: (f64, usize, usize),
    pub decode_us: f64,
    pub decode_bytes: usize,
    pub decode_units: usize,
    pub payload_us: f64,
    pub payload_units: usize,
    pub bipartition_us: f64,
    pub bipartition_nnz: usize,
    pub bipartition_calls: usize,
}

/// Scans one request's bytes the way a transport does; returns the unit,
/// valid in the scanner until its next push.
fn scan(scanner: &mut UnitScanner, bytes: &[u8]) -> Option<(UnitKind, Range<usize>)> {
    let mut unit = None;
    for chunk in bytes.chunks(READ_CHUNK) {
        scanner.push(chunk);
        while let Ok(Some(found)) = scanner.next_unit() {
            unit = Some(found);
        }
    }
    unit
}

/// Replays `reqs` (one session's script, ids as sent) through the codec,
/// protocol and payload layers.
pub fn replay(reqs: &[Req], probes: &mut Probes) -> Result<(), String> {
    let mut budget = [REPLAY_BYTES; 2];
    let mut lines = UnitScanner::new();
    let mut frames = UnitScanner::new();
    frames.set_codec(WireCodec::Binary);
    for (index, req) in reqs.iter().enumerate() {
        let binary = req.is_binary();
        let left = &mut budget[usize::from(binary)];
        if *left == 0 {
            continue;
        }
        let bytes = encode(req, index as u64 + 1, None);
        *left = left.saturating_sub(bytes.len());
        let scanner = if binary { &mut frames } else { &mut lines };
        let t0 = Instant::now();
        let unit = scan(scanner, &bytes);
        let scan_us = t0.elapsed().as_secs_f64() * 1e6;
        let (kind, range) = unit.ok_or("replayed request produced no unit")?;
        let unit = scanner.bytes(&range).to_vec();
        let tally = if binary {
            &mut probes.scan_frames
        } else {
            &mut probes.scan_lines
        };
        tally.0 += scan_us;
        tally.1 += bytes.len();
        tally.2 += 1;

        let t0 = Instant::now();
        let request = match kind {
            UnitKind::Line => {
                let text = std::str::from_utf8(&unit).map_err(|e| e.to_string())?;
                parse_request_line(text)
            }
            UnitKind::Frame => decode_partition_payload(&unit[1..]),
        }
        .map_err(|e| format!("replayed request failed to decode: {}", e.message))?;
        probes.decode_us += t0.elapsed().as_secs_f64() * 1e6;
        probes.decode_bytes += unit.len();
        probes.decode_units += 1;

        if let Some(spec) = request.spec {
            if !matches!(spec.matrix, MatrixPayload::Collection(_)) {
                let t0 = Instant::now();
                let matrix = payload_matrix(&spec.matrix).map_err(|(_, m)| m)?;
                probes.payload_us += t0.elapsed().as_secs_f64() * 1e6;
                probes.payload_units += 1;
                if matrix.as_ref() != req.matrix() {
                    return Err("replayed payload decoded to another matrix".into());
                }
            }
        }
    }
    Ok(())
}

/// Calls the default backend directly, single-threaded, on computed
/// requests `(request, effective seed, reported volume)`, and checks that
/// it reproduces the served volume.
pub fn bipartition(jobs: &[(&Req, u64, u64)], probes: &mut Probes) -> Result<(), String> {
    let backend = parse_backend(DEFAULT_BACKEND)?;
    let method = Method::parse_name(mg_server::DEFAULT_METHOD)?;
    for &(req, seed, volume) in jobs {
        if probes.bipartition_calls > 0 && probes.bipartition_nnz >= BIPARTITION_NNZ {
            break;
        }
        let Body::Matrix { coo, .. } = &req.body else {
            continue;
        };
        let t0 = Instant::now();
        let result = backend.bipartition(coo, method, mg_server::DEFAULT_EPSILON, seed);
        probes.bipartition_us += t0.elapsed().as_secs_f64() * 1e6;
        probes.bipartition_nnz += coo.nnz();
        probes.bipartition_calls += 1;
        if result.volume != volume {
            return Err(format!(
                "direct bipartition gives volume {} where the service answered {volume}",
                result.volume
            ));
        }
    }
    Ok(())
}
