//! The shared session runtime on its own: the pump, the ordered writer
//! and the unit decoder driven by a toy handler.

use mg_server::codec::{
    batch_payload, encode_frame, json_payload, UnitKind, WireCodec, KIND_PARTITION,
};
use mg_server::session::{self, decode_unit, Decoded, Handler, Render, Responses};
use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Answers every request with its id, but holds every answer back until
/// the input ends and then resolves the slots last to first, so the
/// writer sees them resolve in reverse submission order. Records every
/// unit the pump hands it, and switches codec after a `hello` asks to.
#[derive(Default)]
struct ReverseEcho {
    slots: Arc<Responses<String>>,
    held: Vec<(u64, String)>,
    units: Vec<(UnitKind, Vec<u8>)>,
    switch: Option<WireCodec>,
}

struct Lines(Arc<Responses<String>>);

impl Render for Lines {
    type Slot = String;

    fn slots(&self) -> &Responses<String> {
        &self.0
    }

    fn render(&mut self, slot: String) -> (String, Option<WireCodec>) {
        (slot, None)
    }
}

impl Handler for ReverseEcho {
    type Render = Lines;

    fn writer(&self) -> Lines {
        Lines(self.slots.clone())
    }

    fn handle_unit(&mut self, kind: UnitKind, bytes: &[u8]) -> bool {
        self.units.push((kind, bytes.to_vec()));
        decode_unit(kind, bytes, &mut |decoded| {
            let index = self.slots.open();
            let line = match decoded {
                Ok((request, _)) => {
                    self.switch = self.switch.or(request.codec);
                    request.id.to_string()
                }
                Err(e) => format!("error:{}", e.code),
            };
            self.held.push((index, line));
            true
        })
    }

    fn take_codec_switch(&mut self) -> Option<WireCodec> {
        self.switch.take()
    }

    fn protocol_error(&mut self, message: &str) {
        let index = self.slots.open();
        self.slots.resolve(index, format!("fatal:{message}"));
    }

    fn finish(&mut self) {
        while let Some((index, line)) = self.held.pop() {
            self.slots.resolve(index, line);
        }
        self.slots.finish_input();
    }
}

#[test]
fn responses_leave_in_submission_order_whatever_order_they_resolve_in() {
    let mut input = b"{\"id\":1,\"op\":\"ping\"}\n\n  \r\n{\"id\":2,\"op\":\"ping\"}\r\n".to_vec();
    input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
    // The final request has no terminator: the pump still delivers it.
    input.extend_from_slice(b"{\"id\":3,\"op\":\"ping\"}");
    let mut handler = ReverseEcho::default();
    let mut out = Vec::new();
    let written = session::run(&mut handler, input.as_slice(), &mut out, &|| false);
    assert_eq!(written, 4, "blank lines get no slot");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "1\n2\nerror:bad_request\n3\n"
    );
}

#[test]
fn drain_waits_for_every_slot_but_the_skipped_one() {
    let slots: Arc<Responses<u64>> = Arc::new(Responses::default());
    let first = slots.open();
    let skipped = slots.open();
    let (drained, done) = mpsc::channel();
    let drainer = {
        let slots = slots.clone();
        std::thread::spawn(move || {
            slots.drain(Some(skipped));
            drained.send(()).expect("main thread waits");
        })
    };
    assert!(
        done.recv_timeout(Duration::from_millis(50)).is_err(),
        "drain returned with an open slot unresolved"
    );
    slots.resolve(first, 7);
    done.recv()
        .expect("drain returns once only the skipped slot is open");
    drainer.join().unwrap();
}

/// Collects what `decode_unit` reports, stopping after `stop_after`.
fn decode_all(kind: UnitKind, bytes: &[u8], stop_after: usize) -> (bool, Vec<String>) {
    let mut seen = Vec::new();
    let go = decode_unit(kind, bytes, &mut |decoded: Decoded<'_>| {
        seen.push(match decoded {
            Ok((request, Some(line))) => format!("line {} {line}", request.id),
            Ok((request, None)) => format!("binary {}", request.id),
            Err(e) => format!("{}: {}", e.code, e.message),
        });
        seen.len() < stop_after
    });
    (go, seen)
}

#[test]
fn a_batch_frame_decodes_to_one_slot_per_sub_frame_in_order() {
    let batch = batch_payload(&[
        json_payload("{\"id\":1,\"op\":\"ping\"}"),
        Vec::new(),
        vec![0x7f],
        vec![KIND_PARTITION],
        json_payload("   "),
        json_payload("{\"id\":2,\"op\":\"ping\"}"),
    ]);
    let (go, seen) = decode_all(UnitKind::Frame, &batch, usize::MAX);
    assert!(go);
    assert_eq!(
        seen.len(),
        5,
        "a blank JSON sub-frame needs no slot: {seen:?}"
    );
    assert_eq!(seen[0], "line 1 {\"id\":1,\"op\":\"ping\"}");
    assert_eq!(seen[1], "bad_request: empty frame");
    assert_eq!(seen[2], "bad_request: unknown frame kind 0x7f");
    assert!(seen[3].starts_with("bad_request"), "{}", seen[3]);
    assert_eq!(seen[4], "line 2 {\"id\":2,\"op\":\"ping\"}");

    // A handler that stops (an in-band shutdown) ends the batch there.
    let (go, seen) = decode_all(UnitKind::Frame, &batch, 2);
    assert!(!go);
    assert_eq!(seen.len(), 2);
}

/// Input that reaches the pump in exactly these reads, one per chunk.
struct Reads(VecDeque<Vec<u8>>);

impl Read for Reads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.0.front_mut() else {
            return Ok(0);
        };
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.0.pop_front();
        }
        Ok(n)
    }
}

/// Runs one session over `reads` and returns the units the handler saw
/// and the response text.
fn run_reads(reads: Vec<Vec<u8>>) -> (Vec<(UnitKind, Vec<u8>)>, String) {
    let mut handler = ReverseEcho::default();
    let mut out = Vec::new();
    let input = BufReader::with_capacity(1 << 20, Reads(reads.into()));
    session::run(&mut handler, input, &mut out, &|| false);
    (handler.units, String::from_utf8(out).unwrap())
}

/// A ping whose string id pads it to `len` bytes.
fn long_ping(len: usize) -> Vec<u8> {
    let frame = "{\"id\":\"\",\"op\":\"ping\"}";
    let pad = "x".repeat(len - frame.len());
    format!("{{\"id\":\"{pad}\",\"op\":\"ping\"}}").into_bytes()
}

#[test]
fn a_long_line_over_many_reads_and_the_short_line_behind_it_arrive_whole() {
    let long = long_ping(200_000);
    let short = b"{\"id\":2,\"op\":\"ping\"}".to_vec();
    let split = long.len() - 100;
    let mut reads: Vec<Vec<u8>> = long[..split].chunks(4096).map(<[u8]>::to_vec).collect();
    let mut last = long[split..].to_vec();
    last.push(b'\n');
    last.extend_from_slice(&short);
    last.push(b'\n');
    reads.push(last);
    let (units, out) = run_reads(reads);
    assert_eq!(units, vec![(UnitKind::Line, long), (UnitKind::Line, short)]);
    assert!(out.ends_with("\n2\n"), "{out}");
}

#[test]
fn a_partly_scanned_line_at_eof_is_delivered_whole() {
    let tail = long_ping(50_000);
    let mut script = b"{\"id\":1,\"op\":\"ping\"}\n".to_vec();
    script.extend_from_slice(&tail);
    let reads = script.chunks(3000).map(<[u8]>::to_vec).collect();
    let (units, _) = run_reads(reads);
    assert_eq!(units.len(), 2);
    assert_eq!(units[0].1, b"{\"id\":1,\"op\":\"ping\"}");
    assert_eq!(units[1], (UnitKind::Line, tail));
}

#[test]
fn frames_pipelined_behind_a_hello_scanned_over_several_reads_parse_as_frames() {
    let hello = b"{\"id\":1,\"op\":\"hello\",\"codec\":\"binary\"}".to_vec();
    let second = encode_frame(&json_payload("{\"id\":2,\"op\":\"ping\"}"));
    let third = encode_frame(&json_payload("{\"id\":3,\"op\":\"ping\"}"));
    let mut joined = hello[10..].to_vec();
    joined.push(b'\n');
    joined.extend_from_slice(&second);
    joined.extend_from_slice(&third[..5]);
    let reads = vec![
        hello[..4].to_vec(),
        hello[4..10].to_vec(),
        joined,
        third[5..].to_vec(),
    ];
    let (units, out) = run_reads(reads);
    assert_eq!(units.len(), 3, "{units:?}");
    assert_eq!(units[0], (UnitKind::Line, hello));
    assert_eq!(units[1], (UnitKind::Frame, second[4..].to_vec()));
    assert_eq!(units[2], (UnitKind::Frame, third[4..].to_vec()));
    assert_eq!(out, "1\n2\n3\n");
}
