//! The load generator's side of the wire: connections, closed-loop round
//! trips and a pipelined window, each exchange timed on the trace clock
//! (`mg_obs::trace::now_us`) so client and server spans line up.

use crate::gen::{encode, Req, WireTrace, HELLO_BINARY};
use mg_obs::trace::now_us;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A response that takes longer than this fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection; JSON lines until [`Conn::hello_binary`].
pub struct Conn {
    write: TcpStream,
    read: BufReader<TcpStream>,
    binary: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let read = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            write: stream,
            read,
            binary: false,
        })
    }

    /// Negotiates binary frames for the rest of the connection.
    pub fn hello_binary(&mut self) -> io::Result<()> {
        self.write.write_all(HELLO_BINARY)?;
        let ack = self.recv()?;
        const ACK: &[u8] = b"\"codec\":\"binary\"";
        if !ack.windows(ACK.len()).any(|w| w == ACK) {
            return Err(io::Error::other("hello was not acknowledged"));
        }
        self.binary = true;
        Ok(())
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write.write_all(bytes)
    }

    /// Blocks until the first byte of the next response is readable.
    fn wait(&mut self) -> io::Result<()> {
        if self.read.fill_buf()?.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Reads one response document (the JSON text, without framing).
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        if self.binary {
            let mut len = [0u8; 4];
            self.read.read_exact(&mut len)?;
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            self.read.read_exact(&mut payload)?;
            match payload.first() {
                Some(0x01) => Ok(payload.split_off(1)),
                _ => Err(io::Error::other("response frame is not a JSON document")),
            }
        } else {
            let mut line = Vec::new();
            self.read.read_until(b'\n', &mut line)?;
            if line.pop() != Some(b'\n') {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(line)
        }
    }
}

/// Where one request's client-observed time went. `start_us` is the trace
/// clock when the first byte was sent; the rest are durations in µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub start_us: u64,
    pub encode_us: f64,
    pub send_us: f64,
    pub wait_us: f64,
    pub recv_us: f64,
}

impl Timing {
    /// First byte sent → last response byte, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.send_us + self.wait_us + self.recv_us) / 1e3
    }

    pub fn end_us(&self) -> u64 {
        self.start_us + (self.send_us + self.wait_us + self.recv_us) as u64
    }
}

/// One request/response pair as the client saw it.
pub struct Exchange {
    /// Index of the script the request belongs to, and its position there.
    pub stream: usize,
    pub index: usize,
    pub id: u64,
    /// Trace context stamped on the request (the parent is the client's
    /// own span), if it was traced.
    pub trace: Option<WireTrace>,
    pub timing: Timing,
    pub bytes_out: usize,
    pub bytes_in: usize,
    pub response: Vec<u8>,
}

/// Identity of one scripted request as it is sent.
#[derive(Clone, Copy)]
pub struct Ticket {
    pub stream: usize,
    pub index: usize,
    pub id: u64,
    pub trace: Option<WireTrace>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sends one request and waits for its response (closed loop); `sent`
/// runs once the request is written.
pub fn round_trip(
    conn: &mut Conn,
    req: &Req,
    ticket: Ticket,
    sent: impl FnOnce(),
) -> io::Result<Exchange> {
    let t_enc = Instant::now();
    let bytes = encode(req, ticket.id, ticket.trace);
    let encode_us = micros(t_enc.elapsed());
    let start_us = now_us();
    let t0 = Instant::now();
    conn.send(&bytes)?;
    let t1 = Instant::now();
    sent();
    conn.wait()?;
    let t2 = Instant::now();
    let response = conn.recv()?;
    let t3 = Instant::now();
    Ok(Exchange {
        stream: ticket.stream,
        index: ticket.index,
        id: ticket.id,
        trace: ticket.trace,
        timing: Timing {
            start_us,
            encode_us,
            send_us: micros(t1 - t0),
            wait_us: micros(t2 - t1),
            recv_us: micros(t3 - t2),
        },
        bytes_out: bytes.len(),
        bytes_in: response.len() + framing(conn.binary),
        response,
    })
}

/// Bytes around one response document: `\n`, or length and kind.
fn framing(binary: bool) -> usize {
    if binary {
        5
    } else {
        1
    }
}

struct Sent {
    ticket: Ticket,
    start_us: u64,
    encode_us: f64,
    t0: Instant,
    t1: Instant,
    bytes_out: usize,
}

/// Runs `reqs` over one JSON-lines connection with at most `window`
/// requests outstanding: a writer thread sends while this thread reads
/// responses in order.
pub fn pipelined(
    mut conn: Conn,
    reqs: &[Req],
    tickets: &[Ticket],
    window: usize,
) -> io::Result<Vec<Exchange>> {
    let mut writer = conn.write.try_clone()?;
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        token_tx.send(()).expect("receiver alive");
    }
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let write_side = scope.spawn(move || -> io::Result<()> {
            for (req, &ticket) in reqs.iter().zip(tickets) {
                if token_rx.recv().is_err() {
                    return Ok(()); // the reader gave up
                }
                let t_enc = Instant::now();
                let bytes = encode(req, ticket.id, ticket.trace);
                let encode_us = micros(t_enc.elapsed());
                let start_us = now_us();
                let t0 = Instant::now();
                writer.write_all(&bytes)?;
                let t1 = Instant::now();
                let sent = Sent {
                    ticket,
                    start_us,
                    encode_us,
                    t0,
                    t1,
                    bytes_out: bytes.len(),
                };
                if sent_tx.send(sent).is_err() {
                    return Ok(());
                }
            }
            Ok(())
        });
        let mut read_side = || -> io::Result<Vec<Exchange>> {
            let mut out = Vec::with_capacity(reqs.len());
            for _ in 0..reqs.len() {
                let sent = sent_rx
                    .recv()
                    .map_err(|_| io::Error::other("writer stopped early"))?;
                conn.wait()?;
                let t2 = Instant::now().max(sent.t1);
                let response = conn.recv()?;
                let t3 = Instant::now();
                let _ = token_tx.send(());
                out.push(Exchange {
                    stream: sent.ticket.stream,
                    index: sent.ticket.index,
                    id: sent.ticket.id,
                    trace: sent.ticket.trace,
                    timing: Timing {
                        start_us: sent.start_us,
                        encode_us: sent.encode_us,
                        send_us: micros(sent.t1 - sent.t0),
                        wait_us: micros(t2 - sent.t1),
                        recv_us: micros(t3 - t2),
                    },
                    bytes_out: sent.bytes_out,
                    bytes_in: response.len() + 1,
                    response,
                });
            }
            Ok(out)
        };
        let result = read_side();
        if result.is_err() {
            // Unblock the writer: no more tokens, and a dead socket.
            drop(token_tx);
            let _ = conn.write.shutdown(Shutdown::Both);
        }
        let written = write_side.join().expect("pipelined writer panicked");
        let exchanges = result?;
        written?;
        Ok(exchanges)
    })
}
