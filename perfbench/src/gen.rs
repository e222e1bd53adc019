//! Seeded workload inputs: a small PRNG, three sparsity families, and the
//! request encoders. Everything here is a pure function of the seed, so
//! one seed always yields byte-identical request bytes; the program under
//! test sees only those bytes.

use mg_sparse::{Coo, Idx};
use std::io::Write;
use std::sync::Arc;

/// SplitMix64: tiny, fast and fully specified here, so the inputs never
/// depend on another crate's generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sparsity families inputs are drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// 5-point 2D Laplacian on a rectangular grid: regular, symmetric.
    Laplace2d,
    /// Uniformly random pattern on a rectangular matrix.
    Random,
    /// Skewed row and column degrees (a power law in the index).
    PowerLaw,
}

pub const FAMILIES: [Family; 3] = [Family::Laplace2d, Family::Random, Family::PowerLaw];

/// A matrix of about `nnz` nonzeros from `family`, canonical (sorted,
/// deduplicated) so its entry order is the one responses refer to.
pub fn matrix(family: Family, nnz: usize, rng: &mut Rng) -> Coo {
    match family {
        Family::Laplace2d => {
            // nnz ≈ 5·kx·ky; the aspect ratio varies so every draw differs.
            let aspect = 1.0 + rng.unit();
            let ky = ((nnz as f64 / 5.0 / aspect).sqrt().round() as Idx).max(2);
            let kx = ((nnz as f64 / 5.0 / ky as f64).round() as Idx).max(2);
            laplace2d(kx, ky)
        }
        Family::Random => {
            let rows = (nnz / 6).max(4) as u64;
            let cols = (nnz / 10).max(4) as u64;
            let entries = (0..nnz)
                .map(|_| (rng.below(rows) as Idx, rng.below(cols) as Idx))
                .collect();
            Coo::new(rows as Idx, cols as Idx, entries).expect("entries are in bounds")
        }
        Family::PowerLaw => {
            let n = (nnz / 5).max(4);
            let skewed = |rng: &mut Rng, exp: f64| -> Idx {
                ((rng.unit().powf(exp) * n as f64) as usize).min(n - 1) as Idx
            };
            let entries = (0..nnz)
                .map(|_| (skewed(rng, 2.5), skewed(rng, 1.8)))
                .collect();
            Coo::new(n as Idx, n as Idx, entries).expect("entries are in bounds")
        }
    }
}

fn laplace2d(kx: Idx, ky: Idx) -> Coo {
    let mut entries = Vec::with_capacity(5 * (kx * ky) as usize);
    for x in 0..kx {
        for y in 0..ky {
            let v = x * ky + y;
            if x > 0 {
                entries.push((v, v - ky));
            }
            if y > 0 {
                entries.push((v, v - 1));
            }
            entries.push((v, v));
            if y + 1 < ky {
                entries.push((v, v + 1));
            }
            if x + 1 < kx {
                entries.push((v, v + ky));
            }
        }
    }
    Coo::new(kx * ky, kx * ky, entries).expect("stencil entries are in bounds")
}

/// How a matrix travels to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enc {
    /// A Matrix Market document inside a JSON line.
    Mtx,
    /// Inline COO pairs inside a JSON line.
    Inline,
    /// A binary kind-0x02 frame with inline varint pairs.
    Binary,
}

/// What one request asks for.
#[derive(Clone)]
pub enum Body {
    Matrix { coo: Arc<Coo>, enc: Enc },
    Collection { name: String, coo: Arc<Coo> },
    Ping,
}

/// Whether a request belongs to the workload's main traffic or to the
/// light probe class (small distinct requests, see `workloads`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Main,
    Light,
    /// A second copy sent only to be answered from a cache: checked and
    /// counted in throughput, but in neither latency class.
    Repeat,
}

/// One scripted request.
#[derive(Clone)]
pub struct Req {
    pub class: Class,
    pub body: Body,
    /// Index of an earlier request of the same script whose response this
    /// one must repeat (apart from `id` and `cached`), answered from a cache.
    pub repeat_of: Option<usize>,
    /// Workload-defined traffic kind (family and encoding); a traced run
    /// traces every other request of each kind, so traced and untraced
    /// requests carry the same mix.
    pub kind: u8,
}

impl Req {
    pub fn fresh(class: Class, coo: Coo, enc: Enc) -> Req {
        Req {
            class,
            body: Body::Matrix {
                coo: Arc::new(coo),
                enc,
            },
            repeat_of: None,
            kind: 0,
        }
    }

    pub fn of_kind(self, kind: usize) -> Req {
        Req {
            kind: u8::try_from(kind).expect("a handful of kinds"),
            ..self
        }
    }

    pub fn matrix(&self) -> Option<&Coo> {
        match &self.body {
            Body::Matrix { coo, .. } | Body::Collection { coo, .. } => Some(coo),
            Body::Ping => None,
        }
    }

    pub fn is_binary(&self) -> bool {
        matches!(
            self.body,
            Body::Matrix {
                enc: Enc::Binary,
                ..
            }
        )
    }

    /// Partition requests ask for the assignment only when the matrix
    /// travels with them; collection requests return the summary.
    pub fn include_partition(&self) -> bool {
        matches!(self.body, Body::Matrix { .. })
    }
}

/// Propagated trace context stamped on a traced request.
#[derive(Clone, Copy, Debug)]
pub struct WireTrace {
    pub trace_id: u128,
    pub parent: u64,
}

/// The `hello` line that switches a connection to binary frames.
pub const HELLO_BINARY: &[u8] = b"{\"id\":0,\"op\":\"hello\",\"codec\":\"binary\"}\n";

/// The request's wire bytes: a JSON line, or a length-prefixed frame for
/// binary requests (which carry no trace field).
pub fn encode(req: &Req, id: u64, trace: Option<WireTrace>) -> Vec<u8> {
    match &req.body {
        Body::Matrix {
            coo,
            enc: Enc::Binary,
        } => binary_frame(id, coo),
        Body::Matrix { coo, enc } => {
            let mut out = Vec::with_capacity(coo.nnz() * 14 + 256);
            write!(out, "{{\"id\":{id},\"matrix\":").expect("vec write");
            match enc {
                Enc::Mtx => mtx_payload(&mut out, coo),
                _ => inline_payload(&mut out, coo),
            }
            out.extend_from_slice(b",\"include_partition\":true");
            close_line(&mut out, trace);
            out
        }
        Body::Collection { name, .. } => {
            let mut out = Vec::with_capacity(160);
            write!(
                out,
                "{{\"id\":{id},\"matrix\":{{\"collection\":\"{name}\"}}"
            )
            .expect("vec");
            close_line(&mut out, trace);
            out
        }
        Body::Ping => format!("{{\"id\":{id},\"op\":\"ping\"}}\n").into_bytes(),
    }
}

fn close_line(out: &mut Vec<u8>, trace: Option<WireTrace>) {
    if let Some(t) = trace {
        write!(
            out,
            ",\"trace\":{{\"id\":\"{:032x}\",\"parent\":\"{:016x}\"}}",
            t.trace_id, t.parent
        )
        .expect("vec write");
    }
    out.extend_from_slice(b"}\n");
}

fn inline_payload(out: &mut Vec<u8>, coo: &Coo) {
    write!(
        out,
        "{{\"rows\":{},\"cols\":{},\"entries\":[",
        coo.rows(),
        coo.cols()
    )
    .expect("vec write");
    for (k, (i, j)) in coo.iter().enumerate() {
        if k > 0 {
            out.push(b',');
        }
        write!(out, "[{i},{j}]").expect("vec write");
    }
    out.extend_from_slice(b"]}");
}

fn mtx_payload(out: &mut Vec<u8>, coo: &Coo) {
    write!(
        out,
        "{{\"mtx\":\"%%MatrixMarket matrix coordinate pattern general\\n{} {} {}\\n",
        coo.rows(),
        coo.cols(),
        coo.nnz()
    )
    .expect("vec write");
    for (i, j) in coo.iter() {
        write!(out, "{} {}\\n", i + 1, j + 1).expect("vec write");
    }
    out.extend_from_slice(b"\"}");
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A kind-0x02 frame: u64 id, include_partition, inline coordinates.
fn binary_frame(id: u64, coo: &Coo) -> Vec<u8> {
    let mut payload = Vec::with_capacity(coo.nnz() * 5 + 32);
    payload.push(0x02); // kind: binary partition request
    payload.push(1); // id tag: u64
    payload.extend_from_slice(&id.to_le_bytes());
    payload.push(1); // flags: include_partition
    payload.push(0); // matrix tag: inline
    varint(&mut payload, u64::from(coo.rows()));
    varint(&mut payload, u64::from(coo.cols()));
    varint(&mut payload, coo.nnz() as u64);
    for (i, j) in coo.iter() {
        varint(&mut payload, u64::from(i));
        varint(&mut payload, u64::from(j));
    }
    let mut frame = Vec::with_capacity(payload.len() + 4);
    let len = u32::try_from(payload.len()).expect("frames stay far below 4 GiB");
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        let mut bytes = Vec::new();
        for (k, family) in FAMILIES.into_iter().enumerate() {
            let coo = matrix(family, 3_000, &mut rng);
            for enc in [Enc::Mtx, Enc::Inline, Enc::Binary] {
                bytes.extend(encode(
                    &Req::fresh(Class::Main, coo.clone(), enc),
                    k as u64,
                    None,
                ));
            }
        }
        bytes
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_seeds_differ() {
        assert_eq!(script(7), script(7));
        assert_ne!(script(7), script(8));
    }

    #[test]
    fn families_hit_their_size_and_are_canonical() {
        let mut rng = Rng::new(1);
        for family in FAMILIES {
            let coo = matrix(family, 20_000, &mut rng);
            assert!(
                (14_000..=22_000).contains(&coo.nnz()),
                "{family:?}: {}",
                coo.nnz()
            );
            assert!(coo.entries().windows(2).all(|w| w[0] < w[1]));
        }
        // 5-point stencil on a k×k grid: 5k² − 4k nonzeros.
        assert_eq!(laplace2d(250, 250).nnz(), 311_500);
    }

    #[test]
    fn every_encoding_decodes_to_the_same_matrix() {
        let mut rng = Rng::new(3);
        let coo = matrix(Family::PowerLaw, 2_000, &mut rng);
        for enc in [Enc::Mtx, Enc::Inline, Enc::Binary] {
            let bytes = encode(&Req::fresh(Class::Main, coo.clone(), enc), 9, None);
            let request = if enc == Enc::Binary {
                mg_server::codec::decode_partition_payload(&bytes[5..]).expect("frame decodes")
            } else {
                let line = std::str::from_utf8(&bytes).expect("utf8");
                mg_server::parse_request_line(line.trim_end()).expect("line decodes")
            };
            let spec = request.spec.expect("partition request");
            assert!(spec.include_partition);
            let decoded = mg_core::service::payload_matrix(&spec.matrix)
                .expect("valid payload")
                .expect("inline matrix");
            assert_eq!(decoded, coo, "{enc:?}");
        }
    }

    #[test]
    fn traced_lines_carry_a_valid_trace_field() {
        let req = Req {
            class: Class::Light,
            body: Body::Ping,
            repeat_of: None,
            kind: 0,
        };
        assert_eq!(encode(&req, 4, None), b"{\"id\":4,\"op\":\"ping\"}\n");
        let mut rng = Rng::new(5);
        let coo = matrix(Family::Random, 500, &mut rng);
        let trace = WireTrace {
            trace_id: 0xabc,
            parent: 0x12,
        };
        let bytes = encode(&Req::fresh(Class::Main, coo, Enc::Inline), 1, Some(trace));
        let line = std::str::from_utf8(&bytes).expect("utf8");
        let request = mg_server::parse_request_line(line.trim_end()).expect("decodes");
        let wire = request.trace.expect("trace field");
        assert_eq!((wire.trace_id, wire.parent), (0xabc, Some(0x12)));
    }
}
