//! # mg-sparse — sparse matrix substrate
//!
//! This crate provides everything the medium-grain reproduction needs to talk
//! about sparse matrices *as data to be distributed*, rather than as numerical
//! operators:
//!
//! * [`Coo`] — the canonical pattern-only triplet representation every other
//!   crate builds on (row-major sorted, deduplicated),
//! * [`Csr`] / [`Csc`] — compressed views used by model builders and metrics,
//! * [`io`] — Matrix Market reading and writing,
//! * [`stats`] — pattern statistics and the paper's three-way matrix
//!   classification (rectangular / structurally symmetric / square
//!   non-symmetric),
//! * [`gen`] — deterministic synthetic matrix generators standing in for the
//!   University of Florida collection,
//! * [`partition`] — nonzero partitions, the communication-volume metric
//!   (eqn (3) of the paper) and the load-imbalance constraint (eqn (1)),
//! * [`bsp`] — greedy vector distribution and the BSP cost metric used in
//!   Table II of the paper,
//! * [`spmv`] — a step-by-step parallel SpMV *simulator* that counts every
//!   communicated word, used to validate the closed-form volume metric.
//!
//! Matrix *values* are deliberately not stored: the partitioning problem is a
//! property of the nonzero pattern alone. Where values are needed (the SpMV
//! simulator), they are synthesised deterministically from the coordinates.

pub mod bsp;
pub mod coo;
pub mod csr;
pub mod dist_io;
pub mod gen;
pub mod io;
pub mod partition;
pub mod spmv;
pub mod spy;
pub mod stats;

pub use bsp::{bsp_cost, BspCost, VectorDistribution};
pub use coo::Coo;
pub use csr::{Csc, Csr};
pub use partition::{
    col_lambdas, communication_volume, load_imbalance, max_part_size, part_budget, row_lambdas,
    NonzeroPartition, PartitionError,
};
pub use spy::{spy, spy_partitioned, CommunicationReport};
pub use stats::{MatrixClass, PatternStats};

/// Index type used for rows, columns and nonzero ids throughout the workspace.
///
/// `u32` keeps the hot data structures (pin lists, gain buckets) at half the
/// cache footprint of `usize` on 64-bit targets; the paper's largest inputs
/// (5·10⁶ nonzeros) are far below the 2³²−1 limit, which constructors assert.
pub type Idx = u32;

/// The shared 64-bit bit mixer (the SplitMix64 finaliser) behind every
/// hash in the workspace: matrix fingerprints, placement keys, the
/// router's rendezvous scores, the direct backends' tie-breaks, the
/// per-node seeds of recursive bisection and the sweep's cell and run
/// seeds all funnel through it, so one well-mixed function backs every
/// key-derived decision.
pub fn mix64(h: u64) -> u64 {
    let mut x = h;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Errors arising while constructing or reading matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row index is out of bounds: `(row, rows)`.
    RowOutOfBounds(Idx, Idx),
    /// An entry's column index is out of bounds: `(col, cols)`.
    ColOutOfBounds(Idx, Idx),
    /// More nonzeros than the index type can address.
    TooManyNonzeros(usize),
    /// A Matrix Market parse problem, with a line number and message.
    Parse(usize, String),
    /// A Matrix Market entry whose 1-based coordinate falls outside the
    /// declared dimensions. Zero coordinates (0-based indexing smuggled
    /// into a 1-based format) land here too.
    EntryOutOfRange {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Row coordinate as written in the file (1-based).
        row: u64,
        /// Column coordinate as written in the file (1-based).
        col: u64,
        /// Declared number of rows.
        rows: u64,
        /// Declared number of columns.
        cols: u64,
    },
    /// A Matrix Market entry line with fewer tokens than its field type
    /// requires (missing coordinate or value tokens).
    TruncatedEntry {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Tokens the field type requires (coordinates + values).
        expected: usize,
        /// Tokens actually present.
        found: usize,
    },
    /// The file stores a different number of entries than its size line
    /// declares.
    CountMismatch {
        /// Entry count declared on the size line.
        declared: usize,
        /// Entry lines actually present.
        found: usize,
    },
    /// An I/O failure converted to a string (keeps the error type `Clone`).
    Io(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::RowOutOfBounds(r, m) => {
                write!(f, "row index {r} out of bounds for {m} rows")
            }
            SparseError::ColOutOfBounds(c, n) => {
                write!(f, "column index {c} out of bounds for {n} columns")
            }
            SparseError::TooManyNonzeros(nnz) => {
                write!(f, "{nnz} nonzeros exceed the u32 index space")
            }
            SparseError::Parse(line, msg) => write!(f, "parse error on line {line}: {msg}"),
            SparseError::EntryOutOfRange {
                line,
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "entry ({row}, {col}) on line {line} out of range for a {rows}x{cols} matrix \
                 (coordinates are 1-based)"
            ),
            SparseError::TruncatedEntry {
                line,
                expected,
                found,
            } => write!(
                f,
                "truncated entry on line {line}: expected {expected} token(s), found {found}"
            ),
            SparseError::CountMismatch { declared, found } => {
                write!(f, "size line declares {declared} entries, file has {found}")
            }
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
