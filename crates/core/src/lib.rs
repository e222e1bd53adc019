//! # mg-core — the medium-grain method
//!
//! The paper's contribution, implemented on top of the substrates:
//!
//! * [`split`] — Algorithm 1: the heuristic initial split `A = Ar + Ac`
//!   (every nonzero joins a row group or a column group) plus the
//!   "all-but-one" post-pass;
//! * [`bmatrix`] — the composite medium-grain model: the hypergraph of the
//!   `(m+n)×(m+n)` matrix `B = [[Iₙ, (Ar)ᵀ], [Ac, Iₘ]]` of eqn (4), with
//!   dummy-only rows/columns removed, and the exact volume-preserving
//!   mapping back to nonzero partitions of `A` (eqns (5)–(6));
//! * [`medium_grain`] — the full medium-grain bipartitioner
//!   (split → hypergraph → multilevel bisection → map back);
//! * [`baselines`] — the comparison methods of §IV: row-net, column-net,
//!   localbest and fine-grain bipartitioners;
//! * [`refine`] — Algorithm 2: medium-grain iterative refinement, a cheap
//!   post-processing step applicable to *any* bipartitioning;
//! * [`methods`] — a single [`Method`] enum tying all of the above into one
//!   API (what the experiment harness sweeps over);
//! * [`backend`] — the engine seam: a [`PartitionBackend`] trait with a
//!   registry of the paper's two multilevel engines (`mondriaan`,
//!   `patoh`), which every layer above selects by canonical name;
//! * [`recursive`] — recursive bisection to `p` parts with a per-level
//!   imbalance budget (Table II's p = 64 experiments);
//! * [`service`] — transport-agnostic request/response types of the
//!   streaming partition service (`mgpart serve`, crate `mg-server`).

pub mod backend;
pub mod baselines;
pub mod bmatrix;
pub mod medium_grain;
pub mod methods;
pub mod recursive;
pub mod refine;
pub mod service;
pub mod split;

pub use backend::{all_backends, backend_names, parse_backend, PartitionBackend, DEFAULT_BACKEND};
pub use bmatrix::MediumGrainModel;
pub use medium_grain::medium_grain_bipartition;
pub use methods::{BipartitionResult, Method};
pub use recursive::{recursive_bisection, MultiwayResult};
pub use refine::iterative_refinement;
pub use service::{
    matrix_fingerprint, ErrorCode, MatrixPayload, PartitionOutcome, PartitionSpec, RequestOp,
};
pub use split::{initial_split, GlobalPreference, Split};

pub use mg_sparse::Idx;
