//! # mediumgrain — facade crate
//!
//! A from-scratch Rust reproduction of
//! *"A medium-grain method for fast 2D bipartitioning of sparse matrices"*
//! (D. M. Pelt and R. H. Bisseling, IPDPS 2014), the algorithm that became
//! the default partitioner of Mondriaan 4.0.
//!
//! This crate re-exports the public API of the workspace so downstream users
//! need a single dependency:
//!
//! ```
//! use mediumgrain::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A 2D Laplacian, bipartitioned with the medium-grain method + iterative
//! // refinement under a 3% load-imbalance budget.
//! let a = mediumgrain::sparse::gen::laplacian_2d(32, 32);
//! let mut rng = StdRng::seed_from_u64(42);
//! let result = Method::MediumGrain { refine: true }
//!     .bipartition(&a, 0.03, &PartitionerConfig::mondriaan_like(), &mut rng);
//! assert!(result.volume <= 96); // far below the 1D worst case
//! assert!(load_imbalance(&result.partition) <= 0.03 + 1e-9);
//! ```
//!
//! The crates behind the facade:
//!
//! * [`sparse`] (`mg-sparse`) — matrices, I/O, generators, metrics, SpMV
//!   simulator,
//! * [`hypergraph`] (`mg-hypergraph`) — hypergraph models and cut metrics,
//! * [`partitioner`] (`mg-partitioner`) — the multilevel FM bipartitioner,
//! * [`core`] (`mg-core`) — the medium-grain method itself, baselines,
//!   iterative refinement, recursive bisection,
//! * [`collection`] (`mg-collection`) — the synthetic evaluation collection.

pub use mg_collection as collection;
pub use mg_core as core;
pub use mg_hypergraph as hypergraph;
pub use mg_partitioner as partitioner;
pub use mg_sparse as sparse;

/// One-stop imports for typical use.
///
/// Beyond bipartitioning, the prelude covers the p-way pipeline:
///
/// ```
/// use mediumgrain::prelude::*;
///
/// let a = mediumgrain::sparse::gen::laplacian_2d(16, 16);
/// let backend = parse_backend("mondriaan").unwrap();
/// let method = Method::MediumGrain { refine: true };
/// let r = recursive_bisection(&a, 4, 0.03, method, backend, 7);
/// assert_eq!(r.partition.num_parts(), 4);
/// assert_eq!(r.volume, communication_volume(&a, &r.partition));
/// ```
pub mod prelude {
    pub use mg_core::{
        all_backends, iterative_refinement, parse_backend, recursive_bisection, BipartitionResult,
        Method, MultiwayResult, PartitionBackend,
    };
    pub use mg_hypergraph::{Hypergraph, VertexBipartition};
    pub use mg_partitioner::PartitionerConfig;
    pub use mg_sparse::{
        bsp_cost, communication_volume, load_imbalance, Coo, MatrixClass, NonzeroPartition,
        PatternStats,
    };
}
