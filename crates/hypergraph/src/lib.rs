//! # mg-hypergraph — hypergraph substrate
//!
//! Hypergraph partitioning is how the paper (and all of its baselines)
//! solves sparse matrix partitioning. This crate provides:
//!
//! * [`Hypergraph`] — a flat, cache-friendly hypergraph with vertex and net
//!   weights, storing both the net→pin and vertex→net incidence in CSR form;
//! * [`models`] — the three classical sparse-matrix models of §II
//!   (row-net, column-net, fine-grain) together with the back-mappings from
//!   a vertex partition to a nonzero partition of the matrix;
//! * [`VertexBipartition`] — incremental bipartition state (per-net pin
//!   counts, part weights, cut weight) shared by the FM refinement in
//!   `mg-partitioner` and the iterative refinement of `mg-core`;
//! * [`dedup`] — identical-net merging, used both at model construction and
//!   between coarsening levels.
//!
//! For a bipartition the connectivity metric `λ − 1` coincides with the
//! cut-net metric, so [`VertexBipartition::cut_weight`] *is* the
//! communication volume whenever net weights encode matrix rows/columns.

pub mod dedup;
pub mod hypergraph;
pub mod models;
pub mod partition;

pub use dedup::dedup_nets;
pub use hypergraph::{Hypergraph, HypergraphBuilder, HypergraphCsr};
pub use models::{column_net_model, fine_grain_model, row_net_model, MatrixModel, ModelKind};
pub use partition::VertexBipartition;

/// Vertex / net index type (matches `mg_sparse::Idx`).
pub type Idx = mg_sparse::Idx;
