//! # mg-collection — the synthetic evaluation collection
//!
//! The paper evaluates on 2264 matrices (500 – 5·10⁶ nonzeros) from the
//! University of Florida sparse matrix collection, split into three classes:
//! 582 rectangular, 1007 structurally symmetric, 675 square non-symmetric.
//! That collection cannot be redistributed here, so this crate generates a
//! *deterministic* population with the same class mix (≈26% / 44% / 30%)
//! and a comparable diversity of structure, drawn from the twelve generator
//! families of [`mg_sparse::gen`] (see DESIGN.md §5 for the substitution
//! argument).
//!
//! Everything is a pure function of the [`CollectionSpec`] seed, so the
//! whole experiment pipeline is reproducible bit-for-bit.
//!
//! The [`batch`] module turns a collection into a sweep substrate: it
//! expands (matrix × method × ε) cells into a job list with stable
//! per-key seeds and schedules them over a worker pool with
//! thread-count-independent results.

pub mod batch;
pub mod gd97b;
pub mod suite;

pub use batch::{expand_jobs, job_seed, run_batch, run_jobs, run_seed, worker_count, BatchJob};
pub use gd97b::gd97b_twin;
pub use suite::{generate, CollectionEntry, CollectionScale, CollectionSpec};
