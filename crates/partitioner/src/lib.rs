//! # mg-partitioner — multilevel hypergraph bipartitioner
//!
//! A from-scratch reimplementation of the algorithm family used by the
//! paper's two engines (Mondriaan's internal partitioner and PaToH):
//! multilevel bipartitioning with
//!
//! * **coarsening** by greedy matching or agglomerative clustering on net
//!   connectivity ([`matching`], [`coarsen`]),
//! * **initial partitioning** from multiple random/greedy candidates
//!   ([`initial`]),
//! * **refinement** by Fiduccia–Mattheyses passes with gain buckets and
//!   best-prefix rollback ([`fm`], [`gainbucket`]),
//! * a **driver** that stacks the levels and projects partitions back up
//!   ([`multilevel`]),
//! * an **idle-core gate** that lets a large bipartition run independent
//!   work on one helper thread when a core would otherwise idle
//!   ([`helper`]).
//!
//! Two presets mirror the paper's engines: [`PartitionerConfig::mondriaan_like`]
//! and [`PartitionerConfig::patoh_like`] (see DESIGN.md §5 for the
//! substitution rationale).
//!
//! The balance model is expressed in *target weights* plus an ε slack
//! ([`BisectionTargets`]), which is exactly what recursive bisection with an
//! imbalance budget needs.

pub mod coarsen;
pub mod config;
pub mod fm;
pub mod gainbucket;
pub mod helper;
pub mod initial;
pub mod matching;
pub mod multilevel;

pub use config::{CoarseningScheme, PartitionerConfig};
pub use fm::{fm_refine, fm_refine_with_scratch, FmLimits, FmScratch};
pub use multilevel::{bipartition_hypergraph, BisectionOutcome, BisectionTargets};

pub use mg_hypergraph::Idx;
