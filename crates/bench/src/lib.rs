//! # mg-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Fig 3 (gd97_b demonstration, with spy plots) | `fig3_demo` |
//! | Fig 3 table, Fig 4a–d, Fig 5, Fig 6a–b, Tables I and II, with CSV artifacts under `results/` | `run_all` |
//!
//! The library half provides the pieces: Dolan–Moré performance profiles
//! ([`profiles`]), normalised geometric means ([`geomean`]), the batched
//! parallel sweep engine with JSON-lines output ([`batch`]), the p-way
//! sweep and the record pivot built on it ([`runner`]), one function per
//! experiment ([`experiments`]) and common CLI/output plumbing
//! ([`report`]).

pub mod batch;
pub mod experiments;
pub mod geomean;
pub mod profiles;
pub mod report;
pub mod runner;

pub use batch::{records_to_jsonl, run_batch_sweep, BatchRecord, BatchSweepConfig, SweepError};
pub use geomean::{geometric_mean, normalized_geomean_table, GeomeanTable};
pub use profiles::{performance_profile, PerformanceProfile};
pub use report::{results_dir, write_artifact, CliOptions};
pub use runner::{
    multiway_to_csv, pivot, records_to_csv, run_multiway_sweep, sort_by_cell, MultiwayRecord,
};
