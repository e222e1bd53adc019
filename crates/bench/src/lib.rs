//! # mg-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Fig 3 (gd97_b demonstration) | `fig3_demo` |
//! | Fig 4a–d (volume profiles, Mondriaan-like engine) | `fig4_profiles` |
//! | Fig 5 (time profile) | `fig5_time_profile` |
//! | Table I (geometric means, volume & time) | `table1_geomeans` |
//! | Fig 6a–b (volume profiles, PaToH-like engine, p = 2 / 64) | `fig6_patoh_profiles` |
//! | Table II (geomeans of volume & BSP cost, p = 2 / 64) | `table2_multiway` |
//! | everything, with CSV artifacts under `results/` | `run_all` |
//!
//! The library half provides the pieces: Dolan–Moré performance profiles
//! ([`profiles`]), normalised geometric means ([`geomean`]), the batched
//! parallel sweep engine with JSON-lines output ([`batch`]), the
//! record-level sweep views built on it ([`runner`]) and common CLI/output
//! plumbing ([`report`]).

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
    batch_to_run_records, multiway_to_csv, pivot_records, records_to_csv, run_multiway_sweep,
    run_sweep, MultiwayRecord, RunRecord, SweepConfig,
};
