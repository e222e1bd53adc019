//! The batched sweep engine: the experiment cross product scheduled over
//! the worker pool of [`mg_collection::batch`], with JSON-lines
//! results.
//!
//! Each (matrix × method × ε) cell is one job, executed on the sweep's
//! configured [`mg_core::backend`] engine. Its RNG stream is seeded from
//! a stable hash of the cell's *key*, backend name included
//! ([`mg_collection::job_seed`]),
//! so results do not depend on sweep order, thread count or scheduling —
//! the determinism contract of the paper's §V extended from a single
//! split to a whole experiment campaign. The opt-in verify pass
//! recounts every reported volume from the per-row and per-column `λ`
//! stamp scans ([`row_lambdas`], [`col_lambdas`]), independent of the
//! bitmask count the partitioners report.

use crate::runner::class_label;
use mg_collection::batch::{expand_jobs, run_jobs, run_seed, worker_count};
use mg_collection::{generate, BatchJob, CollectionEntry, CollectionSpec};
use mg_core::{parse_backend, Method, PartitionBackend};
use mg_sparse::{
    col_lambdas, load_imbalance, row_lambdas, Coo, MatrixClass, NonzeroPartition, PatternStats,
};
use std::time::Instant;

/// Configuration of a batched sweep.
#[derive(Debug, Clone)]
pub struct BatchSweepConfig {
    /// Which collection to run on.
    pub collection: CollectionSpec,
    /// Keep only collection matrices whose name contains one of these
    /// substrings; `None` keeps everything. A filter that matches nothing
    /// makes the sweep fail with [`SweepError::EmptySweep`] rather than
    /// silently succeed on zero cells.
    pub matrices: Option<Vec<String>>,
    /// Methods to compare.
    pub methods: Vec<Method>,
    /// Load-imbalance parameters to sweep (the paper fixes ε = 0.03; the
    /// batch engine treats ε as a sweep axis).
    pub epsilons: Vec<f64>,
    /// Repetitions per cell; results are averaged.
    pub runs: u32,
    /// Master seed folded into every cell's key hash.
    pub seed: u64,
    /// Canonical backend name ([`mg_core::backend`] registry: `mondriaan`,
    /// `patoh`, `coarse-grain`, `geometric`). Part of every cell key, so
    /// campaigns on different engines draw independent RNG streams.
    pub backend: String,
    /// Worker threads for the job pool; 0 = one per available core.
    pub threads: usize,
    /// Cross-check every reported volume against an independent
    /// recomputation from the `λ` stamp scans; panics on mismatch. Off by
    /// default — it doubles the volume work per run.
    pub verify: bool,
}

impl BatchSweepConfig {
    /// The paper's standard campaign: six methods, ε = 0.03, on the named
    /// backend.
    pub fn paper(collection: CollectionSpec, backend: &str, runs: u32) -> Self {
        BatchSweepConfig {
            collection,
            matrices: None,
            methods: Method::paper_set().to_vec(),
            epsilons: vec![0.03],
            runs,
            seed: 0xB15EC7,
            backend: backend.to_string(),
            threads: 0,
            verify: false,
        }
    }
}

/// Why a sweep could not run. Every variant is a *setup* failure caught
/// before any job executes, so a failed sweep never produces partial
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The configured backend name is not in the registry; the message is
    /// the registry's own (it lists every valid name).
    UnknownBackend(String),
    /// The (matrix × method × ε) cross product is empty — typically a
    /// matrix filter that matched nothing, or an empty method/ε list.
    EmptySweep {
        /// Matrices remaining after the name filter.
        matrices: usize,
        /// Methods configured.
        methods: usize,
        /// ε values configured.
        epsilons: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownBackend(message) => f.write_str(message),
            SweepError::EmptySweep {
                matrices,
                methods,
                epsilons,
            } => write!(
                f,
                "empty sweep: {matrices} matrices x {methods} methods x \
                 {epsilons} epsilons expands to no jobs"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// One measured sweep cell.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Matrix name.
    pub matrix: String,
    /// Matrix class (paper's three-way split).
    pub class: MatrixClass,
    /// Matrix nonzero count.
    pub nnz: usize,
    /// Canonical backend name the cell ran on.
    pub backend: String,
    /// Method label (`LB`, `MG+IR`, …).
    pub method: String,
    /// Load-imbalance parameter of this cell.
    pub epsilon: f64,
    /// Repetitions averaged.
    pub runs: u32,
    /// The cell's stable seed (hash of its key).
    pub seed: u64,
    /// Mean communication volume over the runs.
    pub volume_avg: f64,
    /// Worst load imbalance observed over the runs.
    pub imbalance_max: f64,
    /// Mean wall-clock partitioning time in seconds. Excluded from
    /// [`BatchRecord::json_line`]: timing is machine noise, not part of
    /// the deterministic result.
    pub time_avg_s: f64,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BatchRecord {
    /// The record's (matrix, method, class) cell, for
    /// [`crate::runner::pivot`].
    pub fn cell(&self) -> (&str, &str, MatrixClass) {
        (&self.matrix, &self.method, self.class)
    }

    /// The deterministic JSON-lines serialisation: every field that is a
    /// pure function of (collection seed, cell key) — and nothing
    /// wall-clock-dependent. Two sweeps agree on these bytes iff they
    /// agree on results.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"matrix\":\"{}\",\"class\":\"{}\",\"nnz\":{},\"backend\":\"{}\",\
             \"method\":\"{}\",\
             \"epsilon\":{},\"runs\":{},\"seed\":{},\"volume_avg\":{},\"imbalance_max\":{}}}",
            escape_json(&self.matrix),
            class_label(self.class),
            self.nnz,
            escape_json(&self.backend),
            escape_json(&self.method),
            self.epsilon,
            self.runs,
            self.seed,
            self.volume_avg,
            self.imbalance_max
        )
    }

    /// [`BatchRecord::json_line`] plus the (non-deterministic) mean
    /// wall-clock time, for human consumption.
    pub fn json_line_with_timing(&self) -> String {
        let line = self.json_line();
        format!(
            "{},\"time_avg_s\":{:.6}}}",
            &line[..line.len() - 1],
            self.time_avg_s
        )
    }
}

/// Serialises records as deterministic JSON lines (one per cell,
/// trailing newline).
pub fn records_to_jsonl(records: &[BatchRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.json_line());
        out.push('\n');
    }
    out
}

/// A sweep resolved for execution: its backend, the (filtered)
/// collection and the expanded cross product.
pub(crate) struct SweepPlan {
    pub backend: &'static dyn PartitionBackend,
    pub entries: Vec<CollectionEntry>,
    /// The paper's class of each entry, classified once per sweep.
    pub classes: Vec<MatrixClass>,
    pub jobs: Vec<BatchJob>,
}

/// The setup every sweep shares: resolves the backend, generates and
/// filters the collection, and expands the (matrix × method × ε) jobs
/// with cell seeds derived from `master_seed`. Fails, without running
/// anything, on an unknown backend or an empty cross product — an empty
/// sweep is a configuration error, never a silent success.
pub(crate) fn plan_sweep(
    config: &BatchSweepConfig,
    master_seed: u64,
) -> Result<SweepPlan, SweepError> {
    let backend = parse_backend(&config.backend).map_err(SweepError::UnknownBackend)?;
    // The whole collection must be generated before filtering: the suite
    // threads one RNG stream through all matrices, so skipping earlier
    // instances would change the content of the kept ones and break the
    // filter-independence of cell results.
    let mut entries = generate(&config.collection);
    if let Some(filters) = &config.matrices {
        entries.retain(|e| filters.iter().any(|f| e.name.contains(f.as_str())));
    }
    let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    // Labels go through the canonical Method codec (Display = paper label,
    // `Method::parse_name` inverts it), so record streams stay parseable by
    // every other layer — see the round-trip test below.
    let labels: Vec<String> = config.methods.iter().map(|m| m.to_string()).collect();
    let jobs = expand_jobs(
        backend.name(),
        &names,
        &labels,
        &config.epsilons,
        master_seed,
    );
    if jobs.is_empty() {
        return Err(SweepError::EmptySweep {
            matrices: names.len(),
            methods: labels.len(),
            epsilons: config.epsilons.len(),
        });
    }
    let classes = entries
        .iter()
        .map(|e| PatternStats::compute(&e.matrix).class())
        .collect();
    Ok(SweepPlan {
        backend,
        entries,
        classes,
        jobs,
    })
}

/// Runs the batched p = 2 sweep: resolves the backend, expands the cross
/// product into jobs, schedules them over the worker pool, and returns
/// one record per cell in canonical job order (matrix generation order,
/// then method, then ε).
///
/// Fails (without running anything) when the backend name is unknown or
/// the job list expands to nothing.
pub fn run_batch_sweep(config: &BatchSweepConfig) -> Result<Vec<BatchRecord>, SweepError> {
    let plan = plan_sweep(config, config.seed)?;
    Ok(run_jobs(&plan.jobs, worker_count(config.threads), |job| {
        let entry = &plan.entries[job.matrix_index];
        let method = config.methods[job.method_index];
        let class = plan.classes[job.matrix_index];
        measure_cell(entry, class, method, plan.backend, job, config)
    }))
}

fn measure_cell(
    entry: &CollectionEntry,
    class: MatrixClass,
    method: Method,
    backend: &dyn PartitionBackend,
    job: &BatchJob,
    config: &BatchSweepConfig,
) -> BatchRecord {
    let runs = config.runs.max(1);
    let mut volume_sum = 0.0f64;
    let mut imbalance_max = 0.0f64;
    let mut time_sum = 0.0f64;
    for run in 0..runs {
        let start = Instant::now();
        let result = backend.bipartition(&entry.matrix, method, job.epsilon, run_seed(job, run));
        time_sum += start.elapsed().as_secs_f64();
        if config.verify {
            // A read-only recount: the check never perturbs the result.
            let check = lambda_volume(&entry.matrix, &result.partition);
            assert_eq!(
                check, result.volume,
                "volume mismatch for {} {} eps={}",
                entry.name, job.method, job.epsilon
            );
        }
        volume_sum += result.volume as f64;
        if entry.matrix.nnz() > 0 {
            imbalance_max = imbalance_max.max(load_imbalance(&result.partition));
        }
    }
    BatchRecord {
        matrix: entry.name.clone(),
        class,
        nnz: entry.matrix.nnz(),
        backend: job.backend.clone(),
        method: job.method.clone(),
        epsilon: job.epsilon,
        runs,
        seed: job.seed,
        volume_avg: volume_sum / runs as f64,
        imbalance_max,
        time_avg_s: time_sum / runs as f64,
    }
}

/// Eqn (3) volume `Σ(λ_i − 1) + Σ(λ_j − 1)` from the `λ` stamp scans.
fn lambda_volume(a: &Coo, partition: &NonzeroPartition) -> u64 {
    row_lambdas(a, partition)
        .into_iter()
        .chain(col_lambdas(a, partition))
        .map(|l| u64::from(l).saturating_sub(1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_collection::CollectionScale;

    fn smoke_config() -> BatchSweepConfig {
        let mut cfg = BatchSweepConfig::paper(
            CollectionSpec {
                seed: 7,
                scale: CollectionScale::Smoke,
            },
            "mondriaan",
            1,
        );
        cfg.methods = vec![
            Method::LocalBest { refine: false },
            Method::MediumGrain { refine: true },
        ];
        cfg.epsilons = vec![0.03, 0.1];
        cfg.verify = true;
        cfg
    }

    #[test]
    fn batch_sweep_covers_the_full_cross_product() {
        let cfg = smoke_config();
        let records = run_batch_sweep(&cfg).unwrap();
        let entries = generate(&cfg.collection);
        assert_eq!(
            records.len(),
            entries.len() * cfg.methods.len() * cfg.epsilons.len()
        );
        // ε is infeasible for a few heavy-tailed instances (an atomic
        // row/column group can outweigh the budget), so the bound is a
        // majority property, not a per-record invariant.
        let mut within = 0usize;
        for r in &records {
            assert!(r.volume_avg >= 0.0);
            assert!(r.time_avg_s >= 0.0);
            assert!(r.imbalance_max.is_finite() && r.imbalance_max >= 0.0);
            within += usize::from(r.imbalance_max <= r.epsilon + 1e-9);
        }
        assert!(
            within * 10 >= records.len() * 9,
            "only {within}/{} records within eps",
            records.len()
        );
    }

    #[test]
    fn json_lines_are_deterministic_and_timing_is_opt_in() {
        let r = BatchRecord {
            matrix: "m\"1".to_string(),
            class: MatrixClass::Symmetric,
            nnz: 42,
            backend: "patoh".to_string(),
            method: "MG+IR".to_string(),
            epsilon: 0.03,
            runs: 2,
            seed: 99,
            volume_avg: 12.5,
            imbalance_max: 0.01,
            time_avg_s: 1.0,
        };
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"matrix\":\"m\\\"1\",\"class\":\"Sym\",\"nnz\":42,\"backend\":\"patoh\",\
             \"method\":\"MG+IR\",\
             \"epsilon\":0.03,\"runs\":2,\"seed\":99,\"volume_avg\":12.5,\"imbalance_max\":0.01}"
        );
        assert!(!line.contains("time_avg_s"));
        let timed = r.json_line_with_timing();
        assert!(timed.starts_with(&line[..line.len() - 1]));
        assert!(timed.contains("\"time_avg_s\":1.000000"));
        assert!(timed.ends_with('}'));
    }

    #[test]
    fn record_method_labels_round_trip_through_the_codec() {
        let cfg = smoke_config();
        let records = run_batch_sweep(&cfg).unwrap();
        for r in &records {
            let parsed = Method::parse_name(&r.method)
                .unwrap_or_else(|e| panic!("record label {:?} does not parse: {e}", r.method));
            assert_eq!(parsed.to_string(), r.method);
            assert_eq!(
                parse_backend(&r.backend).unwrap().name(),
                r.backend,
                "record backend name is canonical"
            );
        }
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let cfg = smoke_config();
        let records = run_batch_sweep(&cfg).unwrap();
        let jsonl = records_to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), records.len());
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn unknown_backend_is_a_typed_setup_error() {
        let mut cfg = smoke_config();
        cfg.backend = "hmetis".to_string();
        match run_batch_sweep(&cfg) {
            Err(SweepError::UnknownBackend(message)) => {
                assert!(message.contains("hmetis"), "{message}");
                assert!(message.contains("coarse-grain"), "lists names: {message}");
            }
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
    }

    #[test]
    fn empty_sweeps_are_a_typed_setup_error() {
        let mut cfg = smoke_config();
        cfg.matrices = Some(vec!["no_such_matrix".to_string()]);
        match run_batch_sweep(&cfg) {
            Err(SweepError::EmptySweep { matrices, .. }) => assert_eq!(matrices, 0),
            other => panic!("expected EmptySweep, got {other:?}"),
        }
        let rendered = SweepError::EmptySweep {
            matrices: 0,
            methods: 2,
            epsilons: 1,
        }
        .to_string();
        assert!(rendered.contains("empty sweep"), "{rendered}");
    }

    #[test]
    fn matrix_filters_narrow_the_sweep() {
        let mut cfg = smoke_config();
        cfg.matrices = Some(vec!["laplace2d_".to_string()]);
        let records = run_batch_sweep(&cfg).unwrap();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.matrix.contains("laplace2d_")));
        // Filtered cells keep the seeds they had in the full sweep
        // (key-hash seeding is filter-independent).
        let full = run_batch_sweep(&smoke_config()).unwrap();
        for r in &records {
            let twin = full
                .iter()
                .find(|f| f.matrix == r.matrix && f.method == r.method && f.epsilon == r.epsilon)
                .expect("cell exists in the full sweep");
            assert_eq!(twin.seed, r.seed);
            assert_eq!(twin.volume_avg, r.volume_avg);
        }
    }
}
