//! The p-way sweep and the record plumbing the figures share.
//!
//! Every experiment of §IV averages communication volume and wall-clock
//! partitioning time over several runs ("the average communication
//! volume and partitioning time of 10 runs"). The p = 2 campaigns are
//! [`crate::batch::run_batch_sweep`] records; the p-way campaign behind
//! Fig 6b and Table II is [`run_multiway_sweep`], which shares the batch
//! engine's setup ([`crate::batch::BatchSweepConfig`], backend
//! resolution, collection filter, job expansion) and worker pool, so its
//! records are identical for every thread count too. [`pivot`] reshapes
//! either record type into the method × matrix matrices the profile and
//! geomean code consume.

use crate::batch::{plan_sweep, BatchRecord, BatchSweepConfig, SweepError};
use mg_collection::batch::{run_jobs, run_seed, worker_count};
use mg_core::recursive_bisection;
use mg_sparse::{bsp_cost, Idx, MatrixClass};
use std::time::Instant;

/// One (matrix, method) measurement for p-way recursive bisection.
#[derive(Debug, Clone)]
pub struct MultiwayRecord {
    /// Matrix name.
    pub matrix: String,
    /// Matrix class.
    pub class: MatrixClass,
    /// Method label.
    pub method: String,
    /// Number of parts.
    pub p: Idx,
    /// Mean communication volume.
    pub volume_avg: f64,
    /// Mean BSP cost (fan-out + fan-in h-relations).
    pub bsp_cost_avg: f64,
    /// Mean wall-clock time in seconds.
    pub time_avg_s: f64,
}

impl MultiwayRecord {
    /// The record's (matrix, method, class) cell, for [`pivot`].
    pub fn cell(&self) -> (&str, &str, MatrixClass) {
        (&self.matrix, &self.method, self.class)
    }
}

/// Sorts p = 2 records by matrix name then method label: the row order
/// of the record CSVs and the case order of every pivot (and so the
/// summation order of the geomeans).
pub fn sort_by_cell(records: &mut [BatchRecord]) {
    records.sort_by(|a, b| (a.matrix.as_str(), a.method.as_str()).cmp(&(&b.matrix, &b.method)));
}

/// Runs the p-way sweep (recursive bisection), additionally measuring the
/// BSP cost of each partitioning (Table II), and returns one record per
/// cell sorted by matrix name then method label. Setup and scheduling
/// are the p = 2 sweep's; `p` is folded into the master seed so the
/// p = 2 and p = 64 campaigns draw independent streams. `verify` applies to the
/// p = 2 sweep only.
pub fn run_multiway_sweep(
    config: &BatchSweepConfig,
    p: Idx,
) -> Result<Vec<MultiwayRecord>, SweepError> {
    let master = config.seed ^ (u64::from(p) << 32) ^ 0x4D57_4159; // "MWAY"
    let plan = plan_sweep(config, master)?;
    let runs = config.runs.max(1);

    let mut out: Vec<MultiwayRecord> = run_jobs(&plan.jobs, worker_count(config.threads), |job| {
        let entry = &plan.entries[job.matrix_index];
        let method = config.methods[job.method_index];
        let mut volume_sum = 0.0;
        let mut cost_sum = 0.0;
        let mut time_sum = 0.0;
        for run in 0..runs {
            let start = Instant::now();
            let result = recursive_bisection(
                &entry.matrix,
                p,
                job.epsilon,
                method,
                plan.backend,
                run_seed(job, run),
            );
            time_sum += start.elapsed().as_secs_f64();
            volume_sum += result.volume as f64;
            cost_sum += bsp_cost(&entry.matrix, &result.partition).total() as f64;
        }
        MultiwayRecord {
            matrix: entry.name.clone(),
            class: plan.classes[job.matrix_index],
            method: job.method.clone(),
            p,
            volume_avg: volume_sum / runs as f64,
            bsp_cost_avg: cost_sum / runs as f64,
            time_avg_s: time_sum / runs as f64,
        }
    });
    out.sort_by(|a, b| (a.matrix.as_str(), a.method.as_str()).cmp(&(&b.matrix, &b.method)));
    Ok(out)
}

/// The paper's column order for method labels; unknown labels sort last,
/// alphabetically.
pub fn method_order_key(label: &str) -> (usize, String) {
    const ORDER: [&str; 10] = [
        "LB", "LB+IR", "MG", "MG+IR", "FG", "FG+IR", "RN", "RN+IR", "CN", "CN+IR",
    ];
    let rank = ORDER
        .iter()
        .position(|&x| x == label)
        .unwrap_or(ORDER.len());
    (rank, label.to_string())
}

/// Reshapes records into the method × case value matrices the profile and
/// geomean code consume. `cell` names a record's (matrix, method, class).
/// Returns (method labels in the paper's column order, per-method values,
/// per-case group labels), with cases ordered by first appearance.
///
/// Each (matrix, method) cell must appear once. Records of a multi-ε
/// sweep would collide and silently corrupt the profiles, so a repeated
/// cell panics; split such records by ε first.
pub fn pivot<R>(
    records: &[R],
    cell: impl Fn(&R) -> (&str, &str, MatrixClass),
    value: impl Fn(&R) -> f64,
) -> (Vec<String>, Vec<Vec<f64>>, Vec<String>) {
    let mut methods: Vec<String> = Vec::new();
    let mut matrices: Vec<&str> = Vec::new();
    for r in records {
        let (matrix, method, _) = cell(r);
        if !methods.iter().any(|m| m == method) {
            methods.push(method.to_string());
        }
        if !matrices.contains(&matrix) {
            matrices.push(matrix);
        }
    }
    methods.sort_by_key(|m| method_order_key(m));
    let mut values = vec![vec![None; matrices.len()]; methods.len()];
    let mut groups = vec![String::new(); matrices.len()];
    for r in records {
        let (matrix, method, class) = cell(r);
        let m = methods.iter().position(|x| x == method).expect("known");
        let c = matrices.iter().position(|&x| x == matrix).expect("known");
        assert!(
            values[m][c].replace(value(r)).is_none(),
            "pivot: cell ({matrix}, {method}) appears twice; pivot a \
             single-epsilon sweep (split multi-epsilon records by epsilon first)"
        );
        groups[c] = class_label(class).to_string();
    }
    let values = values
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| v.unwrap_or(f64::INFINITY))
                .collect()
        })
        .collect();
    (methods, values, groups)
}

/// The paper's row labels for classes.
pub fn class_label(class: MatrixClass) -> &'static str {
    match class {
        MatrixClass::Rectangular => "Rec",
        MatrixClass::Symmetric => "Sym",
        MatrixClass::SquareNonSymmetric => "Sqr",
    }
}

/// CSV serialisation of p = 2 records.
pub fn records_to_csv(records: &[BatchRecord]) -> String {
    let mut out = String::from("matrix,class,nnz,method,volume_avg,time_avg_s,runs\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.6},{}\n",
            r.matrix,
            class_label(r.class),
            r.nnz,
            r.method,
            r.volume_avg,
            r.time_avg_s,
            r.runs
        ));
    }
    out
}

/// CSV serialisation of multiway records.
pub fn multiway_to_csv(records: &[MultiwayRecord]) -> String {
    let mut out = String::from("matrix,class,method,p,volume_avg,bsp_cost_avg,time_avg_s\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.3},{:.6}\n",
            r.matrix,
            class_label(r.class),
            r.method,
            r.p,
            r.volume_avg,
            r.bsp_cost_avg,
            r.time_avg_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_batch_sweep;
    use mg_collection::{CollectionScale, CollectionSpec};
    use mg_core::Method;

    fn tiny_config() -> BatchSweepConfig {
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
        cfg
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn multi_epsilon_records_are_rejected_by_the_pivot() {
        let mut cfg = tiny_config();
        cfg.methods = vec![Method::LocalBest { refine: false }];
        cfg.epsilons = vec![0.03, 0.1];
        let records = run_batch_sweep(&cfg).unwrap();
        let _ = pivot(&records, BatchRecord::cell, |r| r.volume_avg);
    }

    #[test]
    fn multiway_sweep_is_deterministic_across_thread_counts() {
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let one = run_multiway_sweep(&cfg, 4).unwrap();
        cfg.threads = 3;
        let three = run_multiway_sweep(&cfg, 4).unwrap();
        assert_eq!(one.len(), three.len());
        for (a, b) in one.iter().zip(&three) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.method, b.method);
            assert_eq!(a.volume_avg, b.volume_avg, "{} {}", a.matrix, a.method);
            assert_eq!(a.bsp_cost_avg, b.bsp_cost_avg, "{} {}", a.matrix, a.method);
        }
    }

    #[test]
    fn multiway_sweep_rejects_unknown_backends() {
        let mut cfg = tiny_config();
        cfg.backend = "zoltan".to_string();
        assert!(matches!(
            run_multiway_sweep(&cfg, 4),
            Err(SweepError::UnknownBackend(_))
        ));
    }

    #[test]
    fn pivot_produces_consistent_matrix() {
        let records = run_batch_sweep(&tiny_config()).unwrap();
        let (methods, values, groups) = pivot(&records, BatchRecord::cell, |r| r.volume_avg);
        assert_eq!(methods.len(), 2);
        assert_eq!(values[0].len(), groups.len());
        assert!(values.iter().all(|row| row.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let records = run_batch_sweep(&tiny_config()).unwrap();
        let csv = records_to_csv(&records);
        assert_eq!(csv.lines().count(), records.len() + 1);
        assert!(csv.starts_with("matrix,class,nnz,method"));
    }
}
