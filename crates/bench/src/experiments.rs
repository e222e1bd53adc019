//! Library implementations of each paper experiment; `run_all` and
//! `fig3_demo` are thin wrappers, so integration tests can run
//! everything at smoke scale.

use crate::batch::{run_batch_sweep, BatchRecord, BatchSweepConfig};
use crate::geomean::{normalized_geomean_table, GeomeanTable};
use crate::profiles::{performance_profile, time_taus, volume_taus, PerformanceProfile};
use crate::runner::{class_label, pivot, run_multiway_sweep, sort_by_cell, MultiwayRecord};
use mg_collection::{gd97b_twin, CollectionSpec};
use mg_core::{parse_backend, Method};
use mg_sparse::MatrixClass;

/// Fig 3: repeated bipartitioning of the gd97_b twin. Returns, per method,
/// (label, best volume, mean volume, hits-of-best count) over `runs` runs.
pub fn fig3_gd97b(runs: u32) -> Vec<(String, u64, f64, u32)> {
    let a = gd97b_twin();
    let backend = parse_backend("mondriaan").expect("registered backend");
    let methods = [
        Method::RowNet { refine: false },
        Method::ColumnNet { refine: false },
        Method::FineGrain { refine: false },
        Method::MediumGrain { refine: false },
        Method::MediumGrain { refine: true },
    ];
    let mut rows = Vec::new();
    for (mi, method) in methods.iter().enumerate() {
        let mut best = u64::MAX;
        let mut sum = 0u64;
        let mut volumes = Vec::with_capacity(runs as usize);
        for run in 0..runs {
            let seed = 0x61d97b ^ ((mi as u64) << 32) ^ run as u64;
            let result = backend.bipartition(&a, *method, 0.03, seed);
            best = best.min(result.volume);
            sum += result.volume;
            volumes.push(result.volume);
        }
        let hits = volumes.iter().filter(|&&v| v == best).count() as u32;
        rows.push((
            method.label().to_string(),
            best,
            sum as f64 / runs as f64,
            hits,
        ));
    }
    rows
}

/// Renders the Fig 3 rows as a text table.
pub fn render_fig3(rows: &[(String, u64, f64, u32)], runs: u32) -> String {
    let mut out = format!(
        "Fig 3 — gd97_b twin (47x47, 264 nnz), best of {runs} runs, eps = 0.03\n\
         (paper: row-net 31, column-net 31, fine-grain 12, medium-grain 11 = optimal)\n\n\
         {:<8} {:>6} {:>9} {:>11}\n",
        "method", "best", "mean", "hits-best"
    );
    for (label, best, mean, hits) in rows {
        out.push_str(&format!("{label:<8} {best:>6} {mean:>9.2} {hits:>11}\n"));
    }
    out
}

/// The four Fig 4 subsets in paper order.
pub fn fig4_subsets() -> [(&'static str, Option<MatrixClass>); 4] {
    [
        ("all", None),
        ("square", Some(MatrixClass::SquareNonSymmetric)),
        ("symmetric", Some(MatrixClass::Symmetric)),
        ("rectangular", Some(MatrixClass::Rectangular)),
    ]
}

/// Fig 4 (and Fig 6a with a PaToH-like sweep): volume profiles for the
/// whole set and each class.
pub fn fig4_profiles(records: &[BatchRecord]) -> Vec<(String, PerformanceProfile)> {
    fig4_subsets()
        .into_iter()
        .map(|(name, class)| {
            let filtered: Vec<&BatchRecord> = records
                .iter()
                .filter(|r| class.is_none_or(|c| r.class == c))
                .collect();
            let (methods, values, _) = pivot(&filtered, |r| r.cell(), |r| r.volume_avg);
            (
                name.to_string(),
                performance_profile(&methods, &values, &volume_taus()),
            )
        })
        .collect()
}

/// Fig 5: partitioning-time profile over all matrices.
pub fn fig5_time_profile(records: &[BatchRecord]) -> PerformanceProfile {
    let (methods, values, _) = pivot(records, BatchRecord::cell, |r| r.time_avg_s.max(1e-9));
    performance_profile(&methods, &values, &time_taus())
}

/// Table I: normalised geomeans of volume and time, rows Rec/Sym/Sqr/All,
/// baseline LB.
pub fn table1_geomeans(records: &[BatchRecord]) -> (GeomeanTable, GeomeanTable) {
    let rows = ["Rec", "Sym", "Sqr"].map(String::from).to_vec();
    let (methods, volumes, groups) = pivot(records, BatchRecord::cell, |r| r.volume_avg);
    let baseline = methods
        .iter()
        .position(|m| m == "LB")
        .expect("LB must be part of the sweep");
    let volume_table = normalized_geomean_table(&methods, &volumes, &groups, &rows, baseline);
    let (_, times, _) = pivot(records, BatchRecord::cell, |r| r.time_avg_s.max(1e-9));
    let time_table = normalized_geomean_table(&methods, &times, &groups, &rows, baseline);
    (volume_table, time_table)
}

/// Table II: normalised geomeans of volume and BSP cost for a p-way sweep,
/// single `All` row per metric, baseline LB.
pub fn table2_rows(records: &[MultiwayRecord]) -> (Vec<String>, Vec<f64>, Vec<f64>) {
    let (methods, volume, _) = pivot(records, MultiwayRecord::cell, |r| r.volume_avg);
    let (_, cost, _) = pivot(records, MultiwayRecord::cell, |r| r.bsp_cost_avg);
    let baseline = methods
        .iter()
        .position(|m| m == "LB")
        .expect("LB must be part of the sweep");
    let geo = |values: &[Vec<f64>]| -> Vec<f64> {
        values
            .iter()
            .map(|row| {
                let ratios: Vec<f64> = row
                    .iter()
                    .zip(&values[baseline])
                    .filter(|&(_, &base)| base > 0.0)
                    .map(|(&v, &base)| v / base)
                    .collect();
                crate::geomean::geometric_mean(&ratios)
            })
            .collect()
    };
    (methods, geo(&volume), geo(&cost))
}

/// Renders Table II from p = 2 and p = 64 sweeps.
pub fn render_table2(p2: &[MultiwayRecord], p64: &[MultiwayRecord]) -> String {
    let mut out = String::from("Table II — geometric means relative to LB (PaToH-like engine)\n\n");
    let (methods, vol2, cost2) = table2_rows(p2);
    let (_, vol64, cost64) = table2_rows(p64);
    out.push_str(&format!("{:>9}", "metric"));
    for m in &methods {
        out.push_str(&format!("{m:>9}"));
    }
    out.push('\n');
    for (label, row) in [
        ("Vol p2", &vol2),
        ("Cost p2", &cost2),
        ("Vol p64", &vol64),
        ("Cost p64", &cost64),
    ] {
        out.push_str(&format!("{label:>9}"));
        for v in row {
            out.push_str(&format!("{v:>9.2}"));
        }
        out.push('\n');
    }
    out
}

/// The paper's p = 2 campaign on `backend` (Figs 4, 5 and 6a, Table I),
/// sorted by (matrix, method).
pub fn paper_sweep(
    collection: CollectionSpec,
    backend: &str,
    runs: u32,
    threads: usize,
) -> Vec<BatchRecord> {
    let config = BatchSweepConfig {
        threads,
        ..BatchSweepConfig::paper(collection, backend, runs)
    };
    let mut records = run_batch_sweep(&config).expect("the paper sweep configuration is valid");
    sort_by_cell(&mut records);
    records
}

/// The PaToH-backend p-way campaign for Fig 6b / Table II.
pub fn patoh_multiway_sweep(
    collection: CollectionSpec,
    runs: u32,
    threads: usize,
    p: u32,
) -> Vec<MultiwayRecord> {
    let config = BatchSweepConfig {
        threads,
        ..BatchSweepConfig::paper(collection, "patoh", runs)
    };
    run_multiway_sweep(&config, p).expect("the paper sweep configuration is valid")
}

/// Volume profile of a p-way sweep over all matrices — Fig 6b.
pub fn multiway_volume_profile(records: &[MultiwayRecord]) -> PerformanceProfile {
    let (methods, values, _) = pivot(records, MultiwayRecord::cell, |r| r.volume_avg);
    performance_profile(&methods, &values, &volume_taus())
}

/// A quick textual summary of which classes a record set covers; handy in
/// binary output headers.
pub fn class_summary(records: &[BatchRecord]) -> String {
    let mut counts = std::collections::BTreeMap::new();
    let mut seen = std::collections::HashSet::new();
    for r in records {
        if seen.insert(&r.matrix) {
            *counts.entry(class_label(r.class)).or_insert(0usize) += 1;
        }
    }
    counts
        .iter()
        .map(|(k, v)| format!("{k}: {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}
