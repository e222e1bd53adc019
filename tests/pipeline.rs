//! Cross-crate integration tests: the full pipeline from generated matrix
//! through models, multilevel partitioning, refinement and metrics,
//! exercised through the public facade exactly as a downstream user would.

use mediumgrain::core::iterative_refinement;
use mediumgrain::prelude::*;
use mediumgrain::sparse::gen;
use mg_test_support::fixtures::standard_workload as workload;
use mg_test_support::seeded_rng;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILON: f64 = 0.03;

fn methods_under_test() -> Vec<Method> {
    vec![
        Method::RowNet { refine: false },
        Method::ColumnNet { refine: false },
        Method::LocalBest { refine: false },
        Method::LocalBest { refine: true },
        Method::FineGrain { refine: false },
        Method::FineGrain { refine: true },
        Method::MediumGrain { refine: false },
        Method::MediumGrain { refine: true },
    ]
}

/// The worst volume any 1D bipartitioning can be charged: cutting every
/// matrix line of one orientation. A row partition communicates at most once
/// per nonempty column and vice versa, so the worse orientation bounds both
/// 1D baselines — and a 2D method that exceeded it would be strictly worse
/// than giving up on the second dimension entirely (the sanity bound
/// Knigge & Bisseling's exact-bipartitioning work checks against).
fn one_d_worst_case(a: &mediumgrain::sparse::Coo) -> u64 {
    let nonempty_rows = a.row_counts().iter().filter(|&&c| c > 0).count() as u64;
    let nonempty_cols = a.col_counts().iter().filter(|&&c| c > 0).count() as u64;
    nonempty_rows.max(nonempty_cols)
}

/// The full per-method contract on the seeded workload: valid partition,
/// honest volume, volume within the 1D worst case, imbalance within eqn (1).
///
/// The 1D bound is *provable* for the 1D methods (a row partition's volume
/// is at most the nonempty-column count and vice versa, so RN/CN can touch
/// the bound — RN on `arrow` reaches exactly 1.0× — but never exceed it).
/// For the 2D methods it is empirical headroom: measured over 8 seeds and
/// both engines they stay ≤ 0.25× the bound, so the assertion is robust to
/// RNG stream changes.
fn assert_method_contracts(config: &PartitionerConfig, seed: u64) {
    for (name, a) in workload() {
        let worst_1d = one_d_worst_case(&a);
        for method in methods_under_test() {
            let mut rng = seeded_rng(seed);
            let result = method.bipartition(&a, EPSILON, config, &mut rng);
            result.partition.check_against(&a).unwrap();
            assert_eq!(
                result.volume,
                communication_volume(&a, &result.partition),
                "{name}/{method}: reported volume is stale"
            );
            assert!(
                result.volume <= worst_1d,
                "{name}/{method}: volume {} exceeds the 1D worst case {worst_1d}",
                result.volume
            );
            assert!(
                load_imbalance(&result.partition) <= EPSILON + 1e-9,
                "{name}/{method}: imbalance {}",
                load_imbalance(&result.partition)
            );
        }
    }
}

#[test]
fn every_method_yields_valid_partitions_across_the_workload() {
    assert_method_contracts(&PartitionerConfig::mondriaan_like(), 1);
}

#[test]
fn both_engines_respect_volume_and_balance_bounds_for_every_method() {
    // Same contract, PaToH-like engine: the bounds are a property of the
    // method API, not of one engine preset.
    assert_method_contracts(&PartitionerConfig::patoh_like(), 2);
}

#[test]
fn medium_grain_beats_1d_on_2d_structured_matrices() {
    // The paper's headline claim, on the workloads its introduction
    // motivates (square matrices with 2D structure). Averaged over seeds
    // to be robust.
    let config = PartitionerConfig::mondriaan_like();
    let a = gen::arrow(300, 5);
    let mut mg_total = 0u64;
    let mut lb_total = 0u64;
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        mg_total += Method::MediumGrain { refine: true }
            .bipartition(&a, EPSILON, &config, &mut rng)
            .volume;
        let mut rng = StdRng::seed_from_u64(seed);
        lb_total += Method::LocalBest { refine: false }
            .bipartition(&a, EPSILON, &config, &mut rng)
            .volume;
    }
    assert!(
        mg_total < lb_total,
        "medium-grain ({mg_total}) should beat localbest ({lb_total}) on the arrow matrix"
    );
}

#[test]
fn refinement_reduces_or_keeps_volume_for_all_methods() {
    let config = PartitionerConfig::mondriaan_like();
    for (name, a) in workload() {
        for refine in [
            Method::LocalBest { refine: false },
            Method::FineGrain { refine: false },
            Method::MediumGrain { refine: false },
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let base = refine.bipartition(&a, EPSILON, &config, &mut rng);
            let refined = iterative_refinement(&a, &base.partition, EPSILON);
            assert!(
                refined.volume <= base.volume,
                "{name}/{refine}: IR worsened {} -> {}",
                base.volume,
                refined.volume
            );
        }
    }
}

#[test]
fn spmv_simulation_agrees_with_metric_for_every_method() {
    use mediumgrain::sparse::spmv::{serial_spmv, simulate_spmv};
    let config = PartitionerConfig::mondriaan_like();
    let mut rng = StdRng::seed_from_u64(5);
    let a = gen::erdos_renyi(120, 90, 1500, &mut rng);
    for method in methods_under_test() {
        let result = method.bipartition(&a, EPSILON, &config, &mut rng);
        let report = simulate_spmv(&a, &result.partition, None);
        assert_eq!(report.total_words(), result.volume, "{method}");
        assert_eq!(report.output, serial_spmv(&a), "{method}");
    }
}

#[test]
fn facade_prelude_covers_the_quickstart_path() {
    // Mirrors the README quickstart so the docs cannot rot silently.
    let a = gen::laplacian_2d(32, 32);
    let mut rng = StdRng::seed_from_u64(42);
    let result = Method::MediumGrain { refine: true }.bipartition(
        &a,
        EPSILON,
        &PartitionerConfig::mondriaan_like(),
        &mut rng,
    );
    assert!(result.volume <= 96);
    assert!(load_imbalance(&result.partition) <= EPSILON + 1e-9);
    let stats = PatternStats::compute(&a);
    assert_eq!(stats.class(), MatrixClass::Symmetric);
    let cost = bsp_cost(&a, &result.partition);
    assert!(cost.total() <= result.volume);
}

#[test]
fn deterministic_end_to_end() {
    let config = PartitionerConfig::patoh_like();
    let a = gen::laplacian_2d_9pt(20, 20);
    for method in methods_under_test() {
        let r1 = method.bipartition(&a, EPSILON, &config, &mut StdRng::seed_from_u64(33));
        let r2 = method.bipartition(&a, EPSILON, &config, &mut StdRng::seed_from_u64(33));
        assert_eq!(r1.partition, r2.partition, "{method}");
    }
}
