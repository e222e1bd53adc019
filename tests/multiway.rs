//! Integration tests for p-way recursive bisection and the Table II
//! metrics across crates.

use mediumgrain::prelude::*;
use mediumgrain::sparse::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn backend(name: &str) -> &'static dyn PartitionBackend {
    parse_backend(name).unwrap()
}

#[test]
fn sixteen_way_partition_is_valid_and_balanced() {
    let a = gen::laplacian_2d(32, 32);
    let m = Method::MediumGrain { refine: true };
    let r = recursive_bisection(&a, 16, 0.03, m, backend("mondriaan"), 3);
    assert_eq!(r.partition.num_parts(), 16);
    let sizes = r.partition.part_sizes();
    assert_eq!(sizes.iter().sum::<u64>() as usize, a.nnz());
    assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    // Per-level budgeting keeps the global constraint approximately; allow
    // rounding slack on this moderate size.
    assert!(
        load_imbalance(&r.partition) <= 0.03 + 0.03,
        "imbalance {}",
        load_imbalance(&r.partition)
    );
    assert_eq!(r.volume, communication_volume(&a, &r.partition));
}

#[test]
fn multiway_volume_equals_simulated_words() {
    use mediumgrain::sparse::spmv::simulate_spmv;
    let mut rng = StdRng::seed_from_u64(4);
    let a = gen::chung_lu_symmetric(300, 3600, 0.9, &mut rng);
    let m = Method::MediumGrain { refine: true };
    let r = recursive_bisection(&a, 8, 0.03, m, backend("patoh"), 4);
    let report = simulate_spmv(&a, &r.partition, None);
    assert_eq!(report.total_words(), r.volume);
}

#[test]
fn bsp_cost_scales_down_with_more_parts_on_balanced_comm() {
    // The h-relation is a max over processors: with more parts, each part
    // sends/receives a smaller share even as total volume grows.
    let a = gen::laplacian_3d(12, 12, 12);
    let m = Method::MediumGrain { refine: true };
    let mut cost2 = 0;
    let mut cost16 = 0;
    for seed in 0..3 {
        let r2 = recursive_bisection(&a, 2, 0.03, m, backend("mondriaan"), seed);
        cost2 += bsp_cost(&a, &r2.partition).total();
        let r16 = recursive_bisection(&a, 16, 0.03, m, backend("mondriaan"), seed);
        cost16 += bsp_cost(&a, &r16.partition).total();
    }
    // Not guaranteed in theory, but very robust on a 3D Laplacian: the
    // 2-way cut concentrates all traffic on two processors.
    assert!(
        cost16 < cost2 * 3,
        "p=16 h-relation ({cost16}) should not blow up vs p=2 ({cost2})"
    );
}

#[test]
fn every_method_supports_multiway() {
    let a = gen::laplacian_2d(20, 20);
    for method in [
        Method::LocalBest { refine: false },
        Method::FineGrain { refine: false },
        Method::MediumGrain { refine: false },
    ] {
        let r = recursive_bisection(&a, 5, 0.1, method, backend("mondriaan"), 8);
        assert_eq!(r.partition.num_parts(), 5);
        let sizes = r.partition.part_sizes();
        assert_eq!(sizes.iter().sum::<u64>() as usize, a.nnz());
        assert!(sizes.iter().all(|&s| s > 0), "{method}: {sizes:?}");
    }
}
