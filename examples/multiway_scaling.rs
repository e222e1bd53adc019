//! Scaling study: partition one matrix for p = 2 … 64 processors by
//! recursive bisection (how Mondriaan applies the medium-grain method in
//! practice, and how Table II's p = 64 numbers are produced).
//!
//! ```text
//! cargo run --release --example multiway_scaling
//! ```

use mediumgrain::prelude::*;
use mediumgrain::sparse::gen;

fn main() {
    // A 3D Laplacian — the classic strong-scaling workload.
    let a = gen::laplacian_3d(16, 16, 16);
    println!("matrix: {}x{}, {} nonzeros\n", a.rows(), a.cols(), a.nnz());
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>12}",
        "p", "volume", "BSP cost", "max part", "imbalance"
    );

    let backend = parse_backend("mondriaan").expect("registered backend");
    let method = Method::MediumGrain { refine: true };
    for p in [2u32, 4, 8, 16, 32, 64] {
        let result = recursive_bisection(&a, p, 0.03, method, backend, 1234);
        let cost = bsp_cost(&a, &result.partition);
        let max = result.partition.part_sizes().into_iter().max().unwrap();
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>11.4}",
            p,
            result.volume,
            cost.total(),
            max,
            load_imbalance(&result.partition),
        );
    }
    println!("\nvolume grows sublinearly with p; per-part load stays within ε.");
}
