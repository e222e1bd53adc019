//! Algorithm 2 as a standalone post-processing step.
//!
//! ```text
//! cargo run --release --example refine_anything
//! ```
//!
//! The paper's iterative refinement is method-agnostic: it takes *any*
//! bipartition of the nonzeros and monotonically reduces its communication
//! volume. Here we refine three progressively better starting points —
//! a naive block split, a 1D row-net partition, and the medium-grain
//! method's own output — and watch each converge.

use mediumgrain::core::iterative_refinement;
use mediumgrain::prelude::*;
use mediumgrain::sparse::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let a = gen::laplacian_2d_9pt(48, 48);
    println!("matrix: {}x{}, {} nonzeros\n", a.rows(), a.cols(), a.nnz());
    let config = PartitionerConfig::mondriaan_like();

    // 1. A naive split: first half of the nonzeros to part 0 (respects the
    //    balance constraint but ignores structure entirely... almost: the
    //    canonical row-major order makes it a crude row split).
    let naive = NonzeroPartition::new(2, (0..a.nnz()).map(|k| (k >= a.nnz() / 2) as u32).collect())
        .unwrap();
    report(&a, "naive half split", &naive);

    // 2. A 1D method's output.
    let mut rng = StdRng::seed_from_u64(4);
    let rn = Method::RowNet { refine: false }.bipartition(&a, 0.03, &config, &mut rng);
    report(&a, "row-net output", &rn.partition);

    // 3. The medium-grain method's own output (IR is then the paper's
    //    MG+IR configuration).
    let mut rng = StdRng::seed_from_u64(4);
    let mg = Method::MediumGrain { refine: false }.bipartition(&a, 0.03, &config, &mut rng);
    report(&a, "medium-grain output", &mg.partition);
}

fn report(a: &mediumgrain::sparse::Coo, label: &str, partition: &NonzeroPartition) {
    let before = communication_volume(a, partition);
    let refined = iterative_refinement(a, partition, 0.03);
    println!(
        "{label:>20}: volume {before:>5} -> {:<5} ({} KL runs, imbalance {:.4})",
        refined.volume,
        refined.iterations,
        load_imbalance(&refined.partition)
    );
    assert!(refined.volume <= before, "Algorithm 2 must be monotone");
}
