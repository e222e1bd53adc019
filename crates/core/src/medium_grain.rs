//! The full medium-grain bipartitioner:
//! split → B-hypergraph → multilevel bisection → map back (§III-A/B).

use crate::bmatrix::MediumGrainModel;
use crate::methods::BipartitionResult;
use crate::split::initial_split;
use mg_partitioner::{bipartition_hypergraph, BisectionTargets, PartitionerConfig};
use mg_sparse::{Coo, LineIndex};
use rand::Rng;

/// Medium-grain bipartitioning with an even nonzero split and slack
/// `epsilon` (eqn (1) with p = 2).
pub fn medium_grain_bipartition<R: Rng>(
    a: &Coo,
    epsilon: f64,
    config: &PartitionerConfig,
    rng: &mut R,
) -> BipartitionResult {
    let targets = BisectionTargets::even(a.nnz() as u64, epsilon);
    medium_grain_bipartition_with_targets(a, &LineIndex::new(a), &targets, config, rng)
}

/// Medium-grain bipartitioning of `a`, whose index is `index`, with
/// explicit targets (recursive bisection uses uneven ones).
///
/// The hypergraph's total vertex weight equals the nonzero count of `A`
/// (group weights exclude the dummy diagonal of `B`), so hypergraph balance
/// *is* nonzero balance.
pub fn medium_grain_bipartition_with_targets<R: Rng>(
    a: &Coo,
    index: &LineIndex,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
) -> BipartitionResult {
    if a.nnz() == 0 {
        return BipartitionResult::empty(a);
    }
    // Algorithm 1 and the layout of B are one `medium_grain_build` scope;
    // `Method::bipartition_with_targets` times A's index in another.
    let build_timer = mg_obs::phase("medium_grain_build");
    let split = initial_split(a, index, rng);
    let mut model = MediumGrainModel::default();
    model.lay_out(a, index, |k| split.in_row(k));
    drop(build_timer);
    debug_assert_eq!(model.hypergraph.total_vertex_weight(), a.nnz() as u64);
    let outcome = bipartition_hypergraph(&model.hypergraph, targets, config, rng);
    let partition = model.to_nonzero_partition(a, &outcome.sides);
    let result = BipartitionResult::from_partition(a, partition);
    // eqn (6): hypergraph cut == communication volume of the mapping.
    debug_assert_eq!(result.volume, outcome.cut);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::{communication_volume, load_imbalance, max_part_size};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partitions_grid_laplacian_within_constraint() {
        let a = mg_sparse::gen::laplacian_2d(20, 20);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(1);
        let r = medium_grain_bipartition(&a, 0.03, &cfg, &mut rng);
        assert!(load_imbalance(&r.partition) <= 0.03 + 1e-9);
        // A 20x20 grid Laplacian has a clean geometric bisection; the
        // medium-grain volume should be well under the 1D worst case.
        assert!(r.volume <= 80, "volume {}", r.volume);
        assert!(r.volume >= 10, "suspiciously low volume {}", r.volume);
    }

    #[test]
    fn volume_matches_partition() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = mg_sparse::gen::erdos_renyi(60, 60, 600, &mut rng);
        let cfg = PartitionerConfig::mondriaan_like();
        let r = medium_grain_bipartition(&a, 0.03, &cfg, &mut rng);
        assert_eq!(r.volume, communication_volume(&a, &r.partition));
    }

    #[test]
    fn uneven_targets_shift_the_split() {
        let a = mg_sparse::gen::laplacian_2d(16, 16);
        let n = a.nnz() as u64;
        let cfg = PartitionerConfig::mondriaan_like();
        let targets = BisectionTargets {
            target: [(n * 3) / 4, n - (n * 3) / 4],
            epsilon: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let index = LineIndex::new(&a);
        let r = medium_grain_bipartition_with_targets(&a, &index, &targets, &cfg, &mut rng);
        let sizes = r.partition.part_sizes();
        let budgets = targets.budgets();
        assert!(sizes[0] <= budgets[0]);
        assert!(sizes[1] <= budgets[1]);
        // The large side must actually be large.
        assert!(sizes[0] > sizes[1]);
    }

    #[test]
    fn rectangular_matrices_work_both_ways() {
        let mut rng = StdRng::seed_from_u64(4);
        for (m, n) in [(100u32, 20u32), (20, 100)] {
            let a = mg_sparse::gen::erdos_renyi(m, n, 800, &mut rng);
            let cfg = PartitionerConfig::mondriaan_like();
            let r = medium_grain_bipartition(&a, 0.03, &cfg, &mut rng);
            assert!(load_imbalance(&r.partition) <= 0.03 + 1e-9);
            assert!(max_part_size(&r.partition) >= 400);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = mg_sparse::gen::laplacian_2d(10, 10);
        let cfg = PartitionerConfig::mondriaan_like();
        let r1 = medium_grain_bipartition(&a, 0.03, &cfg, &mut StdRng::seed_from_u64(9));
        let r2 = medium_grain_bipartition(&a, 0.03, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(r1.partition, r2.partition);
        assert_eq!(r1.volume, r2.volume);
    }
}
