//! The comparison methods of §IV: 1D row-net / column-net bipartitioners,
//! their best-of-two combination ("localbest", Mondriaan ≤ 3.11's default)
//! and the 2D fine-grain method.

use crate::methods::BipartitionResult;
use mg_hypergraph::{column_net_model, fine_grain_model, row_net_model, ModelKind};
use mg_partitioner::{bipartition_hypergraph, BisectionTargets, PartitionerConfig};
use mg_sparse::{Coo, LineIndex};
use rand::Rng;

/// Bipartitions `a`, whose index is `index`, through one of the classical
/// hypergraph models.
pub fn model_bipartition<R: Rng>(
    a: &Coo,
    index: &LineIndex,
    kind: ModelKind,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
) -> BipartitionResult {
    if a.nnz() == 0 {
        return BipartitionResult::empty(a);
    }
    let model = match kind {
        ModelKind::RowNet => row_net_model(a, index),
        ModelKind::ColumnNet => column_net_model(a, index),
        ModelKind::FineGrain => fine_grain_model(a, index),
    };
    debug_assert_eq!(model.hypergraph.total_vertex_weight(), a.nnz() as u64);
    let outcome = bipartition_hypergraph(&model.hypergraph, targets, config, rng);
    let partition = model.to_nonzero_partition(a, &outcome.sides);
    let result = BipartitionResult::from_partition(a, partition);
    debug_assert_eq!(result.volume, outcome.cut);
    result
}

/// The localbest method: bipartition with both the row-net and the
/// column-net model, keep whichever yields the lower communication volume
/// (ties favour row-net, matching Mondriaan's order of evaluation).
///
/// Feasibility trumps volume: a 1D model can be structurally unable to
/// balance (a single column heavier than the budget is atomic for the
/// row-net model), and its volume-0 "solution" must not beat a feasible
/// one from the other direction.
pub fn localbest_bipartition<R: Rng>(
    a: &Coo,
    index: &LineIndex,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
) -> BipartitionResult {
    let by_rows = model_bipartition(a, index, ModelKind::RowNet, targets, config, rng);
    let by_cols = model_bipartition(a, index, ModelKind::ColumnNet, targets, config, rng);
    let budgets = targets.budgets();
    let violation = |r: &BipartitionResult| -> u64 {
        r.partition
            .part_sizes()
            .iter()
            .zip(budgets.iter())
            .map(|(&s, &b)| s.saturating_sub(b))
            .sum()
    };
    if (violation(&by_rows), by_rows.volume) <= (violation(&by_cols), by_cols.volume) {
        by_rows
    } else {
        by_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::{load_imbalance, row_lambdas};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn even(a: &Coo) -> BisectionTargets {
        BisectionTargets::even(a.nnz() as u64, 0.03)
    }

    /// `kind`'s even bipartition of `a` on the mondriaan-like engine.
    fn model(a: &Coo, kind: ModelKind, seed: u64) -> BipartitionResult {
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(seed);
        model_bipartition(a, &LineIndex::new(a), kind, &even(a), &cfg, &mut rng)
    }

    /// The even localbest bipartition of `a` on the mondriaan-like engine.
    fn localbest(a: &Coo, seed: u64) -> BipartitionResult {
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(seed);
        localbest_bipartition(a, &LineIndex::new(a), &even(a), &cfg, &mut rng)
    }

    #[test]
    fn row_net_produces_column_partitioning() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let r = model(&a, ModelKind::RowNet, 1);
        // Column partitioning: every column's nonzeros share one part, so
        // columns contribute no volume.
        let cl = mg_sparse::col_lambdas(&a, &r.partition);
        assert!(cl.iter().all(|&l| l <= 1));
        assert!(load_imbalance(&r.partition) <= 0.03 + 1e-9);
    }

    #[test]
    fn column_net_produces_row_partitioning() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let r = model(&a, ModelKind::ColumnNet, 2);
        let rl = row_lambdas(&a, &r.partition);
        assert!(rl.iter().all(|&l| l <= 1));
    }

    #[test]
    fn localbest_is_no_worse_than_either_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = mg_sparse::gen::erdos_renyi(80, 40, 700, &mut rng);
        // Same seeds for comparability.
        let lb = localbest(&a, 4);
        let rn = model(&a, ModelKind::RowNet, 4);
        assert!(lb.volume <= rn.volume);
    }

    #[test]
    fn fine_grain_respects_balance() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = mg_sparse::gen::erdos_renyi(50, 50, 500, &mut rng);
        let cfg = PartitionerConfig::mondriaan_like();
        let index = LineIndex::new(&a);
        let r = model_bipartition(&a, &index, ModelKind::FineGrain, &even(&a), &cfg, &mut rng);
        assert!(load_imbalance(&r.partition) <= 0.03 + 1e-9);
    }

    #[test]
    fn fine_grain_beats_1d_on_checkerboardable_matrix() {
        // The arrow matrix: dense border rows/columns make any 1D
        // partitioning expensive, while 2D methods split the border.
        let a = mg_sparse::gen::arrow(60, 3);
        let fg = model(&a, ModelKind::FineGrain, 6);
        let lb = localbest(&a, 6);
        assert!(
            fg.volume <= lb.volume + 2,
            "fine-grain {} should not lose badly to 1D {}",
            fg.volume,
            lb.volume
        );
    }
}
