//! Algorithm 2: medium-grain iterative refinement (§III-C).
//!
//! Any bipartition `A = A0 ∪ A1` can be re-encoded as a medium-grain split
//! by declaring one side the row groups and the other the column groups
//! (`Ar ← A0, Ac ← A1`, "direction 0", or the reverse, "direction 1").
//! The resulting hypergraph of `B`, seeded with the current assignment, has
//! cut weight exactly the current volume; a single Kernighan–Lin/FM run can
//! then only keep or lower it. Re-encoding after every run changes which
//! nonzero groups move *atomically*, which is what lets successive runs
//! escape each other's local minima.
//!
//! The loop alternates directions exactly as in the paper: switch when a
//! run stops improving, stop when both directions are exhausted
//! (`V_k = V_{k−2}`).
//!
//! This is a *cheap* post-processing step — one level, no coarsening — and
//! is applicable to the output of any bipartitioning method.

use crate::bmatrix::MediumGrainModel;
use crate::split::Split;
use mg_hypergraph::VertexBipartition;
use mg_partitioner::{fm_refine_with_scratch, FmLimits, FmScratch};
use mg_sparse::{communication_volume, part_budget, Coo, NonzeroPartition};

/// FM passes per KL run. The paper's "single run of Kernighan–Lin" is one
/// refinement to convergence; a small cap keeps runs cheap while
/// converging in practice.
const FM_PASSES: u32 = 4;

/// Stall limit within a pass (see [`FmLimits`]).
const STALL_LIMIT: u32 = 2000;

/// Safety cap on Algorithm 2 iterations (the loop otherwise terminates by
/// the `V_k = V_{k−2}` rule).
const MAX_ITERATIONS: u32 = 64;

/// Outcome of iterative refinement.
#[derive(Debug, Clone)]
pub struct RefinedResult {
    /// The refined bipartition (volume ≤ the input's).
    pub partition: NonzeroPartition,
    /// Its communication volume.
    pub volume: u64,
    /// Number of KL runs performed.
    pub iterations: u32,
}

/// Iterative refinement under the standard eqn (1) budget
/// `⌊(1+ε)·N/2⌋` per side.
pub fn iterative_refinement(a: &Coo, partition: &NonzeroPartition, epsilon: f64) -> RefinedResult {
    let b = part_budget(a.nnz(), 2, epsilon);
    iterative_refinement_with_budgets(a, partition, [b, b])
}

/// Iterative refinement with explicit per-side budgets (recursive bisection
/// passes uneven ones).
pub fn iterative_refinement_with_budgets(
    a: &Coo,
    partition: &NonzeroPartition,
    budget: [u64; 2],
) -> RefinedResult {
    assert_eq!(partition.num_parts(), 2, "Algorithm 2 refines bipartitions");
    partition
        .check_against(a)
        .expect("partition does not match matrix");

    let limits = FmLimits {
        budget,
        max_passes: FM_PASSES,
        stall_limit: STALL_LIMIT,
        boundary_only: false,
    };

    let mut current = partition.clone();
    let mut volumes = vec![communication_volume(a, &current)];
    let mut direction = 0u8;
    let mut iterations = 0u32;
    // One FM scratch serves every KL run of the loop.
    let mut scratch = FmScratch::new();

    while iterations < MAX_ITERATIONS {
        iterations += 1;

        // Re-encode the current bipartition as a split. Direction 0 puts
        // A0 in Ar (row groups); direction 1 puts A0 in Ac.
        let in_row: Vec<bool> = (0..a.nnz())
            .map(|k| (current.part_of(k) == 0) == (direction == 0))
            .collect();
        let split = Split::from_assignment(in_row);
        let model = MediumGrainModel::build(a, &split);

        // Seed the hypergraph with the current assignment (groups are pure
        // by construction) and run a single KL/FM refinement.
        let sides = model.sides_from_partition(a, &current);
        let mut bp = VertexBipartition::new(&model.hypergraph, sides);
        fm_refine_with_scratch(&model.hypergraph, &mut bp, &limits, &mut scratch);
        let refined = model.to_nonzero_partition(a, &bp.into_sides());
        let volume = communication_volume(a, &refined);

        // FM's best-prefix rule guarantees (violation, cut) never worsens,
        // so accepting unconditionally keeps the procedure monotone.
        current = refined;
        let k = volumes.len();
        volumes.push(volume);
        if volume >= volumes[k - 1] {
            direction = 1 - direction;
        }
        if k >= 2 && volume >= volumes[k - 2] {
            break; // both directions exhausted (Algorithm 2, line 21)
        }
    }

    RefinedResult {
        volume: *volumes.last().expect("at least the initial volume"),
        partition: current,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::load_imbalance;
    use mg_sparse::Idx;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn refinement_is_monotone_non_increasing() {
        let a = mg_sparse::gen::laplacian_2d(14, 14);
        let parts: Vec<Idx> = (0..a.nnz()).map(|k| (k % 2) as Idx).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        let before = communication_volume(&a, &p);
        let refined = iterative_refinement(&a, &p, 0.03);
        assert!(refined.volume <= before);
        assert_eq!(refined.volume, communication_volume(&a, &refined.partition));
        // A fully interleaved start is terrible; IR must bite hard.
        assert!(
            refined.volume <= before / 2,
            "IR barely improved: {} -> {}",
            before,
            refined.volume
        );
    }

    #[test]
    fn refinement_respects_budget() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let parts: Vec<Idx> = (0..a.nnz()).map(|k| (k % 2) as Idx).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        let refined = iterative_refinement(&a, &p, 0.03);
        assert!(load_imbalance(&refined.partition) <= 0.03 + 1e-9);
    }

    #[test]
    fn already_optimal_partition_is_stable() {
        // Two disconnected dense blocks, split along the blocks: volume 0.
        let mut entries = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                entries.push((i, j));
                entries.push((4 + i, 4 + j));
            }
        }
        let a = Coo::new(8, 8, entries).unwrap();
        let parts: Vec<Idx> = a.iter().map(|(i, _)| (i >= 4) as Idx).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        assert_eq!(communication_volume(&a, &p), 0);
        let refined = iterative_refinement(&a, &p, 0.03);
        assert_eq!(refined.volume, 0);
        // Terminates quickly: two non-improving runs.
        assert!(refined.iterations <= 3);
    }

    #[test]
    fn refines_output_of_other_methods() {
        use crate::methods::Method;
        use mg_partitioner::PartitionerConfig;
        let a = mg_sparse::gen::laplacian_2d(16, 16);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(21);
        let rn = Method::RowNet { refine: false }.bipartition(&a, 0.03, &cfg, &mut rng);
        let refined = iterative_refinement(&a, &rn.partition, 0.03);
        assert!(refined.volume <= rn.volume);
    }
}
