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
//!
//! The runs share one structure. They read A through the caller's
//! [`LineIndex`], built once per bisection, and each run lays B out again
//! in the buffers of one [`MediumGrainModel`]
//! ([`MediumGrainModel::lay_out`]). The FM start is the pure split's
//! sides, and a run's volume is FM's cut of B (eqn (6)), so the loop
//! never counts A's volume: the caller passes its input's volume in.
//!
//! A run that does not improve returns its start unchanged, and the next
//! run is the other direction from that same start. On a large matrix
//! with an idle core, a run therefore spawns the other direction's run
//! from the same start on a helper thread (see
//! [`mg_partitioner::helper::spawn`]), unless an earlier one is still
//! running. The helper's result replaces the next run only when the run
//! left the partition unchanged; otherwise it is dropped. So the sequence
//! of runs — and the result — is the one of the plain loop. The helper
//! lays out its own B: its buffers go with each of its runs.

use crate::bmatrix::MediumGrainModel;
use mg_hypergraph::VertexBipartition;
use mg_partitioner::helper::{self, Helper};
use mg_partitioner::{fm_refine_with_scratch, FmLimits, FmScratch};
use mg_sparse::{communication_volume, part_budget, Coo, LineIndex, NonzeroPartition};
use std::thread::ScopedJoinHandle;

/// FM passes per KL run. The paper's "single run of Kernighan–Lin" is one
/// refinement to convergence; a small cap keeps runs cheap while
/// converging in practice.
const FM_PASSES: u32 = 4;

/// Stall limit within a pass (see [`FmLimits`]).
const STALL_LIMIT: u32 = 2000;

/// Safety cap on Algorithm 2 iterations (the loop otherwise terminates by
/// the `V_k = V_{k−2}` rule).
const MAX_ITERATIONS: u32 = 64;

/// Matrices with at least this many nonzeros run the other direction on a
/// helper thread when a core is idle; below it a KL run costs less than
/// spawning the thread.
const PARALLEL_NNZ: usize = 50_000;

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
    let volume = communication_volume(a, partition);
    iterative_refinement_with_budgets(a, &LineIndex::new(a), partition, volume, [b, b])
}

/// Iterative refinement with explicit per-side budgets (recursive bisection
/// passes uneven ones), over `a`'s [`LineIndex`], from a `partition` whose
/// communication volume the caller already holds.
pub fn iterative_refinement_with_budgets(
    a: &Coo,
    index: &LineIndex,
    partition: &NonzeroPartition,
    volume: u64,
    budget: [u64; 2],
) -> RefinedResult {
    refine_with_helper(a, index, partition, volume, budget, Helper::Gated)
}

/// [`iterative_refinement_with_budgets`] with an explicit helper policy,
/// so tests can pin the speculative runs to the plain loop.
fn refine_with_helper(
    a: &Coo,
    index: &LineIndex,
    partition: &NonzeroPartition,
    volume: u64,
    budget: [u64; 2],
    helper: Helper,
) -> RefinedResult {
    assert_eq!(partition.num_parts(), 2, "Algorithm 2 refines bipartitions");
    partition
        .check_against(a)
        .expect("partition does not match matrix");
    debug_assert_eq!(volume, communication_volume(a, partition), "stale volume");
    let _busy = helper::enter();

    let limits = FmLimits {
        budget,
        max_passes: FM_PASSES,
        stall_limit: STALL_LIMIT,
        boundary_only: false,
    };
    let large = a.nnz() >= PARALLEL_NNZ;

    let mut current = partition.clone();
    let mut volumes = vec![volume];
    let mut direction = 0u8;
    let mut iterations = 0u32;
    // One B layout and FM scratch serve every KL run of the loop on this
    // thread.
    let mut scratch = KlScratch::default();

    std::thread::scope(|scope| {
        let limits = &limits;
        // The helper's scratch goes with each of its runs and comes back
        // with the result.
        let mut spare_scratch = KlScratch::default();
        // The helper's run still outstanding, if any, and its scratch.
        let mut pending: Option<ScopedJoinHandle<(Run, KlScratch)>> = None;
        // The other direction's run from `current`, made by the helper
        // alongside the run that left `current` unchanged.
        let mut other_direction: Option<Run> = None;

        while iterations < MAX_ITERATIONS {
            iterations += 1;

            let (refined, volume) = match other_direction.take() {
                Some(run) => run,
                None => {
                    // A finished run nobody took is dropped; one still
                    // running leaves this run without a helper.
                    if let Some(unused) = pending.take_if(|run| run.is_finished()) {
                        spare_scratch = unused.join().expect("helper thread panicked").1;
                    }
                    // The helper's run is used only if this run leaves
                    // `current` unchanged and the loop goes on — which
                    // needs the previous run to have lowered the volume.
                    let k = volumes.len();
                    let may_continue = k < 2 || volumes[k - 1] < volumes[k - 2];
                    let mut spawned = false;
                    if may_continue && pending.is_none() {
                        let (start, other) = (current.clone(), 1 - direction);
                        let mut s = std::mem::take(&mut spare_scratch);
                        pending = helper::spawn(scope, helper, large, move || {
                            (kl_run(a, index, &start, other, limits, &mut s, false), s)
                        });
                        spawned = pending.is_some();
                    }
                    let run = kl_run(a, index, &current, direction, limits, &mut scratch, true);
                    // Unchanged means no improvement: the direction
                    // switches and the next run starts from this same
                    // partition — exactly the run spawned above (never
                    // one left over from an earlier `current`). Compare
                    // partitions, not volumes: a run may change the
                    // partition at equal volume.
                    if let Some(pending_run) = pending.take_if(|_| spawned && run.0 == current) {
                        let (other_run, s) = pending_run.join().expect("helper thread panicked");
                        spare_scratch = s;
                        other_direction = Some(other_run);
                    }
                    run
                }
            };

            // FM's best-prefix rule guarantees (violation, cut) never
            // worsens, so accepting unconditionally keeps the procedure
            // monotone.
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
    });

    RefinedResult {
        volume: *volumes.last().expect("at least the initial volume"),
        partition: current,
        iterations,
    }
}

/// A KL run's result: the refined partition and its volume.
type Run = (NonzeroPartition, u64);

/// The buffers one thread's KL runs reuse: B's layout, the FM start
/// sides and the FM scratch.
#[derive(Debug, Default)]
struct KlScratch {
    model: MediumGrainModel,
    sides: Vec<u8>,
    fm: FmScratch,
}

/// One KL run of Algorithm 2: re-encodes `start` as a split in
/// `direction` (0 puts A0 in Ar, the row groups; 1 puts A0 in Ac), lays
/// out the hypergraph of `B` seeded with `start` (groups are pure by
/// construction, so the column groups start on A0's side in direction 1
/// and on A1's in direction 0) and runs a single FM refinement on it.
/// Returns the refined partition and its volume, which is FM's cut
/// (eqn (6)). With `timed`, the layout counts as `medium_grain_build` and
/// the FM as `fm_refinement`, so IR shows in the Fig. 5 phase profile; a
/// helper's run records nothing.
fn kl_run(
    a: &Coo,
    index: &LineIndex,
    start: &NonzeroPartition,
    direction: u8,
    limits: &FmLimits,
    scratch: &mut KlScratch,
    timed: bool,
) -> Run {
    let build_timer = timed.then(|| mg_obs::phase("medium_grain_build"));
    let KlScratch { model, sides, fm } = scratch;
    model.lay_out(a, index, |k| (start.part_of(k) == 0) == (direction == 0));
    model.pure_sides(1 - direction, sides);
    let mut bp = VertexBipartition::new(&model.hypergraph, std::mem::take(sides));
    drop(build_timer);

    let refine_timer = timed.then(|| mg_obs::phase("fm_refinement"));
    fm_refine_with_scratch(&model.hypergraph, &mut bp, limits, fm);
    drop(refine_timer);
    let volume = bp.cut_weight();
    *sides = bp.into_sides();
    let refined = model.to_nonzero_partition(a, sides);
    debug_assert_eq!(volume, communication_volume(a, &refined), "eqn (6)");
    (refined, volume)
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

    /// Above the IR threshold, running the other direction on a helper
    /// (forced on) gives the plain loop's (forced off) partition, volume
    /// and iteration count on random, power-law and RMAT inputs, and on a
    /// random one with empty rows and columns (so B lacks some groups and
    /// nets). Each start's first run improves, so its helper run is
    /// dropped; later non-improving runs take theirs.
    #[test]
    fn speculative_runs_match_the_plain_loop() {
        let mut rng = StdRng::seed_from_u64(8);
        let spread = mg_sparse::gen::erdos_renyi_square(6_000, PARALLEL_NNZ, &mut rng);
        let matrices = [
            mg_sparse::gen::erdos_renyi_square(8_000, PARALLEL_NNZ, &mut rng),
            mg_sparse::gen::chung_lu_symmetric(8_000, PARALLEL_NNZ, 0.9, &mut rng),
            mg_sparse::gen::rmat(13, PARALLEL_NNZ, 0.57, 0.19, 0.19, &mut rng),
            Coo::new(
                2 * spread.rows(),
                3 * spread.cols(),
                spread.iter().map(|(i, j)| (2 * i + 1, 3 * j)).collect(),
            )
            .unwrap(),
        ];
        for a in &matrices {
            assert!(a.nnz() >= PARALLEL_NNZ);
            let index = LineIndex::new(a);
            let half = a.rows() / 2;
            let parts: Vec<Idx> = a
                .iter()
                .map(|(i, j)| ((i < half) != (j < half)) as Idx)
                .collect();
            let p = NonzeroPartition::new(2, parts).unwrap();
            let budget = [mg_sparse::part_budget(a.nnz(), 2, 0.03); 2];
            let limits = FmLimits {
                budget,
                max_passes: FM_PASSES,
                stall_limit: STALL_LIMIT,
                boundary_only: false,
            };
            let first = kl_run(a, &index, &p, 0, &limits, &mut KlScratch::default(), false).0;
            assert_ne!(
                first, p,
                "the first run improves: its helper run is dropped"
            );
            let volume = communication_volume(a, &p);
            let on = refine_with_helper(a, &index, &p, volume, budget, Helper::Always);
            let off = refine_with_helper(a, &index, &p, volume, budget, Helper::Never);
            assert_eq!(on.partition, off.partition);
            assert_eq!(on.volume, off.volume);
            assert_eq!(on.iterations, off.iterations);
            assert!(off.iterations >= 3);
        }
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
