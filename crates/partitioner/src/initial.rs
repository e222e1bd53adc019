//! Initial partitioning at the coarsest level.
//!
//! Generates several candidate bipartitions — alternating randomized
//! balanced assignments and greedy net-growing (BFS) regions — polishes each
//! with FM, and keeps the best by `(violation, cut)`. On a large coarsest
//! hypergraph a helper thread, spawned when the idle-core gate grants a
//! core (see [`crate::helper`]), polishes some of the candidates.

use crate::config::PartitionerConfig;
use crate::fm::{fm_refine_with_scratch, FmLimits, FmScratch};
use crate::helper::{self, Helper};
use crate::multilevel::BisectionTargets;
use crate::Idx;
use mg_hypergraph::{Hypergraph, VertexBipartition};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Coarsest sizes up to this bound are solved *exactly* by Gray-code
/// enumeration instead of heuristically — 2¹² states, each one vertex flip
/// from the previous, so the full scan costs `O(2¹² · avg degree)`.
const EXHAUSTIVE_LIMIT: u32 = 12;

/// Coarsest hypergraphs with at least this many pins share the candidate
/// polish with a helper thread (when a core is idle): below it a polish
/// costs less than spawning the thread.
const PARALLEL_POLISH_PINS: usize = 20_000;

/// Produces the best initial bipartition of (usually coarse) `h` for the
/// given targets.
pub fn initial_partition<R: Rng>(
    h: &Hypergraph,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
) -> VertexBipartition {
    initial_partition_with(h, targets, config, rng, Helper::Gated)
}

/// [`initial_partition`] with an explicit helper policy, so tests can pin
/// the shared polish to the sequential one.
pub(crate) fn initial_partition_with<R: Rng>(
    h: &Hypergraph,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
    helper: Helper,
) -> VertexBipartition {
    let budget = targets.budgets();
    if h.num_vertices() <= EXHAUSTIVE_LIMIT && h.num_vertices() > 0 {
        return exhaustive_best(h, &budget);
    }
    let limits = FmLimits {
        budget,
        max_passes: config.fm_max_passes,
        stall_limit: config.fm_stall_limit,
        boundary_only: config.boundary_fm,
    };
    // Draw every start first, in candidate order. The FM polish draws
    // nothing, so this is the RNG stream of polishing as each is drawn.
    let starts: Vec<Vec<u8>> = (0..config.initial_candidates.max(1))
        .map(|c| {
            if c % 2 == 0 {
                random_balanced(h, targets, rng)
            } else {
                greedy_grow(h, targets, rng)
            }
        })
        .collect();
    // The caller (and the helper, if one runs) take the next unpolished
    // start until none is left, each keeping its best by
    // `((violation, cut), index)`. The overall minimum of that key is the
    // first candidate in index order with the least `(violation, cut)`,
    // whichever thread polished what. The helper stops taking starts once
    // its core is wanted by another worker.
    let next = AtomicUsize::new(0);
    let polish = |yields: bool| {
        let mut scratch = FmScratch::new();
        let mut best: Option<(Rank, VertexBipartition)> = None;
        loop {
            if yields && helper::crowded(helper) {
                return best;
            }
            let c = next.fetch_add(1, Ordering::Relaxed);
            let Some(sides) = starts.get(c) else {
                return best;
            };
            let mut bp = VertexBipartition::new(h, sides.clone());
            fm_refine_with_scratch(h, &mut bp, &limits, &mut scratch);
            let key = (candidate_key(&bp, &budget), c);
            if best.as_ref().is_none_or(|(best_key, _)| key < *best_key) {
                best = Some((key, bp));
            }
        }
    };
    let large = h.num_pins() >= PARALLEL_POLISH_PINS;
    let (mine, theirs) = std::thread::scope(|scope| {
        let theirs = helper::spawn(scope, helper, large, || polish(true));
        let mine = polish(false);
        let theirs = theirs.and_then(|h| h.join().expect("helper thread panicked"));
        (mine, theirs)
    });
    [mine, theirs]
        .into_iter()
        .flatten()
        .min_by_key(|(key, _)| *key)
        .expect("at least one candidate")
        .1
}

/// Exact optimum over all 2ⁿ bipartitions, minimising
/// `(budget violation, cut)`. Walks the assignments in Gray-code order so
/// consecutive states differ by a single vertex flip, reusing the
/// incremental `move_vertex` machinery.
fn exhaustive_best(h: &Hypergraph, budget: &[u64; 2]) -> VertexBipartition {
    let n = h.num_vertices();
    debug_assert!((1..=EXHAUSTIVE_LIMIT).contains(&n));
    let mut bp = VertexBipartition::all_zero(h);
    let violation = |bp: &VertexBipartition| -> u64 {
        bp.part_weight(0).saturating_sub(budget[0]) + bp.part_weight(1).saturating_sub(budget[1])
    };
    let mut best_sides = bp.sides().to_vec();
    let mut best_key = (violation(&bp), bp.cut_weight());
    for step in 1u64..(1u64 << n) {
        // The bit flipped between Gray(step-1) and Gray(step) is the index
        // of the lowest set bit of `step`.
        let flip = step.trailing_zeros();
        bp.move_vertex(h, flip);
        let key = (violation(&bp), bp.cut_weight());
        if key < best_key {
            best_key = key;
            best_sides.copy_from_slice(bp.sides());
        }
    }
    VertexBipartition::new(h, best_sides)
}

/// `((violation, cut), candidate index)`: the least rank is the first
/// candidate in index order with the least `(violation, cut)`.
type Rank = ((u64, u64), usize);

fn candidate_key(bp: &VertexBipartition, budget: &[u64; 2]) -> (u64, u64) {
    let violation =
        bp.part_weight(0).saturating_sub(budget[0]) + bp.part_weight(1).saturating_sub(budget[1]);
    (violation, bp.cut_weight())
}

/// Randomized balanced assignment: vertices in random order, each placed on
/// the side with the larger remaining capacity toward its target.
fn random_balanced<R: Rng>(h: &Hypergraph, targets: &BisectionTargets, rng: &mut R) -> Vec<u8> {
    let n = h.num_vertices() as usize;
    let mut order: Vec<Idx> = (0..n as Idx).collect();
    order.shuffle(rng);
    let mut sides = vec![0u8; n];
    let mut weight = [0u64; 2];
    for &v in &order {
        let remaining0 = targets.target[0].saturating_sub(weight[0]);
        let remaining1 = targets.target[1].saturating_sub(weight[1]);
        let side = if remaining0 > remaining1 {
            0
        } else if remaining1 > remaining0 {
            1
        } else {
            rng.gen_range(0..2) as usize
        };
        sides[v as usize] = side as u8;
        weight[side] += h.vertex_weight(v);
    }
    sides
}

/// Greedy net-growing: BFS over hypergraph adjacency from a random seed,
/// absorbing vertices into part 0 until its target weight is reached;
/// everything else goes to part 1. Disconnected components get fresh seeds.
///
/// Each vertex enters the queue at most once and each net is expanded at
/// most once: a vertex already queued would be absorbed at its first queue
/// position anyway, and a net already expanded has every pin queued or
/// absorbed. Both skips leave the absorption order of the plain BFS
/// unchanged while bounding the work by the pin count — without them a
/// net of `s` pins costs `s²` queue pushes, which dominated power-law
/// inputs.
fn greedy_grow<R: Rng>(h: &Hypergraph, targets: &BisectionTargets, rng: &mut R) -> Vec<u8> {
    let n = h.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let mut sides = vec![1u8; n];
    let mut visited = vec![false; n];
    let mut queued = vec![false; n];
    let mut expanded = vec![false; h.num_nets() as usize];
    let mut queue: std::collections::VecDeque<Idx> = std::collections::VecDeque::new();
    let mut weight0 = 0u64;
    let target0 = targets.target[0];
    let mut remaining: Vec<Idx> = (0..n as Idx).collect();
    remaining.shuffle(rng);
    let mut seed_cursor = 0usize;

    while weight0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Need a new seed (start, or ran out of a component).
                let mut found = None;
                while seed_cursor < remaining.len() {
                    let cand = remaining[seed_cursor];
                    seed_cursor += 1;
                    if !visited[cand as usize] {
                        found = Some(cand);
                        break;
                    }
                }
                match found {
                    Some(v) => v,
                    None => break, // all vertices absorbed
                }
            }
        };
        if visited[v as usize] {
            continue;
        }
        visited[v as usize] = true;
        sides[v as usize] = 0;
        weight0 += h.vertex_weight(v);
        for &net in h.vertex_nets(v) {
            if std::mem::replace(&mut expanded[net as usize], true) {
                continue;
            }
            for &u in h.net_pins(net) {
                if !visited[u as usize] && !queued[u as usize] {
                    queued[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    sides
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(vec![1; n]);
        for v in 0..n {
            b.add_net(1, [v as Idx, ((v + 1) % n) as Idx]);
        }
        b.build()
    }

    fn targets_even(h: &Hypergraph, eps: f64) -> BisectionTargets {
        let w = h.total_vertex_weight();
        BisectionTargets {
            target: [w.div_ceil(2), w / 2],
            epsilon: eps,
        }
    }

    #[test]
    fn produces_feasible_balanced_partition() {
        let h = ring(32);
        let t = targets_even(&h, 0.03);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PartitionerConfig::mondriaan_like();
        let bp = initial_partition(&h, &t, &cfg, &mut rng);
        let budget = t.budgets();
        assert!(bp.part_weight(0) <= budget[0]);
        assert!(bp.part_weight(1) <= budget[1]);
        // A ring's optimal bisection cut is 2; FM-polished candidates
        // should find it (or at worst stay very close).
        assert!(bp.cut_weight() <= 4, "cut {}", bp.cut_weight());
    }

    #[test]
    fn greedy_grow_reaches_target() {
        let h = ring(20);
        let t = targets_even(&h, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let sides = greedy_grow(&h, &t, &mut rng);
        let w0: u64 = (0..20)
            .filter(|&v| sides[v] == 0)
            .map(|v| h.vertex_weight(v as Idx))
            .sum();
        assert!(w0 >= 10);
        // BFS growth on a ring yields one contiguous arc: exactly 2 cut nets.
        let bp = VertexBipartition::new(&h, sides);
        assert_eq!(bp.cut_weight(), 2);
    }

    #[test]
    fn random_balanced_is_roughly_even() {
        let h = ring(100);
        let t = targets_even(&h, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let sides = random_balanced(&h, &t, &mut rng);
        let w0 = sides.iter().filter(|&&s| s == 0).count();
        assert!((45..=55).contains(&w0), "w0 = {w0}");
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint rings; greedy grow must hop components.
        let mut b = HypergraphBuilder::new(vec![1; 16]);
        for v in 0..8u32 {
            b.add_net(1, [v, (v + 1) % 8]);
            b.add_net(1, [8 + v, 8 + (v + 1) % 8]);
        }
        let h = b.build();
        let t = targets_even(&h, 0.03);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = PartitionerConfig::mondriaan_like();
        let bp = initial_partition(&h, &t, &cfg, &mut rng);
        let budget = t.budgets();
        assert!(bp.part_weight(0) <= budget[0]);
        assert!(bp.part_weight(1) <= budget[1]);
        // Ideal: split along components, cut 0.
        assert!(bp.cut_weight() <= 4);
    }

    #[test]
    fn exhaustive_matches_brute_force_oracle() {
        // A ring of 8 has optimal cut 2 with a contiguous arc; the
        // exhaustive search must find it exactly.
        let h = ring(8);
        let t = targets_even(&h, 0.0);
        let bp = exhaustive_best(&h, &t.budgets());
        assert_eq!(bp.cut_weight(), 2);
        assert_eq!(bp.part_weight(0), 4);
        assert_eq!(bp.part_weight(1), 4);
    }

    #[test]
    fn exhaustive_prefers_feasibility_over_cut() {
        // Heavy pair net: keeping it whole means violation; the optimum
        // under the budget must cut it.
        let mut b = HypergraphBuilder::new(vec![3, 3]);
        b.add_net(10, [0, 1]);
        let h = b.build();
        let bp = exhaustive_best(&h, &[3, 3]);
        assert_eq!(bp.cut_weight(), 10);
        assert_eq!(bp.part_weight(0), 3);
    }

    #[test]
    fn tiny_initial_partition_is_exact() {
        // Through the public entry point: ≤ 12 vertices takes the
        // exhaustive path.
        let h = ring(10);
        let t = targets_even(&h, 0.0);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(1);
        let bp = initial_partition(&h, &t, &cfg, &mut rng);
        assert_eq!(bp.cut_weight(), 2);
    }

    /// Above the shared-polish threshold, polishing with the helper forced
    /// on and forced off keeps the same candidate and leaves the RNG at
    /// the same point, under both FM seeding disciplines, on uniform
    /// 5-pin nets and on the weighted row-net model of a power-law matrix.
    #[test]
    fn shared_polish_matches_sequential_polish() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 400;
        let mut b = HypergraphBuilder::new(vec![1; n]);
        for _ in 0..5_000 {
            let pins: Vec<Idx> = (0..5).map(|_| rng.gen_range(0..n as Idx)).collect();
            b.add_net(1, pins);
        }
        let power_law = mg_sparse::gen::chung_lu_symmetric(1_000, 25_000, 0.9, &mut rng);
        for h in [
            b.build(),
            mg_hypergraph::row_net_model(&power_law, &mg_sparse::LineIndex::new(&power_law))
                .hypergraph,
        ] {
            assert!(h.num_pins() >= PARALLEL_POLISH_PINS);
            let t = targets_even(&h, 0.03);
            for cfg in [
                PartitionerConfig::mondriaan_like(),
                PartitionerConfig::patoh_like(),
            ] {
                let run = |helper| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let bp = initial_partition_with(&h, &t, &cfg, &mut rng, helper);
                    bp.validate(&h).unwrap();
                    (bp.into_sides(), rng.gen::<u64>())
                };
                assert_eq!(run(Helper::Always), run(Helper::Never));
            }
        }
    }

    /// The plain BFS `greedy_grow` replaced: every absorbed vertex pushes
    /// every unabsorbed pin of every one of its nets.
    fn greedy_grow_reference<R: Rng>(
        h: &Hypergraph,
        targets: &BisectionTargets,
        rng: &mut R,
    ) -> Vec<u8> {
        let n = h.num_vertices() as usize;
        let mut sides = vec![1u8; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let mut weight0 = 0u64;
        let mut remaining: Vec<Idx> = (0..n as Idx).collect();
        remaining.shuffle(rng);
        let mut seeds = remaining.into_iter();
        while weight0 < targets.target[0] {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => match seeds.by_ref().find(|&c| !visited[c as usize]) {
                    Some(v) => v,
                    None => break,
                },
            };
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            sides[v as usize] = 0;
            weight0 += h.vertex_weight(v);
            for &net in h.vertex_nets(v) {
                for &u in h.net_pins(net) {
                    if !visited[u as usize] {
                        queue.push_back(u);
                    }
                }
            }
        }
        sides
    }

    /// Skipping queued vertices and expanded nets keeps the absorption
    /// order: same sides and same RNG position as the plain BFS, on
    /// hypergraphs with large overlapping nets and several components.
    #[test]
    fn greedy_grow_matches_plain_bfs() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20u64 {
            let n = 30 + (trial as usize * 7) % 50;
            let mut b = HypergraphBuilder::new((0..n).map(|v| 1 + (v % 3) as u64).collect());
            for _ in 0..n / 2 {
                let size = rng.gen_range(2..12);
                let pins: Vec<Idx> = (0..size).map(|_| rng.gen_range(0..n as Idx / 2)).collect();
                b.add_net(1, pins);
            }
            let h = b.build();
            let t = targets_even(&h, 0.0);
            let mut fast_rng = StdRng::seed_from_u64(trial);
            let mut plain_rng = StdRng::seed_from_u64(trial);
            assert_eq!(
                greedy_grow(&h, &t, &mut fast_rng),
                greedy_grow_reference(&h, &t, &mut plain_rng),
                "trial {trial}"
            );
            assert_eq!(fast_rng.gen::<u64>(), plain_rng.gen::<u64>());
        }
    }

    #[test]
    fn single_vertex_hypergraph() {
        let b = HypergraphBuilder::new(vec![5]);
        let h = b.build();
        let t = BisectionTargets {
            target: [5, 0],
            epsilon: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PartitionerConfig::mondriaan_like();
        let bp = initial_partition(&h, &t, &cfg, &mut rng);
        assert_eq!(bp.cut_weight(), 0);
    }
}
