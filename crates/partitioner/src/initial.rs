//! Initial partitioning at the coarsest level.
//!
//! Generates several candidate bipartitions — alternating randomized
//! balanced assignments and greedy net-growing (BFS) regions — polishes each
//! with FM, and keeps the best by `(violation, cut)`.

use crate::config::PartitionerConfig;
use crate::fm::{fm_refine_with_scratch, FmLimits, FmScratch};
use crate::multilevel::BisectionTargets;
use crate::Idx;
use mg_hypergraph::{Hypergraph, VertexBipartition};
use rand::seq::SliceRandom;
use rand::Rng;

/// Coarsest sizes up to this bound are solved *exactly* by Gray-code
/// enumeration instead of heuristically — 2¹² states, each one vertex flip
/// from the previous, so the full scan costs `O(2¹² · avg degree)`.
const EXHAUSTIVE_LIMIT: u32 = 12;

/// Produces the best initial bipartition of (usually coarse) `h` for the
/// given targets.
pub fn initial_partition<R: Rng>(
    h: &Hypergraph,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
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
    let candidates = config.initial_candidates.max(1);
    let mut best: Option<VertexBipartition> = None;
    // One scratch polishes every candidate.
    let mut scratch = FmScratch::new();
    for c in 0..candidates {
        let sides = if c % 2 == 0 {
            random_balanced(h, targets, rng)
        } else {
            greedy_grow(h, targets, rng)
        };
        let mut bp = VertexBipartition::new(h, sides);
        fm_refine_with_scratch(h, &mut bp, &limits, &mut scratch);
        let key = candidate_key(&bp, &budget);
        if best
            .as_ref()
            .is_none_or(|b| key < candidate_key(b, &budget))
        {
            best = Some(bp);
        }
    }
    best.expect("at least one candidate")
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
fn greedy_grow<R: Rng>(h: &Hypergraph, targets: &BisectionTargets, rng: &mut R) -> Vec<u8> {
    let n = h.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let mut sides = vec![1u8; n];
    let mut visited = vec![false; n];
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
            for &u in h.net_pins(net) {
                if !visited[u as usize] {
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
