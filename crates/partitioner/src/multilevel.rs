//! The multilevel driver: coarsen → initial partition → uncoarsen + refine.

use crate::coarsen::{contract, project_sides};
use crate::config::PartitionerConfig;
use crate::fm::{fm_refine_with_scratch, FmLimits, FmScratch};
use crate::initial::initial_partition;
use crate::matching::cluster_vertices;
use crate::Idx;
use mg_hypergraph::{Hypergraph, VertexBipartition};
use rand::Rng;

/// Hard cap on the number of coarsening levels.
const MAX_LEVELS: usize = 64;

/// Balance specification for one bisection: target weights per side plus
/// the allowed slack ε.
#[derive(Debug, Clone, Copy)]
pub struct BisectionTargets {
    /// Desired vertex weight per side; usually `⌈W/2⌉, ⌊W/2⌋`, but uneven
    /// for odd part counts in recursive bisection.
    pub target: [u64; 2],
    /// Allowed relative slack on each side (eqn (1) at this level).
    pub epsilon: f64,
}

impl BisectionTargets {
    /// Even split of a total weight.
    pub fn even(total_weight: u64, epsilon: f64) -> Self {
        BisectionTargets {
            target: [total_weight.div_ceil(2), total_weight / 2],
            epsilon,
        }
    }

    /// Hard budgets per side: `max(target, ⌊(1+ε)·target⌋)`. The `max`
    /// guarantees the even split is always feasible, mirroring
    /// `mg_sparse::partition::part_budget`.
    pub fn budgets(&self) -> [u64; 2] {
        let b = |t: u64| (((1.0 + self.epsilon) * t as f64).floor() as u64).max(t);
        [b(self.target[0]), b(self.target[1])]
    }
}

/// The result of a multilevel bisection.
#[derive(Debug, Clone)]
pub struct BisectionOutcome {
    /// Side (0/1) per vertex of the input hypergraph.
    pub sides: Vec<u8>,
    /// Cut weight of the bipartition (= communication volume for matrix
    /// models).
    pub cut: u64,
    /// Final vertex weight per side.
    pub part_weights: [u64; 2],
}

/// Bipartitions a hypergraph with the full multilevel pipeline.
pub fn bipartition_hypergraph<R: Rng>(
    h: &Hypergraph,
    targets: &BisectionTargets,
    config: &PartitionerConfig,
    rng: &mut R,
) -> BisectionOutcome {
    let _busy = crate::helper::enter();
    let budget = targets.budgets();
    let limits = FmLimits {
        budget,
        max_passes: config.fm_max_passes,
        stall_limit: config.fm_stall_limit,
        boundary_only: config.boundary_fm,
    };

    // --- Coarsening phase: build the hierarchy. ---
    let coarsen_timer = mg_obs::phase("coarsening");
    let mut graphs: Vec<Hypergraph> = Vec::new();
    let mut maps: Vec<Vec<Idx>> = Vec::new();
    loop {
        let current = graphs.last().unwrap_or(h);
        if current.num_vertices() <= config.coarsest_vertices || maps.len() >= MAX_LEVELS {
            break;
        }
        let clustering = cluster_vertices(current, config, rng);
        let reduction = 1.0 - clustering.num_clusters as f64 / current.num_vertices().max(1) as f64;
        if reduction < config.min_reduction {
            break;
        }
        let level = contract(current, &clustering);
        maps.push(level.map);
        graphs.push(level.coarse);
    }

    drop(coarsen_timer);

    // --- Initial partition at the coarsest level. ---
    let initial_timer = mg_obs::phase("initial_partition");
    let coarsest = graphs.last().unwrap_or(h);
    let bp = initial_partition(coarsest, targets, config, rng);
    let mut sides = bp.into_sides();
    drop(initial_timer);

    // --- Uncoarsening: project up and refine at every level. ---
    // One scratch serves every level: the gain buckets and move logs are
    // reset, not reallocated, per pass.
    let mut scratch = FmScratch::new();
    let refine_timer = mg_obs::phase("fm_refinement");
    for level in (0..maps.len()).rev() {
        sides = project_sides(&maps[level], &sides);
        let finer: &Hypergraph = if level == 0 { h } else { &graphs[level - 1] };
        let mut bp = VertexBipartition::new(finer, sides);
        fm_refine_with_scratch(finer, &mut bp, &limits, &mut scratch);
        sides = bp.into_sides();
    }
    // If no coarsening happened, still refine on the original graph.
    if maps.is_empty() {
        let mut bp = VertexBipartition::new(h, sides);
        fm_refine_with_scratch(h, &mut bp, &limits, &mut scratch);
        sides = bp.into_sides();
    }
    drop(refine_timer);

    let bp = VertexBipartition::new(h, sides);
    BisectionOutcome {
        cut: bp.cut_weight(),
        part_weights: [bp.part_weight(0), bp.part_weight(1)],
        sides: bp.into_sides(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 2D grid as a hypergraph (2-pin nets): the planar bisection value is
    /// well understood, so multilevel quality is easy to sanity check.
    fn grid(w: usize, hgt: usize) -> Hypergraph {
        let idx = |x: usize, y: usize| (y * w + x) as Idx;
        let mut b = HypergraphBuilder::new(vec![1; w * hgt]);
        for y in 0..hgt {
            for x in 0..w {
                if x + 1 < w {
                    b.add_net(1, [idx(x, y), idx(x + 1, y)]);
                }
                if y + 1 < hgt {
                    b.add_net(1, [idx(x, y), idx(x, y + 1)]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn bisects_grid_well() {
        let h = grid(16, 16);
        let targets = BisectionTargets::even(h.total_vertex_weight(), 0.03);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(11);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        let budget = targets.budgets();
        assert!(out.part_weights[0] <= budget[0]);
        assert!(out.part_weights[1] <= budget[1]);
        // Optimal cut for a 16x16 grid bisection is 16; multilevel FM should
        // land close. Generous bound to keep the test robust across seeds.
        assert!(out.cut <= 26, "cut {}", out.cut);
    }

    #[test]
    fn patoh_like_preset_also_works() {
        let h = grid(12, 12);
        let targets = BisectionTargets::even(h.total_vertex_weight(), 0.03);
        let cfg = PartitionerConfig::patoh_like();
        let mut rng = StdRng::seed_from_u64(12);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        let budget = targets.budgets();
        assert!(out.part_weights[0] <= budget[0]);
        assert!(out.part_weights[1] <= budget[1]);
        assert!(out.cut <= 20, "cut {}", out.cut);
    }

    #[test]
    fn cut_matches_reported_sides() {
        let h = grid(8, 8);
        let targets = BisectionTargets::even(h.total_vertex_weight(), 0.1);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(13);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        let bp = VertexBipartition::new(&h, out.sides.clone());
        assert_eq!(bp.cut_weight(), out.cut);
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let h = grid(4, 4); // 16 vertices < coarsest_vertices
        let targets = BisectionTargets::even(h.total_vertex_weight(), 0.0);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(14);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        assert_eq!(out.part_weights[0], 8);
        assert_eq!(out.part_weights[1], 8);
        assert!(out.cut <= 8);
    }

    #[test]
    fn uneven_targets_respected() {
        let h = grid(10, 10);
        let total = h.total_vertex_weight();
        let targets = BisectionTargets {
            target: [(total * 3) / 4, total - (total * 3) / 4],
            epsilon: 0.05,
        };
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(16);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        let budget = targets.budgets();
        assert!(out.part_weights[0] <= budget[0]);
        assert!(out.part_weights[1] <= budget[1]);
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // 4 heavy vertices + 60 light in a chain.
        let mut weights = vec![1u64; 64];
        for w in weights.iter_mut().take(4) {
            *w = 20;
        }
        let mut b = HypergraphBuilder::new(weights);
        for v in 0..63u32 {
            b.add_net(1, [v, v + 1]);
        }
        let h = b.build();
        let targets = BisectionTargets::even(h.total_vertex_weight(), 0.05);
        let cfg = PartitionerConfig::mondriaan_like();
        let mut rng = StdRng::seed_from_u64(17);
        let out = bipartition_hypergraph(&h, &targets, &cfg, &mut rng);
        let budget = targets.budgets();
        assert!(out.part_weights[0] <= budget[0]);
        assert!(out.part_weights[1] <= budget[1]);
    }
}
