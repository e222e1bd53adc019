//! Recursive bisection to `p` parts (§IV, Table II).
//!
//! Like Mondriaan, the matrix is split into two nonzero sets with targets
//! proportional to `⌈p/2⌉ : ⌊p/2⌋`, and each side is partitioned
//! recursively *as a sub-matrix with the original coordinates*, so rows and
//! columns stay globally meaningful and the final p-way volume is computed
//! on the whole matrix.
//!
//! The imbalance budget is spread over the `⌈log₂ p⌉` levels:
//! `ε_level = (1+ε)^(1/⌈log₂ p⌉) − 1`, which keeps the final eqn (1)
//! constraint satisfied up to the integer rounding inherent in splitting
//! odd nonzero counts.

use crate::backend::PartitionBackend;
use crate::methods::{BipartitionResult, Method};
use crate::service::mix64;
use mg_partitioner::BisectionTargets;
use mg_sparse::{communication_volume, Coo, Idx, NonzeroPartition};

/// Outcome of a p-way recursive bisection.
#[derive(Debug, Clone)]
pub struct MultiwayResult {
    /// The p-way nonzero partition.
    pub partition: NonzeroPartition,
    /// Its total communication volume over all rows and columns.
    pub volume: u64,
}

/// Partitions `a` into `p` parts with method `method` under the global
/// eqn (1) constraint with parameter `epsilon`, through any
/// [`PartitionBackend`] (each takes the uneven targets of a node through
/// [`Method::bipartition_with_targets`]).
///
/// Backends are seeded per bisection node — a stable mix of `seed` with
/// the node's `(first_part, num_parts)` identity — so the p-way result is
/// a pure function of `(a, p, ε, method, backend, seed)`, independent of
/// recursion order.
pub fn recursive_bisection(
    a: &Coo,
    p: Idx,
    epsilon: f64,
    method: Method,
    backend: &dyn PartitionBackend,
    seed: u64,
) -> MultiwayResult {
    assert!(p >= 1, "need at least one part");
    let levels = (p as f64).log2().ceil().max(1.0);
    let epsilon_level = (1.0 + epsilon).powf(1.0 / levels) - 1.0;

    let mut parts = vec![0 as Idx; a.nnz()];
    let all_ids: Vec<Idx> = (0..a.nnz() as Idx).collect();
    let recursion = Recursion {
        a,
        method,
        backend,
        seed,
        epsilon_level,
    };
    recursion.bisect(&all_ids, 0, p, &mut parts);
    let partition = NonzeroPartition::new(p, parts).expect("parts stay in range");
    let volume = communication_volume(a, &partition);
    MultiwayResult { partition, volume }
}

/// Derives one bisection node's seed from the master seed and the node
/// identity.
fn node_seed(seed: u64, first_part: Idx, num_parts: Idx) -> u64 {
    mix64(seed ^ (u64::from(first_part) << 32) ^ u64::from(num_parts))
}

/// What every bisection node of one recursion shares.
struct Recursion<'a> {
    a: &'a Coo,
    method: Method,
    backend: &'a dyn PartitionBackend,
    seed: u64,
    epsilon_level: f64,
}

impl Recursion<'_> {
    /// Recursively assigns part ids `first_part .. first_part + num_parts`
    /// to the nonzeros `ids` (canonical ids into `a`).
    fn bisect(&self, ids: &[Idx], first_part: Idx, num_parts: Idx, parts: &mut [Idx]) {
        if num_parts == 1 || ids.is_empty() {
            for &k in ids {
                parts[k as usize] = first_part;
            }
            return;
        }
        // Uneven child part counts for non-powers of two.
        let p0 = num_parts.div_ceil(2);
        let p1 = num_parts - p0;

        // Sub-matrix: the selected nonzeros with their global coordinates.
        // `ids` is kept sorted, so entry r of `sub` is nonzero ids[r] of `a`.
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let a = self.a;
        let entries: Vec<(Idx, Idx)> = ids.iter().map(|&k| a.entry(k as usize)).collect();
        let sub = Coo::from_sorted_unchecked(a.rows(), a.cols(), entries);

        let nnz = sub.nnz() as u64;
        let target0 = (nnz * p0 as u64).div_ceil(num_parts as u64);
        let targets = BisectionTargets {
            target: [target0, nnz - target0],
            epsilon: self.epsilon_level,
        };
        let BipartitionResult { partition, .. } = self.backend.bipartition_with_targets(
            &sub,
            self.method,
            &targets,
            node_seed(self.seed, first_part, num_parts),
        );

        let mut side0: Vec<Idx> = Vec::with_capacity(target0 as usize);
        let mut side1: Vec<Idx> = Vec::new();
        for (r, &k) in ids.iter().enumerate() {
            if partition.part_of(r) == 0 {
                side0.push(k);
            } else {
                side1.push(k);
            }
        }
        self.bisect(&side0, first_part, p0, parts);
        self.bisect(&side1, first_part + p0, p1, parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{all_backends, parse_backend};
    use mg_sparse::load_imbalance;

    fn mondriaan() -> &'static dyn PartitionBackend {
        parse_backend("mondriaan").unwrap()
    }

    #[test]
    fn four_way_split_respects_global_balance() {
        let a = mg_sparse::gen::laplacian_2d(20, 20);
        let m = Method::MediumGrain { refine: true };
        let r = recursive_bisection(&a, 4, 0.03, m, mondriaan(), 1);
        assert_eq!(r.partition.num_parts(), 4);
        let sizes = r.partition.part_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "empty part: {sizes:?}");
        // Integer rounding across levels can exceed ε slightly on small
        // matrices; allow a small tolerance.
        assert!(
            load_imbalance(&r.partition) <= 0.03 + 0.02,
            "imbalance {}",
            load_imbalance(&r.partition)
        );
        assert_eq!(r.volume, communication_volume(&a, &r.partition));
    }

    #[test]
    fn p_equals_one_is_trivial() {
        let a = mg_sparse::gen::laplacian_2d(8, 8);
        let m = Method::MediumGrain { refine: false };
        let r = recursive_bisection(&a, 1, 0.03, m, mondriaan(), 2);
        assert_eq!(r.volume, 0);
        assert!(r.partition.parts().iter().all(|&q| q == 0));
    }

    #[test]
    fn p_equals_two_matches_plain_bipartition_quality() {
        let a = mg_sparse::gen::laplacian_2d(16, 16);
        let m = Method::MediumGrain { refine: false };
        let rec = recursive_bisection(&a, 2, 0.03, m, mondriaan(), 3);
        let flat = mondriaan().bipartition(&a, m, 0.03, node_seed(3, 0, 2));
        // Same computation path, modulo the per-level epsilon (identical
        // for p = 2: one level) and the root node's derived seed; the
        // partitions must match exactly.
        assert_eq!(rec.partition.parts(), flat.partition.parts());
        assert_eq!(rec.volume, flat.volume);
    }

    #[test]
    fn odd_part_counts_are_supported() {
        let a = mg_sparse::gen::laplacian_2d(18, 18);
        let m = Method::LocalBest { refine: false };
        let r = recursive_bisection(&a, 3, 0.1, m, mondriaan(), 4);
        assert_eq!(r.partition.num_parts(), 3);
        let sizes = r.partition.part_sizes();
        assert!(sizes.iter().all(|&s| s > 0));
        let budget = ((1.0 + 0.1) * a.nnz() as f64 / 3.0).floor() as u64;
        // Generous slack for rounding: each part within ~1.1x budget.
        assert!(sizes.iter().all(|&s| s <= budget + budget / 8));
    }

    #[test]
    fn every_backend_supports_recursive_bisection() {
        let a = mg_sparse::gen::laplacian_2d(16, 16);
        for backend in all_backends() {
            for p in [3 as Idx, 4] {
                let m = Method::MediumGrain { refine: false };
                let r = recursive_bisection(&a, p, 0.1, m, backend, 9);
                assert_eq!(r.partition.num_parts(), p, "{}", backend.name());
                r.partition.check_against(&a).unwrap();
                let sizes = r.partition.part_sizes();
                assert!(
                    sizes.iter().all(|&s| s > 0),
                    "{} p={p}: empty part {sizes:?}",
                    backend.name()
                );
                assert_eq!(r.volume, communication_volume(&a, &r.partition));
            }
        }
    }

    #[test]
    fn backend_recursion_is_deterministic_in_its_seed() {
        let a = mg_sparse::gen::laplacian_2d(12, 12);
        let backend = parse_backend("patoh").unwrap();
        let m = Method::MediumGrain { refine: true };
        let x = recursive_bisection(&a, 4, 0.03, m, backend, 77);
        let y = recursive_bisection(&a, 4, 0.03, m, backend, 77);
        assert_eq!(x.partition.parts(), y.partition.parts());
        assert_eq!(x.volume, y.volume);
    }

    #[test]
    fn volume_grows_with_part_count() {
        let a = mg_sparse::gen::laplacian_2d(24, 24);
        let m = Method::MediumGrain { refine: true };
        let v2 = recursive_bisection(&a, 2, 0.03, m, mondriaan(), 5).volume;
        let v8 = recursive_bisection(&a, 8, 0.03, m, mondriaan(), 5).volume;
        assert!(v8 > v2, "v8 {v8} should exceed v2 {v2}");
    }
}
