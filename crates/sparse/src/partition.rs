//! Nonzero partitions and the paper's cost model.
//!
//! A [`NonzeroPartition`] assigns every stored nonzero of a [`Coo`] to one of
//! `p` parts (processors). This module computes:
//!
//! * the **communication volume** of eqns (2)–(3):
//!   `V = Σ_i (λ_i − 1)` over all non-empty rows and columns, where `λ` is
//!   the number of distinct parts owning nonzeros of that row/column;
//! * the **load-imbalance** quantities of eqn (1):
//!   `max_k |A_k| ≤ (1+ε)·⌈N/p⌉`.
//!
//! Both are pure functions of the pattern and the assignment; the SpMV
//! simulator in [`crate::spmv`] validates the volume formula by actually
//! counting communicated words.

use crate::{Coo, Idx};

/// Errors from validating a partition against a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The assignment vector length differs from the matrix nonzero count.
    LengthMismatch {
        /// entries in the assignment
        assigned: usize,
        /// nonzeros in the matrix
        nnz: usize,
    },
    /// An entry was assigned to a part `>= num_parts`.
    PartOutOfRange {
        /// the offending nonzero id
        nonzero: usize,
        /// its part
        part: Idx,
        /// number of parts
        num_parts: Idx,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::LengthMismatch { assigned, nnz } => write!(
                f,
                "partition assigns {assigned} nonzeros but the matrix has {nnz}"
            ),
            PartitionError::PartOutOfRange {
                nonzero,
                part,
                num_parts,
            } => write!(
                f,
                "nonzero {nonzero} assigned to part {part} >= num_parts {num_parts}"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// An assignment of every nonzero (by canonical COO id) to a part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonzeroPartition {
    num_parts: Idx,
    parts: Vec<Idx>,
}

impl NonzeroPartition {
    /// Wraps an assignment vector; `parts[k]` is the part of nonzero `k`.
    pub fn new(num_parts: Idx, parts: Vec<Idx>) -> Result<Self, PartitionError> {
        for (k, &p) in parts.iter().enumerate() {
            if p >= num_parts {
                return Err(PartitionError::PartOutOfRange {
                    nonzero: k,
                    part: p,
                    num_parts,
                });
            }
        }
        Ok(NonzeroPartition { num_parts, parts })
    }

    /// Everything on part 0.
    pub fn trivial(nnz: usize) -> Self {
        NonzeroPartition {
            num_parts: 1,
            parts: vec![0; nnz],
        }
    }

    /// Validates the assignment length against a matrix.
    pub fn check_against(&self, a: &Coo) -> Result<(), PartitionError> {
        if self.parts.len() != a.nnz() {
            return Err(PartitionError::LengthMismatch {
                assigned: self.parts.len(),
                nnz: a.nnz(),
            });
        }
        Ok(())
    }

    /// Number of parts `p`.
    #[inline]
    pub fn num_parts(&self) -> Idx {
        self.num_parts
    }

    /// The raw assignment, indexed by canonical nonzero id.
    #[inline]
    pub fn parts(&self) -> &[Idx] {
        &self.parts
    }

    /// Part of nonzero `k`.
    #[inline]
    pub fn part_of(&self, k: usize) -> Idx {
        self.parts[k]
    }

    /// Nonzeros per part.
    pub fn part_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_parts as usize];
        for &p in &self.parts {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Ids of the nonzeros in each part, in canonical order.
    pub fn part_members(&self) -> Vec<Vec<Idx>> {
        let mut members = vec![Vec::new(); self.num_parts as usize];
        for (k, &p) in self.parts.iter().enumerate() {
            members[p as usize].push(k as Idx);
        }
        members
    }

    /// Re-labels a bipartition by swapping parts 0 and 1.
    ///
    /// Volume and balance are invariant under relabeling; some algorithms
    /// (Algorithm 2's direction switch) care about which side is which.
    pub fn swapped(&self) -> Self {
        assert_eq!(self.num_parts, 2, "swapped() is for bipartitions");
        NonzeroPartition {
            num_parts: 2,
            parts: self.parts.iter().map(|&p| 1 - p).collect(),
        }
    }
}

/// Largest part size `max_k |A_k|`.
pub fn max_part_size(partition: &NonzeroPartition) -> u64 {
    partition.part_sizes().into_iter().max().unwrap_or(0)
}

/// Load imbalance `ε' = max_k |A_k| · p / N − 1`; the constraint of eqn (1)
/// is satisfied iff `ε' ≤ ε` (up to the integrality of part sizes).
///
/// Returns `0.0` for an empty matrix.
pub fn load_imbalance(partition: &NonzeroPartition) -> f64 {
    let n = partition.parts().len();
    if n == 0 {
        return 0.0;
    }
    let max = max_part_size(partition) as f64;
    max * partition.num_parts() as f64 / n as f64 - 1.0
}

/// The integral nonzero budget per part allowed by eqn (1):
/// `⌊(1+ε)·N/p⌋`, but never below `⌈N/p⌉` (a perfectly even split must
/// always be feasible).
pub fn part_budget(nnz: usize, num_parts: Idx, epsilon: f64) -> u64 {
    let even = (nnz as u64).div_ceil(num_parts as u64);
    let relaxed = ((1.0 + epsilon) * nnz as f64 / num_parts as f64).floor() as u64;
    relaxed.max(even)
}

/// `λ` per row: number of distinct parts among each row's nonzeros.
/// Empty rows get `λ = 0`. Runs in `O(N + m)` using the canonical row-major
/// entry order and a per-part stamp array.
pub fn row_lambdas(a: &Coo, partition: &NonzeroPartition) -> Vec<Idx> {
    debug_assert_eq!(a.nnz(), partition.parts().len());
    let mut lambdas = vec![0 as Idx; a.rows() as usize];
    let mut stamp = vec![Idx::MAX; partition.num_parts() as usize];
    for (k, &(i, _)) in a.entries().iter().enumerate() {
        let p = partition.part_of(k) as usize;
        if stamp[p] != i {
            stamp[p] = i;
            lambdas[i as usize] += 1;
        }
    }
    lambdas
}

/// `λ` per column; see [`row_lambdas`].
///
/// Walks the entries through [`Coo::column_major_order`] instead of
/// materialising a [`Csc`](crate::Csc) — the permutation is the only part of the CSC
/// build the stamp scan actually needs.
pub fn col_lambdas(a: &Coo, partition: &NonzeroPartition) -> Vec<Idx> {
    debug_assert_eq!(a.nnz(), partition.parts().len());
    let perm = a.column_major_order();
    let mut lambdas = vec![0 as Idx; a.cols() as usize];
    let mut stamp = vec![Idx::MAX; partition.num_parts() as usize];
    for &k in &perm {
        let j = a.entry(k as usize).1;
        let p = partition.part_of(k as usize) as usize;
        if stamp[p] != j {
            stamp[p] = j;
            lambdas[j as usize] += 1;
        }
    }
    lambdas
}

/// Total communication volume of eqn (3):
/// `V = Σ_rows (λ_i − 1) + Σ_cols (λ_j − 1)` over non-empty rows/columns.
///
/// For `p ≤ 64` (every bipartitioning call and all the experiment part
/// counts) this takes a bitmask fast path: one unordered pass over the
/// entries fills a `u64` part-set per row and per column, and `λ` is a
/// popcount — no column permutation, no stamp arrays.
pub fn communication_volume(a: &Coo, partition: &NonzeroPartition) -> u64 {
    debug_assert_eq!(a.nnz(), partition.parts().len());
    if partition.num_parts() <= 64 {
        let mut row_mask = vec![0u64; a.rows() as usize];
        let mut col_mask = vec![0u64; a.cols() as usize];
        for (k, &(i, j)) in a.entries().iter().enumerate() {
            let bit = 1u64 << partition.part_of(k);
            row_mask[i as usize] |= bit;
            col_mask[j as usize] |= bit;
        }
        return row_mask
            .iter()
            .chain(col_mask.iter())
            .map(|&m| (m.count_ones() as u64).saturating_sub(1))
            .sum();
    }
    let rl = row_lambdas(a, partition);
    let cl = col_lambdas(a, partition);
    let row_v: u64 = rl.iter().map(|&l| (l as u64).saturating_sub(1)).sum();
    let col_v: u64 = cl.iter().map(|&l| (l as u64).saturating_sub(1)).sum();
    row_v + col_v
}

/// Brute-force volume computation via per-row/column part sets; `O(N·p)`
/// worst case. Exists purely as an independent oracle for tests.
pub fn communication_volume_reference(a: &Coo, partition: &NonzeroPartition) -> u64 {
    let mut volume = 0u64;
    for i in 0..a.rows() {
        let mut parts: Vec<Idx> = a
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, &(r, _))| r == i)
            .map(|(k, _)| partition.part_of(k))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        volume += (parts.len() as u64).saturating_sub(1);
    }
    for j in 0..a.cols() {
        let mut parts: Vec<Idx> = a
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, &(_, c))| c == j)
            .map(|(k, _)| partition.part_of(k))
            .collect();
        parts.sort_unstable();
        parts.dedup();
        volume += (parts.len() as u64).saturating_sub(1);
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(n: Idx) -> (Coo, NonzeroPartition) {
        // Dense n×n pattern, parts alternating like a checkerboard: worst case.
        let entries: Vec<(Idx, Idx)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        let a = Coo::new(n, n, entries).unwrap();
        let parts: Vec<Idx> = a.iter().map(|(i, j)| (i + j) % 2).collect();
        let p = NonzeroPartition::new(2, parts).unwrap();
        (a, p)
    }

    #[test]
    fn trivial_partition_has_zero_volume() {
        let a = Coo::new(3, 3, vec![(0, 0), (1, 1), (2, 2), (0, 2)]).unwrap();
        let p = NonzeroPartition::trivial(a.nnz());
        assert_eq!(communication_volume(&a, &p), 0);
        assert_eq!(load_imbalance(&p), 0.0);
    }

    #[test]
    fn checkerboard_volume() {
        let (a, p) = checkerboard(4);
        // Every row and column has both parts: V = 2·n·(2−1) = 8.
        assert_eq!(communication_volume(&a, &p), 8);
        assert_eq!(communication_volume_reference(&a, &p), 8);
        assert_eq!(row_lambdas(&a, &p), vec![2, 2, 2, 2]);
        assert_eq!(col_lambdas(&a, &p), vec![2, 2, 2, 2]);
    }

    #[test]
    fn column_split_only_cuts_rows() {
        // 2x2 dense, split by column.
        let a = Coo::new(2, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let p = NonzeroPartition::new(2, vec![0, 1, 0, 1]).unwrap();
        assert_eq!(row_lambdas(&a, &p), vec![2, 2]);
        assert_eq!(col_lambdas(&a, &p), vec![1, 1]);
        assert_eq!(communication_volume(&a, &p), 2);
    }

    #[test]
    fn empty_rows_do_not_contribute() {
        let a = Coo::new(4, 2, vec![(0, 0), (0, 1)]).unwrap();
        let p = NonzeroPartition::new(2, vec![0, 1]).unwrap();
        assert_eq!(row_lambdas(&a, &p), vec![2, 0, 0, 0]);
        assert_eq!(communication_volume(&a, &p), 1);
    }

    #[test]
    fn part_sizes_and_imbalance() {
        let p = NonzeroPartition::new(2, vec![0, 0, 0, 1]).unwrap();
        assert_eq!(p.part_sizes(), vec![3, 1]);
        assert_eq!(max_part_size(&p), 3);
        assert!((load_imbalance(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn budget_is_at_least_even_split() {
        assert_eq!(part_budget(10, 2, 0.0), 5);
        assert_eq!(part_budget(11, 2, 0.0), 6); // ceil
        assert_eq!(part_budget(100, 2, 0.03), 51);
        assert_eq!(part_budget(1000, 4, 0.03), 257);
        assert_eq!(part_budget(0, 2, 0.03), 0);
    }

    #[test]
    fn rejects_out_of_range_parts() {
        assert!(NonzeroPartition::new(2, vec![0, 2]).is_err());
    }

    #[test]
    fn swapped_preserves_volume() {
        let (a, p) = checkerboard(3);
        assert_eq!(
            communication_volume(&a, &p),
            communication_volume(&a, &p.swapped())
        );
    }

    #[test]
    fn bitmask_fast_path_matches_reference_across_part_counts() {
        // Deterministic scatter over a sparse-ish pattern; p sweeps through
        // the bitmask fast path (p ≤ 64) and the stamp fallback (p > 64).
        let entries: Vec<(Idx, Idx)> = (0..12u32)
            .flat_map(|i| {
                (0..12u32)
                    .filter(move |j| (i * 7 + j * 3) % 4 != 1)
                    .map(move |j| (i, j))
            })
            .collect();
        let a = Coo::new(12, 12, entries).unwrap();
        for p in [1u32, 2, 3, 7, 10, 63, 64, 65, 100] {
            let parts: Vec<Idx> = (0..a.nnz()).map(|k| (k as u32 * 31 + 5) % p).collect();
            let np = NonzeroPartition::new(p, parts).unwrap();
            assert_eq!(
                communication_volume(&a, &np),
                communication_volume_reference(&a, &np),
                "p = {p}"
            );
        }
    }

    #[test]
    fn check_against_detects_length_mismatch() {
        let a = Coo::new(2, 2, vec![(0, 0)]).unwrap();
        let p = NonzeroPartition::new(2, vec![0, 1]).unwrap();
        assert!(p.check_against(&a).is_err());
    }
}
