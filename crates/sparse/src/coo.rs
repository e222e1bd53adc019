//! Canonical pattern-only triplet (COO) representation.
//!
//! [`Coo`] is the exchange format of the whole workspace: generators produce
//! it, models consume it, and nonzero partitions are index-aligned with its
//! entry order. The representation is kept *canonical* — entries sorted
//! row-major (row, then column) with duplicates removed — so that an entry's
//! position in [`Coo::entries`] is a stable nonzero id.

use crate::{Idx, SparseError};

/// A pattern-only sparse matrix in canonical (row-major sorted, deduplicated)
/// coordinate form.
///
/// The `k`-th entry of [`Coo::entries`] is "nonzero `k`" everywhere else in
/// the workspace: a [`crate::partition::NonzeroPartition`] assigns part
/// numbers by this index, and the fine-grain hypergraph model numbers its
/// vertices by it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coo {
    rows: Idx,
    cols: Idx,
    /// Sorted row-major; `entries[k] = (i, j)` is the k-th nonzero.
    entries: Vec<(Idx, Idx)>,
}

impl Coo {
    /// Builds a canonical matrix from arbitrary-order triplets.
    ///
    /// Sorts row-major and removes exact duplicates. Fails if any coordinate
    /// is out of bounds or if the number of entries does not fit in [`Idx`].
    pub fn new(rows: Idx, cols: Idx, mut entries: Vec<(Idx, Idx)>) -> Result<Self, SparseError> {
        if entries.len() >= Idx::MAX as usize {
            return Err(SparseError::TooManyNonzeros(entries.len()));
        }
        for &(i, j) in &entries {
            if i >= rows {
                return Err(SparseError::RowOutOfBounds(i, rows));
            }
            if j >= cols {
                return Err(SparseError::ColOutOfBounds(j, cols));
            }
        }
        entries.sort_unstable();
        entries.dedup();
        Ok(Coo {
            rows,
            cols,
            entries,
        })
    }

    /// Builds a matrix from entries that are already sorted row-major and
    /// unique. Used by generators and format conversions on hot paths.
    ///
    /// Debug builds verify the canonical-form invariants.
    pub fn from_sorted_unchecked(rows: Idx, cols: Idx, entries: Vec<(Idx, Idx)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        debug_assert!(entries.iter().all(|&(i, j)| i < rows && j < cols));
        debug_assert!(entries.len() < Idx::MAX as usize);
        Coo {
            rows,
            cols,
            entries,
        }
    }

    /// An empty `rows × cols` matrix.
    pub fn empty(rows: Idx, cols: Idx) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows `m`.
    #[inline]
    pub fn rows(&self) -> Idx {
        self.rows
    }

    /// Number of columns `n`.
    #[inline]
    pub fn cols(&self) -> Idx {
        self.cols
    }

    /// Number of stored nonzeros `N`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the matrix stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `rows == cols`.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The canonical entry slice; index = nonzero id.
    #[inline]
    pub fn entries(&self) -> &[(Idx, Idx)] {
        &self.entries
    }

    /// The `k`-th nonzero's coordinates.
    #[inline]
    pub fn entry(&self, k: usize) -> (Idx, Idx) {
        self.entries[k]
    }

    /// Iterates `(row, col)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, Idx)> + '_ {
        self.entries.iter().copied()
    }

    /// `true` if `(i, j)` is a stored nonzero (binary search).
    pub fn contains(&self, i: Idx, j: Idx) -> bool {
        self.entries.binary_search(&(i, j)).is_ok()
    }

    /// The nonzero id of `(i, j)`, if stored.
    pub fn find(&self, i: Idx, j: Idx) -> Option<usize> {
        self.entries.binary_search(&(i, j)).ok()
    }

    /// Nonzero counts per row (`nzr` in the paper's Algorithm 1).
    pub fn row_counts(&self) -> Vec<Idx> {
        let mut counts = vec![0 as Idx; self.rows as usize];
        for &(i, _) in &self.entries {
            counts[i as usize] += 1;
        }
        counts
    }

    /// Nonzero counts per column (`nzc` in the paper's Algorithm 1).
    pub fn col_counts(&self) -> Vec<Idx> {
        let mut counts = vec![0 as Idx; self.cols as usize];
        for &(_, j) in &self.entries {
            counts[j as usize] += 1;
        }
        counts
    }

    /// The transpose, in canonical form.
    pub fn transpose(&self) -> Coo {
        let mut entries: Vec<(Idx, Idx)> = self.entries.iter().map(|&(i, j)| (j, i)).collect();
        entries.sort_unstable();
        Coo {
            rows: self.cols,
            cols: self.rows,
            entries,
        }
    }

    /// Extracts the submatrix formed by the given nonzero ids, keeping the
    /// original dimensions and global coordinates.
    ///
    /// This is how recursive bisection re-partitions one side of a split:
    /// the sub-problem is "these nonzeros of A", not a re-indexed matrix.
    pub fn select(&self, nonzero_ids: &[Idx]) -> Coo {
        let mut entries: Vec<(Idx, Idx)> = nonzero_ids
            .iter()
            .map(|&k| self.entries[k as usize])
            .collect();
        entries.sort_unstable();
        entries.dedup();
        Coo {
            rows: self.rows,
            cols: self.cols,
            entries,
        }
    }

    /// `true` if the nonzero pattern is structurally symmetric
    /// (requires a square matrix; the diagonal is irrelevant).
    pub fn is_pattern_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        self.entries
            .iter()
            .all(|&(i, j)| i == j || self.contains(j, i))
    }

    /// Makes the pattern symmetric by adding the transpose of every
    /// off-diagonal entry. Requires a square matrix.
    pub fn symmetrized(&self) -> Coo {
        assert!(self.is_square(), "symmetrized() requires a square matrix");
        let mut entries = self.entries.clone();
        entries.extend(self.entries.iter().map(|&(i, j)| (j, i)));
        entries.sort_unstable();
        entries.dedup();
        Coo {
            rows: self.rows,
            cols: self.cols,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Coo {
        // 3x4:
        //  x . x .
        //  . x . .
        //  x . . x
        Coo::new(3, 4, vec![(2, 3), (0, 0), (1, 1), (0, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn canonicalizes_order_and_duplicates() {
        let a = Coo::new(2, 2, vec![(1, 1), (0, 0), (1, 1), (0, 0)]).unwrap();
        assert_eq!(a.entries(), &[(0, 0), (1, 1)]);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn rejects_out_of_bounds() {
        assert_eq!(
            Coo::new(2, 2, vec![(2, 0)]),
            Err(SparseError::RowOutOfBounds(2, 2))
        );
        assert_eq!(
            Coo::new(2, 2, vec![(0, 5)]),
            Err(SparseError::ColOutOfBounds(5, 2))
        );
    }

    #[test]
    fn counts_match_entries() {
        let a = small();
        assert_eq!(a.row_counts(), vec![2, 1, 2]);
        assert_eq!(a.col_counts(), vec![2, 1, 1, 1]);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn transpose_involutes() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert!(t.contains(3, 2));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn select_keeps_global_coordinates() {
        let a = small();
        let sub = a.select(&[0, 4]);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.cols(), 4);
        assert_eq!(sub.entries(), &[(0, 0), (2, 3)]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = Coo::new(3, 3, vec![(0, 1), (1, 0), (2, 2)]).unwrap();
        assert!(sym.is_pattern_symmetric());
        let asym = Coo::new(3, 3, vec![(0, 1), (2, 2)]).unwrap();
        assert!(!asym.is_pattern_symmetric());
        assert!(asym.symmetrized().is_pattern_symmetric());
        let rect = Coo::new(2, 3, vec![(0, 1)]).unwrap();
        assert!(!rect.is_pattern_symmetric());
    }

    #[test]
    fn empty_matrix() {
        let e = Coo::empty(5, 7);
        assert_eq!(e.nnz(), 0);
        assert!(e.is_empty());
        assert_eq!(e.row_counts(), vec![0; 5]);
        assert_eq!(e.col_counts(), vec![0; 7]);
        assert_eq!(e.transpose().rows(), 7);
    }
}
