//! The compressed row and column index of a matrix.
//!
//! [`LineIndex`] answers "which nonzeros are in row i / column j" in
//! `O(nzr(i))` / `O(nzc(j))`: CSR row starts over the canonical (row-major)
//! entry order, plus a CSC copy that records each entry's row and its
//! canonical nonzero id, so column scans can refer back to partition
//! arrays. A row's column indices are `a.entries()[index.row_nonzero_ids(i)]`;
//! the index keeps no copy of them. Model builders, Algorithm 1, the layout
//! of eqn (4)'s B and the metrics all read A's lines through it, and one
//! bisection builds it once.

use crate::{Coo, Idx};
use std::ops::Range;

/// A matrix indexed by rows and by columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIndex {
    /// Row `i`'s nonzero ids are `row_start[i]..row_start[i + 1]`.
    row_start: Vec<Idx>,
    /// Column `j`'s entries are at `col_start[j]..col_start[j + 1]` of
    /// `col_row` and `col_entry`.
    col_start: Vec<Idx>,
    /// The row of each entry in column-major order (rows ascending within a
    /// column).
    col_row: Vec<Idx>,
    /// The canonical nonzero id of each entry in column-major order.
    col_entry: Vec<Idx>,
}

impl LineIndex {
    /// Indexes `a`: one pass counts the rows and columns, one places every
    /// entry in column-major order. `O(N + m + n)`.
    pub fn new(a: &Coo) -> Self {
        let entries = a.entries();
        let mut row_start = vec![0 as Idx; a.rows() as usize + 1];
        let mut col_start = vec![0 as Idx; a.cols() as usize + 1];
        for &(i, j) in entries {
            row_start[i as usize + 1] += 1;
            col_start[j as usize + 1] += 1;
        }
        for i in 1..row_start.len() {
            row_start[i] += row_start[i - 1];
        }
        for j in 1..col_start.len() {
            col_start[j] += col_start[j - 1];
        }
        let mut col_row = vec![0 as Idx; entries.len()];
        let mut col_entry = vec![0 as Idx; entries.len()];
        let mut next = col_start.clone();
        for (k, &(i, j)) in entries.iter().enumerate() {
            let p = next[j as usize] as usize;
            next[j as usize] += 1;
            col_row[p] = i;
            col_entry[p] = k as Idx;
        }
        LineIndex {
            row_start,
            col_start,
            col_row,
            col_entry,
        }
    }

    /// Number of nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_entry.len()
    }

    /// Row starts: row `i` is `row_starts()[i]..row_starts()[i + 1]`, one
    /// more than the number of rows.
    #[inline]
    pub fn row_starts(&self) -> &[Idx] {
        &self.row_start
    }

    /// Column starts, aligned with [`LineIndex::col`] and
    /// [`LineIndex::col_nonzero_ids`] like [`LineIndex::row_starts`].
    #[inline]
    pub fn col_starts(&self) -> &[Idx] {
        &self.col_start
    }

    /// The range of nonzero ids (canonical order) of row `i`.
    #[inline]
    pub fn row_nonzero_ids(&self, i: Idx) -> Range<usize> {
        self.row_start[i as usize] as usize..self.row_start[i as usize + 1] as usize
    }

    /// Number of nonzeros in row `i` (`nzr(i)`).
    #[inline]
    pub fn row_len(&self, i: Idx) -> Idx {
        self.row_start[i as usize + 1] - self.row_start[i as usize]
    }

    /// Row indices of column `j`, in increasing order.
    #[inline]
    pub fn col(&self, j: Idx) -> &[Idx] {
        &self.col_row[self.col_span(j)]
    }

    /// Canonical nonzero ids of column `j`, aligned with [`LineIndex::col`].
    #[inline]
    pub fn col_nonzero_ids(&self, j: Idx) -> &[Idx] {
        &self.col_entry[self.col_span(j)]
    }

    /// Number of nonzeros in column `j` (`nzc(j)`).
    #[inline]
    pub fn col_len(&self, j: Idx) -> Idx {
        self.col_start[j as usize + 1] - self.col_start[j as usize]
    }

    #[inline]
    fn col_span(&self, j: Idx) -> Range<usize> {
        self.col_start[j as usize] as usize..self.col_start[j as usize + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn small() -> Coo {
        Coo::new(3, 4, vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 3)]).unwrap()
    }

    fn row_cols(a: &Coo, index: &LineIndex, i: Idx) -> Vec<Idx> {
        a.entries()[index.row_nonzero_ids(i)]
            .iter()
            .map(|&(_, j)| j)
            .collect()
    }

    #[test]
    fn csr_rows_match_coo() {
        let a = small();
        let index = LineIndex::new(&a);
        assert_eq!(row_cols(&a, &index, 0), [0, 2]);
        assert_eq!(row_cols(&a, &index, 1), [1]);
        assert_eq!(row_cols(&a, &index, 2), [0, 3]);
        assert_eq!(index.row_len(1), 1);
        assert_eq!(index.nnz(), 5);
    }

    #[test]
    fn csr_iter_reproduces_canonical_order() {
        let a = small();
        let index = LineIndex::new(&a);
        let ids: Vec<usize> = (0..a.rows())
            .flat_map(|i| index.row_nonzero_ids(i))
            .collect();
        assert_eq!(ids, (0..a.nnz()).collect::<Vec<_>>());
        for i in 0..a.rows() {
            assert!(a.entries()[index.row_nonzero_ids(i)]
                .iter()
                .all(|&(r, _)| r == i));
        }
    }

    #[test]
    fn csc_cols_match_transpose() {
        let a = small();
        let index = LineIndex::new(&a);
        assert_eq!(index.col(0), &[0, 2]);
        assert_eq!(index.col(1), &[1]);
        assert_eq!(index.col(2), &[0]);
        assert_eq!(index.col(3), &[2]);
        assert_eq!(index.col_len(0), 2);
    }

    #[test]
    fn csc_nonzero_ids_point_back() {
        let a = small();
        let index = LineIndex::new(&a);
        for j in 0..a.cols() {
            for (&i, &k) in index.col(j).iter().zip(index.col_nonzero_ids(j)) {
                assert_eq!(a.entry(k as usize), (i, j));
            }
        }
    }

    #[test]
    fn empty_rows_and_cols_are_empty_slices() {
        let a = Coo::new(4, 4, vec![(0, 0)]).unwrap();
        let index = LineIndex::new(&a);
        for i in 1..4 {
            assert!(index.row_nonzero_ids(i).is_empty());
            assert!(index.col(i).is_empty());
            assert_eq!((index.row_len(i), index.col_len(i)), (0, 0));
        }
    }
}
