//! Compressed sparse row / column views.
//!
//! [`Csr`] compresses a [`Coo`] into row pointers plus column indices, the
//! access pattern model builders and metrics need ("give me the nonzeros of
//! row i" in `O(nzr(i))`). [`Csc`] is the same structure oriented by columns
//! and additionally records, for each stored entry, the *nonzero id* in the
//! canonical COO order, so column scans can refer back to partition arrays.

use crate::{Coo, Idx};

/// Compressed sparse row pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    rows: Idx,
    cols: Idx,
    /// `row_ptr[i]..row_ptr[i+1]` indexes `col_idx` for row `i`.
    row_ptr: Vec<Idx>,
    col_idx: Vec<Idx>,
}

impl Csr {
    /// Compresses a canonical COO. `O(N + m)`; entry `k` of the COO becomes
    /// position `k` of `col_idx` (row-major canonical order is preserved).
    pub fn from_coo(a: &Coo) -> Self {
        let m = a.rows() as usize;
        let mut row_ptr = vec![0 as Idx; m + 1];
        for &(i, _) in a.entries() {
            row_ptr[i as usize + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = a.entries().iter().map(|&(_, j)| j).collect();
        Csr {
            rows: a.rows(),
            cols: a.cols(),
            row_ptr,
            col_idx,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> Idx {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> Idx {
        self.cols
    }

    /// Number of nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `i`, in increasing order.
    #[inline]
    pub fn row(&self, i: Idx) -> &[Idx] {
        let lo = self.row_ptr[i as usize] as usize;
        let hi = self.row_ptr[i as usize + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// The range of nonzero ids (canonical COO order) covered by row `i`.
    #[inline]
    pub fn row_nonzero_ids(&self, i: Idx) -> std::ops::Range<usize> {
        self.row_ptr[i as usize] as usize..self.row_ptr[i as usize + 1] as usize
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_len(&self, i: Idx) -> Idx {
        self.row_ptr[i as usize + 1] - self.row_ptr[i as usize]
    }

    /// Iterates `(row, col, nonzero_id)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, Idx, usize)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_nonzero_ids(i)
                .map(move |k| (i, self.col_idx[k], k))
        })
    }
}

/// Compressed sparse column pattern, with back-references to canonical
/// nonzero ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csc {
    rows: Idx,
    cols: Idx,
    col_ptr: Vec<Idx>,
    row_idx: Vec<Idx>,
    /// `nonzero_id[r]` is the canonical COO id of the entry stored at `r`.
    nonzero_id: Vec<Idx>,
}

impl Csc {
    /// Compresses a canonical COO by columns. `O(N + n)` counting sort.
    pub fn from_coo(a: &Coo) -> Self {
        let n = a.cols() as usize;
        let mut col_ptr = vec![0 as Idx; n + 1];
        for &(_, j) in a.entries() {
            col_ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0 as Idx; a.nnz()];
        let mut nonzero_id = vec![0 as Idx; a.nnz()];
        let mut next = col_ptr.clone();
        for (k, &(i, j)) in a.entries().iter().enumerate() {
            let slot = next[j as usize] as usize;
            row_idx[slot] = i;
            nonzero_id[slot] = k as Idx;
            next[j as usize] += 1;
        }
        Csc {
            rows: a.rows(),
            cols: a.cols(),
            col_ptr,
            row_idx,
            nonzero_id,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> Idx {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> Idx {
        self.cols
    }

    /// Number of nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Row indices of column `j`, in increasing order.
    #[inline]
    pub fn col(&self, j: Idx) -> &[Idx] {
        let lo = self.col_ptr[j as usize] as usize;
        let hi = self.col_ptr[j as usize + 1] as usize;
        &self.row_idx[lo..hi]
    }

    /// Canonical nonzero ids of the entries in column `j`, aligned with
    /// [`Csc::col`].
    #[inline]
    pub fn col_nonzero_ids(&self, j: Idx) -> &[Idx] {
        let lo = self.col_ptr[j as usize] as usize;
        let hi = self.col_ptr[j as usize + 1] as usize;
        &self.nonzero_id[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn small() -> Coo {
        Coo::new(3, 4, vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_rows_match_coo() {
        let a = small();
        let csr = Csr::from_coo(&a);
        assert_eq!(csr.row(0), &[0, 2]);
        assert_eq!(csr.row(1), &[1]);
        assert_eq!(csr.row(2), &[0, 3]);
        assert_eq!(csr.row_len(1), 1);
        assert_eq!(csr.nnz(), 5);
    }

    #[test]
    fn csr_iter_reproduces_canonical_order() {
        let a = small();
        let csr = Csr::from_coo(&a);
        let triples: Vec<(Idx, Idx)> = csr.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(triples, a.entries());
        let ids: Vec<usize> = csr.iter().map(|(_, _, k)| k).collect();
        assert_eq!(ids, (0..a.nnz()).collect::<Vec<_>>());
    }

    #[test]
    fn csc_cols_match_transpose() {
        let a = small();
        let csc = Csc::from_coo(&a);
        assert_eq!(csc.col(0), &[0, 2]);
        assert_eq!(csc.col(1), &[1]);
        assert_eq!(csc.col(2), &[0]);
        assert_eq!(csc.col(3), &[2]);
    }

    #[test]
    fn csc_nonzero_ids_point_back() {
        let a = small();
        let csc = Csc::from_coo(&a);
        for j in 0..a.cols() {
            for (&i, &k) in csc.col(j).iter().zip(csc.col_nonzero_ids(j)) {
                assert_eq!(a.entry(k as usize), (i, j));
            }
        }
    }

    #[test]
    fn empty_rows_and_cols_are_empty_slices() {
        let a = Coo::new(4, 4, vec![(0, 0)]).unwrap();
        let csr = Csr::from_coo(&a);
        let csc = Csc::from_coo(&a);
        for i in 1..4 {
            assert!(csr.row(i).is_empty());
            assert!(csc.col(i).is_empty());
        }
    }
}
