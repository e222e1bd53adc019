//! Algorithm 1: the heuristic initial split `A = Ar + Ac`.
//!
//! Every nonzero `a_ij` is assigned to either the *row group* of row `i`
//! (matrix `Ar`) or the *column group* of column `j` (matrix `Ac`). The
//! heuristic scores each row and column by its nonzero count — small
//! rows/columns are likely uncut in a good partitioning, so the smaller
//! side "wins" the nonzero:
//!
//! * `nzc(j) = 1` → the nonzero goes to `Ar` (the column is always uncut),
//! * `nzr(i) = 1` → `Ac` (symmetric case),
//! * `nzr(i) < nzc(j)` → `Ar`; `nzr(i) > nzc(j)` → `Ac`,
//! * tie → a *global* preference: rows for tall matrices (`m > n`),
//!   columns for wide ones, random for square ones.
//!
//! After the pass, the paper's post-improvement moves the lone stray
//! nonzero of any row that is otherwise entirely in `Ar` (and of any column
//! that is otherwise entirely in `Ac`) so the whole line is guaranteed
//! uncut.

use mg_sparse::{Coo, LineIndex};
use rand::Rng;

/// Which side wins score ties globally (Algorithm 1, lines 2–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalPreference {
    /// Ties go to the row group (`Ar`).
    Rows,
    /// Ties go to the column group (`Ac`).
    Columns,
}

/// The outcome of a split: one bit per nonzero (canonical COO order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// `in_row[k]` — nonzero `k` is in `Ar` (true) or `Ac` (false).
    in_row: Vec<bool>,
}

impl Split {
    /// Wraps a raw assignment (one entry per nonzero of the matrix).
    pub fn from_assignment(in_row: Vec<bool>) -> Self {
        Split { in_row }
    }

    /// `true` if nonzero `k` belongs to `Ar`.
    #[inline]
    pub fn in_row(&self, k: usize) -> bool {
        self.in_row[k]
    }

    /// The raw assignment.
    #[inline]
    pub fn assignment(&self) -> &[bool] {
        &self.in_row
    }

    /// Number of nonzeros in `Ar`.
    pub fn row_count(&self) -> usize {
        self.in_row.iter().filter(|&&r| r).count()
    }

    /// Number of nonzeros in `Ac`.
    pub fn col_count(&self) -> usize {
        self.in_row.len() - self.row_count()
    }

    /// Everything into `Ac` — the medium-grain model then degenerates to
    /// the row-net model (see §III-A of the paper).
    pub fn all_columns(nnz: usize) -> Self {
        Split {
            in_row: vec![false; nnz],
        }
    }

    /// Everything into `Ar` — degenerates to the column-net model.
    pub fn all_rows(nnz: usize) -> Self {
        Split {
            in_row: vec![true; nnz],
        }
    }
}

/// Algorithm 1 with the tie preference chosen from the matrix shape
/// (random for square matrices, drawn from `rng`), followed by the
/// post-improvement pass. `index` is `a`'s [`LineIndex`]: `nzr` and `nzc`
/// are its line lengths.
pub fn initial_split<R: Rng>(a: &Coo, index: &LineIndex, rng: &mut R) -> Split {
    let preference = match a.rows().cmp(&a.cols()) {
        std::cmp::Ordering::Greater => GlobalPreference::Rows,
        std::cmp::Ordering::Less => GlobalPreference::Columns,
        std::cmp::Ordering::Equal => {
            if rng.gen::<bool>() {
                GlobalPreference::Rows
            } else {
                GlobalPreference::Columns
            }
        }
    };
    let mut split = split_with_preference(a, index, preference);
    improve_split(a, index, &mut split);
    split
}

/// Algorithm 1 proper (lines 8–21) with an explicit tie preference and no
/// post-pass; exposed separately so tests can exercise each piece.
pub fn split_with_preference(a: &Coo, index: &LineIndex, preference: GlobalPreference) -> Split {
    let in_row = a
        .iter()
        .map(|(i, j)| {
            let r = index.row_len(i);
            let c = index.col_len(j);
            if c == 1 {
                true // lone column entry: the column is uncut in Ar
            } else if r == 1 {
                false // lone row entry: the row is uncut in Ac
            } else if r < c {
                true
            } else if r > c {
                false
            } else {
                preference == GlobalPreference::Rows
            }
        })
        .collect();
    Split { in_row }
}

/// The paper's post-improvement: if every nonzero of row `i` sits in `Ar`
/// except exactly one, pull that one into `Ar` too (the row is then
/// guaranteed uncut); symmetrically for columns into `Ac`. One pass over
/// rows, then one over columns.
pub fn improve_split(a: &Coo, index: &LineIndex, split: &mut Split) {
    // Rows: move the Ac stray if it is unique and the row actually has
    // other (Ar) nonzeros — a length-1 row fully in Ac is already uncut
    // and was placed there deliberately by Algorithm 1.
    for i in 0..a.rows() {
        let span = index.row_nonzero_ids(i);
        let mut strays = span.clone().filter(|&k| !split.in_row[k]);
        if let (Some(k), None) = (strays.next(), strays.next()) {
            if span.len() >= 2 {
                split.in_row[k] = true;
            }
        }
    }

    // Columns, symmetric: one stray in Ar moves to Ac.
    for j in 0..a.cols() {
        let ids = index.col_nonzero_ids(j);
        let mut strays = ids.iter().filter(|&&k| split.in_row[k as usize]);
        if let (Some(&k), None) = (strays.next(), strays.next()) {
            if ids.len() >= 2 {
                split.in_row[k as usize] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn singleton_column_goes_to_row_group() {
        // Column 1 has a single nonzero at (0,1); row 0 has 3 nonzeros.
        let a = Coo::new(2, 3, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)]).unwrap();
        let s = split_with_preference(&a, &LineIndex::new(&a), GlobalPreference::Columns);
        let k = a.find(0, 1).unwrap();
        assert!(s.in_row(k), "nzc = 1 must force Ar");
    }

    #[test]
    fn singleton_row_goes_to_column_group() {
        let a = Coo::new(3, 2, vec![(0, 0), (1, 0), (2, 0), (1, 1)]).unwrap();
        // Row 0 and row 2 have one nonzero each, in column 0 (nzc = 3).
        let s = split_with_preference(&a, &LineIndex::new(&a), GlobalPreference::Rows);
        let k0 = a.find(0, 0).unwrap();
        let k2 = a.find(2, 0).unwrap();
        assert!(!s.in_row(k0));
        assert!(!s.in_row(k2));
    }

    #[test]
    fn smaller_score_wins() {
        // Row 0: 2 nonzeros; column 0: 3 nonzeros -> (0,0) to Ar.
        let a = Coo::new(3, 3, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]).unwrap();
        let s = split_with_preference(&a, &LineIndex::new(&a), GlobalPreference::Columns);
        let k = a.find(0, 0).unwrap();
        assert!(s.in_row(k), "nzr(0)=2 < nzc(0)=3 must go to Ar");
    }

    #[test]
    fn ties_follow_global_preference() {
        // 2x2 dense: all scores 2, no singletons.
        let a = Coo::new(2, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let sr = split_with_preference(&a, &LineIndex::new(&a), GlobalPreference::Rows);
        assert_eq!(sr.row_count(), 4);
        let sc = split_with_preference(&a, &LineIndex::new(&a), GlobalPreference::Columns);
        assert_eq!(sc.col_count(), 4);
    }

    #[test]
    fn rectangular_shape_fixes_preference() {
        // Tall matrix (m > n): ties must go to rows. Dense 3x3 would tie;
        // make a tall 4x2 dense matrix: nzr = 2, nzc = 4, so rows win by
        // score anyway; check a genuine tie via a square submatrix pattern.
        let tall = Coo::new(
            4,
            2,
            vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (3, 0),
                (3, 1),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = initial_split(&tall, &LineIndex::new(&tall), &mut rng);
        // nzr = 2 < nzc = 4 everywhere: everything in Ar.
        assert_eq!(s.row_count(), 8);
    }

    #[test]
    fn post_pass_pulls_lone_stray_into_row() {
        // Row 0 = 4 nonzeros; columns 0..2 dense-ish so columns win most
        // entries, then check the stray logic directly with a crafted split.
        let a = Coo::new(2, 4, vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]).unwrap();
        // Hand-build: row 0 mostly Ar with one stray in Ac.
        let mut split = Split::from_assignment(vec![true, true, true, false, false]);
        improve_split(&a, &LineIndex::new(&a), &mut split);
        // (0,3) was the lone Ac entry of row 0: moved to Ar.
        assert!(split.in_row(a.find(0, 3).unwrap()));
        // (1,0): lone Ar... it was Ac already; column 0 now has zero Ar
        // strays, nothing changes.
        assert!(!split.in_row(a.find(1, 0).unwrap()));
    }

    #[test]
    fn post_pass_pulls_lone_stray_into_column() {
        let a = Coo::new(4, 2, vec![(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]).unwrap();
        // Canonical order: (0,0), (0,1), (1,0), (2,0), (3,0).
        // Column 0 mostly Ac with one stray in Ar: (3,0).
        let mut split = Split::from_assignment(vec![false, false, false, false, true]);
        improve_split(&a, &LineIndex::new(&a), &mut split);
        assert!(!split.in_row(a.find(3, 0).unwrap()));
    }

    #[test]
    fn square_matrix_uses_random_preference_deterministically() {
        let a = Coo::new(2, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let s1 = initial_split(&a, &LineIndex::new(&a), &mut StdRng::seed_from_u64(5));
        let s2 = initial_split(&a, &LineIndex::new(&a), &mut StdRng::seed_from_u64(5));
        assert_eq!(s1, s2);
    }

    #[test]
    fn all_rows_all_columns_helpers() {
        let s = Split::all_rows(3);
        assert_eq!(s.row_count(), 3);
        let s = Split::all_columns(3);
        assert_eq!(s.col_count(), 3);
    }

    #[test]
    fn empty_matrix_split() {
        let a = Coo::empty(3, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let s = initial_split(&a, &LineIndex::new(&a), &mut rng);
        assert_eq!(s.assignment().len(), 0);
    }
}
