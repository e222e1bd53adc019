//! Deterministic synthetic sparse matrix generators.
//!
//! The paper evaluates on 2264 matrices from the University of Florida
//! collection. That collection is not redistributable here, so
//! `mg-collection` composes a population from the generator families in this
//! module; all of them are pure functions of an injected RNG, so a fixed seed
//! reproduces the exact test set.
//!
//! Families:
//! * [`random`] — Erdős–Rényi rectangular/square/symmetric patterns,
//! * [`grid`] — 2D/3D grid Laplacians (5-, 9-, 7-point stencils),
//! * [`powerlaw`] — Chung–Lu style skewed-degree patterns and bipartite
//!   term–document matrices,
//! * [`band`] — perturbed-band patterns,
//! * [`block`] — block-diagonal-with-coupling, arrow, and RMAT-like
//!   Kronecker patterns.

pub mod band;
pub mod block;
pub mod grid;
pub mod powerlaw;
pub mod random;

pub use band::perturbed_band;
pub use block::{arrow, block_diagonal, rmat};
pub use grid::{laplacian_2d, laplacian_2d_9pt, laplacian_3d};
pub use powerlaw::{chung_lu_symmetric, scale_free_directed, term_document};
pub use random::{erdos_renyi, erdos_renyi_square, random_symmetric};

use crate::{Coo, Idx};
use std::collections::HashSet;

/// Deduplicating accumulator used by generators that sample random
/// coordinates: keeps at most one copy of each `(i, j)`.
pub(crate) struct PairSet {
    rows: Idx,
    cols: Idx,
    seen: HashSet<u64>,
    entries: Vec<(Idx, Idx)>,
}

impl PairSet {
    pub(crate) fn new(rows: Idx, cols: Idx) -> Self {
        PairSet {
            rows,
            cols,
            seen: HashSet::new(),
            entries: Vec::new(),
        }
    }

    /// Inserts `(i, j)` if new; returns whether it was inserted.
    pub(crate) fn insert(&mut self, i: Idx, j: Idx) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        let key = (i as u64) * (self.cols as u64) + j as u64;
        if self.seen.insert(key) {
            self.entries.push((i, j));
            true
        } else {
            false
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn into_coo(self) -> Coo {
        Coo::new(self.rows, self.cols, self.entries).expect("PairSet enforces bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairset_dedups() {
        let mut s = PairSet::new(3, 3);
        assert!(s.insert(1, 2));
        assert!(!s.insert(1, 2));
        assert!(s.insert(2, 1));
        assert_eq!(s.len(), 2);
        let a = s.into_coo();
        assert_eq!(a.nnz(), 2);
    }
}
