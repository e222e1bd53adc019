//! A deterministic stand-in for the `gd97_b` matrix of Fig 3.
//!
//! The original (University of Florida collection, Pajek group) is a
//! 47 × 47 structurally symmetric graph-drawing matrix with 264 nonzeros
//! whose optimal bipartition volume is 11 (shown in the paper's Fig 3 and
//! proved optimal in the first author's MSc thesis). We reproduce its
//! *shape*: 47 × 47, exactly 264 nonzeros, symmetric, connected — a ring
//! backbone (connectivity) plus seeded random chords. The optimal volume of
//! the twin is unknown, so the Fig 3 reproduction reports best-of-100-runs
//! per method rather than distance to a known optimum.

use mg_sparse::{Coo, Idx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dimensions of the twin (and the original).
pub const N: Idx = 47;
/// Nonzero count of the twin (and the original).
pub const NNZ: usize = 264;

/// Generates the `gd97_b` twin: 47 × 47, exactly 264 nonzeros, pattern
/// symmetric, no diagonal, connected.
pub fn gd97b_twin() -> Coo {
    let mut rng = StdRng::seed_from_u64(0x9d97b);
    let mut pairs: Vec<(Idx, Idx)> = Vec::new();
    // Ring backbone: 47 undirected edges keep the graph connected.
    for v in 0..N {
        pairs.push((v, (v + 1) % N));
    }
    // 132 − 47 = 85 random chords.
    while pairs.len() < NNZ / 2 {
        let i = rng.gen_range(0..N);
        let j = rng.gen_range(0..N);
        if i == j {
            continue;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        if !pairs.contains(&(lo, hi)) && !pairs.contains(&(hi, lo)) {
            pairs.push((lo, hi));
        }
    }
    let mut entries = Vec::with_capacity(NNZ);
    for (i, j) in pairs {
        entries.push((i, j));
        entries.push((j, i));
    }
    Coo::new(N, N, entries).expect("twin entries in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_sparse::{MatrixClass, PatternStats};

    #[test]
    fn twin_matches_the_original_shape() {
        let a = gd97b_twin();
        assert_eq!(a.rows(), 47);
        assert_eq!(a.cols(), 47);
        assert_eq!(a.nnz(), 264);
        let s = PatternStats::compute(&a);
        assert_eq!(s.class(), MatrixClass::Symmetric);
        assert_eq!(s.diagonal_nnz, 0);
    }

    #[test]
    fn twin_is_connected() {
        let a = gd97b_twin();
        // BFS over the symmetric pattern.
        let index = mg_sparse::LineIndex::new(&a);
        let mut seen = [false; 47];
        let mut queue = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &(_, u) in &a.entries()[index.row_nonzero_ids(v)] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        assert_eq!(count, 47);
    }

    #[test]
    fn twin_is_deterministic() {
        assert_eq!(gd97b_twin(), gd97b_twin());
    }
}
