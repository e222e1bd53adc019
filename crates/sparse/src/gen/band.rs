//! Perturbed-band patterns (discretised 1D operators, time
//! series, finite differences).

use crate::{Coo, Idx};
use rand::Rng;

/// A band with randomly dropped off-diagonal entries (keeping the pattern
/// symmetric) and a sprinkle of random long-range couples — models
/// finite-difference matrices with irregular boundaries.
///
/// `drop_probability` removes band entries; `long_range` adds that many
/// random symmetric far pairs.
pub fn perturbed_band<R: Rng>(
    n: Idx,
    half_bandwidth: Idx,
    drop_probability: f64,
    long_range: usize,
    rng: &mut R,
) -> Coo {
    assert!(n > 0);
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((i, i));
        let hi = (i + half_bandwidth).min(n - 1);
        for j in (i + 1)..=hi {
            if rng.gen::<f64>() >= drop_probability {
                entries.push((i, j));
                entries.push((j, i));
            }
        }
    }
    for _ in 0..long_range {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            entries.push((i, j));
            entries.push((j, i));
        }
    }
    Coo::new(n, n, entries).expect("entries stay in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perturbed_band_stays_symmetric() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = perturbed_band(50, 4, 0.3, 10, &mut rng);
        assert!(a.is_pattern_symmetric());
        for d in 0..50 {
            assert!(a.contains(d, d));
        }
    }

    #[test]
    fn full_drop_leaves_diagonal_plus_long_range() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = perturbed_band(30, 2, 1.0, 0, &mut rng);
        assert_eq!(a.nnz(), 30);
    }
}
