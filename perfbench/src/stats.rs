//! Summary statistics: median, the tail-percentile rule, and geomean.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail: the highest percentile that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the `(n − 10)`-th smallest
/// sample. Returns `(value, percentile)`, or `None` with fewer than
/// `TAIL_BEYOND + 1` samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Geometric mean of positive counts; a 0 counts as 1 so one empty cut
/// cannot zero the mean. 0 when empty.
pub fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| (v.max(1) as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail(&values).expect("enough samples");
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);

        let (value, pct) = tail(&(1..=40).map(f64::from).collect::<Vec<_>>()).expect("40");
        assert_eq!((value, pct), (30.0, 75.0));
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[3.0; 11]), Some((3.0, 100.0 / 11.0)));
    }

    #[test]
    fn geomean_is_exact_on_powers_and_guards_zero() {
        assert!((geomean(&[2, 8]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10, 100, 1000]) - 100.0).abs() < 1e-9);
        assert_eq!(geomean(&[0, 1]), 1.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
