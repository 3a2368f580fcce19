//! Order statistics. Pure functions, so the self-tests below pin them.

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports match the ones its acceptance
/// check computes.
///
/// # Panics
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let (n, m) = (4_i64, ld + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        (lo * (n as f64 - delta) + hi * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Nearest-rank `p`-th percentile, reported only when at least ten
/// samples lie strictly beyond it; otherwise the sample is too small to
/// say anything about that tail and the result is `None`.
pub fn percentile_with_tail(values: &[f64], p: f64) -> Option<f64> {
    const MIN_BEYOND: usize = 10;
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&small, 99.0), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&enough, 99.0), Some(990.0));
        // The median of 21 samples has ten beyond it.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 50.0), Some(11.0));
        assert_eq!(percentile_with_tail(&v[..19], 50.0), None);
    }
}
