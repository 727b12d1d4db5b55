//! Order statistics over latency samples.

/// Median of `values` (mean of the middle two for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail sample: the value at the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile)`; with
/// ten samples or fewer it falls back to the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    // Index n-11 leaves exactly ten samples above it.
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }
}
