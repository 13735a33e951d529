//! Order statistics over small samples.

use serde_json::{json, Value};

/// Median of `values` (mean of the two middle elements for an even count;
/// 0 for an empty sample, which the callers report as "layer did no work").
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method — the values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// driver computes spreads from.  Needs two samples; fewer give `None`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's formula verbatim, including its extrapolation past the
    // ends of very small samples.
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100] of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has at
/// least ten samples beyond it — the tail a sample of this size supports.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, samples needed for ten to lie beyond it)
    [(99.9, 10_000), (99.0, 1_000), (90.0, 100)]
        .into_iter()
        .find(|&(_, needed)| samples >= needed)
        .map_or(50.0, |(p, _)| p)
}

/// Percentile `p` of `values`, or 0 when the sample is too small to
/// support it (fewer than ten samples beyond it).
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    if p <= highest_supported_percentile(values.len()) {
        percentile(values, p)
    } else {
        0.0
    }
}

/// `{n, median, q1, q3}` of a sample, the shape every metric takes in the
/// result document.
pub fn summary(values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values).unwrap_or((median(values), median(values)));
    json!({ "n": values.len(), "median": median(values), "q1": q1, "q3": q3 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), Some((15.0, 45.0)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 90.0), 90.0);
        assert_eq!(supported_percentile(&v, 99.0), 0.0);
    }
}
