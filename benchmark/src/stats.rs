//! The harness's own arithmetic: medians, the quartile spread the driver
//! computes, and the "ten samples beyond" percentile rule.

/// Median of `values` (mean of the two middle samples for an even count).
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// returns them — the driver computes spreads with that function, so
/// `compare` must too. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is judged against. With fewer
/// than four samples quartiles say little, so the full range is used.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let width = if values.len() < 4 {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    } else {
        let [q1, _, q3] = quartiles(values);
        q3 - q1
    };
    (width / med).abs()
}

/// The percentiles a tail metric may be read at, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile not above `wanted` that still has at least ten
/// samples beyond it in a sample of `n` — a p99 over 300 samples is three
/// outliers, not a percentile. Falls back to the median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `wanted` percentile of `samples` under the ten-samples-beyond rule;
/// returns the value and the percentile actually read.
pub fn tail(samples: &mut [f64], wanted: f64) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let p = supported_percentile(samples.len(), wanted);
    (percentile_sorted(samples, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), [3.0, 4.0, 7.0]);
        // Two samples clamp to the only interval: [0.75, 1.5, 2.25] for [1, 2]
        // extrapolates exactly like Python.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // Fewer than four samples: full range.
        assert!((spread(&[10.0, 11.0, 12.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: ten beyond p99, only one beyond p99.9.
        assert_eq!(supported_percentile(1000, 0.999), 0.99);
        assert_eq!(supported_percentile(10_000, 0.999), 0.999);
        assert_eq!(supported_percentile(999, 0.99), 0.9);
        // A wanted p99 is never promoted to p99.9.
        assert_eq!(supported_percentile(1_000_000, 0.99), 0.99);
        // Eight iterations support nothing beyond the median.
        assert_eq!(supported_percentile(8, 0.99), 0.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        let mut small = vec![5.0, 1.0, 3.0];
        assert_eq!(tail(&mut small, 0.99), (3.0, 0.5));
    }
}
