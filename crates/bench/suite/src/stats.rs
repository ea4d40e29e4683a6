//! Order statistics shared by the workloads, the load generator and the
//! diff: nearest-rank percentiles, medians and quartiles.

/// Samples that must lie strictly above a percentile's rank before the
/// percentile is reported. A p99 therefore needs at least 1000 samples and
/// a p50 at least 20; anything less is an extrapolation, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of unsorted values, the
/// `statistics.quantiles(method="exclusive")` convention for the quartiles
/// the diff prints and the median every workload reports.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Some(v[0]);
    }
    // Exclusive method: position q*(n+1) on a 1-based rank scale, clamped
    // to the sample range.
    let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    Some(v[lo - 1] + frac * (v[hi - 1] - v[lo - 1]))
}

/// `(q1, median, q3)` of unsorted values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    Some((
        quantile(values, 0.25)?,
        quantile(values, 0.5)?,
        quantile(values, 0.75)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990 with exactly 10 beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples leave only 9 beyond rank 990: unresolved.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 of 20 samples: rank 10, 10 beyond.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_rounds_up() {
        // rank = ceil(0.9 * 101) = 91
        assert_eq!(percentile(&ramp(101), 0.9), Some(91.0));
        // q = 0 clamps to the first sample.
        assert_eq!(percentile(&ramp(30), 0.0), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, m, q3) = quartiles(&ramp(10)).unwrap_or_default();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((m - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }
}
