//! The benchmark's statistics: nearest-rank percentiles, the
//! "enough samples beyond" guard for tail percentiles, and quartiles
//! computed the way Python's `statistics.quantiles(values, n=4)` does,
//! so spreads reported here match the ones a Python harness computes
//! over the same values.

/// Minimum number of samples that must lie strictly above a reported
/// tail percentile. A p99 over fewer than ~1,000 samples would rest on
/// a handful of points and move with any one of them.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` in `n` sorted
/// samples: the smallest rank `r` with `r / n >= q`, clamped to
/// `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    // Snap before rounding up: 0.99 * 1000 is 990.0000000000001 in
    // binary floating point, which must still be rank 990.
    let exact = q * n as f64;
    let snapped = exact.round();
    let r = if (exact - snapped).abs() < 1e-9 {
        snapped
    } else {
        exact.ceil()
    };
    (r as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A tail percentile only when at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise an error naming how many samples there were.
pub fn guarded_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    if sorted.is_empty() {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let past = beyond(sorted.len(), q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} over {} samples has only {past} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, q))
}

/// Median by the nearest-rank rule (the lower middle for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Median of an unsorted sample (sorts a copy); 0 when empty.
pub fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    median(&sorted(values.to_vec()))
}

/// Sort ascending (samples are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points of an ascending slice, by the
/// "exclusive" method of Python's `statistics.quantiles` (its default):
/// position `i·(n+1)/4`, linear interpolation between neighbours, the
/// position clamped into `1..=n-1`. Needs at least two samples.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Inter-quartile range as a share of the median of the quartiles — the
/// run-to-run spread a metric's bound is compared against.
pub fn relative_iqr(sorted: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(sorted);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank() {
        assert_eq!(rank(1, 0.5), 1);
        assert_eq!(rank(2, 0.5), 1);
        assert_eq!(rank(3, 0.5), 2);
        assert_eq!(rank(4, 0.5), 2);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(rank(1001, 0.99), 991);
        assert_eq!(rank(10, 0.0), 1);
        assert_eq!(rank(10, 1.0), 10);
    }

    #[test]
    fn percentile_reads_the_ranked_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn guard_needs_ten_samples_beyond_the_tail() {
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(guarded_percentile(&ok, 0.99), Ok(989.0));
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        let err = guarded_percentile(&short, 0.99).unwrap_err();
        assert!(err.contains("only 9 beyond"), "{err}");
        assert!(guarded_percentile(&[], 0.99).is_err());
        // p95 needs 200 samples; the median of a small sample is always
        // supported.
        assert_eq!(beyond(200, 0.95), 10);
        assert!(guarded_percentile(&[1.0; 199], 0.95).is_err());
        assert!(guarded_percentile(&[1.0; 30], 0.5).is_ok());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3, 5], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[1.0, 3.0, 5.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([0.5, 2.5], n=4) == [0.0, 1.5, 3.0]
        assert_eq!(quartiles(&[0.5, 2.5]), [0.0, 1.5, 3.0]);
        // statistics.quantiles([10..=70 step 10], n=4) == [20, 40, 60]
        let s: Vec<f64> = (1..=7).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quartiles(&s), [20.0, 40.0, 60.0]);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&s) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[4.0, 4.0, 4.0, 4.0]), 0.0);
    }
}
