//! Order statistics for latency samples and run-to-run summaries.

/// `values` sorted ascending (total order, so NaN cannot panic a sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The `p`-quantile (`0 ≤ p < 1`) of ascending `sorted`, linearly
/// interpolated between ranks.
///
/// Refuses (`None`) when fewer than ten samples lie beyond the quantile:
/// a p90 needs at least 100 samples and a p99 at least 1000, so a tail
/// number is never read off a handful of points.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let at_or_below = (p * n as f64).ceil() as usize;
    if n == 0 || n.saturating_sub(at_or_below) < 10 {
        return None;
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The three quartiles of `values` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so run-to-run spreads printed
/// here match the ones computed from the JSON results. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of any non-empty sample (no tail rule: used for repeated
/// whole-run values and per-rep summaries).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values` (the interquartile mean): as
/// robust as the median to a quarter of outliers on either side, without
/// its coarseness on small integer counts.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let data = sorted(values);
    let cut = data.len() / 4;
    let middle = &data[cut..data.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None, "p50 needs 20 samples");
        assert!(percentile(&twenty, 0.5).is_some());

        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None, "p90 needs 100 samples");
        assert!(percentile(&hundred, 0.9).is_some());
        assert_eq!(percentile(&hundred, 0.99), None, "p99 needs 1000 samples");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(51.0));
        assert_eq!(percentile(&values, 0.9), Some(91.0));
        let even: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&even, 0.5), Some(10.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
