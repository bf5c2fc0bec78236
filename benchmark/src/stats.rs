//! Order statistics for the report: medians, percentiles and quartiles.

/// Sort ascending (total order; the harness never produces NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Percentile `p` in `[0, 100]` of an ascending-sorted, non-empty slice,
/// nearest-rank: the smallest sample with at least `p` % of samples at or
/// below it. Nearest-rank never invents a latency nobody observed.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) —
/// the function the acceptance driver applies to ten runs per workload.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs.to_vec());
    let n = s.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The quartile on the quiet side of a sample of per-repetition values:
/// the first quartile of times, the third of rates.
///
/// This host's noise is one-sided contamination — a co-tenant on the
/// sibling hyper-thread slows anywhere from none to 60 % of a run's
/// repetitions by 25–70 %, in episodes of seconds. A median flips as soon
/// as half a run is noisy; over sliding 20 s windows of one recorded
/// `session_mix` series it moved 21 % for `op_p95_us` where this quartile
/// moved 1.9 % (throughput 6.5 % against 3.7 %). It is still an order
/// statistic of whole repetitions, not a best-of: a quarter of the run has
/// to be that good.
pub fn quiet_quartile(xs: &[f64], higher_is_better: bool) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    if higher_is_better {
        q3
    } else {
        q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_synthetic_data() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Small samples: p95 of five values is the largest.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 50.0], 95.0), 50.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quiet_quartile(&xs, false), 2.75);
        assert_eq!(quiet_quartile(&xs, true), 8.25);
    }
}
