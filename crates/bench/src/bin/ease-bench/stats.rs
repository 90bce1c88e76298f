//! Order statistics over latency samples and over repeated runs.

/// Median of unsorted `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it. `None` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = rank_of(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank `pct` percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    rank_of(n, pct).map_or(0, |rank| n - rank)
}

/// Percentiles a report may quote, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a percentile for it to be quoted.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it; `None` when even the
/// median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER.iter().copied().rfind(|&pct| samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the spread rule the benchmark's
/// acceptance uses, so `compare` must agree with it digit for digit. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread of
/// one metric. `0` for fewer than two runs.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(mid)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank_of(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // the epsilon keeps 99.9 % of 10 000 at rank 9 990 despite 99.9 not
    // being a binary fraction
    Some(((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(20.0));
        assert_eq!(percentile(&v, 75.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10.0, 12.0, 11.0], n=4) -> [10.0, 11.0, 12.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0]), Some((10.0, 12.0)));
        // statistics.quantiles([1.0, 2.0], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_rule_wants_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(40, 90.0), 4);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(0), None);
    }
}
