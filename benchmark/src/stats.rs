//! Sample statistics: nearest-rank percentiles and the rule for which
//! tail percentile a sample count supports.

/// Percentiles a run may report as its tail, ascending, in per mille
/// (integers keep the sample-count rule exact at 99.9).
pub const TAIL_CANDIDATES_PERMILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`; 0.0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0.0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of [`TAIL_CANDIDATES_PERMILLE`] (as a percentile) that
/// still has at least [`MIN_SAMPLES_BEYOND`] of `n` samples ranked
/// beyond it; the median when even p90 is unsupported.
pub fn tail_percentile(n: usize) -> f64 {
    let supported = |permille: &usize| n - (n * permille).div_ceil(1000) >= MIN_SAMPLES_BEYOND;
    let best = TAIL_CANDIDATES_PERMILLE
        .iter()
        .copied()
        .filter(supported)
        .max()
        .unwrap_or(TAIL_CANDIDATES_PERMILLE[0]);
    best as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }
}
