//! Order statistics for the report: medians, quartiles, and percentiles
//! that refuse to extrapolate past their samples.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported: below that, the "tail" is one or two samples
/// and the figure is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at `per_mille`/1000, the rule
/// `fd_campaign::Stats` uses (so p50 and p99 agree with the legacy
/// `BENCH_kv.json` figures). `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond the rank, which also covers an empty sample.
pub fn percentile(samples: &[u64], per_mille: usize) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (per_mille * sorted.len()).div_ceil(1000).max(1);
    (sorted.len() >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of real-valued samples (mean of the middle two for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 500), Some(50));
        assert_eq!(percentile(&hundred, 900), Some(90));
        // p99 of 100 samples has one sample beyond it: unsupported.
        assert_eq!(percentile(&hundred, 990), None);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 990), Some(990));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn percentile_matches_the_campaign_stats_rule() {
        let samples: Vec<u64> = (0..1686u64).map(|i| (i * 7919) % 3001).collect();
        let stats = fd_campaign::Stats::from_samples(samples.clone()).expect("non-empty");
        assert_eq!(percentile(&samples, 500), Some(stats.p50));
        assert_eq!(percentile(&samples, 990), Some(stats.p99));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
