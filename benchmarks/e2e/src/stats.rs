//! Order statistics the benchmark reports: nearest-rank percentiles, medians,
//! the best of the timed phase's segments, and the segment spread
//! used as the run's own noise estimate.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it.  Returns 0 for an empty
/// slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted integer samples (mean of the two middle samples for an
/// even count).  Returns 0 for an empty slice.
pub fn median_u64(samples: &[u64]) -> f64 {
    let values: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    median(&values)
}

/// Median of unsorted samples (mean of the two middle samples for an even
/// count).  Returns 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The **best** of the per-segment values: the lowest of a lower-is-better
/// metric, the highest of a higher-is-better one.  Other tenants of a shared
/// box only ever slow a segment down, so the best segment estimates what the
/// program does when it has the cores it was given, while the median moves
/// with how busy the neighbours were during the run.  A slower program is
/// slower in every segment and moves both.  Returns 0 for an empty slice.
pub fn best(per_segment: &[f64], lower_is_better: bool) -> f64 {
    let pick = if lower_is_better { f64::min } else { f64::max };
    per_segment.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Interquartile range ÷ median of per-segment values (nearest-rank
/// quartiles) — how far the segments of one run disagree.  Returns 0 when the
/// median is 0.
pub fn spread_share(per_segment: &[f64]) -> f64 {
    let mid = median(per_segment);
    if per_segment.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let mut sorted = per_segment.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len().div_ceil(4);
    (sorted[sorted.len() - quarter] - sorted[quarter - 1]) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Twenty samples: p95 is the 19th, leaving exactly one beyond it.
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.95), 19);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_u64(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn best_segment_ignores_segments_a_neighbour_slowed() {
        // Eight per-segment p50s, five of them slowed by a busy neighbour: the
        // median sits in the slow mode, the best segment does not.
        let p50 = [90.0, 170.0, 88.0, 160.0, 165.0, 89.0, 180.0, 175.0];
        assert_eq!(best(&p50, true), 88.0);
        assert_eq!(median(&p50), 162.5);
        // Throughput: higher is better.
        let rps = [3600.0, 1800.0, 3650.0, 1850.0, 1900.0];
        assert_eq!(best(&rps, false), 3650.0);
        // A slower program is slower in every segment: the best moves too.
        let slower: Vec<f64> = p50.iter().map(|v| v * 1.2).collect();
        assert!((best(&slower, true) - 88.0 * 1.2).abs() < 1e-9);
        assert_eq!(best(&[7.0], true), 7.0);
        assert_eq!(best(&[], false), 0.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // One stalled segment of eight lies outside both quartiles.
        let p95 = [5.8, 5.9, 191.0, 5.7, 6.0, 5.6, 6.1, 5.9];
        assert!((spread_share(&p95) - (6.1 - 5.7) / 5.9).abs() < 1e-12);
        assert_eq!(spread_share(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread_share(&[]), 0.0);
    }
}
