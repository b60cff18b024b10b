//! Order statistics for the reported figures: medians of repeated runs,
//! nearest-rank percentiles of latency samples, and the tail rule.

/// Percentiles a tail is chosen from, in tenths of a percent, lowest
/// first. Integer per-mille keeps the nearest-rank arithmetic exact.
const LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it may be reported
/// as the tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`/1000 quantile among `n` samples.
fn rank(permille: u64, n: usize) -> usize {
    let r = (permille * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n.max(1))
}

/// Sorts samples ascending (total order, so NaN cannot panic a sort).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Smallest of `samples`: the best of repeated timings of the same
/// work. `NaN` for no samples.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Nearest-rank median of ascending `sorted` samples.
pub fn p50(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(500, n) - 1],
    }
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 95.0.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest ladder percentile (p50 … p99.9) with at least
/// [`MIN_BEYOND`] samples beyond it. With fewer than 20 samples no
/// percentile qualifies and the maximum is reported as p100, with zero
/// samples beyond.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for &pm in LADDER_PERMILLE.iter().rev() {
        let r = rank(pm, n);
        if n >= r + MIN_BEYOND {
            return Tail {
                percentile: pm as f64 / 10.0,
                value: sorted[r - 1],
                samples: n,
                beyond: n - r,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: sorted.last().copied().unwrap_or(f64::NAN),
        samples: n,
        beyond: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p95 sits at rank 190 with exactly 10 beyond.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // One fewer and p95 has only 9 beyond, so p90 is reported.
        let t = tail(&ramp(199));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 180.0, 19));
        // p99.9 needs 10 000 samples; 9 999 falls back to p99.
        assert_eq!(tail(&ramp(10_000)).percentile, 99.9);
        assert_eq!(tail(&ramp(10_000)).beyond, 10);
        assert_eq!(tail(&ramp(9_999)).percentile, 99.0);
        // 40 samples reach p75, 20 reach p50.
        assert_eq!(tail(&ramp(40)).percentile, 75.0);
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let t = tail(&ramp(19));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100.0, 19.0, 0, 19)
        );
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        // Floating-point 0.999 * 1000 would round up a rank; per-mille
        // integers must not.
        assert_eq!(rank(999, 1000), 999);
        assert_eq!(rank(950, 20), 19);
        assert_eq!(rank(500, 1), 1);
        assert_eq!(p50(&ramp(10)), 5.0);
    }

    #[test]
    fn min_is_the_best_timing() {
        assert_eq!(min(&[0.3, 0.1, 0.2]), 0.1);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
