//! Sample statistics: nearest-rank percentiles, medians and quartiles
//! computed the way Python's `statistics` module computes them (so a
//! spread printed here matches one recomputed from the JSON output), the
//! highest tail percentile a sample size supports, and the regression
//! verdict `--compare` applies.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `ceil(p/100 · n)` observations at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(p, n) - 1])
}

/// One-based nearest rank of percentile `p` in a sample of `n > 0`.
/// Multiplying before dividing keeps ranks such as p99 of 100 exact.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Percentiles [`tail_percentile`] chooses from, highest first.
pub const TAIL_CANDIDATES: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_CANDIDATES`] with at least `min_beyond`
/// samples strictly above its nearest rank, or `None` when even the
/// median has fewer. A tail reported from fewer samples is one outlier.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= min_beyond)
}

/// Samples strictly beyond the nearest rank of `p` (0 for no samples).
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as `statistics.median` defines it: the mean of the two middle
/// values for an even count. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile as `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). A single value
/// is its own quartiles (Python refuses one point; a run with one
/// iteration still needs a spread of 0). `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one metric between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare a metric's samples from a base and a new run.
///
/// The allowed change is `bound` (a share of the base median) but never
/// less than the absolute `floor`, so a metric near zero is not judged
/// on scheduler jitter. When either side's interquartile distance is
/// wider than the allowance the verdict is [`Verdict::Unresolved`],
/// unless every new sample beats every base sample.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let (Some(base_med), Some(new_med)) = (median(base), median(new)) else {
        return Verdict::Unresolved;
    };
    let allowed = (bound * base_med.abs()).max(floor);
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |[q1, _, q3]| q3 - q1);
    // Positive means the new run is worse.
    let worse_by = match better {
        Better::Lower => new_med - base_med,
        Better::Higher => base_med - new_med,
    };
    if iqr(base).max(iqr(new)) > allowed {
        let beats = |n: f64, b: f64| match better {
            Better::Lower => n < b,
            Better::Higher => n > b,
        };
        let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else if worse_by < -allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_nearest_rank_at_sample_sizes() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 99.0), None);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5), "n=1 p{p}");
        }
        // n=2: the median is the lower sample, the tail the upper one.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 99.0), Some(2.0));
        // n=99: ranks ceil(49.5)=50 and ceil(98.01)=99.
        let v = ramp(99);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        // n=100: exact ranks 50 and 99, not 51 or 100.
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // n=2000: p99 is rank 1980, leaving 20 samples beyond it.
        let v = ramp(2000);
        assert_eq!(percentile(&v, 50.0), Some(1000.0));
        assert_eq!(percentile(&v, 99.0), Some(1980.0));
        assert_eq!(percentile(&v, 99.5), Some(1990.0));
        assert_eq!(beyond(99.0, 2000), 20);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[2.0]), Some([2.0; 3]));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0, 10), None);
        assert_eq!(tail_percentile(1, 10), None);
        assert_eq!(tail_percentile(19, 10), None);
        // 20 samples: p50 is rank 10 and leaves exactly 10 beyond.
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(2000, 10), Some(99.5));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        for n in [20, 100, 1000, 2000, 10_000] {
            let p = tail_percentile(n, 10).expect("supported");
            assert!(beyond(p, n) >= 10, "n={n} p{p}");
        }
    }

    #[test]
    fn verdict_applies_bound_floor_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.00];
        let worse = [1.20, 1.21, 1.19, 1.20, 1.20];
        let better = [0.80, 0.81, 0.79, 0.80, 0.80];
        let same = [1.03, 1.04, 1.02, 1.03, 1.03];
        assert_eq!(
            verdict(&base, &worse, Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &better, Better::Lower, 0.1, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &same, Better::Lower, 0.1, 0.0),
            Verdict::Same
        );
        // The direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&base, &worse, Better::Higher, 0.1, 0.0),
            Verdict::Better
        );
        // An absolute floor wider than the change absorbs it: 20% of a
        // 1 ms base is 0.2 ms, under a 0.5 ms floor.
        assert_eq!(
            verdict(&base, &worse, Better::Lower, 0.1, 0.5),
            Verdict::Same
        );
        // Spread wider than the bound: unresolved, unless every new
        // sample beats every base sample.
        let noisy = [0.6, 1.0, 1.4, 0.7, 1.3];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        let far_better = [0.1, 0.2, 0.15];
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, 0.1, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[], &same, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
    }
}
