//! Pattern-count statistics.
//!
//! Table 4's third column correlates the TDV reduction of modular testing
//! with the *normalized standard deviation* of core pattern counts — the
//! sample standard deviation divided by the mean. (Using the published
//! g12710 pattern counts 852/1314/1223/1223, the paper's 0.18 is
//! reproduced only by the sample (n−1) estimator, so that is what this
//! module implements.)

use crate::soc::Soc;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stdev: f64,
}

impl SampleStats {
    /// Compute statistics of a sample.
    #[must_use]
    pub fn of(values: &[u64]) -> SampleStats {
        let n = values.len();
        if n == 0 {
            return SampleStats {
                n: 0,
                mean: 0.0,
                stdev: 0.0,
            };
        }
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let stdev = if n < 2 {
            0.0
        } else {
            let ss: f64 = values.iter().map(|&v| (v as f64 - mean).powi(2)).sum();
            (ss / (n - 1) as f64).sqrt()
        };
        SampleStats { n, mean, stdev }
    }

    /// Normalized standard deviation `stdev / mean` (0 if the mean is 0).
    #[must_use]
    pub fn normalized_stdev(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stdev / self.mean
        }
    }
}

/// Pattern-count statistics over a SOC's *module* cores — every core
/// except the top-level glue, matching Table 4's "Cores" column (e.g. 19
/// for p34392, whose Table 3 lists 20 rows including the top).
#[must_use]
pub fn pattern_count_stats(soc: &Soc) -> SampleStats {
    let counts: Vec<u64> = soc
        .iter()
        .filter(|&(id, _)| !soc.is_top_level(id))
        .map(|(_, c)| c.patterns)
        .collect();
    if counts.is_empty() {
        // Flat SOC with no glue core: use all cores.
        let all: Vec<u64> = soc.iter().map(|(_, c)| c.patterns).collect();
        return SampleStats::of(&all);
    }
    SampleStats::of(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreSpec;

    #[test]
    fn g12710_published_counts_reproduce_paper_nstd() {
        // Paper §5.2: g12710 core pattern counts 852, 1314, 1223, 1223
        // give normalized stdev 0.18.
        let s = SampleStats::of(&[852, 1314, 1223, 1223]);
        assert!(
            (s.normalized_stdev() - 0.18).abs() < 0.005,
            "{}",
            s.normalized_stdev()
        );
    }

    #[test]
    fn constant_sample_has_zero_nstd() {
        let s = SampleStats::of(&[7, 7, 7]);
        assert_eq!(s.normalized_stdev(), 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(SampleStats::of(&[]).n, 0);
        let one = SampleStats::of(&[5]);
        assert_eq!(one.stdev, 0.0);
        assert_eq!(one.mean, 5.0);
    }

    #[test]
    fn soc_stats_exclude_top() {
        let mut soc = crate::Soc::new("s");
        let a = soc.add_core(CoreSpec::leaf("a", 0, 0, 0, 1, 100)).unwrap();
        let b = soc.add_core(CoreSpec::leaf("b", 0, 0, 0, 1, 300)).unwrap();
        soc.add_core(CoreSpec::parent("top", 0, 0, 0, 0, 9999, vec![a, b]))
            .unwrap();
        let st = pattern_count_stats(&soc);
        assert_eq!(st.n, 2);
        assert_eq!(st.mean, 200.0);
    }

    #[test]
    fn flat_soc_uses_all_cores() {
        let mut soc = crate::Soc::new("flat");
        soc.add_core(CoreSpec::leaf("a", 0, 0, 0, 1, 10)).unwrap();
        soc.add_core(CoreSpec::leaf("b", 0, 0, 0, 1, 30)).unwrap();
        let st = pattern_count_stats(&soc);
        assert_eq!(st.n, 2);
    }
}
