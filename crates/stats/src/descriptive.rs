//! Descriptive statistics: means, variances, robust location/scale and
//! autocorrelation, used throughout the evaluation harness (QoS variance in
//! Fig. 5, robust filters in the time-series crate, etc.).

use crate::error::StatsError;

/// Arithmetic mean; returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n − 1 denominator); 0 for fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    crate::quantile::empirical_quantile(xs, 0.5)
}

/// Median absolute deviation (consistent with the standard deviation under
/// normality when multiplied by 1.4826, which this function does *not* do).
pub fn mad(xs: &[f64]) -> Result<f64, StatsError> {
    let med = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&deviations)
}

/// Lag-`k` sample autocorrelation, used by the periodicity detector.
///
/// Returns 0 when the series is too short or has zero variance.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n || n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let numer: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
    numer / denom
}

/// The lag-`k` sample autocorrelations of one series, with its mean and
/// denominator computed once: each lag then costs one pass over the
/// overlap. Every lag is bit-identical to [`autocorrelation`] on the same
/// series.
#[derive(Debug, Clone, Copy)]
pub struct Autocorrelation<'a> {
    xs: &'a [f64],
    mean: f64,
    /// `Σ (x − m)²`.
    denom: f64,
}

impl<'a> Autocorrelation<'a> {
    /// Prepare the autocorrelations of `xs`.
    pub fn new(xs: &'a [f64]) -> Self {
        let m = mean(xs);
        let denom = xs.iter().map(|x| (x - m) * (x - m)).sum();
        Self { xs, mean: m, denom }
    }

    /// The lag-`lag` autocorrelation; 0 when the series is too short or
    /// has zero variance.
    pub fn at(&self, lag: usize) -> f64 {
        let (xs, m) = (self.xs, self.mean);
        let n = xs.len();
        if lag >= n || n < 2 || self.denom <= f64::EPSILON {
            return 0.0;
        }
        let numer: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        numer / self.denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn median_and_mad() {
        let xs = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(median(&xs).unwrap(), 2.0);
        // |x - 2| = [1,1,0,0,2,4,7], median = 1.
        assert_eq!(mad(&xs).unwrap(), 1.0);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        let n = 400;
        let period = 25;
        let xs: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let at_period = autocorrelation(&xs, period);
        let off_period = autocorrelation(&xs, period / 2);
        assert!(at_period > 0.9, "acf at period = {at_period}");
        assert!(off_period < 0.0, "acf off period = {off_period}");
    }

    #[test]
    fn autocorrelation_edge_cases() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
        assert_eq!(autocorrelation(&[3.0; 10], 2), 0.0);
        // Lag 0 of any non-constant series is 1.
        let xs = [1.0, 5.0, 2.0, 8.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_table_is_bit_identical_to_the_per_lag_function() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let series: Vec<Vec<f64>> = vec![
            vec![],
            vec![3.0],
            vec![2.0; 17],
            (0..360)
                .map(|i| (i as f64 * 0.37).sin() * 40.0 + next())
                .collect(),
            (0..101).map(|_| (next() * 1e6).round() - 5e5).collect(),
            (0..64)
                .map(|i| if i % 7 == 0 { 1e-300 } else { 0.0 })
                .collect(),
        ];
        for xs in &series {
            let acf = Autocorrelation::new(xs);
            for lag in 0..=xs.len() + 1 {
                assert_eq!(
                    acf.at(lag).to_bits(),
                    autocorrelation(xs, lag).to_bits(),
                    "n {} lag {lag}",
                    xs.len()
                );
            }
        }
    }
}
