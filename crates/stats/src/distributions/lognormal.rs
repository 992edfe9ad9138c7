//! Log-normal distribution, used to model heavy-tailed processing and
//! instance pending (startup) times in synthetic workloads.

use super::{ContinuousDistribution, Normal};
use crate::error::StatsError;
use rand::Rng;

/// Log-normal distribution: `exp(N(μ, σ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Create a log-normal distribution from the parameters of the underlying
    /// normal distribution (`mu`, `sigma`).
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        Ok(Self {
            normal: Normal::new(mu, sigma)?,
        })
    }

    /// Create a log-normal distribution with the requested mean and standard
    /// deviation of the log-normal variable itself (moment matching).
    pub fn from_mean_std(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite and > 0",
            });
        }
        if !(std_dev > 0.0) || !std_dev.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
                constraint: "must be finite and > 0",
            });
        }
        let cv2 = (std_dev / mean) * (std_dev / mean);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Location parameter `μ` of the underlying normal.
    fn mu(&self) -> f64 {
        self.normal.mean()
    }

    /// Scale parameter `σ` of the underlying normal.
    fn sigma(&self) -> f64 {
        self.normal.std_dev()
    }
}

impl ContinuousDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.normal.pdf(x.ln()) / x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.normal.cdf(x.ln())
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        self.normal.quantile(p).exp()
    }

    fn mean(&self) -> f64 {
        let s2 = self.sigma() * self.sigma();
        (self.mu() + 0.5 * s2).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma() * self.sigma();
        (s2.exp() - 1.0) * (2.0 * self.mu() + s2).exp()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{ks_statistic, sample_moments};
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::from_mean_std(-1.0, 1.0).is_err());
        assert!(LogNormal::from_mean_std(1.0, 0.0).is_err());
    }

    #[test]
    fn moment_matching_constructor_matches_requested_moments() {
        let d = LogNormal::from_mean_std(20.0, 8.0).unwrap();
        assert!((d.mean() - 20.0).abs() < 1e-9);
        assert!((d.variance() - 64.0).abs() < 1e-8);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-8);
        }
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.pdf(-0.5), 0.0);
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(2.0, 0.3).unwrap();
        assert!((d.quantile(0.5) - 2.0_f64.exp()).abs() < 1e-6);
    }

    #[test]
    fn sample_moments_match_theory() {
        let d = LogNormal::from_mean_std(13.0, 4.0).unwrap();
        let (m, v) = sample_moments(&d, 300_000, 61);
        assert!((m - 13.0).abs() / 13.0 < 0.02, "mean {m}");
        assert!((v - 16.0).abs() / 16.0 < 0.08, "var {v}");
    }

    #[test]
    fn samples_pass_ks_test() {
        let d = LogNormal::new(0.5, 0.75).unwrap();
        let ks = ks_statistic(&d, 20_000, 67);
        assert!(ks < 1.63 / (20_000_f64).sqrt() * 1.5, "ks = {ks}");
    }
}
