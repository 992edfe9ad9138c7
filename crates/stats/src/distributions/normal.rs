//! Normal (Gaussian) distribution, used for noise injection in synthetic
//! traces and as a building block of the log-normal distribution.

use super::ContinuousDistribution;
use crate::error::StatsError;
use crate::special::{normal_cdf, normal_quantile};
use rand::Rng;

/// Normal distribution with mean `μ` and standard deviation `σ > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Create a normal distribution.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite",
            });
        }
        if !(std_dev > 0.0) || !std_dev.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { mean, std_dev })
    }

    /// The standard normal distribution (μ = 0, σ = 1).
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Draw a standard normal sample with the Box–Muller transform.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * (1.0 - u1).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        normal_cdf((x - self.mean) / self.std_dev)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std_dev * normal_quantile(p)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::sample_standard(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{ks_statistic, sample_moments};
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn standard_normal_known_values() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((n.cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-6);
        assert!((n.quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-6);
        assert!((n.pdf(0.0) - 0.398_942_280_401_432_7).abs() < 1e-9);
    }

    #[test]
    fn affine_parameters_shift_and_scale() {
        let n = Normal::new(10.0, 3.0).unwrap();
        assert!((n.mean() - 10.0).abs() < 1e-12);
        assert!((n.variance() - 9.0).abs() < 1e-12);
        assert!((n.quantile(0.5) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sample_moments_match_theory() {
        let n = Normal::new(-2.0, 0.7).unwrap();
        let (m, v) = sample_moments(&n, 200_000, 41);
        assert!((m - n.mean()).abs() < 0.01);
        assert!((v - n.variance()).abs() / n.variance() < 0.03);
    }

    #[test]
    fn samples_pass_ks_test() {
        let n = Normal::new(5.0, 2.0).unwrap();
        let ks = ks_statistic(&n, 20_000, 43);
        assert!(ks < 1.63 / (20_000_f64).sqrt() * 1.5, "ks = {ks}");
    }
}
