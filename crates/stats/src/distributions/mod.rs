//! Parametric probability distributions implemented from scratch.
//!
//! All continuous distributions implement [`ContinuousDistribution`] (pdf,
//! cdf, quantile, moments, sampling); discrete ones implement
//! [`DiscreteDistribution`]. Sampling is generic over any [`rand::Rng`] so
//! experiments stay reproducible with seeded RNGs.

mod exponential;
mod gamma;
mod lognormal;
mod normal;
mod poisson;

pub use exponential::Exponential;
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use normal::Normal;
pub use poisson::Poisson;

use rand::Rng;

/// Common interface of continuous distributions on (a subset of) the reals.
pub trait ContinuousDistribution {
    /// Probability density function evaluated at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function evaluated at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile (inverse CDF) at probability level `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` independent samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Standard deviation, `sqrt(variance)`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Common interface of integer-valued distributions.
pub trait DiscreteDistribution {
    /// Probability mass function at `k`.
    fn pmf(&self, k: u64) -> f64;
    /// Cumulative distribution function at `k` (inclusive).
    fn cdf(&self, k: u64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// Draw `n` independent samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Draw `n` samples and return (sample mean, sample variance).
    pub fn sample_moments<D: ContinuousDistribution>(d: &D, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = d.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var)
    }

    /// Kolmogorov–Smirnov statistic of `n` samples against the CDF of `d`.
    pub fn ks_statistic<D: ContinuousDistribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = d.sample_n(&mut rng, n);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ks: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let f = d.cdf(x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            ks = ks.max((f - lo).abs()).max((f - hi).abs());
        }
        ks
    }
}
