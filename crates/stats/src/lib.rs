//! Probability and statistics substrate for the RobustScaler reproduction.
//!
//! The crate provides, from scratch, everything the higher layers need:
//!
//! * special functions (`ln Γ`, regularized incomplete gamma, `erf`) used by
//!   the Gamma quantiles of Algorithm 4's κ threshold (paper eq. 8),
//! * parametric distributions (exponential, gamma, Poisson, normal,
//!   log-normal) with sampling, CDFs and quantiles, and
//! * empirical statistics (quantiles, means and spreads, autocorrelation)
//!   used by the evaluation harness.
//!
//! Everything is deterministic given an RNG seed so that experiments are
//! reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod descriptive;
pub mod distributions;
pub mod error;
pub mod quantile;
pub mod special;

pub use descriptive::{autocorrelation, mad, mean, median, std_dev, variance, Autocorrelation};
pub use distributions::{
    ContinuousDistribution, DiscreteDistribution, Exponential, Gamma, LogNormal, Normal, Poisson,
};
pub use error::StatsError;
pub use quantile::{
    empirical_quantile, empirical_quantile_sorted, empirical_quantile_unstable, quantiles,
};
