//! The periodicity-regularized NHPP training loss (paper eq. 1).
//!
//! `loss(r) = −Qᵀr + Δt·1ᵀeʳ + β₁‖D₂r‖₁ + (β₂/2)‖D_L r‖₂²`
//!
//! The loss value is exposed so the ADMM trainer can report it and tests
//! can verify the solution's optimality.

use crate::error::NhppError;
use robustscaler_linalg::{DifferenceOperator, ForwardDifference, SecondDifference};
use serde::{Deserialize, Serialize};

/// Configuration of the regularized loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegularizedLossConfig {
    /// Bucket width Δt in seconds.
    pub bucket_width: f64,
    /// Weight β₁ of the ℓ1 second-difference (trend-filter) penalty.
    pub beta1: f64,
    /// Weight β₂ of the ℓ2 periodic-difference penalty.
    pub beta2: f64,
    /// Period length `L` in buckets; `None` disables the periodic penalty.
    pub period: Option<usize>,
}

impl RegularizedLossConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), NhppError> {
        if !(self.bucket_width > 0.0) {
            return Err(NhppError::InvalidParameter("bucket width must be > 0"));
        }
        if self.beta1 < 0.0 || self.beta2 < 0.0 {
            return Err(NhppError::InvalidParameter(
                "regularization weights must be non-negative",
            ));
        }
        if let Some(period) = self.period {
            if period < 1 {
                return Err(NhppError::InvalidParameter("period must be >= 1"));
            }
        }
        Ok(())
    }
}

/// Evaluator of the regularized NHPP loss for a fixed count vector `Q`.
#[derive(Debug, Clone)]
pub struct RegularizedLoss {
    counts: Vec<f64>,
    config: RegularizedLossConfig,
    d2: SecondDifference,
    dl: Option<ForwardDifference>,
}

impl RegularizedLoss {
    /// Create the loss for the given per-bucket counts.
    pub fn new(counts: Vec<f64>, config: RegularizedLossConfig) -> Result<Self, NhppError> {
        config.validate()?;
        if counts.is_empty() {
            return Err(NhppError::InvalidParameter("counts must be non-empty"));
        }
        if counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(NhppError::InvalidParameter(
                "counts must be finite and non-negative",
            ));
        }
        let t = counts.len();
        let dl = match config.period {
            Some(period) if period < t => {
                Some(ForwardDifference::new(t, period).expect("period >= 1 validated above"))
            }
            _ => None,
        };
        Ok(Self {
            counts,
            config,
            d2: SecondDifference::new(t),
            dl,
        })
    }

    /// Number of buckets `T`.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the loss covers no buckets (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The per-bucket counts `Q`.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The configuration used.
    pub fn config(&self) -> &RegularizedLossConfig {
        &self.config
    }

    /// The second-difference operator `D₂`.
    pub fn second_difference(&self) -> &SecondDifference {
        &self.d2
    }

    /// The periodic difference operator `D_L`, when a period is configured
    /// and shorter than the series.
    pub fn periodic_difference(&self) -> Option<&ForwardDifference> {
        self.dl.as_ref()
    }

    /// The smooth (differentiable) part of the loss:
    /// `−Qᵀr + Δt·1ᵀeʳ + (β₂/2)‖D_L r‖²`.
    pub fn smooth_value(&self, r: &[f64]) -> f64 {
        let dt = self.config.bucket_width;
        let mut value = 0.0;
        for (q, &ri) in self.counts.iter().zip(r.iter()) {
            value += -q * ri + dt * ri.exp();
        }
        if let Some(dl) = &self.dl {
            let z = dl.apply(r).expect("dimension fixed at construction");
            value += 0.5 * self.config.beta2 * z.iter().map(|v| v * v).sum::<f64>();
        }
        value
    }

    /// The non-smooth part `β₁‖D₂ r‖₁`.
    pub fn l1_value(&self, r: &[f64]) -> f64 {
        let y = self.d2.apply(r).expect("dimension fixed at construction");
        self.config.beta1 * y.iter().map(|v| v.abs()).sum::<f64>()
    }

    /// Full loss value.
    pub fn value(&self, r: &[f64]) -> f64 {
        self.smooth_value(r) + self.l1_value(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(beta1: f64, beta2: f64, period: Option<usize>) -> RegularizedLossConfig {
        RegularizedLossConfig {
            bucket_width: 2.0,
            beta1,
            beta2,
            period,
        }
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(RegularizedLoss::new(vec![], config(0.1, 0.1, None)).is_err());
        assert!(RegularizedLoss::new(vec![-1.0], config(0.1, 0.1, None)).is_err());
        assert!(RegularizedLoss::new(
            vec![1.0],
            RegularizedLossConfig {
                bucket_width: 0.0,
                beta1: 0.1,
                beta2: 0.1,
                period: None
            }
        )
        .is_err());
        assert!(RegularizedLoss::new(vec![1.0], config(-0.1, 0.1, None)).is_err());
        let loss = RegularizedLoss::new(vec![1.0, 2.0, 3.0], config(0.1, 0.2, Some(2))).unwrap();
        assert_eq!(loss.len(), 3);
        assert!(!loss.is_empty());
        assert!(loss.periodic_difference().is_some());
        // A period longer than the series disables the periodic penalty.
        let loss2 = RegularizedLoss::new(vec![1.0, 2.0, 3.0], config(0.1, 0.2, Some(10))).unwrap();
        assert!(loss2.periodic_difference().is_none());
    }

    #[test]
    fn unregularized_loss_is_minimized_at_log_qps() {
        // With β₁ = β₂ = 0 the minimizer is r_t = log(Q_t / Δt).
        let counts = vec![4.0, 10.0, 1.0];
        let loss = RegularizedLoss::new(counts.clone(), config(0.0, 0.0, None)).unwrap();
        let optimum: Vec<f64> = counts.iter().map(|q| (q / 2.0).ln()).collect();
        // Perturbations increase the loss.
        let base = loss.value(&optimum);
        for i in 0..counts.len() {
            let mut r = optimum.clone();
            r[i] += 0.1;
            assert!(loss.value(&r) > base);
            r[i] -= 0.2;
            assert!(loss.value(&r) > base);
        }
    }

    #[test]
    fn periodic_penalty_prefers_periodic_solutions() {
        let counts = vec![2.0; 8];
        let loss = RegularizedLoss::new(counts, config(0.0, 10.0, Some(4))).unwrap();
        let periodic = vec![0.1, 0.5, -0.2, 0.3, 0.1, 0.5, -0.2, 0.3];
        let aperiodic = vec![0.1, 0.5, -0.2, 0.3, 0.5, -0.3, 0.4, 0.0];
        // Compare only the penalty parts by subtracting the likelihood part.
        let likelihood = |r: &[f64]| {
            let unpenalized = RegularizedLoss::new(vec![2.0; 8], config(0.0, 0.0, None)).unwrap();
            unpenalized.value(r)
        };
        let pen_periodic = loss.value(&periodic) - likelihood(&periodic);
        let pen_aperiodic = loss.value(&aperiodic) - likelihood(&aperiodic);
        assert!(pen_periodic < 1e-12);
        assert!(pen_aperiodic > 0.1);
    }
}
