//! The κ planning threshold of Algorithm 4 (paper eq. 8).
//!
//! `κ = max{ i ≥ 1 : α-quantile of (γ_i/λ̄ − τ_i) < 0 }` where
//! `γ_i ~ Gamma(i, 1)` and `λ̄` upper-bounds the arrival intensity. The
//! threshold is the number of upcoming queries whose desired creation time
//! would lie in the past even under the fastest plausible arrival stream —
//! these must always remain covered by already-scheduled instances, so
//! planning is triggered while κ instances are still outstanding.
//!
//! Nothing in serving computes κ yet: the planners run on a fixed cadence
//! Δ (see [`crate::planner`]).

use crate::error::ScalingError;
use robustscaler_stats::special::gamma_p_inverse;

/// Largest index considered when searching for κ (a safety cap; traffic
/// would need to be extreme for κ to reach it).
const KAPPA_CAP: usize = 100_000;

/// Compute κ for a *deterministic* pending time `µ_τ` in closed form:
/// the α-quantile of `γ_i/λ̄ − µ_τ` is `F⁻¹_{Γ(i,1)}(α)/λ̄ − µ_τ`, so
/// `κ = max{ i : F⁻¹_{Γ(i,1)}(α) < λ̄·µ_τ }`.
pub fn kappa_deterministic_pending(
    rate_upper_bound: f64,
    pending_time: f64,
    alpha: f64,
) -> Result<usize, ScalingError> {
    if !(rate_upper_bound > 0.0) || !rate_upper_bound.is_finite() {
        return Err(ScalingError::InvalidParameter(
            "rate upper bound must be finite and > 0",
        ));
    }
    if !(pending_time >= 0.0) || !pending_time.is_finite() {
        return Err(ScalingError::InvalidParameter(
            "pending time must be finite and >= 0",
        ));
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(ScalingError::InvalidParameter("alpha must be in (0, 1)"));
    }
    let budget = rate_upper_bound * pending_time;
    let mut kappa = 0usize;
    for i in 1..=KAPPA_CAP {
        if gamma_p_inverse(i as f64, alpha) < budget {
            kappa = i;
        } else {
            break;
        }
    }
    Ok(kappa)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(kappa_deterministic_pending(0.0, 13.0, 0.1).is_err());
        assert!(kappa_deterministic_pending(1.0, -1.0, 0.1).is_err());
        assert!(kappa_deterministic_pending(1.0, 13.0, 0.0).is_err());
        assert!(kappa_deterministic_pending(1.0, 13.0, 1.0).is_err());
    }

    #[test]
    fn zero_pending_time_means_no_lookahead_needed() {
        // With τ = 0 every query can be served reactively, so κ = 0.
        assert_eq!(kappa_deterministic_pending(10.0, 0.0, 0.1).unwrap(), 0);
    }

    #[test]
    fn kappa_grows_with_traffic_and_pending_time() {
        let base = kappa_deterministic_pending(0.5, 13.0, 0.1).unwrap();
        let more_traffic = kappa_deterministic_pending(5.0, 13.0, 0.1).unwrap();
        let longer_pending = kappa_deterministic_pending(0.5, 130.0, 0.1).unwrap();
        assert!(more_traffic > base);
        assert!(longer_pending > base);
    }

    #[test]
    fn kappa_shrinks_with_stricter_alpha() {
        // A smaller α (stricter QoS) means the quantile is smaller, so fewer
        // indices satisfy the condition... note the quantile grows with i, so
        // smaller α admits *more* indices. Verify the actual monotonicity:
        let strict = kappa_deterministic_pending(1.0, 13.0, 0.01).unwrap();
        let loose = kappa_deterministic_pending(1.0, 13.0, 0.5).unwrap();
        assert!(
            strict >= loose,
            "alpha=0.01 gives {strict}, alpha=0.5 gives {loose}"
        );
    }

    #[test]
    fn closed_form_matches_definition_for_small_cases() {
        // λ̄ = 1, τ = 2, α = 0.5: the median of Gamma(i,1) is < 2 for i = 1, 2
        // (medians ≈ 0.693, 1.678) and > 2 for i = 3 (≈ 2.674), so κ = 2.
        assert_eq!(kappa_deterministic_pending(1.0, 2.0, 0.5).unwrap(), 2);
        // λ̄·τ = 0.1: even the first arrival's α-quantile exceeds it for
        // α = 0.5 (median 0.693), so κ = 0.
        assert_eq!(kappa_deterministic_pending(0.05, 2.0, 0.5).unwrap(), 0);
    }
}
