//! The three stochastically constrained decision rules (paper §VI-B) and
//! the decision they produce per upcoming query.
//!
//! * **HP-constrained** (eq. 3): `x_i* = α-quantile of (ξ_i − τ_i)` — the
//!   latest creation time whose hitting probability is still `1 − α`.
//! * **RT-constrained** (eq. 5): `x_i*` solves
//!   `E[(τ_i − (ξ_i − x)⁺)⁺] = d − µ_s`.
//! * **cost-constrained** (eq. 7): `x_i* = 0` when the budget is slack,
//!   otherwise `x_i*` solves `E[(ξ_i − τ_i − x)⁺] = B − µ_τ − µ_s`.
//!
//! [`crate::exact`] solves each rule in closed form and [`crate::planner`]
//! walks the solutions round by round.

use crate::error::ScalingError;
use serde::{Deserialize, Serialize};

/// Which constrained formulation drives the decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionRule {
    /// Hitting-probability constraint `P(ξ_i > x_i + τ_i) ≥ 1 − α`
    /// (RobustScaler-HP). `alpha` is the allowed miss probability.
    HittingProbability {
        /// Allowed miss probability α ∈ (0, 1).
        alpha: f64,
    },
    /// Expected response-time constraint `µ_s + E[waiting] ≤ d`
    /// (RobustScaler-RT). `target_waiting` is `d − µ_s` in seconds.
    ResponseTime {
        /// Waiting-time budget `d − µ_s` in seconds.
        target_waiting: f64,
    },
    /// Expected per-instance cost budget `E[idle] + µ_τ + µ_s ≤ B`
    /// (RobustScaler-cost). `target_idle` is `B − µ_τ − µ_s` in seconds.
    CostBudget {
        /// Idle-time budget `B − µ_τ − µ_s` in seconds.
        target_idle: f64,
    },
}

impl DecisionRule {
    /// Validate the rule's parameter.
    pub fn validate(&self) -> Result<(), ScalingError> {
        match self {
            DecisionRule::HittingProbability { alpha } => {
                if !(*alpha > 0.0 && *alpha < 1.0) {
                    return Err(ScalingError::InvalidParameter(
                        "alpha must lie strictly inside (0, 1)",
                    ));
                }
            }
            DecisionRule::ResponseTime { target_waiting } => {
                if !(*target_waiting >= 0.0) || !target_waiting.is_finite() {
                    return Err(ScalingError::InvalidParameter(
                        "waiting-time target must be finite and >= 0",
                    ));
                }
            }
            DecisionRule::CostBudget { target_idle } => {
                if !(*target_idle >= 0.0) || !target_idle.is_finite() {
                    return Err(ScalingError::InvalidParameter(
                        "idle-time budget must be finite and >= 0",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One computed scaling decision for a specific upcoming query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingDecision {
    /// 1-based index of the upcoming query this instance will serve.
    pub arrival_index: usize,
    /// The optimal creation time before clamping (may lie in the past, which
    /// signals that the constraint is not attainable for this query).
    pub unconstrained_creation_time: f64,
    /// The creation time clamped to be no earlier than the planning time.
    pub creation_time: f64,
    /// Whether the raw solution had to be clamped (i.e. the desired QoS may
    /// be unattainable for this query — the infeasibility the paper discusses
    /// below eq. 3).
    pub clamped: bool,
}

impl ScalingDecision {
    /// The decision for query `arrival_index` whose rule solved to the raw
    /// creation time `raw`, clamped to no earlier than the planning time
    /// `now`.
    pub fn at(arrival_index: usize, raw: f64, now: f64) -> Self {
        Self {
            arrival_index,
            unconstrained_creation_time: raw,
            creation_time: raw.max(now),
            clamped: raw < now,
        }
    }
}
