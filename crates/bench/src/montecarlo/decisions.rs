//! The three stochastically constrained decision rules (paper §VI-B),
//! solved by Monte Carlo as in the paper's Algorithm 3.
//!
//! All three rules reduce, per upcoming query `i`, to a one-dimensional
//! stochastic root-finding problem over Monte Carlo samples of `ξ_i`
//! (the pending time `τ` is deterministic):
//!
//! * **HP-constrained** (eq. 3): `x_i* = α-quantile of (ξ_i − τ_i)` — the
//!   latest creation time whose hitting probability is still `1 − α`.
//! * **RT-constrained** (eq. 5): `x_i*` solves
//!   `E[(τ_i − (ξ_i − x)⁺)⁺] = d − µ_s` (Algorithm 3).
//! * **cost-constrained** (eq. 7): `x_i* = 0` when the budget is slack,
//!   otherwise `x_i*` solves `E[(ξ_i − τ_i − x)⁺] = B − µ_τ − µ_s`.
//!
//! Serving never runs these: the planner uses the exact engine of
//! [`robustscaler_scaling::exact`], to which these estimates converge at the
//! `1/√R` rate. They remain the paper's experiment (Table I, Fig. 8) and the
//! oracle the exact engine is tested against.

use super::arrivals::ArrivalSampler;
use super::sort_search::{solve_idle_cost_root_flat, solve_waiting_root_flat};
use robustscaler_scaling::{DecisionRule, PendingTimeModel, ScalingDecision, ScalingError};
use robustscaler_stats::empirical_quantile_unstable;
use serde::{Deserialize, Serialize};

/// Configuration shared by all decision computations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionConfig {
    /// The constrained formulation in use.
    pub rule: DecisionRule,
    /// Pending (startup) time model of new instances.
    pub pending: PendingTimeModel,
}

impl DecisionConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ScalingError> {
        self.rule.validate()?;
        self.pending.validate()
    }
}

/// Reusable buffers for the per-decision hot loop.
///
/// One decision needs an R-element working set for the rule's statistic
/// and (for the RT/cost rules) a breakpoint buffer of up to 2R entries.
/// Batch callers thread one `DecisionScratch` through [`decide_with`]; the
/// buffers grow once and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DecisionScratch {
    /// HP rule: the differences `ξ_r − τ_r` (selected in place).
    diffs: Vec<f64>,
    /// RT rule: the 2R `(position, slope delta)` breakpoints.
    breakpoints: Vec<(f64, f64)>,
    /// Cost rule: the R breakpoint positions `ξ_r − τ_r`.
    points: Vec<f64>,
}

impl DecisionScratch {
    /// Fresh, empty scratch buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute the creation time for the `arrival_index`-th upcoming query from
/// Monte Carlo samples of its arrival time.
///
/// `sampler` must have been built from the forecast intensity at the current
/// planning time. Validates the configuration on every call; batch callers
/// should validate once and use [`decide_with`].
pub fn decide(
    sampler: &ArrivalSampler,
    arrival_index: usize,
    config: &DecisionConfig,
) -> Result<ScalingDecision, ScalingError> {
    config.validate()?;
    decide_with(sampler, arrival_index, config, &mut DecisionScratch::new())
}

/// [`decide`] for pre-validated configurations, with caller-provided scratch
/// buffers — the allocation-free path batch callers loop over.
///
/// `config` is trusted to have passed [`DecisionConfig::validate`]; an
/// invalid configuration still fails (the underlying quantile/root solvers
/// reject out-of-range parameters) but with a less specific error.
pub fn decide_with(
    sampler: &ArrivalSampler,
    arrival_index: usize,
    config: &DecisionConfig,
    scratch: &mut DecisionScratch,
) -> Result<ScalingDecision, ScalingError> {
    let arrivals = sampler.arrival_samples(arrival_index)?;
    let PendingTimeModel::Deterministic(tau) = config.pending;

    let raw = match config.rule {
        DecisionRule::HittingProbability { alpha } => {
            // x* = α-quantile of (ξ − τ), by in-place selection.
            scratch.diffs.clear();
            scratch.diffs.extend(arrivals.iter().map(|xi| xi - tau));
            empirical_quantile_unstable(&mut scratch.diffs, alpha)?
        }
        DecisionRule::ResponseTime { target_waiting } => {
            solve_waiting_root_flat(arrivals, tau, target_waiting, &mut scratch.breakpoints)?
        }
        DecisionRule::CostBudget { target_idle } => {
            solve_idle_cost_root_flat(arrivals, tau, target_idle, &mut scratch.points)?
        }
    };

    Ok(ScalingDecision::at(arrival_index, raw, sampler.now()))
}

/// Compute decisions for a contiguous range of upcoming queries
/// (`first_index ..= last_index`, 1-based). The configuration is validated
/// once and the scratch buffers are shared across the whole batch.
pub fn decide_batch(
    sampler: &ArrivalSampler,
    first_index: usize,
    last_index: usize,
    config: &DecisionConfig,
) -> Result<Vec<ScalingDecision>, ScalingError> {
    if first_index == 0 || last_index < first_index {
        return Err(ScalingError::InvalidParameter(
            "decision batch indices must satisfy 1 <= first <= last",
        ));
    }
    config.validate()?;
    let mut scratch = DecisionScratch::new();
    (first_index..=last_index)
        .map(|i| decide_with(sampler, i, config, &mut scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustscaler_nhpp::PiecewiseConstantIntensity;

    fn sampler(rate: f64, now: f64, horizon: usize, reps: usize, seed: u64) -> ArrivalSampler {
        let intensity = PiecewiseConstantIntensity::new(0.0, 1e7, vec![rate]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        ArrivalSampler::new(&intensity, now, horizon, reps, &mut rng).unwrap()
    }

    fn config(rule: DecisionRule) -> DecisionConfig {
        DecisionConfig {
            rule,
            pending: PendingTimeModel::Deterministic(13.0),
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DecisionRule::HittingProbability { alpha: 0.0 }
            .validate()
            .is_err());
        assert!(DecisionRule::HittingProbability { alpha: 1.0 }
            .validate()
            .is_err());
        assert!(DecisionRule::ResponseTime {
            target_waiting: -1.0
        }
        .validate()
        .is_err());
        assert!(DecisionRule::CostBudget { target_idle: -1.0 }
            .validate()
            .is_err());
        let mut c = config(DecisionRule::HittingProbability { alpha: 0.1 });
        c.pending = PendingTimeModel::Deterministic(-1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn hp_rule_attains_the_requested_hitting_probability() {
        // Constant rate 0.2 QPS, pending 13 s, first upcoming query.
        let s = sampler(0.2, 1000.0, 3, 20_000, 1);
        let alpha = 0.2;
        let d = decide(&s, 1, &config(DecisionRule::HittingProbability { alpha })).unwrap();
        // Check against the exact solution: ξ₁ − now ~ Exp(0.2); the
        // α-quantile of ξ₁ − τ is now + Q_exp(α) − 13.
        let exact = 1000.0 + -(1.0 - alpha).ln() / 0.2 - 13.0;
        assert!(
            (d.unconstrained_creation_time - exact).abs() < 1.0,
            "{} vs {exact}",
            d.unconstrained_creation_time
        );
        assert_eq!(d.arrival_index, 1);
        // Empirical hitting probability at the decision is ~1 − α.
        let arrivals = s.arrival_samples(1).unwrap();
        let hit_rate = arrivals
            .iter()
            .filter(|&&xi| xi > d.unconstrained_creation_time + 13.0)
            .count() as f64
            / arrivals.len() as f64;
        assert!(
            (hit_rate - (1.0 - alpha)).abs() < 0.02,
            "hit rate {hit_rate}"
        );
    }

    #[test]
    fn hp_rule_clamps_infeasible_decisions_to_now() {
        // Very high rate: the first arrival comes almost immediately, so a
        // 13-second head start is impossible.
        let s = sampler(50.0, 500.0, 2, 5_000, 3);
        let d = decide(
            &s,
            1,
            &config(DecisionRule::HittingProbability { alpha: 0.05 }),
        )
        .unwrap();
        assert!(d.clamped);
        assert_eq!(d.creation_time, 500.0);
        assert!(d.unconstrained_creation_time < 500.0);
    }

    #[test]
    fn rt_rule_meets_the_waiting_budget_in_expectation() {
        let s = sampler(0.1, 0.0, 2, 20_000, 5);
        let target_waiting = 3.0;
        let d = decide(
            &s,
            1,
            &config(DecisionRule::ResponseTime { target_waiting }),
        )
        .unwrap();
        // Recompute the empirical expected waiting at the decision point.
        let arrivals = s.arrival_samples(1).unwrap();
        let waiting: f64 = arrivals
            .iter()
            .map(|&xi| (13.0 - (xi - d.unconstrained_creation_time).max(0.0)).max(0.0))
            .sum::<f64>()
            / arrivals.len() as f64;
        assert!(
            (waiting - target_waiting).abs() < 0.15,
            "achieved waiting {waiting}"
        );
    }

    #[test]
    fn cost_rule_with_slack_budget_recommends_reactive_scaling() {
        // Low traffic and a huge idle budget: never create early.
        let s = sampler(0.01, 0.0, 2, 5_000, 7);
        let d = decide(
            &s,
            1,
            &config(DecisionRule::CostBudget { target_idle: 1e9 }),
        )
        .unwrap();
        // The raw solution equals the earliest breakpoint; after clamping it
        // must not be earlier than "now".
        assert!(d.creation_time >= 0.0);
    }

    #[test]
    fn cost_rule_meets_the_idle_budget_in_expectation() {
        let s = sampler(0.05, 0.0, 2, 20_000, 9);
        let target_idle = 5.0;
        let d = decide(&s, 1, &config(DecisionRule::CostBudget { target_idle })).unwrap();
        let arrivals = s.arrival_samples(1).unwrap();
        let idle: f64 = arrivals
            .iter()
            .map(|&xi| (xi - 13.0 - d.unconstrained_creation_time).max(0.0))
            .sum::<f64>()
            / arrivals.len() as f64;
        assert!((idle - target_idle).abs() < 0.3, "achieved idle {idle}");
    }

    #[test]
    fn later_arrivals_get_later_creation_times() {
        let s = sampler(0.5, 0.0, 10, 5_000, 11);
        let decisions = decide_batch(
            &s,
            1,
            10,
            &config(DecisionRule::HittingProbability { alpha: 0.1 }),
        )
        .unwrap();
        assert_eq!(decisions.len(), 10);
        for pair in decisions.windows(2) {
            assert!(pair[1].unconstrained_creation_time >= pair[0].unconstrained_creation_time);
        }
        assert!(decide_batch(
            &s,
            0,
            5,
            &config(DecisionRule::HittingProbability { alpha: 0.1 }),
        )
        .is_err());
        assert!(decide_batch(
            &s,
            5,
            4,
            &config(DecisionRule::HittingProbability { alpha: 0.1 }),
        )
        .is_err());
    }

    #[test]
    fn smaller_alpha_means_earlier_creation() {
        let s = sampler(0.2, 0.0, 2, 10_000, 13);
        let strict = decide(
            &s,
            1,
            &config(DecisionRule::HittingProbability { alpha: 0.05 }),
        )
        .unwrap();
        let loose = decide(
            &s,
            1,
            &config(DecisionRule::HittingProbability { alpha: 0.5 }),
        )
        .unwrap();
        assert!(strict.unconstrained_creation_time < loose.unconstrained_creation_time);
    }
}
