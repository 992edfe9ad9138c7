//! The sequential planning scheme (paper Algorithm 4, time-based variant).
//!
//! RobustScaler plans every `Δ` seconds. At each planning time `now` the
//! planner knows how many upcoming arrivals are already *covered* — instances
//! that are scheduled, pending, or idle-ready and will serve the next
//! arrivals — and computes creation times for the queries after those, but
//! only schedules the creations that must happen within the next planning
//! window `[now, now + Δ)`. Creations further in the future are left to later
//! rounds, which will know more about the traffic.
//!
//! Every decision is exact ([`crate::exact`]): the HP rule in closed form
//! from a per-planner table of Gamma quantiles, the RT and cost rules by a
//! bracketed root. A round is therefore a pure function of (forecast,
//! `now`, covered count) under a fixed configuration — no sampling and no
//! RNG.
//!
//! Algorithm 4 triggers planning while at least κ instances (eq. 8,
//! [`crate::kappa`]) are still outstanding, which the hitting-probability
//! guarantee of Proposition 1 needs. This planner does not: it runs on the
//! fixed cadence Δ whatever the coverage, and nothing in serving computes
//! κ. A query whose optimal creation time has already passed when a round
//! first reaches it is clamped to `now` ([`ScalingDecision::clamped`]) and
//! can miss its QoS target. Planning on κ's trigger is ROADMAP item 3.

use crate::decisions::{DecisionRule, ScalingDecision};
use crate::error::ScalingError;
use crate::exact::ArrivalLaw;
use crate::qos::PendingTimeModel;
use robustscaler_nhpp::{Intensity, InverseHint, PiecewiseConstantIntensity};
use robustscaler_stats::special::gamma_p_inverse;
use serde::{Deserialize, Serialize};

/// Configuration of the sequential planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The per-query decision rule.
    pub rule: DecisionRule,
    /// Pending (startup) time model of new instances.
    pub pending: PendingTimeModel,
    /// Planning interval `Δ` in seconds.
    pub planning_interval: f64,
    /// Hard cap on the number of creations scheduled in one round (a safety
    /// valve against forecast blow-ups).
    pub max_decisions_per_round: usize,
}

impl PlannerConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ScalingError> {
        self.rule.validate()?;
        self.pending.validate()?;
        if !(self.planning_interval > 0.0) || !self.planning_interval.is_finite() {
            return Err(ScalingError::InvalidParameter(
                "planning interval must be finite and > 0",
            ));
        }
        if self.max_decisions_per_round == 0 {
            return Err(ScalingError::InvalidParameter(
                "max_decisions_per_round must be >= 1",
            ));
        }
        Ok(())
    }
}

/// The planner's view of the world at a planning instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerState {
    /// Number of upcoming arrivals already covered by scheduled-but-not-yet
    /// -created instances plus pending/ready idle instances.
    pub covered: usize,
}

/// One round's planning output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanningRound {
    /// Creations to schedule, ordered by arrival index.
    pub decisions: Vec<ScalingDecision>,
    /// Expected number of arrivals within the planning window under the
    /// forecast intensity.
    pub expected_arrivals_in_window: f64,
}

/// The sequential planner.
#[derive(Debug, Clone)]
pub struct SequentialPlanner {
    config: PlannerConfig,
    /// HP rule: `F⁻¹_{Γ(i,1)}(α)` at index `i − 1`, filled on first use
    /// (NaN until then). An entry depends only on `(i, α)`, so a cold table
    /// and a warm one plan bit-identically; the table is runtime state of
    /// this planner, never persisted or shared.
    quantiles: Vec<f64>,
}

impl SequentialPlanner {
    /// Create a planner.
    pub fn new(config: PlannerConfig) -> Result<Self, ScalingError> {
        config.validate()?;
        Ok(Self {
            config,
            quantiles: Vec::new(),
        })
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plan the creations that must start within `[now, now + Δ)`.
    ///
    /// `intensity` is the forecast arrival intensity (absolute time);
    /// `state.covered` tells the planner how many upcoming arrivals already
    /// have an instance on the way. Decides arrival after arrival from
    /// `state.covered + 1` on and stops at the first creation at or past
    /// the window's end — later arrivals need creations only after this
    /// window and are left to the next round — or at the per-round cap.
    pub fn plan_window(
        &mut self,
        intensity: &PiecewiseConstantIntensity,
        now: f64,
        state: PlannerState,
    ) -> PlanningRound {
        let window_end = now + self.config.planning_interval;
        let tau = self.config.pending.mean();
        let walk = Walk {
            first: state.covered + 1,
            now,
            window_end,
            cap: self.config.max_decisions_per_round,
        };
        let decisions = match self.config.rule {
            DecisionRule::HittingProbability { alpha } => {
                // The quantiles grow with the index, so one inverse cursor
                // makes the whole walk O(1) per decision.
                let mut hint = InverseHint::default();
                let quantiles = &mut self.quantiles;
                walk.run(|i| {
                    let quantile = gamma_quantile(quantiles, i, alpha);
                    intensity.inverse_integrated_hinted(now, quantile, &mut hint) - tau
                })
            }
            DecisionRule::ResponseTime { target_waiting } => {
                let law = ArrivalLaw::new(intensity, now);
                walk.run(|i| law.waiting_root(i, tau, target_waiting))
            }
            DecisionRule::CostBudget { target_idle } => {
                let law = ArrivalLaw::new(intensity, now);
                walk.run(|i| law.idle_root(i, tau, target_idle))
            }
        };
        PlanningRound {
            decisions,
            expected_arrivals_in_window: intensity.integrated(now, window_end),
        }
    }
}

/// One round's decision walk over consecutive arrival indices.
struct Walk {
    first: usize,
    now: f64,
    window_end: f64,
    cap: usize,
}

impl Walk {
    /// Decide arrivals `first, first + 1, …` from their raw creation times
    /// until one falls at or past the window's end or the cap is reached.
    fn run(&self, mut raw_creation_time: impl FnMut(usize) -> f64) -> Vec<ScalingDecision> {
        let mut decisions = Vec::new();
        for index in self.first.. {
            let decision = ScalingDecision::at(index, raw_creation_time(index), self.now);
            if decision.creation_time >= self.window_end {
                break;
            }
            decisions.push(decision);
            if decisions.len() >= self.cap {
                break;
            }
        }
        decisions
    }
}

/// `F⁻¹_{Γ(i,1)}(α)` from `table`, computing and storing it on first use.
fn gamma_quantile(table: &mut Vec<f64>, i: usize, alpha: f64) -> f64 {
    if table.len() < i {
        table.resize(i, f64::NAN);
    }
    let entry = &mut table[i - 1];
    if entry.is_nan() {
        *entry = gamma_p_inverse(i as f64, alpha);
    }
    *entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::decide_exact;

    fn planner(rule: DecisionRule, interval: f64) -> SequentialPlanner {
        SequentialPlanner::new(PlannerConfig {
            rule,
            pending: PendingTimeModel::Deterministic(13.0),
            planning_interval: interval,
            max_decisions_per_round: 500,
        })
        .unwrap()
    }

    fn flat_intensity(rate: f64) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::new(0.0, 1e7, vec![rate]).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut config = PlannerConfig {
            rule: DecisionRule::HittingProbability { alpha: 0.1 },
            pending: PendingTimeModel::Deterministic(13.0),
            planning_interval: 0.0,
            max_decisions_per_round: 100,
        };
        assert!(SequentialPlanner::new(config).is_err());
        config.planning_interval = 5.0;
        config.max_decisions_per_round = 0;
        assert!(SequentialPlanner::new(config).is_err());
        config.max_decisions_per_round = 10;
        assert!(SequentialPlanner::new(config).is_ok());
        config.pending = PendingTimeModel::Deterministic(-1.0);
        assert!(SequentialPlanner::new(config).is_err());
    }

    #[test]
    fn plans_roughly_the_expected_number_of_creations_per_window() {
        // 2 QPS and a 10-second window: about 20 arrivals; with a 13 s pending
        // time every one of them needs a creation scheduled within the window.
        let mut planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let intensity = flat_intensity(2.0);
        let round = planner.plan_window(&intensity, 100.0, PlannerState { covered: 0 });
        assert!((round.expected_arrivals_in_window - 20.0).abs() < 1e-9);
        // Every arrival expected within the window plus the 13 s startup lead
        // needs a creation scheduled now; with the α = 0.1 safety margin the
        // planner looks a little further ahead, so expect roughly 2·rate·(Δ +
        // τ) ≈ 46 with generous slack on both sides.
        assert!(
            round.decisions.len() >= 15 && round.decisions.len() <= 75,
            "scheduled {} creations",
            round.decisions.len()
        );
        // All creations lie within the window.
        for d in &round.decisions {
            assert!(d.creation_time >= 100.0);
            assert!(d.creation_time < 110.0);
        }
        // Arrival indices are consecutive starting right after the covered ones.
        for (offset, d) in round.decisions.iter().enumerate() {
            assert_eq!(d.arrival_index, offset + 1);
        }
    }

    #[test]
    fn covered_arrivals_shift_the_planned_indices() {
        let mut planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let round = planner.plan_window(&flat_intensity(1.0), 0.0, PlannerState { covered: 5 });
        assert!(!round.decisions.is_empty());
        assert_eq!(round.decisions[0].arrival_index, 6);
    }

    #[test]
    fn quiet_traffic_schedules_nothing() {
        // 0.001 QPS and a 1-second window: the first uncovered arrival is far
        // in the future and its creation time falls outside the window.
        let mut planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 1.0);
        let round = planner.plan_window(&flat_intensity(0.001), 0.0, PlannerState { covered: 2 });
        assert!(round.decisions.is_empty(), "{:?}", round.decisions);
    }

    #[test]
    fn respects_the_per_round_cap() {
        let mut planner = SequentialPlanner::new(PlannerConfig {
            rule: DecisionRule::HittingProbability { alpha: 0.1 },
            pending: PendingTimeModel::Deterministic(13.0),
            planning_interval: 100.0,
            max_decisions_per_round: 25,
        })
        .unwrap();
        // ~1000 arrivals per window.
        let round = planner.plan_window(&flat_intensity(10.0), 0.0, PlannerState { covered: 0 });
        assert_eq!(round.decisions.len(), 25);
    }

    #[test]
    fn warm_and_cold_quantile_tables_plan_bit_identically() {
        // One planner threaded through several rounds (its quantile table
        // warm, filled out of order by varying covered counts) vs a fresh
        // planner per round: the plans must match exactly, and match the
        // one-off exact decisions.
        let intensity =
            PiecewiseConstantIntensity::new(0.0, 30.0, vec![1.5, 0.2, 3.0, 0.0, 0.7]).unwrap();
        let rule = DecisionRule::HittingProbability { alpha: 0.1 };
        let mut warm = planner(rule, 10.0);
        for (round, covered) in [7usize, 0, 3, 12, 1].into_iter().enumerate() {
            let now = 5.0 + 20.0 * round as f64;
            let state = PlannerState { covered };
            let fresh = planner(rule, 10.0).plan_window(&intensity, now, state);
            assert_eq!(
                warm.plan_window(&intensity, now, state),
                fresh,
                "round {round}"
            );
            for d in &fresh.decisions {
                let one_off = decide_exact(&intensity, now, d.arrival_index, &rule, 13.0);
                assert_eq!(
                    one_off.creation_time.to_bits(),
                    d.creation_time.to_bits(),
                    "round {round} index {}",
                    d.arrival_index
                );
            }
        }
    }

    #[test]
    fn rt_and_cost_planners_produce_monotone_creation_times() {
        for rule in [
            DecisionRule::ResponseTime {
                target_waiting: 2.0,
            },
            DecisionRule::CostBudget { target_idle: 3.0 },
        ] {
            let mut planner = planner(rule, 20.0);
            let round =
                planner.plan_window(&flat_intensity(1.0), 50.0, PlannerState { covered: 0 });
            assert!(!round.decisions.is_empty(), "{rule:?}");
            for pair in round.decisions.windows(2) {
                assert!(pair[1].creation_time >= pair[0].creation_time - 1e-9);
            }
        }
    }
}
