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
//! The κ threshold (see [`crate::kappa`]) guarantees that planning at this
//! cadence always happens at least κ + 1 arrivals ahead, which is what the
//! hitting-probability guarantee of Proposition 1 needs.

use crate::arrivals::ArrivalSampler;
use crate::decisions::{decide_with, DecisionConfig, DecisionScratch, ScalingDecision};
use crate::error::ScalingError;
use rand::Rng;
use robustscaler_nhpp::Intensity;
use serde::{Deserialize, Serialize};

/// Configuration of the sequential planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The per-query decision configuration (rule, pending model, Monte Carlo
    /// sample count).
    pub decision: DecisionConfig,
    /// Planning interval `Δ` in seconds.
    pub planning_interval: f64,
    /// Hard cap on the number of creations scheduled in one round (a safety
    /// valve against forecast blow-ups).
    pub max_decisions_per_round: usize,
}

impl PlannerConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ScalingError> {
        self.decision.validate()?;
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

/// Reusable state threaded through consecutive planning rounds.
///
/// A serving process plans every Δ seconds for the lifetime of a tenant;
/// reallocating the per-decision Monte Carlo buffers each round would undo
/// the zero-copy work of the decision layer. One `PlannerScratch` per
/// tenant keeps the [`DecisionScratch`] buffers alive across rounds — they
/// grow once to the steady-state round size and are then reused
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PlannerScratch {
    decision: DecisionScratch,
}

impl PlannerScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
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

impl PlanningRound {
    /// Re-anchor this round at a planning time `dt` seconds later.
    ///
    /// Plan reuse (round-over-round memoization) applies this to a cached
    /// round whose *inputs* — forecast model, decision rule, pending model,
    /// covered count — are unchanged: under a time-invariant forecast
    /// segment the optimal creation times simply translate with the
    /// planning instant, so every decision's creation times shift by `dt`
    /// while arrival indices and clamping flags are preserved.
    /// `expected_arrivals_in_window` cannot be shifted (the window moved);
    /// the caller recomputes it against the forecast over the new window
    /// and passes it in.
    pub fn shifted_by(&self, dt: f64, expected_arrivals_in_window: f64) -> PlanningRound {
        PlanningRound {
            decisions: self
                .decisions
                .iter()
                .map(|d| ScalingDecision {
                    arrival_index: d.arrival_index,
                    unconstrained_creation_time: d.unconstrained_creation_time + dt,
                    creation_time: d.creation_time + dt,
                    clamped: d.clamped,
                })
                .collect(),
            expected_arrivals_in_window,
        }
    }
}

/// The sequential planner.
#[derive(Debug, Clone)]
pub struct SequentialPlanner {
    config: PlannerConfig,
}

impl SequentialPlanner {
    /// Create a planner.
    pub fn new(config: PlannerConfig) -> Result<Self, ScalingError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plan the creations that must start within `[now, now + Δ)`.
    ///
    /// `intensity` is the forecast arrival intensity (absolute time);
    /// `state.covered` tells the planner how many upcoming arrivals already
    /// have an instance on the way.
    pub fn plan_window<I, R>(
        &self,
        intensity: &I,
        now: f64,
        state: PlannerState,
        rng: &mut R,
    ) -> Result<PlanningRound, ScalingError>
    where
        I: Intensity + Sync,
        R: Rng + ?Sized,
    {
        self.plan_window_with(intensity, now, state, rng, &mut PlannerScratch::new())
    }

    /// [`SequentialPlanner::plan_window`] with caller-provided scratch —
    /// the resumable entry point for serving loops that plan round after
    /// round and want the Monte Carlo buffers reused across rounds.
    pub fn plan_window_with<I, R>(
        &self,
        intensity: &I,
        now: f64,
        state: PlannerState,
        rng: &mut R,
        scratch: &mut PlannerScratch,
    ) -> Result<PlanningRound, ScalingError>
    where
        I: Intensity + Sync,
        R: Rng + ?Sized,
    {
        let window_end = now + self.config.planning_interval;
        let expected_in_window = intensity.integrated(now, window_end);
        let max_horizon = state.covered + self.config.max_decisions_per_round;

        // Initial guess of how many arrival indices we may need to look at:
        // a creation must land inside the window when its arrival comes
        // within roughly one pending lead past the window's end, so count
        // the forecast mass out to there plus a small constant. The guess is
        // deliberately tight — sampling is the round's dominant cost and
        // unconsumed arrival rows are pure waste, while undershooting only
        // costs an `extend_horizon` call that continues the per-path streams
        // (consumed samples are bit-identical for any guess/growth schedule).
        let lead = self.config.decision.pending.mean();
        let expected_to_lead = intensity.integrated(now, window_end + lead);
        let mut horizon = state.covered + (1.05 * expected_to_lead).ceil() as usize + 3;
        horizon = horizon.min(max_horizon);

        // One sampler serves the whole round: when the horizon guess turns
        // out too small, `extend_horizon` continues the already-sampled
        // exponential-increment paths instead of resampling from scratch, so
        // earlier decisions stay valid and are never recomputed. The
        // configuration was validated when the planner was built, so the
        // per-decision loop runs the validation-free scratch path.
        let mut sampler = ArrivalSampler::new(
            intensity,
            now,
            horizon,
            self.config.decision.monte_carlo_samples,
            rng,
        )?;
        let mut decisions: Vec<ScalingDecision> = Vec::new();
        while !self.walk(&sampler, state, window_end, &mut decisions, rng, scratch)?
            && horizon < max_horizon
        {
            // Every sampled index needed a creation inside the window — the
            // horizon was too small; enlarge and keep going. Growth is
            // geometric but gentle (+25%, at least 8 rows): the tight guess
            // above undershoots by at most the decision rule's quantile
            // margin, so doubling would overshoot far more than it saves.
            horizon = (horizon + (horizon / 4).max(8)).min(max_horizon);
            sampler.extend_horizon(intensity, horizon);
        }

        Ok(PlanningRound {
            decisions,
            expected_arrivals_in_window: expected_in_window,
        })
    }

    /// The decision walk of [`SequentialPlanner::plan_window_with`].
    /// Decides arrival after arrival, resuming after the last one in
    /// `decisions` (arrival `state.covered + 1` on a fresh walk), and
    /// returns `true` once the round is finished: a creation fell at or
    /// past `window_end` — later arrivals only need creations after this
    /// window, so they are left to the next round — or the per-round cap
    /// was reached. Returns `false` when `sampler`'s horizon ran out first.
    fn walk<R>(
        &self,
        sampler: &ArrivalSampler,
        state: PlannerState,
        window_end: f64,
        decisions: &mut Vec<ScalingDecision>,
        rng: &mut R,
        scratch: &mut PlannerScratch,
    ) -> Result<bool, ScalingError>
    where
        R: Rng + ?Sized,
    {
        let next = state.covered + 1 + decisions.len();
        for index in next..=sampler.horizon_arrivals() {
            let decision = decide_with(
                sampler,
                index,
                &self.config.decision,
                rng,
                &mut scratch.decision,
            )?;
            if decision.creation_time >= window_end {
                return Ok(true);
            }
            decisions.push(decision);
            if decisions.len() >= self.config.max_decisions_per_round {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::DecisionRule;
    use crate::qos::PendingTimeModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustscaler_nhpp::PiecewiseConstantIntensity;

    fn planner(rule: DecisionRule, interval: f64) -> SequentialPlanner {
        SequentialPlanner::new(PlannerConfig {
            decision: DecisionConfig {
                rule,
                pending: PendingTimeModel::Deterministic(13.0),
                monte_carlo_samples: 400,
            },
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
            decision: DecisionConfig {
                rule: DecisionRule::HittingProbability { alpha: 0.1 },
                pending: PendingTimeModel::Deterministic(13.0),
                monte_carlo_samples: 100,
            },
            planning_interval: 0.0,
            max_decisions_per_round: 100,
        };
        assert!(SequentialPlanner::new(config).is_err());
        config.planning_interval = 5.0;
        config.max_decisions_per_round = 0;
        assert!(SequentialPlanner::new(config).is_err());
        config.max_decisions_per_round = 10;
        assert!(SequentialPlanner::new(config).is_ok());
    }

    #[test]
    fn plans_roughly_the_expected_number_of_creations_per_window() {
        // 2 QPS and a 10-second window: about 20 arrivals; with a 13 s pending
        // time every one of them needs a creation scheduled within the window.
        let planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let intensity = flat_intensity(2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let round = planner
            .plan_window(&intensity, 100.0, PlannerState { covered: 0 }, &mut rng)
            .unwrap();
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
        let planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let intensity = flat_intensity(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let round = planner
            .plan_window(&intensity, 0.0, PlannerState { covered: 5 }, &mut rng)
            .unwrap();
        assert!(!round.decisions.is_empty());
        assert_eq!(round.decisions[0].arrival_index, 6);
    }

    #[test]
    fn quiet_traffic_schedules_nothing() {
        // 0.001 QPS and a 1-second window: the first uncovered arrival is far
        // in the future and its creation time falls outside the window.
        let planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 1.0);
        let intensity = flat_intensity(0.001);
        let mut rng = StdRng::seed_from_u64(3);
        let round = planner
            .plan_window(&intensity, 0.0, PlannerState { covered: 2 }, &mut rng)
            .unwrap();
        assert!(round.decisions.is_empty(), "{:?}", round.decisions);
    }

    #[test]
    fn respects_the_per_round_cap() {
        let planner = SequentialPlanner::new(PlannerConfig {
            decision: DecisionConfig {
                rule: DecisionRule::HittingProbability { alpha: 0.1 },
                pending: PendingTimeModel::Deterministic(13.0),
                monte_carlo_samples: 200,
            },
            planning_interval: 100.0,
            max_decisions_per_round: 25,
        })
        .unwrap();
        let intensity = flat_intensity(10.0); // ~1000 arrivals per window
        let mut rng = StdRng::seed_from_u64(4);
        let round = planner
            .plan_window(&intensity, 0.0, PlannerState { covered: 0 }, &mut rng)
            .unwrap();
        assert_eq!(round.decisions.len(), 25);
    }

    #[test]
    fn scratch_reuse_across_rounds_is_bit_identical_to_fresh_scratch() {
        let planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let intensity = flat_intensity(1.5);
        // Fresh scratch every round vs one scratch threaded through all
        // rounds: same RNG stream, so the plans must match exactly.
        let mut fresh_rng = StdRng::seed_from_u64(11);
        let mut reused_rng = StdRng::seed_from_u64(11);
        let mut scratch = PlannerScratch::new();
        for round in 0..5 {
            let now = 50.0 + 10.0 * round as f64;
            let state = PlannerState { covered: round };
            let fresh = planner
                .plan_window(&intensity, now, state, &mut fresh_rng)
                .unwrap();
            let reused = planner
                .plan_window_with(&intensity, now, state, &mut reused_rng, &mut scratch)
                .unwrap();
            assert_eq!(fresh, reused, "round {round}");
        }
    }

    #[test]
    fn shifted_rounds_translate_creation_times_and_keep_indices() {
        let planner = planner(DecisionRule::HittingProbability { alpha: 0.1 }, 10.0);
        let intensity = flat_intensity(2.0);
        let mut rng = StdRng::seed_from_u64(9);
        let round = planner
            .plan_window(&intensity, 100.0, PlannerState { covered: 0 }, &mut rng)
            .unwrap();
        assert!(!round.decisions.is_empty());
        let shifted = round.shifted_by(10.0, 21.5);
        assert_eq!(shifted.decisions.len(), round.decisions.len());
        assert_eq!(shifted.expected_arrivals_in_window, 21.5);
        for (a, b) in round.decisions.iter().zip(&shifted.decisions) {
            assert_eq!(b.arrival_index, a.arrival_index);
            assert_eq!(b.clamped, a.clamped);
            assert_eq!(
                b.creation_time.to_bits(),
                (a.creation_time + 10.0).to_bits()
            );
            assert_eq!(
                b.unconstrained_creation_time.to_bits(),
                (a.unconstrained_creation_time + 10.0).to_bits()
            );
        }
    }

    #[test]
    fn rt_rule_planner_produces_monotone_creation_times() {
        let planner = planner(
            DecisionRule::ResponseTime {
                target_waiting: 2.0,
            },
            20.0,
        );
        let intensity = flat_intensity(1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let round = planner
            .plan_window(&intensity, 50.0, PlannerState { covered: 0 }, &mut rng)
            .unwrap();
        assert!(!round.decisions.is_empty());
        for pair in round.decisions.windows(2) {
            assert!(pair[1].creation_time >= pair[0].creation_time - 1e-9);
        }
    }
}
