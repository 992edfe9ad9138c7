//! The RobustScaler autoscaling policy (module 4 wired to the simulator).
//!
//! At every planning tick the policy refreshes its intensity forecast if
//! needed, asks the sequential planner which instance creations must start
//! within the next planning window, and emits the corresponding scheduling
//! commands. A cheap sufficiency check skips planning entirely
//! when the instances already on the way clearly cover everything the
//! forecast expects in the window — this is what keeps planning every few
//! seconds affordable on week-long traces.

use crate::config::RobustScalerConfig;
use crate::error::CoreError;
use crate::pipeline::TrainedModel;
use robustscaler_nhpp::{Forecaster, Intensity, PiecewiseConstantIntensity};
use robustscaler_scaling::{PlannerConfig, PlannerState, SequentialPlanner};
use robustscaler_simulator::{Autoscaler, ScalingCommand, SystemState};
use std::time::Instant;

/// The RobustScaler policy, generic over the HP/RT/cost variant through the
/// configured decision rule.
pub struct RobustScalerPolicy {
    config: RobustScalerConfig,
    forecaster: Forecaster,
    planner: SequentialPlanner,
    cached_forecast: Option<PiecewiseConstantIntensity>,
    cached_until: f64,
    /// Cumulative seconds spent computing decisions (reported by the
    /// real-environment experiment).
    compute_seconds: f64,
    planning_rounds: usize,
}

impl RobustScalerPolicy {
    /// Build a policy from a trained model.
    pub fn new(config: RobustScalerConfig, trained: TrainedModel) -> Result<Self, CoreError> {
        config.validate()?;
        let forecaster = trained.forecaster(&config)?;
        let rule = config
            .variant
            .to_rule(config.mean_processing, config.pending.mean())?;
        let planner = SequentialPlanner::new(PlannerConfig {
            rule,
            pending: config.pending,
            planning_interval: config.planning_interval,
            max_decisions_per_round: config.max_decisions_per_round,
        })?;
        Ok(Self {
            config,
            forecaster,
            planner,
            cached_forecast: None,
            cached_until: f64::NEG_INFINITY,
            compute_seconds: 0.0,
            planning_rounds: 0,
        })
    }

    /// Total wall-clock seconds spent inside planning so far.
    pub fn compute_seconds(&self) -> f64 {
        self.compute_seconds
    }

    /// Number of planning rounds that actually ran the optimizer.
    pub fn planning_rounds(&self) -> usize {
        self.planning_rounds
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &RobustScalerConfig {
        &self.config
    }

    fn refresh_forecast(&mut self, now: f64) -> Result<(), CoreError> {
        let needs_refresh = match &self.cached_forecast {
            None => true,
            Some(_) => now + self.config.planning_interval > self.cached_until,
        };
        if needs_refresh {
            let from = now.max(self.forecaster.model().start());
            let forecast = self
                .forecaster
                .forecast(from, self.config.forecast_horizon)?;
            self.cached_until = from + self.config.forecast_horizon;
            self.cached_forecast = Some(forecast);
        }
        Ok(())
    }

    /// Cheap test: are the instances already on the way clearly enough for
    /// everything the forecast expects before the end of the window (plus the
    /// startup lead time)? If so, skip planning entirely.
    fn clearly_covered(&self, state: &SystemState) -> bool {
        let Some(forecast) = &self.cached_forecast else {
            return false;
        };
        let lead = self.config.pending.mean().max(1.0);
        let horizon_end = state.now + self.config.planning_interval + 2.0 * lead;
        let expected = forecast.integrated(state.now, horizon_end);
        let slack = 4.0 * (expected + 1.0).sqrt() + 2.0;
        (state.covered() as f64) >= expected + slack
    }
}

impl Autoscaler for RobustScalerPolicy {
    fn name(&self) -> &str {
        self.config.variant.name()
    }

    fn planning_interval(&self) -> Option<f64> {
        Some(self.config.planning_interval)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let started = Instant::now();
        if self.refresh_forecast(state.now).is_err() {
            return Vec::new();
        }
        if self.clearly_covered(state) {
            return Vec::new();
        }
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("refresh_forecast populated the cache");
        let round = self.planner.plan_window(
            forecast,
            state.now,
            PlannerState {
                covered: state.covered(),
            },
        );
        self.planning_rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        self.compute_seconds += elapsed;
        // In the real-environment mode the decisions only become actionable
        // after they have been computed.
        let latency = if self.config.charge_compute_latency {
            elapsed
        } else {
            0.0
        };
        round
            .decisions
            .iter()
            .map(|d| ScalingCommand::CreateAt(d.creation_time + latency))
            .collect()
    }

    fn cancel_scheduled_on_cold_start(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RobustScalerPipeline;
    use crate::variants::RobustScalerVariant;
    use robustscaler_simulator::{
        PendingTimeDistribution, Query, SimulationConfig, Simulator, Trace,
    };

    /// A Poisson-ish uniform trace: one query every `gap` seconds.
    fn uniform_trace(duration: f64, gap: f64, processing: f64) -> Trace {
        let n = (duration / gap) as usize;
        Trace::new(
            "uniform",
            (0..n)
                .map(|i| Query {
                    arrival: i as f64 * gap,
                    processing,
                })
                .collect(),
        )
        .unwrap()
    }

    fn fast_config(variant: RobustScalerVariant) -> RobustScalerConfig {
        let mut c = RobustScalerConfig::for_variant(variant);
        c.admm.max_iterations = 40;
        c.planning_interval = 20.0;
        c.mean_processing = 5.0;
        c
    }

    #[test]
    fn hp_policy_reaches_a_high_hit_rate_on_steady_traffic() {
        // Train and test on steady traffic: 1 query / 30 s, processing 5 s.
        let trace = uniform_trace(6.0 * 3_600.0, 30.0, 5.0);
        let (train, test) = trace.split_at(4.0 * 3_600.0).unwrap();
        let config = fast_config(RobustScalerVariant::HittingProbability { target: 0.9 });
        let pipeline = RobustScalerPipeline::new(config).unwrap();
        let mut policy = pipeline.build_policy(&train).unwrap();

        let sim = Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: 5,
            recent_history_window: 600.0,
        })
        .unwrap();
        let metrics = sim.run(&test, &mut policy).unwrap();
        assert!(
            metrics.hit_rate() > 0.8,
            "hit rate {} too low",
            metrics.hit_rate()
        );
        // Proactive creations mean the average response time is close to the
        // pure processing time, far below the cold-start 18 s.
        assert!(metrics.rt_avg() < 10.0, "rt_avg {}", metrics.rt_avg());
        assert!(policy.planning_rounds() > 0);
        assert!(policy.compute_seconds() >= 0.0);
    }

    #[test]
    fn cost_variant_spends_less_than_hp_variant() {
        let trace = uniform_trace(4.0 * 3_600.0, 45.0, 5.0);
        let (train, test) = trace.split_at(3.0 * 3_600.0).unwrap();
        let sim = Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: 6,
            recent_history_window: 600.0,
        })
        .unwrap();

        let hp_config = fast_config(RobustScalerVariant::HittingProbability { target: 0.95 });
        let mut hp_policy = RobustScalerPipeline::new(hp_config)
            .unwrap()
            .build_policy(&train)
            .unwrap();
        let hp_metrics = sim.run(&test, &mut hp_policy).unwrap();

        // A tight per-instance budget (just the fixed pending + processing
        // cost) forbids almost any idling.
        let cost_config = fast_config(RobustScalerVariant::CostBudget { budget: 19.0 });
        let mut cost_policy = RobustScalerPipeline::new(cost_config)
            .unwrap()
            .build_policy(&train)
            .unwrap();
        let cost_metrics = sim.run(&test, &mut cost_policy).unwrap();

        assert!(
            cost_metrics.total_cost() < hp_metrics.total_cost(),
            "cost-variant {} should be cheaper than HP {}",
            cost_metrics.total_cost(),
            hp_metrics.total_cost()
        );
        assert!(hp_metrics.hit_rate() > cost_metrics.hit_rate());
    }

    #[test]
    fn real_environment_mode_tracks_compute_latency() {
        let trace = uniform_trace(2.0 * 3_600.0, 60.0, 5.0);
        let (train, test) = trace.split_at(3_600.0).unwrap();
        let mut config = fast_config(RobustScalerVariant::HittingProbability { target: 0.9 });
        config.charge_compute_latency = true;
        let mut policy = RobustScalerPipeline::new(config)
            .unwrap()
            .build_policy(&train)
            .unwrap();
        let sim = Simulator::new(SimulationConfig::default()).unwrap();
        let metrics = sim.run(&test, &mut policy).unwrap();
        // Decisions are computed in well under a millisecond, so charging the
        // latency must not collapse the hit rate (Table IV's conclusion).
        assert!(metrics.hit_rate() > 0.5, "hit rate {}", metrics.hit_rate());
        assert!(policy.compute_seconds() > 0.0);
    }
}
