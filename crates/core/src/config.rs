//! Configuration of the end-to-end RobustScaler pipeline.

use crate::error::CoreError;
use crate::variants::RobustScalerVariant;
use robustscaler_nhpp::{AdmmConfig, ForecastConfig};
use robustscaler_scaling::PendingTimeModel;
use robustscaler_timeseries::PeriodicityConfig;
use serde::{Deserialize, Serialize};

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RobustScalerConfig {
    /// Bucket width Δt (seconds) used to aggregate arrivals into the count
    /// series the NHPP is trained on. The paper uses 60 s.
    pub bucket_width: f64,
    /// Time-aggregation factor (in buckets) applied before periodicity
    /// detection, reducing random effects as described in §IV.
    pub periodicity_aggregation: usize,
    /// Periodicity detector settings.
    pub periodicity: PeriodicityConfig,
    /// ADMM trainer settings (β₁, β₂, ρ, iteration budget).
    pub admm: AdmmConfig,
    /// Intensity forecasting settings.
    pub forecast: ForecastConfig,
    /// Which constrained variant to run.
    pub variant: RobustScalerVariant,
    /// Pending (startup) time model used when planning.
    pub pending: PendingTimeModel,
    /// Mean processing time `µ_s` (seconds), used to translate RT/cost
    /// targets into waiting/idle budgets.
    pub mean_processing: f64,
    /// Planning interval Δ in seconds (the paper uses 1 s; larger values
    /// trade cost for fewer planning rounds, Fig. 10 d).
    pub planning_interval: f64,
    /// Unused by planning, which is exact (`robustscaler_scaling::exact`)
    /// and samples nothing. Kept only because `perfbench/` assigns it;
    /// dropped with the next benchmark change (ROADMAP item 2).
    pub monte_carlo_samples: usize,
    /// How far ahead (seconds) one forecast is reused before being refreshed.
    pub forecast_horizon: f64,
    /// Hard cap on creations scheduled per planning round.
    pub max_decisions_per_round: usize,
    /// Unused by planning, which draws no random numbers. Kept only because
    /// `perfbench/` assigns it; dropped with the next benchmark change
    /// (ROADMAP item 2).
    pub seed: u64,
    /// Charge the wall-clock time spent computing decisions against the
    /// schedule (the "real environment" mode of Table IV).
    pub charge_compute_latency: bool,
}

impl RobustScalerConfig {
    /// A reasonable default configuration for a given variant: Δt = 60 s,
    /// pending time 13 s, planning every 30 s.
    pub fn for_variant(variant: RobustScalerVariant) -> Self {
        Self {
            bucket_width: 60.0,
            periodicity_aggregation: 5,
            periodicity: PeriodicityConfig::default(),
            admm: AdmmConfig::default(),
            forecast: ForecastConfig::default(),
            variant,
            pending: PendingTimeModel::Deterministic(13.0),
            mean_processing: 20.0,
            planning_interval: 30.0,
            monte_carlo_samples: 300,
            forecast_horizon: 3_600.0,
            max_decisions_per_round: 2_000,
            seed: 7,
            charge_compute_latency: false,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.bucket_width > 0.0) {
            return Err(CoreError::InvalidConfig("bucket_width must be > 0"));
        }
        if self.periodicity_aggregation == 0 {
            return Err(CoreError::InvalidConfig(
                "periodicity_aggregation must be >= 1",
            ));
        }
        if !(self.mean_processing >= 0.0) || !self.mean_processing.is_finite() {
            return Err(CoreError::InvalidConfig(
                "mean_processing must be finite and >= 0",
            ));
        }
        if !(self.planning_interval > 0.0) {
            return Err(CoreError::InvalidConfig("planning_interval must be > 0"));
        }
        if !(self.forecast_horizon > self.planning_interval) {
            return Err(CoreError::InvalidConfig(
                "forecast_horizon must exceed the planning interval",
            ));
        }
        if self.max_decisions_per_round == 0 {
            return Err(CoreError::InvalidConfig(
                "max_decisions_per_round must be >= 1",
            ));
        }
        self.pending
            .validate()
            .map_err(|_| CoreError::InvalidConfig("invalid pending-time model"))?;
        // Validate the variant translation once with the configured means.
        self.variant
            .to_rule(self.mean_processing, self.pending.mean())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_for_all_variants() {
        for variant in [
            RobustScalerVariant::HittingProbability { target: 0.9 },
            RobustScalerVariant::ResponseTime { target: 25.0 },
            RobustScalerVariant::CostBudget { budget: 60.0 },
        ] {
            RobustScalerConfig::for_variant(variant).validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_each_bad_field() {
        let base = RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
            target: 0.9,
        });
        let mut c = base;
        c.bucket_width = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.periodicity_aggregation = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.mean_processing = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.planning_interval = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.forecast_horizon = c.planning_interval;
        assert!(c.validate().is_err());
        let mut c = base;
        c.max_decisions_per_round = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.variant = RobustScalerVariant::HittingProbability { target: 2.0 };
        assert!(c.validate().is_err());
    }
}
