//! Query arrival prediction (module 3 of the paper's framework).
//!
//! The fitted intensity is extrapolated into the near future. When a period
//! was detected, the forecast repeats the per-phase intensity estimated from
//! the most recent periods (robustly, via the median across periods); when
//! the workload is aperiodic, the forecast carries the recent local level
//! forward — the same "local intensity" the paper recommends for computing
//! the κ threshold.
//!
//! A forecast computes only the buckets it emits: one median over at most
//! `lookback_periods` values per emitted phase, or the `recent_window` mean
//! when aperiodic. A call costs O(min(buckets, period) · lookback), not
//! O(training length), so the per-round drift check stays cheap on models
//! with long periods.

use crate::error::NhppError;
use crate::intensity::PiecewiseConstantIntensity;
use crate::model::NhppModel;
use robustscaler_stats::empirical_quantile_unstable;
use serde::{Deserialize, Serialize};

/// Configuration of the intensity forecaster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForecastConfig {
    /// How many of the most recent periods to pool when estimating the
    /// per-phase pattern (periodic workloads).
    pub lookback_periods: usize,
    /// How many recent buckets to average for aperiodic workloads (and as a
    /// fallback when fewer than one full period of history exists).
    pub recent_window: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self {
            lookback_periods: 4,
            recent_window: 10,
        }
    }
}

/// Format version written by [`Forecaster::snapshot`]; bump on any layout
/// change and keep [`ForecasterSnapshot::restore`] reading old versions
/// still present in fleet checkpoints.
pub const FORECASTER_SNAPSHOT_VERSION: u32 = 1;

/// A serializable, version-tagged envelope around a [`Forecaster`]'s full
/// state: the installed [`NhppModel`] (which already derives serde) plus
/// the forecast configuration it is refreshed under.
///
/// The envelope exists so on-disk checkpoints can evolve: the version tag
/// is checked before any field is interpreted, and unknown versions fail
/// with [`NhppError::UnsupportedSnapshotVersion`] instead of
/// mis-deserializing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForecasterSnapshot {
    /// Snapshot format version ([`FORECASTER_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The installed model.
    pub model: NhppModel,
    /// The forecast configuration.
    pub config: ForecastConfig,
}

impl ForecasterSnapshot {
    /// Rebuild the forecaster this snapshot was taken from, revalidating
    /// the configuration as [`Forecaster::new`] would.
    pub fn restore(self) -> Result<Forecaster, NhppError> {
        if self.version != FORECASTER_SNAPSHOT_VERSION {
            return Err(NhppError::UnsupportedSnapshotVersion {
                found: self.version,
                supported: FORECASTER_SNAPSHOT_VERSION,
            });
        }
        Forecaster::new(self.model, self.config)
    }
}

/// Forecaster wrapping a fitted [`NhppModel`].
#[derive(Debug, Clone)]
pub struct Forecaster {
    model: NhppModel,
    config: ForecastConfig,
}

impl Forecaster {
    /// Create a forecaster.
    pub fn new(model: NhppModel, config: ForecastConfig) -> Result<Self, NhppError> {
        if config.lookback_periods == 0 || config.recent_window == 0 {
            return Err(NhppError::InvalidParameter(
                "lookback_periods and recent_window must be >= 1",
            ));
        }
        Ok(Self { model, config })
    }

    /// The wrapped model.
    pub fn model(&self) -> &NhppModel {
        &self.model
    }

    /// The forecaster's configuration.
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Capture the forecaster's state as a serializable, version-tagged
    /// [`ForecasterSnapshot`].
    pub fn snapshot(&self) -> ForecasterSnapshot {
        ForecasterSnapshot {
            version: FORECASTER_SNAPSHOT_VERSION,
            model: self.model.clone(),
            config: self.config,
        }
    }

    /// Swap in a freshly fitted model, keeping the configuration.
    ///
    /// This is the online serving layer's rolling-refit entry point: a
    /// long-lived forecaster is refreshed in place whenever drift detection
    /// or the refit schedule retrains the NHPP, instead of being rebuilt
    /// (and re-validated) from scratch every round.
    pub fn refresh(&mut self, model: NhppModel) {
        self.model = model;
    }

    /// Forecast the intensity for `[from, from + horizon)`.
    ///
    /// `from` is usually the end of the training window ("now"); forecasts
    /// starting later are supported and simply shift the periodic phase.
    ///
    /// Only the emitted buckets are computed. A periodic forecast takes the
    /// median of each phase it emits over the last `lookback_periods`
    /// periods, so one call costs O(min(buckets, period) · lookback); the
    /// full per-phase pattern is built only when the horizon spans more than
    /// one period. An aperiodic forecast exponentiates only the
    /// `recent_window` tail. Nothing is cached between calls.
    pub fn forecast(
        &self,
        from: f64,
        horizon: f64,
    ) -> Result<PiecewiseConstantIntensity, NhppError> {
        if !(horizon > 0.0) {
            return Err(NhppError::InvalidParameter("horizon must be > 0"));
        }
        if from < self.model.start() {
            return Err(NhppError::OutOfRange {
                time: from,
                start: self.model.start(),
                end: f64::INFINITY,
            });
        }
        let dt = self.model.bucket_width();
        let log_rates = self.model.log_rates();
        let t = log_rates.len();
        let buckets = (horizon / dt).ceil() as usize;
        let buckets = buckets.max(1);

        let predicted: Vec<f64> = match self.model.period() {
            Some(period) if period >= 1 && t >= period => {
                // Robust per-phase rate: the median over the last
                // `lookback_periods` periods. Phases count from the model
                // start, so within the period that starts at `t − k·period`
                // phase `p` sits `(p − t) mod period` buckets in.
                // `lookback <= t / period`, so every index below is in
                // range.
                let lookback = self.config.lookback_periods.min(t / period).max(1);
                let shift = period - t % period;
                let mut values = Vec::with_capacity(lookback);
                let mut phase_rate = |phase: usize| {
                    let offset = (phase + shift) % period;
                    values.clear();
                    values.extend((1..=lookback).map(|k| log_rates[t - k * period + offset].exp()));
                    empirical_quantile_unstable(&mut values, 0.5).expect("non-empty")
                };
                // Phase of the first forecast bucket relative to the training
                // start, so the pattern lines up with wall-clock time.
                let first_bucket_index = ((from - self.model.start()) / dt).round() as i64;
                let phase_of =
                    |i: usize| ((first_bucket_index + i as i64).rem_euclid(period as i64)) as usize;
                if buckets <= period {
                    // Each emitted bucket is a distinct phase.
                    (0..buckets).map(|i| phase_rate(phase_of(i))).collect()
                } else {
                    let pattern: Vec<f64> = (0..period).map(phase_rate).collect();
                    (0..buckets).map(|i| pattern[phase_of(i)]).collect()
                }
            }
            _ => {
                // Aperiodic: carry the recent local level forward.
                let window = self.config.recent_window.min(t).max(1);
                let level =
                    log_rates[t - window..].iter().map(|r| r.exp()).sum::<f64>() / window as f64;
                vec![level; buckets]
            }
        };

        PiecewiseConstantIntensity::new(from, dt, predicted)
    }

    /// Forecast the *local* intensity level at `from` — a single scalar used
    /// by the κ threshold of Algorithm 4 (paper §VI-C recommends using the
    /// local intensity rather than a global upper bound).
    pub fn local_intensity(&self, from: f64) -> Result<f64, NhppError> {
        let horizon = self.model.bucket_width();
        let forecast = self.forecast(from, horizon)?;
        Ok(forecast.rates()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::Intensity;
    use proptest::prelude::*;
    use robustscaler_stats::median;

    fn periodic_model(buckets: usize, period: usize) -> NhppModel {
        // rate alternates by phase: λ(phase) = 0.1·(phase+1)
        let log_rates: Vec<f64> = (0..buckets)
            .map(|i| (0.1 * ((i % period) as f64 + 1.0)).ln())
            .collect();
        NhppModel::from_log_rates(0.0, 60.0, log_rates, Some(period)).unwrap()
    }

    #[test]
    fn constructor_validates_config() {
        let m = periodic_model(40, 4);
        assert!(Forecaster::new(
            m.clone(),
            ForecastConfig {
                lookback_periods: 0,
                recent_window: 10
            }
        )
        .is_err());
        assert!(Forecaster::new(
            m,
            ForecastConfig {
                lookback_periods: 4,
                recent_window: 0
            }
        )
        .is_err());
    }

    #[test]
    fn periodic_forecast_repeats_the_phase_pattern() {
        let m = periodic_model(48, 4);
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        let forecast = f.forecast(m.end(), 8.0 * 60.0).unwrap();
        assert_eq!(forecast.len(), 8);
        // Training covered exactly 12 periods, so the forecast picks up at
        // phase 0 again.
        for (i, &rate) in forecast.rates().iter().enumerate() {
            let expected = 0.1 * ((i % 4) as f64 + 1.0);
            assert!(
                (rate - expected).abs() < 1e-9,
                "bucket {i}: {rate} vs {expected}"
            );
        }
        // The forecast starts where requested.
        assert_eq!(forecast.start(), m.end());
    }

    #[test]
    fn forecast_phase_alignment_respects_the_requested_start() {
        let m = periodic_model(48, 4);
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        // Start two buckets after the end of training: phase shifts by 2.
        let from = m.end() + 2.0 * 60.0;
        let forecast = f.forecast(from, 4.0 * 60.0).unwrap();
        let expected_phases = [2usize, 3, 0, 1];
        for (i, &rate) in forecast.rates().iter().enumerate() {
            let expected = 0.1 * (expected_phases[i] as f64 + 1.0);
            assert!((rate - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn forecast_keeps_the_wall_clock_phase_when_training_ends_mid_period() {
        // 49 and 51 buckets: 12 periods plus 1 or 3 buckets, so training
        // ends mid-period. Phases stay aligned with the model start.
        for buckets in [49, 51] {
            let m = periodic_model(buckets, 4);
            let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
            let forecast = f.forecast(m.end(), 8.0 * 60.0).unwrap();
            for (i, &rate) in forecast.rates().iter().enumerate() {
                let expected = 0.1 * (((buckets + i) % 4) as f64 + 1.0);
                assert!(
                    (rate - expected).abs() < 1e-9,
                    "{buckets} buckets, bucket {i}: {rate} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn aperiodic_forecast_carries_recent_level() {
        let log_rates: Vec<f64> = (0..30)
            .map(|i| {
                if i < 20 {
                    (0.2_f64).ln()
                } else {
                    (0.6_f64).ln()
                }
            })
            .collect();
        let m = NhppModel::from_log_rates(0.0, 60.0, log_rates, None).unwrap();
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        let forecast = f.forecast(m.end(), 5.0 * 60.0).unwrap();
        for &rate in forecast.rates() {
            assert!((rate - 0.6).abs() < 1e-9);
        }
        assert!((f.local_intensity(m.end()).unwrap() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn refresh_swaps_the_model_in_place() {
        let m = periodic_model(48, 4);
        let mut f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        let before = f.forecast(m.end(), 4.0 * 60.0).unwrap();
        // A flat replacement model: every refreshed forecast bucket is 0.5.
        let flat = NhppModel::from_log_rates(0.0, 60.0, vec![(0.5_f64).ln(); 48], None).unwrap();
        f.refresh(flat);
        assert_eq!(f.config().lookback_periods, 4);
        let after = f.forecast(m.end(), 4.0 * 60.0).unwrap();
        assert_ne!(before.rates(), after.rates());
        for &rate in after.rates() {
            assert!((rate - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_through_json() {
        let m = periodic_model(48, 4);
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        let snap = f.snapshot();
        assert_eq!(snap.version, FORECASTER_SNAPSHOT_VERSION);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ForecasterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert_eq!(restored.model(), &m);
        // Forecasts from the restored forecaster are bit-identical.
        let a = f.forecast(m.end(), 8.0 * 60.0).unwrap();
        let b = restored.forecast(m.end(), 8.0 * 60.0).unwrap();
        assert_eq!(a.rates(), b.rates());
    }

    #[test]
    fn snapshot_restore_rejects_unknown_versions_and_bad_config() {
        let m = periodic_model(20, 4);
        let f = Forecaster::new(m, ForecastConfig::default()).unwrap();
        let mut snap = f.snapshot();
        snap.version += 1;
        assert!(matches!(
            snap.clone().restore(),
            Err(NhppError::UnsupportedSnapshotVersion { found, supported })
                if found == supported + 1
        ));
        snap.version = FORECASTER_SNAPSHOT_VERSION;
        snap.config.lookback_periods = 0;
        assert!(snap.restore().is_err());
    }

    #[test]
    fn rejects_invalid_horizon_and_start() {
        let m = periodic_model(20, 4);
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        assert!(f.forecast(m.end(), 0.0).is_err());
        assert!(f.forecast(m.start() - 1.0, 60.0).is_err());
    }

    #[test]
    fn forecast_total_mass_matches_periodic_average() {
        let m = periodic_model(400, 4);
        let f = Forecaster::new(m.clone(), ForecastConfig::default()).unwrap();
        let horizon = 400.0 * 60.0;
        let forecast = f.forecast(m.end(), horizon).unwrap();
        // Average rate of the pattern is 0.1·(1+2+3+4)/4 = 0.25.
        let expected_mass = 0.25 * horizon;
        assert!(
            (forecast.total_mass() - expected_mass).abs() / expected_mass < 1e-9,
            "mass {} vs {}",
            forecast.total_mass(),
            expected_mass
        );
        assert!((forecast.integrated(m.end(), m.end() + 240.0) - 0.25 * 240.0).abs() < 1e-9);
    }

    /// The full-pattern forecast `Forecaster::forecast` replaced: every
    /// rate exponentiated and the median of every phase computed, whatever
    /// the horizon. Kept as the bit-identity oracle.
    fn full_pattern_forecast(
        model: &NhppModel,
        config: &ForecastConfig,
        from: f64,
        horizon: f64,
    ) -> Vec<f64> {
        let dt = model.bucket_width();
        let rates = model.rates();
        let t = rates.len();
        let buckets = ((horizon / dt).ceil() as usize).max(1);
        match model.period() {
            Some(period) if period >= 1 && t >= period => {
                let lookback = config.lookback_periods.min(t / period).max(1);
                let pattern: Vec<f64> = (0..period)
                    .map(|phase| {
                        let mut values = Vec::with_capacity(lookback);
                        for k in 1..=lookback {
                            let offset = (phase + period - t % period) % period;
                            let idx = t as i64 - (k * period) as i64 + offset as i64;
                            if idx >= 0 {
                                values.push(rates[idx as usize]);
                            }
                        }
                        if values.is_empty() {
                            rates[t - 1]
                        } else {
                            median(&values).expect("non-empty")
                        }
                    })
                    .collect();
                let first_bucket_index = ((from - model.start()) / dt).round() as i64;
                (0..buckets)
                    .map(|i| {
                        let phase =
                            ((first_bucket_index + i as i64).rem_euclid(period as i64)) as usize;
                        pattern[phase]
                    })
                    .collect()
            }
            _ => {
                let window = config.recent_window.min(t).max(1);
                let recent = &rates[t - window..];
                let level = recent.iter().sum::<f64>() / window as f64;
                vec![level; buckets]
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The emitted-phases forecast is bit-identical to the full-pattern
        /// one: periodic models whose length is and is not a multiple of the
        /// period, lookback 1–4, aperiodic models, horizons shorter and
        /// longer than the period, and starts on, between and past the
        /// bucket edges of the training end.
        #[test]
        fn forecast_matches_the_full_pattern_oracle(
            shape in (1usize..16, 1usize..6, 0usize..16, prop::bool::ANY, 1usize..5),
            log_rates in prop::collection::vec(-4.0_f64..3.0, 120..121),
            start in (-500.0_f64..500.0, 1.0_f64..120.0, 1usize..15),
            query in (-10i64..40, 0.0_f64..1.0, prop::bool::ANY, 0.05_f64..3.0),
        ) {
            let (period, periods, extra, periodic, lookback) = shape;
            let (origin, dt, recent_window) = start;
            let (offset, frac, on_edge, horizon_periods) = query;
            let t = (period * periods + extra % period).min(log_rates.len());
            // Round half the rates to one decimal, so phases see ties.
            let log_rates: Vec<f64> = log_rates[..t]
                .iter()
                .enumerate()
                .map(|(i, &r)| if i % 2 == 0 { (r * 10.0).round() / 10.0 } else { r })
                .collect();
            let model = NhppModel::from_log_rates(
                origin,
                dt,
                log_rates,
                periodic.then_some(period),
            )
            .unwrap();
            let config = ForecastConfig {
                lookback_periods: lookback,
                recent_window,
            };
            let f = Forecaster::new(model.clone(), config).unwrap();
            let frac = if on_edge { 0.0 } else { frac };
            let from = (model.end() + (offset as f64 + frac) * dt).max(model.start());
            let horizon = horizon_periods * period as f64 * dt;
            let got = f.forecast(from, horizon).unwrap();
            let want = full_pattern_forecast(&model, &config, from, horizon);
            prop_assert_eq!(got.start().to_bits(), from.to_bits());
            prop_assert_eq!(got.rates().len(), want.len());
            for (g, w) in got.rates().iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{} vs {}", g, w);
            }
        }
    }
}
