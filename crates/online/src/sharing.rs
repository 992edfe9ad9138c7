//! Plan reuse: the fleet's reuse policy and the plan-cache key.
//!
//! Every tenant plans against its *own* forecast. A round that has to plan
//! computes its decisions exactly from the tenant's fitted NHPP by time
//! rescaling (paper eqs. 3/5/7), so no approximation crosses tenant
//! boundaries. The one reuse layer is round-over-round and per tenant: a
//! scaler memoizes its last planned round under a [`PlanCacheKey`] and,
//! while the key stays unchanged, serves the cached plan time-shifted to
//! the new planning instant instead of re-planning.
//!
//! # Determinism contract
//!
//! * **Plan cache off** (the default) is bit-identical to a scaler without
//!   this module, at any worker count.
//! * **Plan cache on** is itself deterministic and worker-invariant: keys
//!   are pure functions of the tenant's own planning inputs, and the cache
//!   entry is persisted in snapshots. It is *not* bit-identical to the
//!   cache off (a hit time-shifts the previous plan where a re-plan would
//!   see the forecast's small drift); its error is bounded by the
//!   quantization ratio.

use robustscaler_scaling::{DecisionRule, PendingTimeModel};
use serde::{Deserialize, Serialize};

use crate::error::OnlineError;

/// Number of probe windows a forecast is fingerprinted over.
///
/// The probe grid spans the planning window plus four pending leads — the
/// range whose forecast mass can influence this round's decisions. Eight
/// buckets keeps the key `Copy`-small while still separating forecasts whose
/// shape differs inside the horizon.
pub const SHARING_PROBE_BUCKETS: usize = 8;

/// Forecast mass below this is binned as "empty" rather than quantized on
/// the log grid (log-quantizing a true zero is undefined, and masses this
/// small cannot move a creation time).
const EMPTY_MASS: f64 = 1e-12;

/// Fleet-level plan-reuse policy.
///
/// It changes no tenant state, only how the next rounds compute their
/// plans. Fleet checkpoints record it in the manifest, so a restored
/// fleet plans under the policy it was checkpointed with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharingConfig {
    /// Geometric quantization ratio for the plan-cache key's forecast-mass
    /// probes: probe masses within a multiplicative `1 + quantization` band
    /// count as unchanged. Larger values hit more often with a coarser
    /// approximation. Must be finite and positive.
    pub quantization: f64,
    /// Plan reuse: the per-scaler round-over-round plan cache.
    /// Each scaler memoizes its last planned round under a
    /// [`PlanCacheKey`]; an unchanged key time-shifts the cached plan
    /// instead of re-planning. A deterministic, worker-invariant
    /// *approximation* universe (a hit reuses the previous plan where a
    /// re-plan could differ within the quantization band); it is
    /// invalidated on refit, drift, model install, and disable, and the
    /// cache state is persisted in snapshots so kill-and-restore stays
    /// bit-equivalent.
    pub plan_cache: bool,
}

impl Default for SharingConfig {
    fn default() -> Self {
        Self {
            quantization: 0.05,
            plan_cache: false,
        }
    }
}

impl SharingConfig {
    /// The plan cache on at the default quantization — the production
    /// configuration for large fleets.
    pub fn on() -> Self {
        Self {
            plan_cache: true,
            ..Self::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), OnlineError> {
        if !self.quantization.is_finite() || self.quantization <= 0.0 {
            return Err(OnlineError::InvalidConfig(
                "sharing quantization must be finite and > 0",
            ));
        }
        Ok(())
    }
}

/// Plan-cache key: a content fingerprint of everything a scaler's
/// planning round depends on, *except* the absolute planning instant.
///
/// Every discrete planning input is pinned **exactly**: the forecast
/// model's fingerprint (the FNV-1a 64 checkpoints use — any refit, drift
/// refit or install changes it), the rule parameters, the pending-time
/// model, the window length and the covered count.
/// The forecast itself is probed over [`SHARING_PROBE_BUCKETS`] windows
/// *relative to `now`*, and the probe masses are geometrically quantized at
/// the reuse layer's tolerance: two rounds produce equal keys exactly when
/// the model is unchanged and the forecast's shape over the upcoming
/// horizon, viewed from the planning instant, stayed within the
/// quantization band. Under those conditions the previous round's creation
/// times translate with the planning instant, so the cached
/// [`PlanningRound`] is time-shifted instead of re-planned — a controlled
/// approximation whose error the quantization knob bounds.
///
/// The key is serializable: a scaler's cache entry is persisted in its
/// snapshot so kill-and-restore resumes bit-identically (an emptied cache
/// after restore would re-plan where the original hits, and diverge).
///
/// [`PlanningRound`]: robustscaler_scaling::PlanningRound
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanCacheKey {
    model: u64,
    interval_bits: u64,
    step_bits: u64,
    quant_bits: u64,
    covered: u64,
    rule: (u8, u64),
    pending: u64,
    bins: [i64; SHARING_PROBE_BUCKETS],
}

impl PlanCacheKey {
    /// Fingerprint a scaler's planning inputs at instant `now`.
    ///
    /// `model` is a stable fingerprint of the fitted forecast model (the
    /// FNV-1a 64 used by checkpoints); `forecast` is the live intensity the
    /// round would plan against; `quantization` is the reuse layer's
    /// geometric tolerance (probe masses within a multiplicative
    /// `1 + quantization` band are considered unchanged). Returns `None`
    /// when the geometry degenerates or any probe mass is non-finite — the
    /// round then plans normally and caches nothing.
    #[allow(clippy::too_many_arguments)] // a fingerprint is its inputs
    pub fn from_forecast<I>(
        forecast: &I,
        model: u64,
        now: f64,
        interval: f64,
        rule: &DecisionRule,
        pending: &PendingTimeModel,
        covered: usize,
        quantization: f64,
    ) -> Option<Self>
    where
        I: robustscaler_nhpp::Intensity + ?Sized,
    {
        // Probe the forecast mass over SHARING_PROBE_BUCKETS windows
        // spanning Δ + 4·max(lead, 1) from `now`, log-binned at
        // `quantization`.
        let lead = pending.mean();
        let step = (interval + 4.0 * lead.max(1.0)) / SHARING_PROBE_BUCKETS as f64;
        if !now.is_finite() || !step.is_finite() || step <= 0.0 {
            return None;
        }
        let log_ratio = (1.0 + quantization).ln();
        let mut bins = [i64::MIN; SHARING_PROBE_BUCKETS];
        for (j, bin) in bins.iter_mut().enumerate() {
            let from = now + j as f64 * step;
            let mass = forecast.integrated(from, from + step);
            if !mass.is_finite() {
                return None;
            }
            if mass > EMPTY_MASS {
                *bin = (mass.ln() / log_ratio).floor() as i64;
            }
        }
        Some(Self {
            model,
            interval_bits: interval.to_bits(),
            step_bits: step.to_bits(),
            quant_bits: quantization.to_bits(),
            covered: covered as u64,
            rule: match *rule {
                DecisionRule::HittingProbability { alpha } => (0, alpha.to_bits()),
                DecisionRule::ResponseTime { target_waiting } => (1, target_waiting.to_bits()),
                DecisionRule::CostBudget { target_idle } => (2, target_idle.to_bits()),
            },
            pending: pending.mean().to_bits(),
            bins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_nhpp::PiecewiseConstantIntensity;

    fn flat(rate: f64) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::new(0.0, 1e7, vec![rate]).unwrap()
    }

    #[test]
    fn config_defaults_off_and_validates() {
        let config = SharingConfig::default();
        assert!(!config.plan_cache);
        assert!(config.validate().is_ok());
        assert!(SharingConfig::on().plan_cache);
        let bad = SharingConfig {
            quantization: 0.0,
            ..SharingConfig::on()
        };
        assert!(bad.validate().is_err());
        let nan = SharingConfig {
            quantization: f64::NAN,
            ..SharingConfig::on()
        };
        assert!(nan.validate().is_err());
    }

    fn cache_key(rate: f64, model: u64, now: f64, covered: usize) -> PlanCacheKey {
        PlanCacheKey::from_forecast(
            &flat(rate),
            model,
            now,
            10.0,
            &DecisionRule::HittingProbability { alpha: 0.1 },
            &PendingTimeModel::Deterministic(13.0),
            covered,
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn plan_cache_keys_are_translation_invariant_within_the_band() {
        // A steady forecast looks identical relative to any planning
        // instant: the key matches across rounds, which is exactly what
        // lets the cached plan be time-shifted...
        assert_eq!(cache_key(2.0, 7, 100.0, 3), cache_key(2.0, 7, 150.0, 3));
        // ...and sub-tolerance forecast drift still matches (the same
        // controlled approximation sharing makes).
        assert_eq!(cache_key(2.0, 7, 100.0, 3), cache_key(2.02, 7, 100.0, 3));
        // Every discrete input is pinned exactly: model fingerprint and
        // covered count changes miss, as does forecast drift past the band.
        assert_ne!(cache_key(2.0, 7, 100.0, 3), cache_key(2.0, 8, 100.0, 3));
        assert_ne!(cache_key(2.0, 7, 100.0, 3), cache_key(2.0, 7, 100.0, 4));
        assert_ne!(cache_key(2.0, 7, 100.0, 3), cache_key(2.5, 7, 100.0, 3));
    }

    #[test]
    fn plan_cache_keys_round_trip_through_serde() {
        let key = cache_key(2.0, 7, 100.0, 3);
        let json = serde_json::to_string(&key).unwrap();
        let back: PlanCacheKey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, key);
    }
}
