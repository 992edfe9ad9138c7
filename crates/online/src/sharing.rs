//! Cross-tenant forecast clustering for shared arrival sampling.
//!
//! Monte Carlo arrival sampling dominates a fleet planning round: every
//! tenant samples `monte_carlo_samples` arrival paths over its forecast each
//! round, and at 1000 tenants that is millions of exponential draws whose
//! results are statistically interchangeable whenever the forecasts are
//! (near-)identical. Multi-tenant fleets are full of such structure — tenants
//! provisioned from the same template, or whose diurnal profiles fit to the
//! same intensity within noise.
//!
//! This module exploits it. Each tenant's live forecast is *fingerprinted*
//! into a [`ClusterKey`]: the forecast mass over a fixed grid of probe
//! windows covering the planning horizon, quantized geometrically (ratio
//! `1 + quantization`), together with every decision parameter that affects
//! planning (rule, pending-time model, replication count, planning instant).
//! Tenants with equal keys plan against one shared arrival-sample matrix
//! built from the key's [`representative_intensity`] — sampled once per
//! cluster, borrowed zero-copy by every member.
//!
//! # Determinism contract
//!
//! * **Sharing off** (the default) is bit-identical to a fleet without this
//!   module, at any worker count.
//! * **Sharing on** is itself deterministic: the shared matrix is seeded from
//!   the cluster key's content and the round counter ([`ClusterKey::seed`]),
//!   never from any tenant's RNG, so results do not depend on worker count,
//!   tenant order within a cluster, or which tenants happen to co-cluster.
//!   It is *not* bit-identical to sharing off — it is a controlled
//!   approximation whose error is bounded by the quantization ratio, traded
//!   for sampling cost that scales with distinct clusters instead of
//!   tenants.
//!
//! [`representative_intensity`]: ClusterKey::representative_intensity

use robustscaler_nhpp::{NhppError, PiecewiseConstantIntensity};
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

/// Fleet-level switch and tuning for cross-tenant shared sampling.
///
/// Sharing changes no tenant state, only how the next rounds compute their
/// plans. Fleet checkpoints record it in the manifest (format v5), so a
/// restored fleet plans under the policy it was checkpointed with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharingConfig {
    /// Master switch. Off (the default) keeps rounds bit-identical to a
    /// build without sharing, at any worker count.
    pub enabled: bool,
    /// Geometric quantization ratio for forecast-mass fingerprints: probe
    /// masses within a multiplicative `1 + quantization` band land in the
    /// same bin. Larger values cluster more aggressively (fewer samplers,
    /// coarser approximation). Must be finite and positive.
    pub quantization: f64,
    /// Plan reuse: the per-scaler round-over-round plan cache.
    /// Each scaler memoizes its last planned round under a
    /// [`PlanCacheKey`]; an unchanged key time-shifts the cached plan
    /// instead of resampling. Like sharing itself this is a deterministic,
    /// worker-invariant *approximation* universe (a hit consumes no RNG, so
    /// downstream draws differ from a resampling run); it is invalidated on
    /// refit, drift, model install, and disable, and the cache state is
    /// persisted in snapshots so kill-and-restore stays bit-equivalent.
    /// Honored even when `enabled` is false (it needs no cross-tenant
    /// clustering).
    pub plan_cache: bool,
}

impl Default for SharingConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            quantization: 0.05,
            plan_cache: false,
        }
    }
}

impl SharingConfig {
    /// Every layer enabled at the default quantization: cross-tenant shared
    /// sampling plus the round-over-round plan cache — the production
    /// configuration for large fleets.
    pub fn on() -> Self {
        Self {
            enabled: true,
            plan_cache: true,
            ..Self::default()
        }
    }

    /// Only cross-tenant shared sampling, the plan cache off — kept for
    /// isolating the sampling win in benchmarks and for fleets that want
    /// sharing without reuse.
    pub fn sharing_only() -> Self {
        Self {
            enabled: true,
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

/// A tenant's planning fingerprint for one round.
///
/// Two tenants receive the same key exactly when every input that shapes
/// their plan matches: the planning instant, the full decision configuration
/// (rule, pending model, replication count), the probe-grid geometry, the
/// quantization in force, and the quantized forecast mass in every probe
/// window. Keys are compared structurally (`Eq`), never by hash alone, so
/// hash collisions cannot merge distinct clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKey {
    now_bits: u64,
    step_bits: u64,
    quant_bits: u64,
    samples: usize,
    rule: (u8, u64),
    pending: (u8, u64, u64),
    bins: [i64; SHARING_PROBE_BUCKETS],
}

impl ClusterKey {
    /// Fingerprint a forecast at planning instant `now`.
    ///
    /// `interval` is the planning window Δ; `rule`, `pending` and `samples`
    /// are the decision configuration in force. Returns `None` when the
    /// geometry degenerates (non-finite instant or probe step), in which
    /// case the tenant simply plans privately.
    pub fn from_forecast<I>(
        forecast: &I,
        now: f64,
        interval: f64,
        rule: &DecisionRule,
        pending: &PendingTimeModel,
        samples: usize,
        quantization: f64,
    ) -> Option<Self>
    where
        I: robustscaler_nhpp::Intensity + ?Sized,
    {
        let probes = Probes::of(forecast, now, interval, rule, pending, quantization)?;
        Some(Self {
            now_bits: now.to_bits(),
            step_bits: probes.step_bits,
            quant_bits: quantization.to_bits(),
            samples,
            rule: probes.rule,
            pending: probes.pending,
            bins: probes.bins,
        })
    }

    /// The planning instant this key was taken at.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.now_bits)
    }

    /// The replication count members of this cluster plan with.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Rebuild the cluster's representative intensity from the fingerprint.
    ///
    /// Each probe bin is decoded to the geometric midpoint of its
    /// quantization band (empty bins to rate zero), yielding a piecewise
    /// constant intensity over the probe grid. Beyond the grid the last
    /// bucket's rate extends as the tail, matching how the probe span was
    /// chosen to cover everything the round can consume. The representative
    /// depends only on the key, never on which member tenant built it.
    pub fn representative_intensity(&self) -> Result<PiecewiseConstantIntensity, NhppError> {
        let step = f64::from_bits(self.step_bits);
        let log_ratio = (1.0 + f64::from_bits(self.quant_bits)).ln();
        let rates: Vec<f64> = self
            .bins
            .iter()
            .map(|&bin| {
                if bin == i64::MIN {
                    0.0
                } else {
                    ((bin as f64 + 0.5) * log_ratio).exp() / step
                }
            })
            .collect();
        PiecewiseConstantIntensity::new(self.now(), step, rates)
    }

    /// Deterministic seed for the cluster's shared sampler in `round`.
    ///
    /// Folded from the key's own content with a SplitMix64 chain, so the
    /// shared arrival matrix is identical no matter how many workers run the
    /// round, which tenants belong to the cluster, or in what order they
    /// were discovered — and differs between rounds and between clusters.
    pub fn seed(&self, round: u64) -> u64 {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ round;
        let mut fold = |value: u64| {
            state = crate::fleet::splitmix64(state ^ value);
        };
        fold(self.now_bits);
        fold(self.step_bits);
        fold(self.quant_bits);
        fold(self.samples as u64);
        fold(self.rule.0 as u64);
        fold(self.rule.1);
        fold(self.pending.0 as u64);
        fold(self.pending.1);
        fold(self.pending.2);
        for &bin in &self.bins {
            fold(bin as u64);
        }
        state
    }
}

/// Plan-cache key: a content fingerprint of everything a scaler's
/// planning round depends on, *except* the absolute planning instant.
///
/// Every discrete planning input is pinned **exactly**: the forecast
/// model's fingerprint (the FNV-1a 64 checkpoints use — any refit, drift
/// refit or install changes it), the rule parameters, the pending-time
/// model, the replication count, the window length and the covered count.
/// The forecast itself is probed over the same grid as [`ClusterKey`] but
/// *relative to `now`*, and the probe masses are geometrically quantized at
/// the reuse layer's tolerance: two rounds produce equal keys exactly when
/// the model is unchanged and the forecast's shape over the upcoming
/// horizon, viewed from the planning instant, stayed within the
/// quantization band. Under those conditions the previous round's creation
/// times translate with the planning instant, so the cached
/// [`PlanningRound`] is time-shifted instead of resampled — the same
/// controlled-approximation contract as sharing, with the same knob
/// bounding the error.
///
/// The key is serializable: a scaler's cache entry is persisted in its
/// snapshot so kill-and-restore resumes bit-identically (a cache hit
/// consumes no RNG — an emptied cache after restore would diverge the
/// stream).
///
/// [`PlanningRound`]: robustscaler_scaling::PlanningRound
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanCacheKey {
    model: u64,
    interval_bits: u64,
    step_bits: u64,
    quant_bits: u64,
    samples: u64,
    covered: u64,
    rule: (u8, u64),
    pending: (u8, u64, u64),
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
        samples: usize,
        covered: usize,
        quantization: f64,
    ) -> Option<Self>
    where
        I: robustscaler_nhpp::Intensity + ?Sized,
    {
        let probes = Probes::of(forecast, now, interval, rule, pending, quantization)?;
        Some(Self {
            model,
            interval_bits: interval.to_bits(),
            step_bits: probes.step_bits,
            quant_bits: quantization.to_bits(),
            samples: samples as u64,
            covered: covered as u64,
            rule: probes.rule,
            pending: probes.pending,
            bins: probes.bins,
        })
    }
}

/// The probe-grid fingerprint [`ClusterKey`] and [`PlanCacheKey`] share:
/// the forecast mass over [`SHARING_PROBE_BUCKETS`] windows spanning
/// Δ + 4·max(lead, 1) from `now`, log-binned at `quantization`, plus the
/// rule and pending-model encodings.
struct Probes {
    step_bits: u64,
    rule: (u8, u64),
    pending: (u8, u64, u64),
    bins: [i64; SHARING_PROBE_BUCKETS],
}

impl Probes {
    /// `None` when the geometry degenerates (non-finite instant or probe
    /// step) or any probe mass is non-finite.
    fn of<I>(
        forecast: &I,
        now: f64,
        interval: f64,
        rule: &DecisionRule,
        pending: &PendingTimeModel,
        quantization: f64,
    ) -> Option<Self>
    where
        I: robustscaler_nhpp::Intensity + ?Sized,
    {
        let lead = pending.mean();
        let span = interval + 4.0 * lead.max(1.0);
        let step = span / SHARING_PROBE_BUCKETS as f64;
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
            step_bits: step.to_bits(),
            rule: match *rule {
                DecisionRule::HittingProbability { alpha } => (0, alpha.to_bits()),
                DecisionRule::ResponseTime { target_waiting } => (1, target_waiting.to_bits()),
                DecisionRule::CostBudget { target_idle } => (2, target_idle.to_bits()),
            },
            pending: match *pending {
                PendingTimeModel::Deterministic(delay) => (0, delay.to_bits(), 0),
                PendingTimeModel::LogNormal { mean, std_dev } => {
                    (1, mean.to_bits(), std_dev.to_bits())
                }
            },
            bins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_nhpp::Intensity;

    fn flat(rate: f64) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::new(0.0, 1e7, vec![rate]).unwrap()
    }

    fn key(rate: f64, quantization: f64) -> ClusterKey {
        ClusterKey::from_forecast(
            &flat(rate),
            100.0,
            10.0,
            &DecisionRule::HittingProbability { alpha: 0.1 },
            &PendingTimeModel::Deterministic(13.0),
            250,
            quantization,
        )
        .unwrap()
    }

    #[test]
    fn config_defaults_off_and_validates() {
        let config = SharingConfig::default();
        assert!(!config.enabled);
        assert!(!config.plan_cache);
        assert!(config.validate().is_ok());
        let on = SharingConfig::on();
        assert!(on.enabled && on.plan_cache);
        let only = SharingConfig::sharing_only();
        assert!(only.enabled && !only.plan_cache);
        let bad = SharingConfig {
            enabled: true,
            quantization: 0.0,
            ..SharingConfig::default()
        };
        assert!(bad.validate().is_err());
        let nan = SharingConfig {
            enabled: true,
            quantization: f64::NAN,
            ..SharingConfig::default()
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
            250,
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

    #[test]
    fn near_identical_forecasts_share_a_key_and_distinct_ones_do_not() {
        // 1% apart clusters together at 5% quantization...
        assert_eq!(key(2.0, 0.05), key(2.02, 0.05));
        // ...but well-separated rates do not.
        assert_ne!(key(2.0, 0.05), key(2.5, 0.05));
        // Tighter quantization splits the near-identical pair.
        assert_ne!(key(2.0, 0.001), key(2.02, 0.001));
    }

    #[test]
    fn key_covers_every_decision_parameter() {
        let base = key(2.0, 0.05);
        let other_rule = ClusterKey::from_forecast(
            &flat(2.0),
            100.0,
            10.0,
            &DecisionRule::ResponseTime {
                target_waiting: 2.0,
            },
            &PendingTimeModel::Deterministic(13.0),
            250,
            0.05,
        )
        .unwrap();
        assert_ne!(base, other_rule);
        let other_pending = ClusterKey::from_forecast(
            &flat(2.0),
            100.0,
            10.0,
            &DecisionRule::HittingProbability { alpha: 0.1 },
            &PendingTimeModel::LogNormal {
                mean: 13.0,
                std_dev: 1.0,
            },
            250,
            0.05,
        )
        .unwrap();
        assert_ne!(base, other_pending);
        let other_samples = ClusterKey::from_forecast(
            &flat(2.0),
            100.0,
            10.0,
            &DecisionRule::HittingProbability { alpha: 0.1 },
            &PendingTimeModel::Deterministic(13.0),
            500,
            0.05,
        )
        .unwrap();
        assert_ne!(base, other_samples);
        let other_now = ClusterKey::from_forecast(
            &flat(2.0),
            110.0,
            10.0,
            &DecisionRule::HittingProbability { alpha: 0.1 },
            &PendingTimeModel::Deterministic(13.0),
            250,
            0.05,
        )
        .unwrap();
        assert_ne!(base, other_now);
    }

    #[test]
    fn representative_intensity_stays_inside_the_quantization_band() {
        for &rate in &[0.01, 0.5, 2.0, 37.0] {
            let k = key(rate, 0.05);
            let rep = k.representative_intensity().unwrap();
            // Probe the grid: each bucket's reconstructed mass must sit
            // within one quantization step of the true mass.
            let step = (10.0 + 4.0 * 13.0) / SHARING_PROBE_BUCKETS as f64;
            for j in 0..SHARING_PROBE_BUCKETS {
                let from = 100.0 + j as f64 * step;
                let truth = rate * step;
                let got = rep.integrated(from, from + step);
                let ratio = got / truth;
                assert!(
                    ratio > 1.0 / 1.06 && ratio < 1.06,
                    "rate {rate} bucket {j}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn empty_forecast_reconstructs_to_zero_rate() {
        let k = key(0.0, 0.05);
        let rep = k.representative_intensity().unwrap();
        assert_eq!(rep.integrated(100.0, 200.0), 0.0);
    }

    #[test]
    fn seed_is_content_deterministic_and_round_sensitive() {
        let a = key(2.0, 0.05);
        let b = key(2.0, 0.05);
        assert_eq!(a.seed(7), b.seed(7));
        assert_ne!(a.seed(7), a.seed(8));
        assert_ne!(a.seed(7), key(2.5, 0.05).seed(7));
    }
}
