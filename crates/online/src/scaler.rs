//! The per-tenant online scaler: continuous ingestion, drift-triggered
//! rolling refits, and per-round scaling plans.
//!
//! [`OnlineScaler`] is the serving-loop counterpart of the offline
//! `RobustScalerPolicy`: instead of training once on a frozen trace, it
//! ingests arrivals incrementally into a bounded
//! [`CountRing`], refits the NHPP from
//! ring snapshots — on a schedule, or early when the observed traffic
//! drifts away from the forecast — and emits one scaling plan per round
//! through the zero-copy `plan_window_with` machinery.
//!
//! Determinism contract: all Monte Carlo randomness is drawn from the
//! scaler's own seeded RNG, so a fixed (seed, ingestion sequence, round
//! sequence) produces bit-identical plans regardless of how many worker
//! threads the surrounding fleet uses.

use crate::error::OnlineError;
use crate::replay::{model_fingerprint, RefitTrigger, ScalerEvent};
use crate::sharing::{ClusterKey, PlanCacheKey, SharingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler_core::{RobustScalerConfig, RobustScalerPipeline};
use robustscaler_nhpp::{
    Forecaster, ForecasterSnapshot, Intensity, NhppModel, PiecewiseConstantIntensity,
};
use robustscaler_scaling::{
    ArrivalSampler, DecisionConfig, PlannerConfig, PlannerScratch, PlannerState, PlanningRound,
    SequentialPlanner,
};
use robustscaler_timeseries::{CountRing, RingSnapshot};
use serde::{Deserialize, Serialize};

/// Configuration of an [`OnlineScaler`] on top of the offline pipeline
/// configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// The underlying pipeline configuration (bucket width, variant, ADMM,
    /// forecast, planner and Monte Carlo settings).
    pub pipeline: RobustScalerConfig,
    /// Ring capacity: how many Δt buckets of history are retained and used
    /// for refits (the rolling training window).
    pub window_buckets: usize,
    /// Complete buckets required before the first model fit.
    pub min_training_buckets: usize,
    /// Seconds between scheduled rolling refits.
    pub refit_interval: f64,
    /// Relative deviation between observed and forecast arrivals (over
    /// [`OnlineConfig::drift_window`]) that triggers an early refit.
    pub drift_threshold: f64,
    /// Seconds of recent history the drift detector compares against the
    /// forecast.
    pub drift_window: f64,
}

impl OnlineConfig {
    /// Serving defaults on top of a pipeline configuration: a 2-day rolling
    /// window, first fit after one hour of complete buckets, scheduled
    /// refits every 30 minutes, drift checked over the trailing 10 minutes.
    pub fn new(pipeline: RobustScalerConfig) -> Self {
        Self {
            pipeline,
            window_buckets: 2_880,
            min_training_buckets: 60,
            refit_interval: 1_800.0,
            drift_threshold: 0.5,
            drift_window: 600.0,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), OnlineError> {
        self.pipeline.validate()?;
        if self.min_training_buckets < 10 {
            return Err(OnlineError::InvalidConfig(
                "min_training_buckets must be >= 10 (the pipeline's training floor)",
            ));
        }
        if self.window_buckets < self.min_training_buckets {
            return Err(OnlineError::InvalidConfig(
                "window_buckets must be >= min_training_buckets",
            ));
        }
        if !(self.refit_interval > 0.0) || !self.refit_interval.is_finite() {
            return Err(OnlineError::InvalidConfig(
                "refit_interval must be finite and > 0",
            ));
        }
        if !(self.drift_threshold > 0.0) || !self.drift_threshold.is_finite() {
            return Err(OnlineError::InvalidConfig(
                "drift_threshold must be finite and > 0",
            ));
        }
        if !(self.drift_window > 0.0) || !self.drift_window.is_finite() {
            return Err(OnlineError::InvalidConfig(
                "drift_window must be finite and > 0",
            ));
        }
        Ok(())
    }
}

/// Serving-loop counters exposed for observability and tests.
///
/// `Deserialize` is hand-written: the counters persist inside
/// [`ScalerSnapshot`]s, and snapshots written before
/// [`OnlineStats::shared_planning_rounds`] or
/// [`OnlineStats::plan_cache_hits`] existed must load with those counters
/// at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct OnlineStats {
    /// Arrivals accepted into the ring.
    pub arrivals_ingested: u64,
    /// Arrivals dropped (before the retained window).
    pub arrivals_dropped: u64,
    /// Model refits, total (first fit included).
    pub refits: u64,
    /// Refits triggered early by drift detection.
    pub drift_refits: u64,
    /// Planning rounds that ran the Monte Carlo optimizer.
    pub planning_rounds: u64,
    /// Planning rounds skipped by the cheap sufficiency check.
    pub skipped_rounds: u64,
    /// Planning rounds that errored (recorded by serving adapters such as
    /// `OnlinePolicy`, which swallow the error to keep serving but must not
    /// leave persistent failure invisible).
    pub failed_rounds: u64,
    /// Planning rounds (a subset of [`OnlineStats::planning_rounds`]) that
    /// planned against a cluster-shared arrival-sample matrix instead of
    /// sampling privately — the observability hook proving cross-tenant
    /// sharing actually engaged (see [`crate::sharing`]).
    pub shared_planning_rounds: u64,
    /// Rounds served by time-shifting the memoized previous plan instead of
    /// re-running Monte Carlo (Layer 2 plan reuse, see
    /// [`crate::sharing::PlanCacheKey`]). Deliberately *not* counted into
    /// [`OnlineStats::planning_rounds`]: a cache hit runs no optimizer and
    /// consumes no RNG.
    pub plan_cache_hits: u64,
}

impl Deserialize for OnlineStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let require = |key: &str| match v.get(key) {
            Some(value) => Deserialize::from_value(value),
            None => Err(serde::Error::msg(format!(
                "missing field `{key}` in OnlineStats"
            ))),
        };
        Ok(Self {
            arrivals_ingested: require("arrivals_ingested")?,
            arrivals_dropped: require("arrivals_dropped")?,
            refits: require("refits")?,
            drift_refits: require("drift_refits")?,
            planning_rounds: require("planning_rounds")?,
            skipped_rounds: require("skipped_rounds")?,
            failed_rounds: require("failed_rounds")?,
            shared_planning_rounds: match v.get("shared_planning_rounds") {
                Some(value) => Deserialize::from_value(value)?,
                None => 0,
            },
            plan_cache_hits: match v.get("plan_cache_hits") {
                Some(value) => Deserialize::from_value(value)?,
                None => 0,
            },
        })
    }
}

/// Format version written by [`OnlineScaler::snapshot`]; bump on any layout
/// change and keep [`OnlineScaler::restore`] reading versions still present
/// in fleet checkpoints.
pub const SCALER_SNAPSHOT_VERSION: u32 = 1;

/// A serializable, version-tagged copy of everything that makes an
/// [`OnlineScaler`] resume bit-identically: the ingestion ring, the
/// installed model (with its forecast configuration), the RNG's exact
/// position in its stream, the serving counters, the refit schedule, and
/// the forecast-cache anchor.
///
/// The forecast cache itself is *not* stored: it is a pure function of
/// (model, `cached_forecast_from`, horizon), so [`OnlineScaler::restore`]
/// recomputes it bit-identically from the anchor. Everything else the
/// scaler holds (pipeline, planner, scratch buffers) is either derived from
/// the configuration passed to `restore` or has no observable effect on
/// plans (scratch reuse is pinned bit-identical by the PR 2 proptests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalerSnapshot {
    /// Snapshot format version ([`SCALER_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The tenant's RNG seed (`config.pipeline.seed` at snapshot time), so
    /// a restored scaler re-snapshots identically.
    pub seed: u64,
    /// The ingestion ring.
    pub ring: RingSnapshot,
    /// The installed model and forecast configuration, if fitted.
    pub forecaster: Option<ForecasterSnapshot>,
    /// The RNG's full state — the Monte Carlo stream resumes exactly where
    /// the snapshotted scaler left it.
    pub rng_state: [u64; 4],
    /// Serving-loop counters.
    pub stats: OnlineStats,
    /// When the last refit ran; `None` encodes "never" (the in-memory
    /// sentinel is `-inf`, which JSON cannot carry).
    pub last_refit_at: Option<f64>,
    /// Start time of the cached forecast, if one was live; the cache is
    /// recomputed from this anchor on restore.
    pub cached_forecast_from: Option<f64>,
    /// The memoized last planning round (Layer 2 plan reuse), if one was
    /// live. Persisted — not rebuilt — because a cache hit consumes no RNG:
    /// a restored scaler that re-planned where the original would have hit
    /// would advance its Monte Carlo stream differently and diverge.
    /// Absent in snapshots written before plan reuse existed (they load
    /// with an empty cache, which is exact: those scalers never hit).
    pub plan_cache: Option<PlanCacheEntry>,
}

/// One memoized planning round: the content key it was planned under, the
/// planning instant it is anchored at, and the round itself (see
/// [`crate::sharing::PlanCacheKey`] for the reuse contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCacheEntry {
    /// The content fingerprint of the round's planning inputs.
    pub key: PlanCacheKey,
    /// The planning instant the cached round was computed at. Hits shift
    /// the cached decisions by `now - this` — always from the original
    /// anchor, never hit-over-hit, so repeated hits stay bit-deterministic.
    pub now: f64,
    /// The cached planning round.
    pub round: PlanningRound,
}

/// Outcome of the first half of a planning round (see
/// [`OnlineScaler::prepare_round`]).
#[derive(Debug)]
pub(crate) enum RoundPrep {
    /// The sufficiency check skipped the Monte Carlo stage — the round is
    /// already finished.
    Skip(PlanningRound),
    /// The plan cache served the round (Layer 2 reuse): the memoized
    /// previous plan, time-shifted to this instant. No Monte Carlo ran and
    /// no RNG was consumed.
    Cached(PlanningRound),
    /// The Monte Carlo stage still has to run (privately via
    /// [`OnlineScaler::plan_prepared`], or against a shared cluster sampler
    /// via [`OnlineScaler::plan_shared`]).
    Plan,
}

/// A continuously serving, incrementally refitting scaler for one tenant.
#[derive(Debug, Clone)]
pub struct OnlineScaler {
    config: OnlineConfig,
    pipeline: RobustScalerPipeline,
    planner: SequentialPlanner,
    ring: CountRing,
    rng: StdRng,
    scratch: PlannerScratch,
    forecaster: Option<Forecaster>,
    cached_forecast: Option<PiecewiseConstantIntensity>,
    /// Anchor of the cached forecast (what `refresh_forecast` passed as
    /// `from`). Tracked explicitly — not derivable from `cached_until`
    /// without floating-point error — so snapshots can rebuild the cache
    /// bit-identically.
    cached_from: Option<f64>,
    cached_until: f64,
    last_refit_at: f64,
    stats: OnlineStats,
    /// Whether refits and installs are captured as trace events. Not part
    /// of snapshots: a restored scaler starts with tracing off and the
    /// recording driver re-enables it.
    tracing: bool,
    trace_events: Vec<ScalerEvent>,
    /// Layer 2 plan reuse: `Some(quantization)` when the round-over-round
    /// plan cache is armed. Runtime wiring like `tracing` — not persisted;
    /// a restored scaler starts with reuse off (its cache intact but
    /// unreachable) until the driver re-arms it.
    plan_reuse: Option<f64>,
    /// The memoized last planning round, when one is live.
    plan_cache: Option<PlanCacheEntry>,
    /// The key computed by the last [`OnlineScaler::prepare_round`] that
    /// missed, waiting for the planned round to populate the cache.
    plan_cache_pending: Option<(PlanCacheKey, f64)>,
    /// FNV-1a 64 fingerprint of the installed model (what
    /// [`PlanCacheKey`] pins); refreshed on every refit/install.
    model_print: Option<u64>,
}

impl OnlineScaler {
    /// Create a scaler whose bucket grid is anchored at `origin` (the
    /// tenant's serving start time). RNG seeding comes from the pipeline
    /// configuration's `seed`.
    pub fn new(config: OnlineConfig, origin: f64) -> Result<Self, OnlineError> {
        config.validate()?;
        let pipeline = RobustScalerPipeline::new(config.pipeline)?;
        let rule = config.pipeline.variant.to_rule(
            config.pipeline.mean_processing,
            config.pipeline.pending.mean(),
        )?;
        let planner = SequentialPlanner::new(PlannerConfig {
            decision: DecisionConfig {
                rule,
                pending: config.pipeline.pending,
                monte_carlo_samples: config.pipeline.monte_carlo_samples,
            },
            planning_interval: config.pipeline.planning_interval,
            max_decisions_per_round: config.pipeline.max_decisions_per_round,
        })?;
        let ring = CountRing::new(origin, config.pipeline.bucket_width, config.window_buckets)?;
        Ok(Self {
            rng: StdRng::seed_from_u64(config.pipeline.seed),
            config,
            pipeline,
            planner,
            ring,
            scratch: PlannerScratch::new(),
            forecaster: None,
            cached_forecast: None,
            cached_from: None,
            cached_until: f64::NEG_INFINITY,
            last_refit_at: f64::NEG_INFINITY,
            stats: OnlineStats::default(),
            tracing: false,
            trace_events: Vec::new(),
            plan_reuse: None,
            plan_cache: None,
            plan_cache_pending: None,
            model_print: None,
        })
    }

    /// [`OnlineScaler::new`] with an explicit RNG seed (the fleet derives a
    /// distinct deterministic seed per tenant).
    pub fn with_seed(
        mut config: OnlineConfig,
        origin: f64,
        seed: u64,
    ) -> Result<Self, OnlineError> {
        config.pipeline.seed = seed;
        Self::new(config, origin)
    }

    /// The configuration in use.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Serving-loop counters.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Record that a serving round errored and was skipped by the caller
    /// (adapters that swallow [`OnlineScaler::plan_round`] errors to keep
    /// serving call this so the failure stays observable).
    pub fn record_failed_round(&mut self) {
        self.stats.failed_rounds += 1;
    }

    /// The ingestion ring (observability: retained window, drop counters).
    pub fn ring(&self) -> &CountRing {
        &self.ring
    }

    /// Whether a model has been fitted yet.
    pub fn has_model(&self) -> bool {
        self.forecaster.is_some()
    }

    /// The current fitted model, if any.
    pub fn model(&self) -> Option<&NhppModel> {
        self.forecaster.as_ref().map(Forecaster::model)
    }

    /// When the last refit (or model install) ran; `None` before the first.
    pub fn last_refit_at(&self) -> Option<f64> {
        self.last_refit_at.is_finite().then_some(self.last_refit_at)
    }

    /// Enable or disable trace-event capture. Enabling clears any stale
    /// events; disabling leaves buffered events intact so a recorder being
    /// detached can still flush them.
    pub fn set_tracing(&mut self, on: bool) {
        if on && !self.tracing {
            self.trace_events.clear();
        }
        self.tracing = on;
    }

    /// Drain the trace events (refits with their trigger, model installs)
    /// captured since the last call. Empty unless tracing is enabled.
    pub fn take_trace_events(&mut self) -> Vec<ScalerEvent> {
        std::mem::take(&mut self.trace_events)
    }

    /// Arm Layer 2 plan reuse (the round-over-round plan cache) at the
    /// given geometric forecast tolerance — see
    /// [`crate::sharing::PlanCacheKey`] for the contract.
    ///
    /// Runtime wiring like tracing: not persisted in snapshots. Arming
    /// keeps any cache loaded by [`OnlineScaler::restore`], so a restored
    /// and re-armed scaler continues bit-identically to one that never
    /// stopped.
    pub fn enable_plan_reuse(&mut self, quantization: f64) -> Result<(), OnlineError> {
        if !quantization.is_finite() || quantization <= 0.0 {
            return Err(OnlineError::InvalidConfig(
                "plan reuse quantization must be finite and > 0",
            ));
        }
        self.plan_reuse = Some(quantization);
        Ok(())
    }

    /// Disarm plan reuse and drop the memoized round: after this call no
    /// cached plan is reachable, by construction.
    pub fn disable_plan_reuse(&mut self) {
        self.plan_reuse = None;
        self.plan_cache = None;
        self.plan_cache_pending = None;
    }

    /// The armed plan-reuse tolerance, if any.
    pub fn plan_reuse(&self) -> Option<f64> {
        self.plan_reuse
    }

    /// Ingest one arrival timestamp.
    pub fn ingest(&mut self, arrival: f64) {
        if self.ring.observe(arrival) {
            self.stats.arrivals_ingested += 1;
        } else {
            self.stats.arrivals_dropped += 1;
        }
    }

    /// Ingest a batch of arrival timestamps through the ring's bulk append.
    ///
    /// This is the serving fast path the arrival queues drain into: one
    /// [`CountRing::observe_batch`] call per batch instead of a per-arrival
    /// `observe`, with the acceptance/drop accounting amortized to two
    /// counter updates. The outcome — ring contents, counters, and every
    /// drift/refit decision taken at the next round boundary — is
    /// bit-identical to calling [`OnlineScaler::ingest`] on each element in
    /// order (the per-arrival loop is kept as the reference implementation
    /// in the tests, and the equivalence is proptest-pinned in
    /// `tests/online_props.rs`).
    pub fn ingest_batch(&mut self, arrivals: &[f64]) {
        let accepted = self.ring.observe_batch(arrivals);
        self.stats.arrivals_ingested += accepted as u64;
        self.stats.arrivals_dropped += (arrivals.len() - accepted) as u64;
    }

    /// Install an externally fitted model (warm start from persisted state,
    /// or synthetic models in benches) without consuming ring history.
    pub fn install_model(&mut self, model: NhppModel, now: f64) -> Result<(), OnlineError> {
        if self.tracing {
            self.trace_events.push(ScalerEvent::Install {
                at: now,
                fingerprint: model_fingerprint(&model),
                model: model.clone(),
            });
        }
        let print = fingerprint64(&model);
        match &mut self.forecaster {
            Some(f) => f.refresh(model),
            None => {
                self.forecaster = Some(
                    Forecaster::new(model, self.config.pipeline.forecast)
                        .map_err(robustscaler_core::CoreError::from)?,
                );
            }
        }
        self.cached_forecast = None;
        self.cached_from = None;
        self.cached_until = f64::NEG_INFINITY;
        self.invalidate_plan_cache(print);
        self.last_refit_at = now;
        Ok(())
    }

    /// Refit the NHPP from the ring's complete buckets at `now` and swap it
    /// into the forecaster.
    pub fn refit_now(&mut self, now: f64) -> Result<(), OnlineError> {
        self.refit_with_trigger(now, RefitTrigger::Explicit)
    }

    /// Forced refit as a supervised probe's recovery action. Identical to
    /// [`OnlineScaler::refit_now`] except the trace event carries the
    /// `Probe` trigger, so replay validates it in-round instead of
    /// re-executing it as a driver action.
    pub(crate) fn probe_refit(&mut self, now: f64) -> Result<(), OnlineError> {
        self.refit_with_trigger(now, RefitTrigger::Probe)
    }

    fn refit_with_trigger(&mut self, now: f64, trigger: RefitTrigger) -> Result<(), OnlineError> {
        self.ring.advance_to(now);
        let snapshot = self.ring.series_complete(now)?;
        let trained = self.pipeline.train_on_counts(snapshot)?;
        if self.tracing {
            self.trace_events.push(ScalerEvent::Refit {
                at: now,
                trigger,
                fingerprint: model_fingerprint(&trained.model),
            });
        }
        let print = fingerprint64(&trained.model);
        match &mut self.forecaster {
            Some(f) => f.refresh(trained.model),
            None => self.forecaster = Some(trained.forecaster(self.pipeline.config())?),
        }
        self.cached_forecast = None;
        self.cached_from = None;
        self.cached_until = f64::NEG_INFINITY;
        self.invalidate_plan_cache(print);
        self.last_refit_at = now;
        self.stats.refits += 1;
        Ok(())
    }

    /// Model changed (refit, drift refit, install, restore): the memoized
    /// plan and any pending key are stale by definition — drop them and pin
    /// the new model fingerprint future keys are built from.
    fn invalidate_plan_cache(&mut self, print: u64) {
        self.plan_cache = None;
        self.plan_cache_pending = None;
        self.model_print = Some(print);
    }

    /// Refit if due: first fit once enough complete buckets exist, then on
    /// the refit schedule, then early when drift is detected. Returns
    /// whether a refit ran.
    pub fn maybe_refit(&mut self, now: f64) -> Result<bool, OnlineError> {
        self.ring.advance_to(now);
        let complete = self.ring.complete_len(now);
        if self.forecaster.is_none() {
            if complete >= self.config.min_training_buckets {
                self.refit_with_trigger(now, RefitTrigger::First)?;
                return Ok(true);
            }
            return Ok(false);
        }
        if complete >= self.config.min_training_buckets.max(10) {
            if now - self.last_refit_at >= self.config.refit_interval {
                self.refit_with_trigger(now, RefitTrigger::Scheduled)?;
                return Ok(true);
            }
            if self.drift_detected(now) {
                self.refit_with_trigger(now, RefitTrigger::Drift)?;
                self.stats.drift_refits += 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Compare observed arrivals over the trailing drift window against the
    /// forecast's expectation; Poisson noise gets a 3σ allowance so quiet
    /// tenants don't refit on every planning tick.
    fn drift_detected(&self, now: f64) -> bool {
        let Some(forecaster) = &self.forecaster else {
            return false;
        };
        let dt = self.config.pipeline.bucket_width;
        let hi = self.ring.start() + self.ring.complete_len(now) as f64 * dt;
        let lo = (now - self.config.drift_window)
            .max(self.ring.start())
            .max(forecaster.model().start());
        if hi - lo < 2.0 * dt {
            return false;
        }
        let observed = self.ring.count_between(lo, hi);
        let Ok(forecast) = forecaster.forecast(lo, hi - lo) else {
            return false;
        };
        let expected = forecast.integrated(lo, hi);
        (observed - expected).abs()
            > self.config.drift_threshold * expected + 3.0 * (expected + 1.0).sqrt()
    }

    fn refresh_forecast(&mut self, now: f64) -> Result<(), OnlineError> {
        let forecaster = self.forecaster.as_ref().ok_or(OnlineError::NotTrained)?;
        let needs_refresh = self.cached_forecast.is_none()
            || now + self.config.pipeline.planning_interval > self.cached_until;
        if needs_refresh {
            let from = now.max(forecaster.model().start());
            let forecast = forecaster
                .forecast(from, self.config.pipeline.forecast_horizon)
                .map_err(robustscaler_core::CoreError::from)?;
            self.cached_from = Some(from);
            self.cached_until = from + self.config.pipeline.forecast_horizon;
            self.cached_forecast = Some(forecast);
        }
        Ok(())
    }

    /// Cheap sufficiency check mirroring the offline policy: skip the Monte
    /// Carlo planning when the instances already on the way clearly cover
    /// everything the forecast expects within the window plus startup lead.
    fn clearly_covered(&self, now: f64, covered: usize) -> bool {
        let Some(forecast) = &self.cached_forecast else {
            return false;
        };
        let lead = self.config.pipeline.pending.mean().max(1.0);
        let horizon_end = now + self.config.pipeline.planning_interval + 2.0 * lead;
        let expected = forecast.integrated(now, horizon_end);
        let slack = 4.0 * (expected + 1.0).sqrt() + 2.0;
        (covered as f64) >= expected + slack
    }

    /// How long this scaler can sleep from `now` before anything about its
    /// rounds could change — the quiescence predicate behind the fleet's
    /// hot/cold residency tiers.
    ///
    /// Returns `Some(wake_at)` when the tenant is quiescent: the forecast
    /// expects no arrivals (≤ `epsilon` per planning window, with startup
    /// lead) until `wake_at`, and no refit is due before it either. The
    /// fleet may skip this tenant's rounds entirely until `wake_at` (or an
    /// actual arrival, whichever is first) without changing any future
    /// output. `Some(f64::INFINITY)` means nothing will ever happen without
    /// external input — the untrained, never-fed case. `None` means the
    /// tenant is active now (expected arrivals in the upcoming window, a
    /// forecast failure, or a wake deadline that has already passed).
    ///
    /// The method is `&self` and touches no mutable state: calling it never
    /// perturbs the determinism contract.
    pub fn quiescence_horizon(&self, now: f64, epsilon: f64) -> Option<f64> {
        let Some(forecaster) = &self.forecaster else {
            // No model: nothing to plan with. A tenant that has never seen
            // an arrival stays NotTrained forever without input; one with
            // buffered history may still reach its first fit as time passes.
            return (self.stats.arrivals_ingested == 0).then_some(f64::INFINITY);
        };
        // The scheduled refit is a state change even with an empty ring, so
        // quiescence can never outlast it.
        let refit_due = self.last_refit_at + self.config.refit_interval;
        if refit_due <= now {
            return None;
        }
        let lead = self.config.pipeline.pending.mean().max(1.0);
        let window = self.config.pipeline.planning_interval + 2.0 * lead;
        let from = now.max(forecaster.model().start());
        let Ok(forecast) = forecaster.forecast(from, self.config.pipeline.forecast_horizon) else {
            return None;
        };
        let horizon_end = from + self.config.pipeline.forecast_horizon;
        // Scan forward window by window for the first expected activity;
        // wake one window early so the tenant is resident (forecast warm,
        // coverage planned) before the arrivals land.
        let mut k: u64 = 0;
        loop {
            let lo = now + k as f64 * window;
            if lo >= horizon_end {
                // Nothing expected within the whole forecast horizon; sleep
                // until the scheduled refit extends it.
                return Some(refit_due);
            }
            let clipped_lo = lo.max(from);
            let hi = (lo + window).min(horizon_end);
            let expected = if hi > clipped_lo {
                forecast.integrated(clipped_lo, hi)
            } else {
                0.0
            };
            if expected > epsilon {
                if k == 0 {
                    return None;
                }
                let wake_at = (now + (k - 1) as f64 * window).min(refit_due);
                return (wake_at > now).then_some(wake_at);
            }
            k += 1;
        }
    }

    /// Run one serving round at `now`: advance the ring, refit if due,
    /// refresh the forecast, and plan the creations that must start within
    /// the next planning window. `covered` is the number of upcoming
    /// arrivals already covered by scheduled/pending/ready instances.
    pub fn plan_round(&mut self, now: f64, covered: usize) -> Result<PlanningRound, OnlineError> {
        match self.prepare_round(now, covered)? {
            RoundPrep::Skip(round) | RoundPrep::Cached(round) => Ok(round),
            RoundPrep::Plan => self.plan_prepared(now, covered),
        }
    }

    /// First half of [`OnlineScaler::plan_round`]: advance the ring, refit
    /// if due, refresh the forecast, and run the cheap sufficiency check.
    ///
    /// Returns [`RoundPrep::Skip`] with the finished (empty) round when the
    /// Monte Carlo stage can be skipped, or [`RoundPrep::Plan`] when the
    /// caller must follow up with [`OnlineScaler::plan_prepared`] (or the
    /// shared-sampler pair [`OnlineScaler::cluster_key`] +
    /// [`OnlineScaler::plan_shared`]). `prepare_round` followed immediately
    /// by `plan_prepared` is bit-identical to `plan_round`; the split exists
    /// so a fleet can interleave the phases across tenants and batch the
    /// expensive sampling by forecast cluster.
    pub(crate) fn prepare_round(
        &mut self,
        now: f64,
        covered: usize,
    ) -> Result<RoundPrep, OnlineError> {
        self.maybe_refit(now)?;
        self.refresh_forecast(now)?;
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("refresh_forecast populated the cache");
        if self.clearly_covered(now, covered) {
            self.stats.skipped_rounds += 1;
            let window_end = now + self.config.pipeline.planning_interval;
            return Ok(RoundPrep::Skip(PlanningRound {
                decisions: Vec::new(),
                expected_arrivals_in_window: forecast.integrated(now, window_end),
            }));
        }
        // Layer 2 plan reuse: when the content key of this round's inputs
        // matches the memoized round's, serve the cached plan time-shifted
        // to `now` (no Monte Carlo, no RNG). A miss leaves the key pending
        // so the planned round populates the cache.
        self.plan_cache_pending = None;
        if let Some(quantization) = self.plan_reuse {
            if let Some(key) = self.plan_cache_key(now, covered, quantization) {
                let hit = self.plan_cache.as_ref().filter(|e| e.key == key).map(|e| {
                    let forecast = self
                        .cached_forecast
                        .as_ref()
                        .expect("refresh_forecast populated the cache");
                    let window_end = now + self.config.pipeline.planning_interval;
                    e.round
                        .shifted_by(now - e.now, forecast.integrated(now, window_end))
                });
                if let Some(round) = hit {
                    self.stats.plan_cache_hits += 1;
                    return Ok(RoundPrep::Cached(round));
                }
                self.plan_cache_pending = Some((key, now));
            }
        }
        Ok(RoundPrep::Plan)
    }

    /// The Layer 2 content key of a round's planning inputs; `None` when no
    /// forecast/model is live or the probe geometry degenerates (the round
    /// then plans normally and caches nothing).
    fn plan_cache_key(&self, now: f64, covered: usize, quantization: f64) -> Option<PlanCacheKey> {
        let forecast = self.cached_forecast.as_ref()?;
        let model = self.model_print?;
        let decision = &self.planner.config().decision;
        PlanCacheKey::from_forecast(
            forecast,
            model,
            now,
            self.config.pipeline.planning_interval,
            &decision.rule,
            &decision.pending,
            decision.monte_carlo_samples,
            covered,
            quantization,
        )
    }

    /// Populate the plan cache from a just-planned round when a key is
    /// pending (reuse armed and this round's `prepare_round` missed).
    fn store_plan_cache(&mut self, round: &PlanningRound) {
        if self.plan_reuse.is_some() {
            if let Some((key, at)) = self.plan_cache_pending.take() {
                self.plan_cache = Some(PlanCacheEntry {
                    key,
                    now: at,
                    round: round.clone(),
                });
            }
        }
    }

    /// Second half of [`OnlineScaler::plan_round`]: the private Monte Carlo
    /// planning stage. Must follow a [`RoundPrep::Plan`] from
    /// [`OnlineScaler::prepare_round`] at the same `now`.
    pub(crate) fn plan_prepared(
        &mut self,
        now: f64,
        covered: usize,
    ) -> Result<PlanningRound, OnlineError> {
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("prepare_round refreshed the forecast");
        let round = self.planner.plan_window_with(
            forecast,
            now,
            PlannerState { covered },
            &mut self.rng,
            &mut self.scratch,
        )?;
        self.stats.planning_rounds += 1;
        self.store_plan_cache(&round);
        Ok(round)
    }

    /// Fingerprint this tenant's current forecast for cross-tenant shared
    /// sampling. `None` when sharing is disabled, no forecast is cached, or
    /// the probe geometry degenerates — the tenant then plans privately.
    pub(crate) fn cluster_key(&self, now: f64, sharing: &SharingConfig) -> Option<ClusterKey> {
        if !sharing.enabled {
            return None;
        }
        let forecast = self.cached_forecast.as_ref()?;
        let decision = &self.planner.config().decision;
        ClusterKey::from_forecast(
            forecast,
            now,
            self.config.pipeline.planning_interval,
            &decision.rule,
            &decision.pending,
            decision.monte_carlo_samples,
            sharing.quantization,
        )
    }

    /// How many arrival rows this tenant wants from a shared cluster matrix
    /// at `now`.
    ///
    /// Deliberately more generous than the private planner's initial
    /// horizon guess (30% headroom plus a constant, against 5% plus a
    /// constant): a shared matrix cannot be extended per tenant, and a
    /// shortfall forces a full private replan instead of a cheap
    /// `extend_horizon`. Never exceeds the hard per-round decision ceiling.
    pub(crate) fn shared_sampling_demand(&self, now: f64, covered: usize) -> usize {
        let config = self.planner.config();
        let cap = covered + config.max_decisions_per_round;
        let lead = config.decision.pending.mean();
        let window_end = now + config.planning_interval;
        let expected = self
            .cached_forecast
            .as_ref()
            .map(|forecast| forecast.integrated(now, window_end + lead))
            .unwrap_or(0.0);
        (covered + (1.3 * expected).ceil() as usize + 8).min(cap)
    }

    /// Attempt the second half of a round against a shared cluster sampler.
    ///
    /// `Ok(Some(round))` completes the round (counted as a planning round);
    /// `Ok(None)` means the shared matrix could not serve this tenant
    /// (origin/replication mismatch or horizon shortfall) and the caller
    /// must fall back to [`OnlineScaler::plan_prepared`].
    pub(crate) fn plan_shared(
        &mut self,
        now: f64,
        covered: usize,
        sampler: &ArrivalSampler,
    ) -> Result<Option<PlanningRound>, OnlineError> {
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("prepare_round refreshed the forecast");
        let round = self.planner.plan_window_shared(
            forecast,
            sampler,
            now,
            PlannerState { covered },
            &mut self.rng,
            &mut self.scratch,
        )?;
        if let Some(round) = &round {
            self.stats.planning_rounds += 1;
            self.stats.shared_planning_rounds += 1;
            self.store_plan_cache(round);
        }
        Ok(round)
    }

    /// Adopt a plan-group leader's decision schedule (Layer 1 decision
    /// dedup). Must follow a [`RoundPrep::Plan`] from
    /// [`OnlineScaler::prepare_round`] at the same `now`, and is only sound
    /// when this tenant shares the leader's [`crate::sharing::ClusterKey`]
    /// and covered count under a deterministic pending model: the decision loop then consumes
    /// no RNG and its output depends only on (shared sampler, rule,
    /// pending, covered), all pinned equal by the key — so adopting is
    /// bit-identical to running [`OnlineScaler::plan_shared`] ourselves,
    /// and the bookkeeping (counters, plan-cache population) mirrors it
    /// exactly. Only `expected_arrivals_in_window` is ours: it comes from
    /// this tenant's own forecast, which the plan key deliberately does not
    /// pin.
    pub(crate) fn adopt_shared(&mut self, now: f64, leader: &PlanningRound) -> PlanningRound {
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("prepare_round refreshed the forecast");
        let window_end = now + self.config.pipeline.planning_interval;
        let round = leader.adopted_with_expected(forecast.integrated(now, window_end));
        self.stats.planning_rounds += 1;
        self.stats.shared_planning_rounds += 1;
        self.store_plan_cache(&round);
        round
    }

    /// Capture the scaler's full serving state as a serializable,
    /// version-tagged [`ScalerSnapshot`].
    ///
    /// The contract (pinned by the persistence proptests): restoring the
    /// snapshot with the same configuration and continuing — any
    /// interleaving of `ingest`/`plan_round` — produces bit-identical
    /// results to the scaler that never stopped.
    pub fn snapshot(&self) -> ScalerSnapshot {
        ScalerSnapshot {
            version: SCALER_SNAPSHOT_VERSION,
            seed: self.config.pipeline.seed,
            ring: self.ring.snapshot(),
            forecaster: self.forecaster.as_ref().map(Forecaster::snapshot),
            rng_state: self.rng.state(),
            stats: self.stats,
            last_refit_at: self.last_refit_at.is_finite().then_some(self.last_refit_at),
            cached_forecast_from: self.cached_from,
            plan_cache: self.plan_cache.clone(),
        }
    }

    /// Rebuild a scaler from a [`ScalerSnapshot`] and the (shared, static)
    /// configuration.
    ///
    /// The snapshot carries all per-tenant mutable state — ring, model, RNG
    /// position, counters, refit deadline, forecast-cache anchor — while
    /// `config` carries everything reconstructable: pipeline, planner and
    /// scratch buffers are rebuilt from it. The snapshot's grid must match
    /// the configuration (bucket width, window capacity); a mismatch is
    /// rejected rather than silently re-binning history.
    pub fn restore(snapshot: ScalerSnapshot, config: OnlineConfig) -> Result<Self, OnlineError> {
        if snapshot.version != SCALER_SNAPSHOT_VERSION {
            return Err(OnlineError::UnsupportedSnapshotVersion {
                found: snapshot.version,
                supported: SCALER_SNAPSHOT_VERSION,
            });
        }
        let mut scaler = Self::with_seed(config, snapshot.ring.origin, snapshot.seed)?;
        let ring = snapshot.ring.restore()?;
        if ring.bucket_width() != scaler.config.pipeline.bucket_width {
            return Err(OnlineError::InvalidConfig(
                "snapshot ring bucket width differs from the configuration",
            ));
        }
        if ring.capacity() != scaler.config.window_buckets {
            return Err(OnlineError::InvalidConfig(
                "snapshot ring capacity differs from the configured window",
            ));
        }
        scaler.ring = ring;
        scaler.forecaster = match snapshot.forecaster {
            Some(envelope) => Some(
                envelope
                    .restore()
                    .map_err(robustscaler_core::CoreError::from)?,
            ),
            None => None,
        };
        scaler.rng = StdRng::from_state(snapshot.rng_state);
        scaler.stats = snapshot.stats;
        scaler.last_refit_at = snapshot.last_refit_at.unwrap_or(f64::NEG_INFINITY);
        if let Some(from) = snapshot.cached_forecast_from {
            let forecaster = scaler
                .forecaster
                .as_ref()
                .ok_or(OnlineError::InvalidConfig(
                    "snapshot has a cached forecast anchor but no model",
                ))?;
            let forecast = forecaster
                .forecast(from, scaler.config.pipeline.forecast_horizon)
                .map_err(robustscaler_core::CoreError::from)?;
            scaler.cached_from = Some(from);
            scaler.cached_until = from + scaler.config.pipeline.forecast_horizon;
            scaler.cached_forecast = Some(forecast);
        }
        // The model fingerprint is recomputed rather than persisted: the
        // restored model is bit-identical to the snapshotted one (the
        // persistence proptests pin this), so its serialization — and hence
        // the fingerprint every future plan-cache key embeds — matches what
        // the uninterrupted scaler would use. The memoized round itself is
        // restored verbatim; it stays unreachable until the driver re-arms
        // plan reuse.
        scaler.model_print = scaler.forecaster.as_ref().map(|f| fingerprint64(f.model()));
        scaler.plan_cache = snapshot.plan_cache;
        Ok(scaler)
    }
}

/// FNV-1a 64 over a model's JSON — the raw form of
/// [`crate::replay::model_fingerprint`], kept numeric for
/// [`PlanCacheKey`]'s fixed-width fields.
fn fingerprint64(model: &NhppModel) -> u64 {
    let json = serde_json::to_string(model).expect("an NhppModel always serializes");
    crate::checkpoint::fnv1a64(json.as_bytes())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use robustscaler_core::RobustScalerVariant;

    pub(crate) fn fast_config() -> OnlineConfig {
        let mut pipeline =
            RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
                target: 0.9,
            });
        pipeline.bucket_width = 10.0;
        pipeline.periodicity_aggregation = 2;
        pipeline.admm.max_iterations = 40;
        pipeline.monte_carlo_samples = 120;
        pipeline.planning_interval = 20.0;
        pipeline.mean_processing = 5.0;
        pipeline.forecast_horizon = 600.0;
        pipeline.seed = 11;
        let mut config = OnlineConfig::new(pipeline);
        config.window_buckets = 360;
        config.min_training_buckets = 30;
        config.refit_interval = 600.0;
        config
    }

    /// One arrival every `gap` seconds over `[0, duration)`.
    fn uniform_arrivals(duration: f64, gap: f64) -> Vec<f64> {
        let n = (duration / gap) as usize;
        (0..n).map(|i| i as f64 * gap).collect()
    }

    /// Reference ingestion: the per-arrival loop `ingest_batch` replaced.
    /// Kept only as the ground truth the bulk path is checked against.
    pub(crate) fn ingest_reference(scaler: &mut OnlineScaler, arrivals: &[f64]) {
        for &t in arrivals {
            scaler.ingest(t);
        }
    }

    #[test]
    fn ingest_batch_is_bit_identical_to_the_per_arrival_loop() {
        let config = fast_config();
        let mut bulk = OnlineScaler::with_seed(config, 0.0, 3).unwrap();
        let mut reference = OnlineScaler::with_seed(config, 0.0, 3).unwrap();
        // Sorted traffic, a duplicate burst, an out-of-order straggler, a
        // pre-origin drop and a corrupt timestamp.
        let mut arrivals = uniform_arrivals(900.0, 4.0);
        arrivals.extend_from_slice(&[650.0, 650.0, 650.0, 10.0, -5.0, f64::INFINITY, 901.0]);
        bulk.ingest_batch(&arrivals);
        ingest_reference(&mut reference, &arrivals);
        assert_eq!(bulk.stats(), reference.stats());
        assert_eq!(bulk.ring(), reference.ring());
        assert_eq!(
            bulk.plan_round(910.0, 0).unwrap(),
            reference.plan_round(910.0, 0).unwrap()
        );
    }

    #[test]
    fn config_validation_catches_bad_fields() {
        let base = fast_config();
        assert!(base.validate().is_ok());
        let mut c = base;
        c.min_training_buckets = 5;
        assert!(c.validate().is_err());
        let mut c = base;
        c.window_buckets = c.min_training_buckets - 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.refit_interval = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.drift_threshold = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = base;
        c.drift_window = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn plans_fail_until_enough_history_then_succeed() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        assert!(!scaler.has_model());
        assert!(matches!(
            scaler.plan_round(50.0, 0),
            Err(OnlineError::NotTrained)
        ));
        // Ingest 10 minutes of steady traffic (1 query / 5 s): enough for
        // the 30-bucket (300 s) first fit.
        scaler.ingest_batch(&uniform_arrivals(600.0, 5.0));
        let round = scaler.plan_round(600.0, 0).unwrap();
        assert!(scaler.has_model());
        assert_eq!(scaler.stats().refits, 1);
        // 0.2 QPS over a 20 s window: ~4 expected arrivals, all needing
        // creations (13 s pending lead).
        assert!((round.expected_arrivals_in_window - 4.0).abs() < 1.0);
        assert!(!round.decisions.is_empty());
        assert_eq!(scaler.stats().planning_rounds, 1);
    }

    #[test]
    fn scheduled_refits_follow_the_interval() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        scaler.ingest_batch(&uniform_arrivals(2_000.0, 5.0));
        scaler.plan_round(400.0, 0).unwrap();
        assert_eq!(scaler.stats().refits, 1);
        // Within the refit interval: no refit.
        scaler.plan_round(500.0, 0).unwrap();
        assert_eq!(scaler.stats().refits, 1);
        // Past the 600 s interval: scheduled refit.
        scaler.plan_round(1_100.0, 0).unwrap();
        assert_eq!(scaler.stats().refits, 2);
        assert_eq!(scaler.stats().drift_refits, 0);
    }

    #[test]
    fn drift_triggers_an_early_refit() {
        let mut config = fast_config();
        config.refit_interval = 1e9; // disable scheduled refits
        config.drift_window = 200.0;
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        // Train on quiet traffic (0.2 QPS)...
        scaler.ingest_batch(&uniform_arrivals(600.0, 5.0));
        scaler.plan_round(600.0, 0).unwrap();
        assert_eq!(scaler.stats().refits, 1);
        // ...then a 10× surge. The drift detector must force a refit.
        let surge: Vec<f64> = (0..1_000).map(|i| 600.0 + i as f64 * 0.5).collect();
        scaler.ingest_batch(&surge);
        scaler.plan_round(1_100.0, 0).unwrap();
        assert_eq!(scaler.stats().refits, 2);
        assert_eq!(scaler.stats().drift_refits, 1);
        // The refreshed forecast tracks the surge level (2 QPS), not the
        // trained 0.2 QPS.
        let round = scaler.plan_round(1_120.0, 0).unwrap();
        assert!(
            round.expected_arrivals_in_window > 20.0,
            "expected {} arrivals",
            round.expected_arrivals_in_window
        );
    }

    #[test]
    fn steady_traffic_does_not_drift_refit() {
        let mut config = fast_config();
        config.refit_interval = 1e9;
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        scaler.ingest_batch(&uniform_arrivals(3_000.0, 5.0));
        for round in 0..20 {
            scaler.plan_round(600.0 + 20.0 * round as f64, 3).unwrap();
        }
        assert_eq!(scaler.stats().refits, 1);
        assert_eq!(scaler.stats().drift_refits, 0);
    }

    #[test]
    fn clearly_covered_rounds_skip_the_optimizer() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        scaler.ingest_batch(&uniform_arrivals(600.0, 5.0));
        // ~12 expected arrivals to the lead horizon; 1000 covered is clearly
        // enough.
        let round = scaler.plan_round(600.0, 1_000).unwrap();
        assert!(round.decisions.is_empty());
        assert_eq!(scaler.stats().skipped_rounds, 1);
        assert_eq!(scaler.stats().planning_rounds, 0);
    }

    #[test]
    fn fixed_seed_runs_are_deterministic() {
        let run = || {
            let mut scaler = OnlineScaler::with_seed(fast_config(), 0.0, 99).unwrap();
            scaler.ingest_batch(&uniform_arrivals(900.0, 4.0));
            let mut rounds = Vec::new();
            for i in 0..5 {
                rounds.push(scaler.plan_round(900.0 + 20.0 * i as f64, i).unwrap());
            }
            rounds
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let config = fast_config();
        let mut live = OnlineScaler::with_seed(config, 0.0, 77).unwrap();
        live.ingest_batch(&uniform_arrivals(900.0, 4.0));
        live.plan_round(900.0, 0).unwrap();
        // Mid-run snapshot, through JSON like a real checkpoint.
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snap: ScalerSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = OnlineScaler::restore(snap, config).unwrap();
        assert_eq!(restored.stats(), live.stats());
        // Continue both with the same ingestion + rounds: identical output.
        for i in 0..4 {
            let now = 920.0 + 20.0 * i as f64;
            let extra: Vec<f64> = (0..10).map(|k| now - 20.0 + 2.0 * k as f64).collect();
            live.ingest_batch(&extra);
            restored.ingest_batch(&extra);
            assert_eq!(
                live.plan_round(now, i).unwrap(),
                restored.plan_round(now, i).unwrap()
            );
        }
        assert_eq!(live.stats(), restored.stats());
    }

    #[test]
    fn snapshot_before_first_fit_restores_cold_state() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        scaler.ingest_batch(&uniform_arrivals(100.0, 5.0));
        let snap = scaler.snapshot();
        assert!(snap.forecaster.is_none());
        assert!(snap.last_refit_at.is_none());
        assert!(snap.cached_forecast_from.is_none());
        let mut restored = OnlineScaler::restore(snap, config).unwrap();
        assert!(!restored.has_model());
        assert!(matches!(
            restored.plan_round(100.0, 0),
            Err(OnlineError::NotTrained)
        ));
        // Both reach the first fit at the same instant with the same model.
        scaler.ingest_batch(&uniform_arrivals(600.0, 5.0));
        restored.ingest_batch(&uniform_arrivals(600.0, 5.0));
        assert_eq!(
            scaler.plan_round(600.0, 0).unwrap(),
            restored.plan_round(600.0, 0).unwrap()
        );
    }

    #[test]
    fn restore_rejects_version_and_config_mismatches() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        scaler.ingest_batch(&uniform_arrivals(600.0, 5.0));
        scaler.plan_round(600.0, 0).unwrap();
        let snap = scaler.snapshot();
        let mut bad = snap.clone();
        bad.version += 1;
        assert!(matches!(
            OnlineScaler::restore(bad, config),
            Err(OnlineError::UnsupportedSnapshotVersion { .. })
        ));
        // Bucket-width mismatch: restoring under a different grid would
        // silently re-bin history; it must be rejected.
        let mut other = config;
        other.pipeline.bucket_width = config.pipeline.bucket_width * 2.0;
        assert!(OnlineScaler::restore(snap.clone(), other).is_err());
        let mut other = config;
        other.window_buckets = config.window_buckets + 1;
        assert!(OnlineScaler::restore(snap, other).is_err());
    }

    fn flat_model(rate: f64) -> NhppModel {
        NhppModel::from_log_rates(0.0, 10.0, vec![rate.ln(); 60], None).unwrap()
    }

    #[test]
    fn plan_cache_hits_shift_plans_in_steady_state() {
        let config = fast_config();
        let mut reuse = OnlineScaler::with_seed(config, 0.0, 21).unwrap();
        reuse.install_model(flat_model(0.5), 600.0).unwrap();
        reuse.enable_plan_reuse(0.05).unwrap();
        let first = reuse.plan_round(600.0, 0).unwrap();
        assert!(!first.decisions.is_empty());
        assert_eq!(reuse.stats().planning_rounds, 1);
        assert_eq!(reuse.stats().plan_cache_hits, 0);
        // Steady state: same model, same covered count, flat forecast — the
        // next rounds hit and are the first plan translated by the spacing.
        for i in 1..4u64 {
            let dt = 20.0 * i as f64;
            let round = reuse.plan_round(600.0 + dt, 0).unwrap();
            assert_eq!(reuse.stats().planning_rounds, 1, "round {i} must hit");
            assert_eq!(reuse.stats().plan_cache_hits, i);
            assert_eq!(round.decisions.len(), first.decisions.len());
            for (a, b) in first.decisions.iter().zip(&round.decisions) {
                assert_eq!(b.arrival_index, a.arrival_index);
                assert_eq!(b.creation_time.to_bits(), (a.creation_time + dt).to_bits());
            }
        }
    }

    #[test]
    fn plan_cache_misses_on_covered_change_and_invalidates_on_model_change() {
        let config = fast_config();
        let mut scaler = OnlineScaler::with_seed(config, 0.0, 22).unwrap();
        scaler.install_model(flat_model(0.5), 600.0).unwrap();
        scaler.enable_plan_reuse(0.05).unwrap();
        scaler.plan_round(600.0, 0).unwrap();
        assert_eq!(scaler.stats().planning_rounds, 1);
        // A different covered count is a different key: full replan.
        scaler.plan_round(620.0, 2).unwrap();
        assert_eq!(scaler.stats().planning_rounds, 2);
        assert_eq!(scaler.stats().plan_cache_hits, 0);
        // Steady state again...
        scaler.plan_round(640.0, 2).unwrap();
        assert_eq!(scaler.stats().plan_cache_hits, 1);
        // ...until the model changes: install clears the memoized round and
        // repins the fingerprint, so the next round replans even though the
        // new model forecasts identically.
        scaler.install_model(flat_model(0.5), 650.0).unwrap();
        scaler.plan_round(660.0, 2).unwrap();
        assert_eq!(scaler.stats().planning_rounds, 3);
        assert_eq!(scaler.stats().plan_cache_hits, 1);
        // Disarming drops the cache: re-arming does not resurrect it.
        scaler.plan_round(680.0, 2).unwrap();
        assert_eq!(scaler.stats().plan_cache_hits, 2);
        scaler.disable_plan_reuse();
        scaler.enable_plan_reuse(0.05).unwrap();
        scaler.plan_round(700.0, 2).unwrap();
        assert_eq!(scaler.stats().plan_cache_hits, 2);
        assert_eq!(scaler.stats().planning_rounds, 4);
    }

    #[test]
    fn refit_invalidates_the_plan_cache() {
        let mut config = fast_config();
        config.refit_interval = 1e9; // only explicit refits
        let mut scaler = OnlineScaler::with_seed(config, 0.0, 23).unwrap();
        scaler.ingest_batch(&uniform_arrivals(900.0, 5.0));
        // Coarse tolerance: the fitted forecast is only near-flat, and this
        // test is about invalidation, not about the band's width.
        scaler.enable_plan_reuse(0.5).unwrap();
        scaler.plan_round(900.0, 0).unwrap(); // first fit + plan
        scaler.plan_round(920.0, 0).unwrap();
        let hits = scaler.stats().plan_cache_hits;
        assert!(hits >= 1, "steady state must hit, got {hits}");
        scaler.refit_now(930.0).unwrap();
        // The refit dropped the memoized round: the next round replans.
        let planned_before = scaler.stats().planning_rounds;
        scaler.plan_round(940.0, 0).unwrap();
        assert_eq!(scaler.stats().planning_rounds, planned_before + 1);
        assert_eq!(scaler.stats().plan_cache_hits, hits);
    }

    #[test]
    fn plan_cache_survives_snapshot_restore_and_rearm() {
        let config = fast_config();
        let mut live = OnlineScaler::with_seed(config, 0.0, 24).unwrap();
        live.install_model(flat_model(0.5), 600.0).unwrap();
        live.enable_plan_reuse(0.05).unwrap();
        live.plan_round(600.0, 0).unwrap(); // populates the cache
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snap: ScalerSnapshot = serde_json::from_str(&json).unwrap();
        assert!(snap.plan_cache.is_some());
        let mut restored = OnlineScaler::restore(snap, config).unwrap();
        // Reuse is runtime wiring: off after restore, cache intact.
        assert!(restored.plan_reuse().is_none());
        restored.enable_plan_reuse(0.05).unwrap();
        // Both continue bit-identically — including the restored scaler
        // *hitting* where the uninterrupted one hits (an emptied cache
        // would replan and diverge).
        for i in 1..5 {
            let now = 600.0 + 20.0 * i as f64;
            assert_eq!(
                live.plan_round(now, 0).unwrap(),
                restored.plan_round(now, 0).unwrap(),
                "round {i}"
            );
        }
        assert_eq!(live.stats(), restored.stats());
        assert!(live.stats().plan_cache_hits >= 4);
    }

    #[test]
    fn install_model_warm_starts_without_history() {
        let config = fast_config();
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        let model = NhppModel::from_log_rates(0.0, 10.0, vec![(0.5_f64).ln(); 60], None).unwrap();
        scaler.install_model(model, 600.0).unwrap();
        assert!(scaler.has_model());
        let round = scaler.plan_round(600.0, 0).unwrap();
        // 0.5 QPS × 20 s window.
        assert!((round.expected_arrivals_in_window - 10.0).abs() < 1e-9);
        assert!(!round.decisions.is_empty());
        // No ring history was consumed and no counted refit ran.
        assert_eq!(scaler.stats().refits, 0);
    }
}
