//! The per-tenant online scaler: continuous ingestion, drift-triggered
//! rolling refits, and per-round scaling plans.
//!
//! [`OnlineScaler`] is the serving-loop counterpart of the offline
//! `RobustScalerPolicy`: instead of training once on a frozen trace, it
//! ingests arrivals incrementally into a bounded
//! [`CountRing`], refits the NHPP from
//! ring snapshots — on a schedule, or early when the observed traffic
//! drifts away from the forecast — and emits one scaling plan per round
//! from the exact planner (`SequentialPlanner::plan_window`).
//!
//! Determinism contract: planning draws no random numbers. A round's plan
//! is a pure function of (installed model, `covered`, `now`), so a fixed
//! ingestion and round sequence produces bit-identical plans regardless of
//! how many worker threads the surrounding fleet uses, and a restored
//! snapshot continues exactly.

use crate::error::OnlineError;
use crate::replay::{model_fingerprint, RefitTrigger, ScalerEvent};
use robustscaler_core::{RobustScalerConfig, RobustScalerPipeline, TrainedModel, TrainingInput};
use robustscaler_nhpp::{
    Forecaster, ForecasterSnapshot, Intensity, NhppModel, PiecewiseConstantIntensity,
};
use robustscaler_scaling::{PlannerConfig, PlannerState, PlanningRound, SequentialPlanner};
use robustscaler_timeseries::{CountRing, RingSnapshot};
use serde::{Deserialize, Serialize};

/// Configuration of an [`OnlineScaler`] on top of the offline pipeline
/// configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// The underlying pipeline configuration (bucket width, variant, ADMM,
    /// forecast and planner settings).
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    /// Arrivals accepted into the ring.
    pub arrivals_ingested: u64,
    /// Arrivals dropped (before the retained window).
    pub arrivals_dropped: u64,
    /// Model refits, total (first fit included).
    pub refits: u64,
    /// Refits triggered early by drift detection.
    pub drift_refits: u64,
    /// Planning rounds that ran the planner.
    pub planning_rounds: u64,
    /// Planning rounds skipped by the cheap sufficiency check.
    pub skipped_rounds: u64,
    /// Planning rounds that errored (recorded by serving adapters such as
    /// `OnlinePolicy`, which swallow the error to keep serving but must not
    /// leave persistent failure invisible).
    pub failed_rounds: u64,
    /// Always 0: cross-tenant forecast clustering was removed (every
    /// tenant plans against its own forecast). Kept only until a benchmark
    /// change updates `perfbench/`, which still reads it.
    pub shared_planning_rounds: u64,
    /// Always 0: the plan cache was removed (every round that is not
    /// skipped plans exactly). Unused; kept only because `perfbench/`
    /// builds and reads it; removed by the next benchmark change (ROADMAP
    /// item 2).
    pub plan_cache_hits: u64,
}

impl OnlineStats {
    /// Fold another tenant's counters into an aggregate: every counter
    /// sums.
    pub fn merge(&mut self, other: &OnlineStats) {
        self.arrivals_ingested += other.arrivals_ingested;
        self.arrivals_dropped += other.arrivals_dropped;
        self.refits += other.refits;
        self.drift_refits += other.drift_refits;
        self.planning_rounds += other.planning_rounds;
        self.skipped_rounds += other.skipped_rounds;
        self.failed_rounds += other.failed_rounds;
        self.shared_planning_rounds += other.shared_planning_rounds;
        self.plan_cache_hits += other.plan_cache_hits;
    }
}

/// Format version written by [`OnlineScaler::snapshot`], the only one
/// [`OnlineScaler::restore`] reads; bump on any layout change.
pub const SCALER_SNAPSHOT_VERSION: u32 = 3;

/// A serializable, version-tagged copy of everything that makes an
/// [`OnlineScaler`] resume bit-identically: the ingestion ring, the
/// installed model (with its forecast configuration), the serving
/// counters, the refit schedule and the forecast-cache anchor.
///
/// The forecast cache itself is *not* stored: it is a pure function of
/// (model, `cached_forecast_from`, horizon), so [`OnlineScaler::restore`]
/// recomputes it bit-identically from the anchor. Everything else the
/// scaler holds (pipeline, planner and its Gamma-quantile table) is derived
/// from the configuration passed to `restore`; the table's entries depend
/// only on the index and α, so a rebuilt planner plans bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalerSnapshot {
    /// Snapshot format version ([`SCALER_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The ingestion ring.
    pub ring: RingSnapshot,
    /// The installed model and forecast configuration, if fitted.
    pub forecaster: Option<ForecasterSnapshot>,
    /// Serving-loop counters.
    pub stats: OnlineStats,
    /// When the last refit ran; `None` encodes "never" (the in-memory
    /// sentinel is `-inf`, which JSON cannot carry).
    pub last_refit_at: Option<f64>,
    /// Start time of the cached forecast, if one was live; the cache is
    /// recomputed from this anchor on restore.
    pub cached_forecast_from: Option<f64>,
}

/// A continuously serving, incrementally refitting scaler for one tenant.
#[derive(Debug, Clone)]
pub struct OnlineScaler {
    config: OnlineConfig,
    pipeline: RobustScalerPipeline,
    planner: SequentialPlanner,
    ring: CountRing,
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
}

impl OnlineScaler {
    /// Create a scaler whose bucket grid is anchored at `origin` (the
    /// tenant's serving start time).
    pub fn new(config: OnlineConfig, origin: f64) -> Result<Self, OnlineError> {
        config.validate()?;
        let pipeline = RobustScalerPipeline::new(config.pipeline)?;
        let rule = config.pipeline.variant.to_rule(
            config.pipeline.mean_processing,
            config.pipeline.pending.mean(),
        )?;
        let planner = SequentialPlanner::new(PlannerConfig {
            rule,
            pending: config.pipeline.pending,
            planning_interval: config.pipeline.planning_interval,
            max_decisions_per_round: config.pipeline.max_decisions_per_round,
        })?;
        let ring = CountRing::new(origin, config.pipeline.bucket_width, config.window_buckets)?;
        Ok(Self {
            config,
            pipeline,
            planner,
            ring,
            forecaster: None,
            cached_forecast: None,
            cached_from: None,
            cached_until: f64::NEG_INFINITY,
            last_refit_at: f64::NEG_INFINITY,
            stats: OnlineStats::default(),
            tracing: false,
            trace_events: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The training pipeline the scaler refits with.
    pub(crate) fn pipeline(&self) -> &RobustScalerPipeline {
        &self.pipeline
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
    ///
    /// A scaler that already holds a model while its ring has fewer than
    /// `min_training_buckets` complete buckets (a warm-started tenant)
    /// skips the refit, which could not succeed: the probe round then plans
    /// from the installed model.
    pub(crate) fn probe_refit(&mut self, now: f64) -> Result<(), OnlineError> {
        self.ring.advance_to(now);
        if self.forecaster.is_some()
            && self.ring.complete_len(now) < self.config.min_training_buckets
        {
            return Ok(());
        }
        self.refit_with_trigger(now, RefitTrigger::Probe)
    }

    fn refit_with_trigger(&mut self, now: f64, trigger: RefitTrigger) -> Result<(), OnlineError> {
        let input = self.refit_input(now)?;
        let trained = self.pipeline.fit(input)?;
        self.install_refit(now, trigger, trained)
    }

    /// The first half of a refit at `now`: the ring's complete buckets,
    /// validated, with their periodicity detected — what the ADMM fit
    /// trains on.
    pub(crate) fn refit_input(&mut self, now: f64) -> Result<TrainingInput, OnlineError> {
        self.ring.advance_to(now);
        let snapshot = self.ring.series_complete(now)?;
        Ok(self.pipeline.detect(snapshot)?)
    }

    /// The last step of a refit at `now`: trace it, swap the fitted model
    /// into the forecaster, drop the forecast cache and count the refit
    /// (a drift refit also as one).
    pub(crate) fn install_refit(
        &mut self,
        now: f64,
        trigger: RefitTrigger,
        trained: TrainedModel,
    ) -> Result<(), OnlineError> {
        if self.tracing {
            self.trace_events.push(ScalerEvent::Refit {
                at: now,
                trigger,
                fingerprint: model_fingerprint(&trained.model),
            });
        }
        match &mut self.forecaster {
            Some(f) => f.refresh(trained.model),
            None => self.forecaster = Some(trained.forecaster(self.pipeline.config())?),
        }
        self.cached_forecast = None;
        self.cached_from = None;
        self.cached_until = f64::NEG_INFINITY;
        self.last_refit_at = now;
        self.stats.refits += 1;
        if trigger == RefitTrigger::Drift {
            self.stats.drift_refits += 1;
        }
        Ok(())
    }

    /// Refit if due: first fit once enough complete buckets exist, then on
    /// the refit schedule, then early when drift is detected. Returns
    /// whether a refit ran.
    fn maybe_refit(&mut self, now: f64) -> Result<bool, OnlineError> {
        let Some(trigger) = self.refit_due(now) else {
            return Ok(false);
        };
        self.refit_with_trigger(now, trigger)?;
        Ok(true)
    }

    /// The refit decision of [`OnlineScaler::maybe_refit`]: advance the
    /// ring to `now` and say which trigger, if any, fires.
    pub(crate) fn refit_due(&mut self, now: f64) -> Option<RefitTrigger> {
        self.ring.advance_to(now);
        let complete = self.ring.complete_len(now);
        if self.forecaster.is_none() {
            return (complete >= self.config.min_training_buckets).then_some(RefitTrigger::First);
        }
        if complete >= self.config.min_training_buckets.max(10) {
            if now - self.last_refit_at >= self.config.refit_interval {
                return Some(RefitTrigger::Scheduled);
            }
            if self.drift_detected(now) {
                return Some(RefitTrigger::Drift);
            }
        }
        None
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

    /// Cheap sufficiency check mirroring the offline policy: skip planning
    /// when the instances already on the way clearly cover
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
    ///
    /// The cheap sufficiency check can skip planning; otherwise the round
    /// plans exactly against the tenant's own forecast.
    pub fn plan_round(&mut self, now: f64, covered: usize) -> Result<PlanningRound, OnlineError> {
        self.maybe_refit(now)?;
        self.plan_fitted(now, covered)
    }

    /// [`OnlineScaler::plan_round`] after its refit step: refresh the
    /// forecast, run the sufficiency check, plan.
    pub(crate) fn plan_fitted(
        &mut self,
        now: f64,
        covered: usize,
    ) -> Result<PlanningRound, OnlineError> {
        self.refresh_forecast(now)?;
        let forecast = self
            .cached_forecast
            .as_ref()
            .expect("refresh_forecast populated the cache");
        if self.clearly_covered(now, covered) {
            self.stats.skipped_rounds += 1;
            let window_end = now + self.config.pipeline.planning_interval;
            return Ok(PlanningRound {
                decisions: Vec::new(),
                expected_arrivals_in_window: forecast.integrated(now, window_end),
            });
        }
        let round = self
            .planner
            .plan_window(forecast, now, PlannerState { covered });
        self.stats.planning_rounds += 1;
        Ok(round)
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
            ring: self.ring.snapshot(),
            forecaster: self.forecaster.as_ref().map(Forecaster::snapshot),
            stats: self.stats,
            last_refit_at: self.last_refit_at.is_finite().then_some(self.last_refit_at),
            cached_forecast_from: self.cached_from,
        }
    }

    /// Rebuild a scaler from a [`ScalerSnapshot`] and the (shared, static)
    /// configuration.
    ///
    /// The snapshot carries all per-tenant mutable state — ring, model,
    /// counters, refit deadline, forecast-cache anchor — while
    /// `config` carries everything reconstructable: pipeline and planner
    /// are rebuilt from it. The snapshot's grid must match
    /// the configuration (bucket width, window capacity); a mismatch is
    /// rejected rather than silently re-binning history.
    pub fn restore(snapshot: ScalerSnapshot, config: OnlineConfig) -> Result<Self, OnlineError> {
        if snapshot.version != SCALER_SNAPSHOT_VERSION {
            return Err(OnlineError::UnsupportedSnapshotVersion {
                found: snapshot.version,
                supported: SCALER_SNAPSHOT_VERSION,
            });
        }
        let mut scaler = Self::new(config, snapshot.ring.origin)?;
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
        Ok(scaler)
    }
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
        pipeline.planning_interval = 20.0;
        pipeline.mean_processing = 5.0;
        pipeline.forecast_horizon = 600.0;
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
        let mut bulk = OnlineScaler::new(config, 0.0).unwrap();
        let mut reference = OnlineScaler::new(config, 0.0).unwrap();
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
    fn repeated_runs_are_deterministic() {
        let run = || {
            let mut scaler = OnlineScaler::new(fast_config(), 0.0).unwrap();
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
        let mut live = OnlineScaler::new(config, 0.0).unwrap();
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
