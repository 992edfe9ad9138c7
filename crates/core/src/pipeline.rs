//! The training half of the pipeline: modules 1–3 of Fig. 2.

use crate::config::RobustScalerConfig;
use crate::error::CoreError;
use crate::policy::RobustScalerPolicy;
use robustscaler_nhpp::{Forecaster, NhppModel};
use robustscaler_simulator::Trace;
use robustscaler_timeseries::{detect_period, refine_period, PeriodicityResult, TimeSeries};

/// Output of the training phase, ready to drive the scaling plan module.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The fitted NHPP.
    pub model: NhppModel,
    /// The detected dominant periodicity, if any. `period` is expressed in
    /// Δt buckets and refined at full resolution; `acf`/`harmonic_support`
    /// are the detection evidence from the aggregated series.
    pub periodicity: Option<PeriodicityResult>,
    /// The aggregated count series the model was trained on.
    pub counts: TimeSeries,
}

impl TrainedModel {
    /// Build the forecaster for this model.
    pub fn forecaster(&self, config: &RobustScalerConfig) -> Result<Forecaster, CoreError> {
        Forecaster::new(self.model.clone(), config.forecast).map_err(CoreError::from)
    }
}

/// A validated count series with its detected periodicity: what module 2
/// fits ([`RobustScalerPipeline::detect`] builds it).
#[derive(Debug, Clone)]
pub struct TrainingInput {
    counts: TimeSeries,
    periodicity: Option<PeriodicityResult>,
    usable_period: Option<usize>,
}

impl TrainingInput {
    /// Number of buckets the fit covers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the series is empty (never true once detected).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The period the fit regularizes with: detected, and observed for at
    /// least two full cycles.
    pub fn usable_period(&self) -> Option<usize> {
        self.usable_period
    }

    fn trained(self, model: NhppModel) -> TrainedModel {
        TrainedModel {
            model,
            periodicity: self.periodicity,
            counts: self.counts,
        }
    }
}

/// The RobustScaler training pipeline.
#[derive(Debug, Clone)]
pub struct RobustScalerPipeline {
    config: RobustScalerConfig,
}

impl RobustScalerPipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: RobustScalerConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RobustScalerConfig {
        &self.config
    }

    /// Run modules 1–3 on a training trace: aggregate, detect periodicity,
    /// fit the regularized NHPP.
    pub fn train(&self, training: &Trace) -> Result<TrainedModel, CoreError> {
        if training.len() < 10 {
            return Err(CoreError::InvalidTrainingData(
                "training trace needs at least 10 queries",
            ));
        }
        if training.duration() < 10.0 * self.config.bucket_width {
            return Err(CoreError::InvalidTrainingData(
                "training trace must span at least 10 buckets",
            ));
        }

        // Module 1 input: per-bucket counts over the training window.
        let start = training.start();
        let end = training.end() + self.config.bucket_width;
        let counts = TimeSeries::from_event_times(
            &training.arrival_times(),
            start,
            end,
            self.config.bucket_width,
        )?;
        self.train_on_counts(counts)
    }

    /// Run modules 1–3 on an already aggregated count series.
    ///
    /// This is the entry point for the online serving layer, whose ring
    /// buffer maintains the count series incrementally and refits from a
    /// snapshot instead of re-aggregating a raw trace on every refit. The
    /// series' bucket width must match the configured `bucket_width`.
    /// Takes the series by value — it is moved into the returned
    /// [`TrainedModel`] without a copy.
    ///
    /// The two halves are public for callers that fit many series at
    /// once: [`RobustScalerPipeline::detect`] (validation and module 1)
    /// and [`RobustScalerPipeline::fit`] or
    /// [`RobustScalerPipeline::fit_lanes`] (module 2).
    pub fn train_on_counts(&self, counts: TimeSeries) -> Result<TrainedModel, CoreError> {
        let input = self.detect(counts)?;
        self.fit(input)
    }

    /// Validate a count series and detect its periodicity (module 1): the
    /// first half of [`RobustScalerPipeline::train_on_counts`].
    pub fn detect(&self, counts: TimeSeries) -> Result<TrainingInput, CoreError> {
        if (counts.bucket_width() - self.config.bucket_width).abs() > 1e-9 {
            return Err(CoreError::InvalidTrainingData(
                "count series bucket width differs from the configured bucket_width",
            ));
        }
        if counts.len() < 10 {
            return Err(CoreError::InvalidTrainingData(
                "count series needs at least 10 buckets",
            ));
        }

        // Module 1: periodicity detection on the time-aggregated QPS series.
        let aggregated = counts.aggregate_mean(self.config.periodicity_aggregation)?;
        let periodicity = match detect_period(&aggregated, &self.config.periodicity) {
            Ok(result) => result.map(|r| {
                // Convert the period back to Δt buckets. The aggregated ACF
                // peak is quantized to the aggregation grid and can drift a
                // few aggregated lags under noise or secondary (weekly)
                // structure, which would dephase the forecast over the many
                // cycles it extrapolates — so re-estimate the period at full
                // resolution within a ±5% window.
                let coarse = r.period * self.config.periodicity_aggregation;
                let slack = (coarse / 20).max(self.config.periodicity_aggregation);
                let period = refine_period(&counts, coarse, slack, &self.config.periodicity)
                    .unwrap_or(coarse);
                // `acf`/`harmonic_support` remain the aggregated-series
                // detection evidence; only `period` is the refined
                // full-resolution value.
                PeriodicityResult { period, ..r }
            }),
            // Short traces simply skip the periodic regularizer.
            Err(_) => None,
        };
        // A period is only usable if at least two full cycles are observed.
        let usable_period = periodicity
            .as_ref()
            .map(|r| r.period)
            .filter(|&p| p >= 2 && counts.len() >= 2 * p);

        Ok(TrainingInput {
            counts,
            periodicity,
            usable_period,
        })
    }

    /// Fit the regularized NHPP with ADMM (module 2): the second half of
    /// [`RobustScalerPipeline::train_on_counts`].
    pub fn fit(&self, input: TrainingInput) -> Result<TrainedModel, CoreError> {
        let model = NhppModel::fit(&input.counts, input.usable_period, self.config.admm)?;
        Ok(input.trained(model))
    }

    /// [`RobustScalerPipeline::fit`] for every input, in order, each
    /// result identical to `fit`'s; fits of one period and similar length
    /// share the ADMM lane kernel ([`NhppModel::fit_lanes`]).
    pub fn fit_lanes(&self, inputs: Vec<TrainingInput>) -> Vec<Result<TrainedModel, CoreError>> {
        let series: Vec<(&TimeSeries, Option<usize>)> = inputs
            .iter()
            .map(|input| (&input.counts, input.usable_period))
            .collect();
        let models = NhppModel::fit_lanes(&series, self.config.admm);
        inputs
            .into_iter()
            .zip(models)
            .map(|(input, model)| Ok(input.trained(model?)))
            .collect()
    }

    /// Train and wrap the result into a simulator-ready policy
    /// (modules 1–4).
    pub fn build_policy(&self, training: &Trace) -> Result<RobustScalerPolicy, CoreError> {
        let trained = self.train(training)?;
        RobustScalerPolicy::new(self.config, trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::RobustScalerVariant;
    use robustscaler_nhpp::Intensity;
    use robustscaler_simulator::Query;
    use robustscaler_traces::{google_like, TraceConfig};

    fn config() -> RobustScalerConfig {
        let mut c = RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
            target: 0.9,
        });
        // Keep the unit tests fast.
        c.admm.max_iterations = 60;
        c
    }

    #[test]
    fn rejects_tiny_training_traces() {
        let pipeline = RobustScalerPipeline::new(config()).unwrap();
        let tiny = Trace::new(
            "tiny",
            (0..5)
                .map(|i| Query {
                    arrival: i as f64,
                    processing: 1.0,
                })
                .collect(),
        )
        .unwrap();
        assert!(matches!(
            pipeline.train(&tiny),
            Err(CoreError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn trains_on_a_periodic_trace_and_detects_the_period() {
        // Four days of the Google-like diurnal workload, so the daily period
        // sits comfortably inside the detector's lag window.
        let trace = google_like(&TraceConfig {
            duration: 4.0 * 86_400.0,
            traffic_scale: 0.3,
            ..TraceConfig::google_default()
        });
        let pipeline = RobustScalerPipeline::new(config()).unwrap();
        let trained = pipeline.train(&trace).unwrap();
        // The fitted intensity must roughly integrate to the number of
        // observed queries.
        let intensity = trained.model.historical_intensity();
        let expected = intensity.integrated(trace.start(), trace.end());
        let observed = trace.len() as f64;
        assert!(
            (expected - observed).abs() / observed < 0.2,
            "expected {expected} vs observed {observed}"
        );
        // A daily period (1440 buckets of 60 s) should be detected; allow a
        // few percent of slack because the ACF peak of a noisy, spiky series
        // can land a handful of aggregated buckets off the exact day.
        let period = trained.periodicity.expect("period expected").period;
        assert!(
            (period as i64 - 1_440).abs() <= 72,
            "period {period} buckets"
        );
    }

    #[test]
    fn aperiodic_traces_train_without_a_period() {
        // A short homogeneous burst of traffic — no meaningful periodicity.
        let queries: Vec<Query> = (0..400)
            .map(|i| Query {
                arrival: i as f64 * 7.3,
                processing: 5.0,
            })
            .collect();
        let trace = Trace::new("flat", queries).unwrap();
        let pipeline = RobustScalerPipeline::new(config()).unwrap();
        let trained = pipeline.train(&trace).unwrap();
        assert!(trained.model.period().is_none());
        // The fitted rate should hover around 1/7.3 ≈ 0.137 QPS.
        let mean_rate: f64 =
            trained.model.rates().iter().sum::<f64>() / trained.model.rates().len() as f64;
        assert!(
            (mean_rate - 1.0 / 7.3).abs() / (1.0 / 7.3) < 0.25,
            "mean rate {mean_rate}"
        );
    }

    #[test]
    fn build_policy_produces_a_named_policy() {
        let trace = google_like(&TraceConfig {
            duration: 43_200.0,
            traffic_scale: 0.5,
            ..TraceConfig::google_default()
        });
        let pipeline = RobustScalerPipeline::new(config()).unwrap();
        let policy = pipeline.build_policy(&trace).unwrap();
        use robustscaler_simulator::Autoscaler;
        assert_eq!(policy.name(), "robustscaler-hp");
    }
}
