//! The fitted NHPP model.
//!
//! [`NhppModel`] ties the log-intensities learned by the ADMM trainer to
//! wall-clock time and exposes the quantities the rest of the system needs:
//! the historical intensity, goodness-of-fit diagnostics, and (through
//! [`crate::forecast`]) the future intensity the scaling optimizer consumes.

use crate::admm::{AdmmConfig, AdmmReport, AdmmSolver};
use crate::error::NhppError;
use crate::intensity::{Intensity, PiecewiseConstantIntensity};
use robustscaler_timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// A fitted non-homogeneous Poisson process with piecewise-constant
/// intensity over the training window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NhppModel {
    start: f64,
    bucket_width: f64,
    log_rates: Vec<f64>,
    period: Option<usize>,
    report: AdmmReport,
}

impl NhppModel {
    /// Fit a model to a count series (counts per bucket, not QPS).
    ///
    /// `period` is the detected period length in buckets (if any); it both
    /// activates the periodic regularizer and is carried along for
    /// forecasting. Missing buckets are treated as zero-count buckets after
    /// interpolation is *not* applied — callers that want interpolation
    /// should repair the series first (the pipeline in `robustscaler-core`
    /// does).
    pub fn fit(
        counts: &TimeSeries,
        period: Option<usize>,
        config: AdmmConfig,
    ) -> Result<Self, NhppError> {
        let solver = Self::solver(counts, period, config)?;
        let (log_rates, report) = solver.fit()?;
        Ok(Self::fitted(counts, period, log_rates, report))
    }

    /// Fit one model per `(counts, period)` pair, in order, each identical
    /// to [`NhppModel::fit`] on the same input; compatible fits share the
    /// ADMM lane kernel ([`AdmmSolver::fit_lanes`]).
    pub fn fit_lanes(
        series: &[(&TimeSeries, Option<usize>)],
        config: AdmmConfig,
    ) -> Vec<Result<Self, NhppError>> {
        let mut ready = Vec::with_capacity(series.len());
        let built: Vec<Result<(), NhppError>> = series
            .iter()
            .map(|&(counts, period)| Self::solver(counts, period, config).map(|s| ready.push(s)))
            .collect();
        let mut fitted = AdmmSolver::fit_lanes(&ready).into_iter();
        series
            .iter()
            .zip(built)
            .map(|(&(counts, period), built)| {
                built?;
                let (log_rates, report) = fitted.next().expect("one fit per solver")?;
                Ok(Self::fitted(counts, period, log_rates, report))
            })
            .collect()
    }

    fn solver(
        counts: &TimeSeries,
        period: Option<usize>,
        config: AdmmConfig,
    ) -> Result<AdmmSolver, NhppError> {
        AdmmSolver::new(
            counts.values_filled(0.0),
            counts.bucket_width(),
            period,
            config,
        )
    }

    fn fitted(
        counts: &TimeSeries,
        period: Option<usize>,
        log_rates: Vec<f64>,
        report: AdmmReport,
    ) -> Self {
        Self {
            start: counts.start(),
            bucket_width: counts.bucket_width(),
            log_rates,
            period,
            report,
        }
    }

    /// Construct a model directly from known log-intensities (used by tests
    /// and by the forecaster).
    pub fn from_log_rates(
        start: f64,
        bucket_width: f64,
        log_rates: Vec<f64>,
        period: Option<usize>,
    ) -> Result<Self, NhppError> {
        if !(bucket_width > 0.0) {
            return Err(NhppError::InvalidParameter("bucket width must be > 0"));
        }
        if log_rates.is_empty() {
            return Err(NhppError::InvalidParameter("log rates must be non-empty"));
        }
        Ok(Self {
            start,
            bucket_width,
            log_rates,
            period,
            report: AdmmReport {
                iterations: 0,
                primal_residual: 0.0,
                final_loss: 0.0,
                converged: true,
            },
        })
    }

    /// Start time of the training window.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// End time of the training window.
    pub fn end(&self) -> f64 {
        self.start + self.bucket_width * self.log_rates.len() as f64
    }

    /// Bucket width Δt in seconds.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// The fitted log-intensities `r_t`.
    pub fn log_rates(&self) -> &[f64] {
        &self.log_rates
    }

    /// The fitted intensities `λ_t = exp(r_t)` (queries per second).
    pub fn rates(&self) -> Vec<f64> {
        self.log_rates.iter().map(|r| r.exp()).collect()
    }

    /// The period (in buckets) used during training, if any.
    pub fn period(&self) -> Option<usize> {
        self.period
    }

    /// The period in seconds, if any.
    pub fn period_seconds(&self) -> Option<f64> {
        self.period.map(|p| p as f64 * self.bucket_width)
    }

    /// The trainer's convergence report.
    pub fn report(&self) -> &AdmmReport {
        &self.report
    }

    /// The historical intensity as a piecewise-constant function of time.
    pub fn historical_intensity(&self) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::from_log_rates(self.start, self.bucket_width, &self.log_rates)
            .expect("validated at construction")
    }

    /// Expected number of arrivals in `[from, to)` under the fitted model.
    pub fn expected_count(&self, from: f64, to: f64) -> f64 {
        self.historical_intensity().integrated(from, to)
    }

    /// In-sample mean absolute error between fitted per-bucket expected
    /// counts and the observed counts — a quick goodness-of-fit diagnostic.
    pub fn in_sample_mae(&self, counts: &TimeSeries) -> Result<f64, NhppError> {
        if counts.len() != self.log_rates.len() {
            return Err(NhppError::InvalidParameter(
                "count series length differs from the fitted model",
            ));
        }
        let observed = counts.values_filled(0.0);
        let mae = self
            .log_rates
            .iter()
            .zip(observed.iter())
            .map(|(r, q)| (r.exp() * self.bucket_width - q).abs())
            .sum::<f64>()
            / observed.len() as f64;
        Ok(mae)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustscaler_stats::{DiscreteDistribution, Poisson};

    fn counts_from_rates(rates: &[f64], dt: f64, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts: Vec<f64> = rates
            .iter()
            .map(|&r| Poisson::new((r * dt).max(1e-9)).unwrap().sample(&mut rng) as f64)
            .collect();
        TimeSeries::from_values(0.0, dt, counts).unwrap()
    }

    #[test]
    fn from_log_rates_validates() {
        assert!(NhppModel::from_log_rates(0.0, 0.0, vec![0.0], None).is_err());
        assert!(NhppModel::from_log_rates(0.0, 1.0, vec![], None).is_err());
        let m = NhppModel::from_log_rates(10.0, 60.0, vec![0.0, 1.0], Some(2)).unwrap();
        assert_eq!(m.start(), 10.0);
        assert_eq!(m.end(), 130.0);
        assert_eq!(m.period(), Some(2));
        assert_eq!(m.period_seconds(), Some(120.0));
        assert_eq!(m.rates()[0], 1.0);
    }

    #[test]
    fn fit_recovers_piecewise_rates() {
        let dt = 60.0;
        let rates: Vec<f64> = (0..200)
            .map(|i| if (i / 50) % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        let series = counts_from_rates(&rates, dt, 11);
        let model = NhppModel::fit(&series, None, AdmmConfig::default()).unwrap();
        assert_eq!(model.log_rates().len(), 200);
        // Expected arrivals over the whole window should be close to observed.
        let observed_total: f64 = series.values_filled(0.0).iter().sum();
        let expected_total = model.expected_count(series.start(), series.end());
        assert!(
            (expected_total - observed_total).abs() / observed_total < 0.15,
            "expected {expected_total}, observed {observed_total}"
        );
        // MAE per bucket should be small relative to the mean count.
        let mae = model.in_sample_mae(&series).unwrap();
        let mean_count = observed_total / 200.0;
        assert!(mae < mean_count, "mae {mae} vs mean count {mean_count}");
    }

    #[test]
    fn historical_intensity_matches_log_rates() {
        let m = NhppModel::from_log_rates(0.0, 2.0, vec![0.0, (2.0_f64).ln()], None).unwrap();
        let intensity = m.historical_intensity();
        assert!((intensity.rate(1.0) - 1.0).abs() < 1e-12);
        assert!((intensity.rate(3.0) - 2.0).abs() < 1e-12);
        assert!((m.expected_count(0.0, 4.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn in_sample_mae_requires_matching_length() {
        let m = NhppModel::from_log_rates(0.0, 1.0, vec![0.0; 5], None).unwrap();
        let series = TimeSeries::from_values(0.0, 1.0, vec![1.0; 4]).unwrap();
        assert!(m.in_sample_mae(&series).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let m = NhppModel::from_log_rates(0.0, 60.0, vec![0.1, -0.2, 0.3], Some(3)).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: NhppModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
