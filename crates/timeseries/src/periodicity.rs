//! Robust periodicity detection.
//!
//! The paper's first module detects cyclic patterns in the aggregated QPS
//! series using robust periodicity detection (RobustPeriod, reference \[18\]).
//! This implementation follows the same spirit with a self-contained
//! pipeline:
//!
//! 1. interpolate missing buckets and aggregate (caller-controlled),
//! 2. Hampel-filter outliers and remove a linear trend,
//! 3. compute the autocorrelation function (ACF) of the cleaned series,
//! 4. find local ACF maxima whose value exceeds a significance threshold
//!    derived from the large-lag standard error `1/√n`, and
//! 5. validate candidates by checking that the ACF also peaks at integer
//!    multiples of the candidate period (harmonic consistency), which
//!    suppresses spurious peaks created by noise or isolated bursts.

use crate::error::TimeSeriesError;
use crate::filters::{detrend_linear, hampel_filter, interpolate_missing};
use crate::series::TimeSeries;
use robustscaler_stats::Autocorrelation;
use serde::{Deserialize, Serialize};

/// Configuration of the periodicity detector.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PeriodicityConfig {
    /// Smallest period (in buckets) considered.
    pub min_period: usize,
    /// Largest period (in buckets) considered; capped at `len / 3` so at
    /// least three full cycles support the detection.
    pub max_period: Option<usize>,
    /// Multiplier of the `1/√n` ACF standard error used as the significance
    /// threshold (default 3 ≈ 99.7% under the white-noise null).
    pub significance: f64,
    /// Half-window of the Hampel outlier filter applied before the ACF.
    pub hampel_half_window: usize,
    /// Hampel threshold in robust standard deviations.
    pub hampel_threshold: f64,
    /// Maximum number of distinct periods reported by [`detect_periods`].
    pub max_periods: usize,
    /// Minimum prominence of an ACF peak: the ACF must dip at least this far
    /// below the peak at some shorter lag. This rejects the spuriously high
    /// "peaks" that sit on the slowly decaying initial stretch of the ACF of
    /// any smooth series.
    pub min_prominence: f64,
}

impl Default for PeriodicityConfig {
    fn default() -> Self {
        Self {
            min_period: 2,
            max_period: None,
            significance: 3.0,
            hampel_half_window: 5,
            hampel_threshold: 3.0,
            max_periods: 3,
            min_prominence: 0.1,
        }
    }
}

/// A detected period with its supporting evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodicityResult {
    /// Period length in buckets of the analyzed series.
    pub period: usize,
    /// ACF value at the period lag.
    pub acf: f64,
    /// Fraction of tested harmonics whose ACF is also significant.
    pub harmonic_support: f64,
}

/// Detect the dominant period of a series. Returns `Ok(None)` when no
/// statistically significant periodicity is found.
pub fn detect_period(
    series: &TimeSeries,
    config: &PeriodicityConfig,
) -> Result<Option<PeriodicityResult>, TimeSeriesError> {
    Ok(detect_periods(series, config)?.into_iter().next())
}

/// Detect up to `config.max_periods` distinct periods, strongest first.
pub fn detect_periods(
    series: &TimeSeries,
    config: &PeriodicityConfig,
) -> Result<Vec<PeriodicityResult>, TimeSeriesError> {
    let n = series.len();
    if n < config.min_period * 3 || n < 6 {
        return Err(TimeSeriesError::TooShort {
            required: (config.min_period * 3).max(6),
            actual: n,
        });
    }

    // 1-2. Repair missing data, remove outliers and a linear trend.
    let filled = interpolate_missing(series.optional_values())?;
    let (clean, _) = hampel_filter(&filled, config.hampel_half_window, config.hampel_threshold);
    let detrended = detrend_linear(&clean);

    // 3-5. Iteratively find the strongest significant period, subtract its
    // per-phase (seasonal) contribution, and search the residual again. The
    // subtraction step lets nested periodicities (e.g. daily inside weekly)
    // be recovered one at a time, as RobustPeriod does with its filter bank.
    let max_lag = config
        .max_period
        .unwrap_or(usize::MAX)
        .min(n / 3)
        .max(config.min_period);
    let threshold = config.significance / (n as f64).sqrt();

    let mut remaining = detrended;
    let mut results: Vec<PeriodicityResult> = Vec::new();
    for _round in 0..config.max_periods {
        let table = Autocorrelation::new(&remaining);
        let acf: Vec<f64> = (0..=max_lag).map(|lag| table.at(lag)).collect();

        // Local maxima of the ACF above the significance threshold. The lag
        // equal to `max_lag` itself is eligible (its right neighbour is
        // unobserved and treated as not larger), so a period sitting exactly
        // at the n/3 boundary is still detectable. Each peak must also be
        // *prominent*: the ACF has to dip well below the peak somewhere at a
        // shorter lag, otherwise the "peak" is just noise riding on the slowly
        // decaying start of the ACF of a smooth series.
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let mut running_min = f64::INFINITY;
        let prominence = config.min_prominence.max(threshold);
        for lag in config.min_period..=max_lag {
            let v = acf[lag];
            running_min = running_min.min(acf[lag - 1]);
            let right = acf.get(lag + 1).copied().unwrap_or(f64::NEG_INFINITY);
            if v > threshold && v >= acf[lag - 1] && v >= right && v - running_min >= prominence {
                candidates.push((lag, v));
            }
        }
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("ACF is finite"));

        let mut accepted: Option<PeriodicityResult> = None;
        for (lag, v) in candidates {
            // Skip lags that are (approximately) multiples of an already
            // accepted shorter period — harmonics, not new periods.
            let is_harmonic_of_existing = results.iter().any(|r| {
                let ratio = lag as f64 / r.period as f64;
                (ratio - ratio.round()).abs() < 0.05 && ratio >= 1.95
            });
            if is_harmonic_of_existing {
                continue;
            }
            let mut harmonics_tested = 0;
            let mut harmonics_ok = 0;
            let mut k = 2;
            while k * lag <= max_lag && harmonics_tested < 3 {
                harmonics_tested += 1;
                // Allow a ±1 lag slack when checking the harmonic peak.
                let around = [
                    acf.get(k * lag - 1).copied().unwrap_or(0.0),
                    acf[k * lag],
                    acf.get(k * lag + 1).copied().unwrap_or(0.0),
                ];
                if around.iter().cloned().fold(f64::MIN, f64::max) > threshold {
                    harmonics_ok += 1;
                }
                k += 1;
            }
            let harmonic_support = if harmonics_tested == 0 {
                1.0
            } else {
                harmonics_ok as f64 / harmonics_tested as f64
            };
            // Require at least half of the tested harmonics to be significant;
            // when no harmonic fits in the window the ACF peak alone decides.
            if harmonics_tested == 0 || harmonic_support >= 0.5 {
                accepted = Some(PeriodicityResult {
                    period: lag,
                    acf: v,
                    harmonic_support,
                });
                break;
            }
        }

        let Some(result) = accepted else { break };
        results.push(result);
        // Subtract the per-phase mean at the accepted period so weaker,
        // non-harmonic periodicities become visible in the next round.
        let p = result.period;
        let mut phase_sum = vec![0.0_f64; p];
        let mut phase_count = vec![0_usize; p];
        for (i, &v) in remaining.iter().enumerate() {
            phase_sum[i % p] += v;
            phase_count[i % p] += 1;
        }
        for (i, v) in remaining.iter_mut().enumerate() {
            let phase = i % p;
            if phase_count[phase] > 0 {
                *v -= phase_sum[phase] / phase_count[phase] as f64;
            }
        }
    }
    Ok(results)
}

/// Refine a candidate period against a (typically higher-resolution) series
/// by maximizing a harmonic "comb" ACF score.
///
/// Periodicity detection is usually run on a time-aggregated series to
/// suppress random effects, which quantizes the detected period to the
/// aggregation grid and lets the ACF peak drift a few aggregated lags under
/// noise or secondary (e.g. weekly) structure. A period that is even a few
/// buckets off dephases a forecast extrapolated over many cycles, so the
/// pipeline re-estimates it at full resolution: for each period `p` within
/// `candidate ± slack`, score `p` by the mean ACF over its first few
/// multiples (`acf(p)`, `acf(2p)`, `acf(3p)`). Scoring the multiples is what
/// gives the estimate its precision — an error of `e` buckets at lag `p`
/// grows to `3e` at lag `3p`, so wrong periods are punished much harder than
/// at the fundamental lag alone.
///
/// Returns the best-scoring period, or the unchanged candidate when the
/// series is too short to score any alternative.
pub fn refine_period(
    series: &TimeSeries,
    candidate: usize,
    slack: usize,
    config: &PeriodicityConfig,
) -> Result<usize, TimeSeriesError> {
    let n = series.len();
    if candidate < 2 || n < 2 * candidate {
        return Ok(candidate);
    }
    // Same cleaning as detection: repair, de-spike, detrend.
    let filled = interpolate_missing(series.optional_values())?;
    let (clean, _) = hampel_filter(&filled, config.hampel_half_window, config.hampel_threshold);
    let detrended = detrend_linear(&clean);

    let lo = candidate.saturating_sub(slack).max(2);
    let hi = (candidate + slack).min(n / 2);
    // Score every candidate over the same harmonics. The count is fixed by
    // the largest candidate (each multiple needs at least half a period of
    // overlap supporting the ACF), so no candidate gains or loses a harmonic
    // at a length cutoff inside the window — the comparison stays apples to
    // apples. k = 1 always fits because `hi <= n/2`. The higher multiples
    // are what separate the true period from a nearby impostor: an error of
    // `e` buckets at lag `p` grows to `3e` at lag `3p`.
    let harmonics = (1..=3usize)
        .take_while(|k| k * hi + hi / 2 <= n)
        .count()
        .max(1);
    let acf = Autocorrelation::new(&detrended);
    let mut best = candidate;
    let mut best_score = f64::NEG_INFINITY;
    for p in lo..=hi {
        let score = (1..=harmonics).map(|k| acf.at(k * p)).sum::<f64>() / harmonics as f64;
        if score > best_score {
            best_score = score;
            best = p;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn periodic_series(
        n: usize,
        period: usize,
        noise: f64,
        outliers: usize,
        missing: usize,
        seed: u64,
    ) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<Option<f64>> = (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64;
                let base = 10.0 + 5.0 * phase.sin() + 2.0 * (2.0 * phase).cos();
                Some(base + noise * (rng.gen::<f64>() - 0.5))
            })
            .collect();
        for _ in 0..outliers {
            let idx = rng.gen_range(0..n);
            values[idx] = Some(100.0 + rng.gen::<f64>() * 50.0);
        }
        for _ in 0..missing {
            let idx = rng.gen_range(0..n);
            values[idx] = None;
        }
        TimeSeries::from_optional_values(0.0, 60.0, values).unwrap()
    }

    #[test]
    fn detects_clean_periodicity() {
        let s = periodic_series(600, 24, 0.1, 0, 0, 1);
        let r = detect_period(&s, &PeriodicityConfig::default())
            .unwrap()
            .expect("period expected");
        assert_eq!(r.period, 24);
        assert!(r.acf > 0.8);
        assert!(r.harmonic_support >= 0.5);
    }

    #[test]
    fn detects_periodicity_under_noise_outliers_and_missing_data() {
        let s = periodic_series(800, 48, 4.0, 20, 30, 2);
        let r = detect_period(&s, &PeriodicityConfig::default())
            .unwrap()
            .expect("period expected");
        assert!(
            (r.period as i64 - 48).unsigned_abs() <= 1,
            "detected {} instead of 48",
            r.period
        );
    }

    #[test]
    fn white_noise_has_no_period() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
        let s = TimeSeries::from_values(0.0, 60.0, values).unwrap();
        let r = detect_period(&s, &PeriodicityConfig::default()).unwrap();
        assert!(r.is_none(), "spurious period {:?}", r);
    }

    #[test]
    fn constant_series_has_no_period() {
        let s = TimeSeries::from_values(0.0, 60.0, vec![5.0; 300]).unwrap();
        assert!(detect_period(&s, &PeriodicityConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn too_short_series_is_rejected() {
        let s = TimeSeries::from_values(0.0, 60.0, vec![1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            detect_period(&s, &PeriodicityConfig::default()),
            Err(TimeSeriesError::TooShort { .. })
        ));
    }

    #[test]
    fn nested_daily_and_weekly_periods_are_both_reported() {
        // A "daily" period of 24 buckets nested inside a "weekly" period of
        // 168 buckets — the structure of the CRS workload in the paper.
        let n = 1400;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let daily = 2.0 * std::f64::consts::PI * i as f64 / 24.0;
                let weekly = 2.0 * std::f64::consts::PI * i as f64 / 168.0;
                3.0 * daily.sin() + 6.0 * weekly.sin() + 20.0
            })
            .collect();
        let s = TimeSeries::from_values(0.0, 60.0, values).unwrap();
        let rs = detect_periods(&s, &PeriodicityConfig::default()).unwrap();
        assert!(!rs.is_empty());
        // The weekly period of 168 buckets fully explains the nested daily
        // pattern (24 divides 168), so it must be the dominant detection —
        // this is exactly the L the D_L regularizer needs.
        assert!(
            (rs[0].period as i64 - 168).abs() <= 2,
            "dominant period {} should be ~168",
            rs[0].period
        );
        // No spurious longer periods (e.g. unfiltered harmonics) may appear.
        assert!(rs.iter().all(|r| r.period <= 170));
    }

    #[test]
    fn refine_period_recovers_the_exact_period_from_a_coarse_candidate() {
        // The true period is 48; a detector working on aggregated data might
        // hand over 45 or 52 — refinement at full resolution must snap back.
        let s = periodic_series(800, 48, 2.0, 5, 10, 7);
        let config = PeriodicityConfig::default();
        for candidate in [44, 45, 48, 51, 52] {
            let refined = refine_period(&s, candidate, 6, &config).unwrap();
            assert!(
                (refined as i64 - 48).abs() <= 1,
                "candidate {candidate} refined to {refined}, expected ~48"
            );
        }
    }

    #[test]
    fn refine_period_leaves_short_series_and_degenerate_candidates_alone() {
        let s = periodic_series(100, 24, 0.1, 0, 0, 9);
        let config = PeriodicityConfig::default();
        // Series shorter than two candidate periods: unchanged.
        assert_eq!(refine_period(&s, 60, 10, &config).unwrap(), 60);
        // Degenerate candidates: unchanged.
        assert_eq!(refine_period(&s, 0, 5, &config).unwrap(), 0);
        assert_eq!(refine_period(&s, 1, 5, &config).unwrap(), 1);
    }

    #[test]
    fn respects_max_period_cap() {
        let s = periodic_series(600, 24, 0.1, 0, 0, 5);
        let config = PeriodicityConfig {
            max_period: Some(10),
            ..PeriodicityConfig::default()
        };
        // The 24-bucket period cannot be found when the cap is 10; either a
        // harmonic-free sub-period or nothing is returned, but never > 10.
        let rs = detect_periods(&s, &config).unwrap();
        assert!(rs.iter().all(|r| r.period <= 10));
    }
}
