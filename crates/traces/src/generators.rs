//! Synthetic trace generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustscaler_nhpp::{sample_arrivals_thinning, ClosedFormIntensity};
use robustscaler_simulator::{Query, Trace};
use robustscaler_stats::{ContinuousDistribution, Exponential, LogNormal};
use serde::{Deserialize, Serialize};

/// Seconds in one hour.
pub const HOUR: f64 = 3_600.0;
/// Seconds in one day.
pub const DAY: f64 = 86_400.0;
/// Seconds in one week.
const WEEK: f64 = 604_800.0;

/// Processing-time model attached to generated queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProcessingTimeModel {
    /// Deterministic processing time in seconds.
    Deterministic(f64),
    /// Exponential processing time with the given mean (the paper's
    /// scalability study uses Exp(20 s)).
    Exponential {
        /// Mean processing time in seconds.
        mean: f64,
    },
    /// Heavy-tailed log-normal processing time (container image builds).
    LogNormal {
        /// Mean processing time in seconds.
        mean: f64,
        /// Standard deviation in seconds.
        std_dev: f64,
    },
}

impl ProcessingTimeModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ProcessingTimeModel::Deterministic(v) => *v,
            ProcessingTimeModel::Exponential { mean } => Exponential::with_mean(*mean)
                .expect("positive mean")
                .sample(rng),
            ProcessingTimeModel::LogNormal { mean, std_dev } => {
                LogNormal::from_mean_std(*mean, *std_dev)
                    .expect("positive parameters")
                    .sample(rng)
            }
        }
    }

    /// Expected processing time `µ_s`.
    pub fn mean(&self) -> f64 {
        match self {
            ProcessingTimeModel::Deterministic(v) => *v,
            ProcessingTimeModel::Exponential { mean } => *mean,
            ProcessingTimeModel::LogNormal { mean, .. } => *mean,
        }
    }
}

/// Common knobs of the synthetic generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Total duration of the trace in seconds.
    pub duration: f64,
    /// Multiplier applied to the base intensity (use < 1 for faster
    /// experiments, > 1 for stress tests).
    pub traffic_scale: f64,
    /// Processing-time model of the generated queries.
    pub processing: ProcessingTimeModel,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// Defaults for the CRS-like trace: 4 weeks of low, noisy traffic with
    /// long (build-like) processing times.
    pub fn crs_default() -> Self {
        Self {
            duration: 4.0 * WEEK,
            traffic_scale: 1.0,
            processing: ProcessingTimeModel::LogNormal {
                mean: 180.0,
                std_dev: 300.0,
            },
            seed: 2022,
        }
    }

    /// Defaults for the Google-like trace: one day of diurnal traffic.
    pub fn google_default() -> Self {
        Self {
            duration: DAY,
            traffic_scale: 1.0,
            processing: ProcessingTimeModel::Exponential { mean: 60.0 },
            seed: 2019,
        }
    }

    /// Defaults for the Alibaba-like trace: 5 days of high daily-periodic
    /// traffic with a burst anomaly.
    pub fn alibaba_default() -> Self {
        Self {
            duration: 5.0 * DAY,
            traffic_scale: 1.0,
            processing: ProcessingTimeModel::Exponential { mean: 30.0 },
            seed: 2018,
        }
    }
}

/// Sample a trace from an arbitrary intensity function.
fn trace_from_intensity<F>(name: &str, rate: F, config: &TraceConfig, resolution: f64) -> Trace
where
    F: Fn(f64) -> f64,
{
    let scale = config.traffic_scale;
    let intensity =
        ClosedFormIntensity::new(move |t| scale * rate(t), resolution).expect("resolution > 0");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let arrivals = sample_arrivals_thinning(&intensity, 0.0, config.duration, &mut rng);
    let queries: Vec<Query> = arrivals
        .into_iter()
        .map(|arrival| Query {
            arrival,
            processing: config.processing.sample(&mut rng).max(0.01),
        })
        .collect();
    Trace::new(name, queries).expect("generators always produce at least one query")
}

/// Noise helper: a deterministic pseudo-random multiplicative factor that is
/// piecewise constant over 10-minute blocks, reproducing the "very noisy"
/// look of the CRS trace without breaking the NHPP sampling (the factor is
/// part of the intensity, not post-hoc).
fn block_noise(t: f64, seed: u64, amplitude: f64) -> f64 {
    let block = (t / 600.0).floor() as u64;
    // SplitMix64 hash of (block, seed) mapped to [1 − a, 1 + a].
    let mut z = block
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - amplitude + 2.0 * amplitude * unit
}

/// CRS-like trace: weekly pattern (weekdays busier than weekends) modulated
/// by a daily cycle, very low base rate, strong block noise and occasional
/// outlier bursts.
pub fn crs_like(config: &TraceConfig) -> Trace {
    let seed = config.seed;
    let rate = move |t: f64| {
        let day_of_week = ((t / DAY).floor() as i64).rem_euclid(7);
        let weekday_factor = if day_of_week < 5 { 1.0 } else { 0.35 };
        let hour_of_day = (t % DAY) / HOUR;
        // Office-hours hump centred at 14:00.
        let daily = 0.3 + 0.7 * (-((hour_of_day - 14.0) / 5.0).powi(2)).exp();
        // Occasional outlier spikes: a few minutes once every ~2 days.
        let spike = if (t % (2.0 * DAY + 1_234.0)) < 240.0 {
            6.0
        } else {
            1.0
        };
        0.02 * weekday_factor * daily * spike * block_noise(t, seed, 0.6)
    };
    trace_from_intensity("crs-like", rate, config, 60.0)
}

/// Google-like trace: strong diurnal pattern with short recurrent spikes
/// every two hours.
pub fn google_like(config: &TraceConfig) -> Trace {
    let seed = config.seed;
    let rate = move |t: f64| {
        let hour_of_day = (t % DAY) / HOUR;
        let diurnal = 0.25
            + 0.75
                * ((hour_of_day - 4.0) / 24.0 * std::f64::consts::TAU)
                    .sin()
                    .max(0.0);
        // Recurrent submission spikes lasting 5 minutes every 2 hours.
        let spike = if (t % (2.0 * HOUR)) < 300.0 { 3.0 } else { 1.0 };
        0.35 * diurnal * spike * block_noise(t, seed, 0.3)
    };
    trace_from_intensity("google-like", rate, config, 30.0)
}

/// Alibaba-like trace: strong daily periodicity with recurrent spikes and an
/// unexpected burst in the middle of day 4 (the anomaly the robustness
/// experiments erase).
pub fn alibaba_like(config: &TraceConfig) -> Trace {
    let seed = config.seed;
    let rate = move |t: f64| {
        let hour_of_day = (t % DAY) / HOUR;
        // Two daily peaks (late morning and evening batch window).
        let peak1 = (-((hour_of_day - 10.0) / 3.0).powi(2)).exp();
        let peak2 = (-((hour_of_day - 21.0) / 2.5).powi(2)).exp();
        let daily = 0.3 + 2.0 * peak1 + 1.4 * peak2;
        // Recurrent spikes at the top of every hour (batch job submissions).
        let spike = if (t % HOUR) < 120.0 { 2.5 } else { 1.0 };
        // The burst anomaly: 40 minutes in the afternoon of day 4.
        let burst_start = 3.0 * DAY + 15.0 * HOUR;
        let burst = if t >= burst_start && t < burst_start + 2_400.0 {
            6.0
        } else {
            1.0
        };
        1.2 * daily * spike * burst * block_noise(t, seed, 0.2)
    };
    trace_from_intensity("alibaba-like", rate, config, 30.0)
}

/// The paper's closed-form high-QPS intensity (§VII-B2):
/// `λ(t) = peak · 4⁴⁰ · u⁴⁰ (1−u)⁴⁰ + 0.001` with `u = (t mod 3600)/3600`,
/// peaking at `peak` once per hour. The paper uses `peak = 1000 · 4⁴⁰/4⁴⁰ =
/// 10⁴` scale; the `peak` argument makes the sweep explicit.
pub fn simulated_high_qps(
    peak: f64,
    duration: f64,
    processing: ProcessingTimeModel,
    seed: u64,
) -> Trace {
    let config = TraceConfig {
        duration,
        traffic_scale: 1.0,
        processing,
        seed,
    };
    let rate = move |t: f64| {
        let u = (t % HOUR) / HOUR;
        // 4⁴⁰·u⁴⁰(1−u)⁴⁰ peaks at exactly 1 when u = 1/2.
        let shape = (4.0 * u * (1.0 - u)).powi(40);
        peak * shape + 0.001
    };
    trace_from_intensity("simulated-high-qps", rate, &config, 1.0)
}

/// The ground-truth intensity of the periodicity-regularization study
/// (Table III): `λ(t) = 4¹⁰·u¹⁰(1−u)¹⁰ + 0.1` with `u = (t mod 86400)/86400`
/// over one week. Returns the intensity as a closure together with the
/// period length, so the experiment can both sample data and compute exact
/// errors against it.
pub fn periodic_ground_truth() -> (impl Fn(f64) -> f64 + Clone, f64) {
    let rate = |t: f64| {
        let u = (t % DAY) / DAY;
        (4.0 * u * (1.0 - u)).powi(10) + 0.1
    };
    (rate, DAY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_timeseries::{detect_period, PeriodicityConfig, TimeSeries};

    fn small(config: TraceConfig, duration: f64, scale: f64) -> TraceConfig {
        TraceConfig {
            duration,
            traffic_scale: scale,
            ..config
        }
    }

    #[test]
    fn crs_like_has_low_noisy_traffic_and_long_processing() {
        let trace = crs_like(&small(TraceConfig::crs_default(), WEEK, 1.0));
        // Mean QPS of the paper's CRS trace is ~0.0087 (21k queries / 4 weeks);
        // ours should be in the same low range.
        assert!(
            trace.mean_qps() > 0.003 && trace.mean_qps() < 0.05,
            "qps {}",
            trace.mean_qps()
        );
        let mean_processing: f64 =
            trace.queries().iter().map(|q| q.processing).sum::<f64>() / trace.len() as f64;
        assert!(
            mean_processing > 100.0 && mean_processing < 300.0,
            "processing {mean_processing}"
        );
    }

    #[test]
    fn crs_like_shows_a_weekly_pattern() {
        let trace = crs_like(&small(TraceConfig::crs_default(), 4.0 * WEEK, 3.0));
        // Weekday traffic should exceed weekend traffic clearly.
        let mut weekday = 0usize;
        let mut weekend = 0usize;
        for q in trace.queries() {
            let dow = ((q.arrival / DAY).floor() as i64).rem_euclid(7);
            if dow < 5 {
                weekday += 1;
            } else {
                weekend += 1;
            }
        }
        let weekday_rate = weekday as f64 / 5.0;
        let weekend_rate = weekend as f64 / 2.0;
        assert!(
            weekday_rate > 1.8 * weekend_rate,
            "weekday {weekday_rate} vs weekend {weekend_rate}"
        );
    }

    #[test]
    fn google_like_has_diurnal_periodicity_detectable_from_counts() {
        // Generate 4 days so the daily period sits comfortably inside the
        // detector's n/3 lag window.
        let trace = google_like(&small(TraceConfig::google_default(), 4.0 * DAY, 1.0));
        let counts =
            TimeSeries::from_event_times(&trace.arrival_times(), 0.0, 4.0 * DAY, 1_800.0).unwrap();
        let detected = detect_period(&counts, &PeriodicityConfig::default())
            .unwrap()
            .expect("diurnal period expected");
        // One day = 48 buckets of 30 minutes.
        assert!(
            (detected.period as i64 - 48).abs() <= 2,
            "detected {} buckets",
            detected.period
        );
    }

    #[test]
    fn alibaba_like_contains_the_day4_burst() {
        let trace = alibaba_like(&small(TraceConfig::alibaba_default(), 5.0 * DAY, 0.3));
        let burst_start = 3.0 * DAY + 15.0 * HOUR;
        let burst_rate = trace
            .queries()
            .iter()
            .filter(|q| q.arrival >= burst_start && q.arrival < burst_start + 2_400.0)
            .count() as f64
            / 2_400.0;
        // Compare with the same clock window on the previous day.
        let normal_rate = trace
            .queries()
            .iter()
            .filter(|q| q.arrival >= burst_start - DAY && q.arrival < burst_start - DAY + 2_400.0)
            .count() as f64
            / 2_400.0;
        assert!(
            burst_rate > 3.0 * normal_rate,
            "burst {burst_rate} vs normal {normal_rate}"
        );
    }

    #[test]
    fn high_qps_trace_peaks_mid_hour() {
        let trace = simulated_high_qps(
            200.0,
            2.0 * HOUR,
            ProcessingTimeModel::Exponential { mean: 20.0 },
            7,
        );
        // Count arrivals near the peak (u ≈ 0.5) vs near the trough.
        let peak_count = trace
            .queries()
            .iter()
            .filter(|q| (q.arrival % HOUR) > 1_500.0 && (q.arrival % HOUR) < 2_100.0)
            .count();
        let trough_count = trace
            .queries()
            .iter()
            .filter(|q| (q.arrival % HOUR) < 600.0)
            .count();
        assert!(
            peak_count > 20 * (trough_count + 1),
            "peak {peak_count} trough {trough_count}"
        );
    }

    #[test]
    fn ground_truth_intensity_is_daily_periodic() {
        let (rate, period) = periodic_ground_truth();
        assert_eq!(period, DAY);
        for &t in &[1_000.0, 40_000.0, 80_000.0] {
            assert!((rate(t) - rate(t + DAY)).abs() < 1e-12);
        }
        // Peak at midday is 1.1, trough at midnight is 0.1.
        assert!((rate(DAY / 2.0) - 1.1).abs() < 1e-9);
        assert!((rate(0.0) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn traffic_scale_controls_the_volume() {
        let base = google_like(&small(TraceConfig::google_default(), DAY / 2.0, 1.0));
        let double = google_like(&small(TraceConfig::google_default(), DAY / 2.0, 2.0));
        let ratio = double.len() as f64 / base.len() as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic_given_the_seed() {
        let a = google_like(&small(TraceConfig::google_default(), HOUR * 6.0, 1.0));
        let b = google_like(&small(TraceConfig::google_default(), HOUR * 6.0, 1.0));
        assert_eq!(a, b);
        let mut other_seed = small(TraceConfig::google_default(), HOUR * 6.0, 1.0);
        other_seed.seed = 999;
        let c = google_like(&other_seed);
        assert_ne!(a, c);
    }

    #[test]
    fn processing_models_report_their_means() {
        assert_eq!(ProcessingTimeModel::Deterministic(5.0).mean(), 5.0);
        assert_eq!(ProcessingTimeModel::Exponential { mean: 20.0 }.mean(), 20.0);
        assert_eq!(
            ProcessingTimeModel::LogNormal {
                mean: 180.0,
                std_dev: 10.0
            }
            .mean(),
            180.0
        );
    }
}
