//! Monte Carlo sampling of the time of the i-th upcoming arrival.
//!
//! Under an NHPP with intensity `λ(t)` and current time `t₀`, the time
//! rescaling theorem gives `ξ_i = Λ⁻¹(t₀, γ_i)` where `γ_i ~ Gamma(i, 1)`.
//! The decision rules of paper eqs. (3), (5) and (7) only need Monte Carlo
//! samples of `ξ_i` (jointly across `i` for efficiency): sampling the whole
//! path of standard-exponential increments and transforming it through the
//! inverse integrated intensity yields exactly that.
//!
//! # Engine layout
//!
//! Serving plans with the exact engine and draws no samples; the sampler
//! is the Monte Carlo engine (Algorithm 3) behind Table I, Fig. 8's Monte
//! Carlo curve and the oracle proptests in `tests/decision_engine.rs`,
//! which all run many replications. Its representation is chosen for the
//! access pattern of the decision rules:
//!
//! * **Flat, arrival-major storage.** All `R × horizon` samples live in one
//!   contiguous matrix with the samples of one arrival index stored
//!   consecutively, so [`ArrivalSampler::arrival_samples`] is a zero-copy
//!   `&[f64]` slice — the decision rules iterate it without any per-call
//!   allocation.
//! * **Per-path RNG streams.** Each replication path draws its exponential
//!   increments from its own deterministic stream, split off the caller's
//!   RNG via a single SplitMix64 jump per path. Sampling is therefore
//!   embarrassingly parallel *and* byte-identical no matter how many worker
//!   threads run.
//! * **Monotone inverse cursors.** The cumulative mass within a path never
//!   decreases, so each path carries a bucket hint while it is sampled and
//!   inverts via [`Intensity::inverse_integrated_hinted`] — an O(1)
//!   amortized forward scan instead of a per-arrival binary search over the
//!   intensity buckets.

use crate::error::ScalingError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustscaler_nhpp::{Intensity, InverseHint};

/// Fixed increment of the SplitMix64 sequence; adding multiples of it to the
/// base seed before the generator's own SplitMix64 expansion hands each path
/// the state of a distinct step of that sequence — well-mixed, collision-free
/// per-path seeds.
const SEED_STREAM_INCREMENT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum number of samples a worker thread must have to generate before
/// spawning threads pays for itself (thread startup is ~10 µs; one sample is
/// ~10 ns of RNG plus a log and an inversion step).
const MIN_SAMPLES_PER_THREAD: usize = 8_192;

/// One replication path's generator state while the sampler is built.
#[derive(Debug, Clone)]
struct PathState {
    /// The path's private RNG stream.
    rng: StdRng,
    /// Cumulative standard-exponential mass `γ` drawn so far.
    cumulative: f64,
    /// Last emitted arrival time (monotonicity guard).
    previous: f64,
    /// Resumable state of the monotone inverse cursor.
    hint: InverseHint,
}

/// Samples of upcoming arrival times relative to a fixed "now".
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    /// Arrival-major sample matrix: `data[k * replications + r]` is the r-th
    /// Monte Carlo sample of the (k+1)-th upcoming arrival time (absolute).
    data: Vec<f64>,
    replications: usize,
    horizon: usize,
    now: f64,
}

impl ArrivalSampler {
    /// Draw `replications` Monte Carlo paths of the next `horizon_arrivals`
    /// arrival times after `now` under the forecast `intensity`.
    ///
    /// Only one `u64` is drawn from `rng`: it seeds the per-path streams, so
    /// the samples are fully determined by that draw regardless of thread
    /// count.
    pub fn new<I, R>(
        intensity: &I,
        now: f64,
        horizon_arrivals: usize,
        replications: usize,
        rng: &mut R,
    ) -> Result<Self, ScalingError>
    where
        I: Intensity + Sync,
        R: Rng + ?Sized,
    {
        if horizon_arrivals == 0 {
            return Err(ScalingError::InvalidParameter(
                "horizon_arrivals must be >= 1",
            ));
        }
        if replications == 0 {
            return Err(ScalingError::InvalidParameter("replications must be >= 1"));
        }
        let base_seed: u64 = rng.gen();
        // Prime one inverse cursor at `now` and start every path from a copy:
        // the bucket search that locates `now`'s linear piece of the
        // integrated intensity then runs once per sampler instead of once per
        // path. Bit-identical to starting from `InverseHint::default()` — the
        // cached piece inverts with the same arithmetic the slow path uses,
        // and a path whose first goal misses the primed piece simply takes
        // the slow path exactly as it would have.
        let mut template_hint = InverseHint::default();
        intensity.inverse_integrated_hinted(now, f64::MIN_POSITIVE, &mut template_hint);
        let mut paths: Vec<PathState> = (0..replications)
            .map(|r| PathState {
                rng: StdRng::seed_from_u64(
                    base_seed.wrapping_add((r as u64).wrapping_mul(SEED_STREAM_INCREMENT)),
                ),
                cumulative: 0.0,
                previous: now,
                hint: template_hint,
            })
            .collect();
        Ok(Self {
            data: sample_matrix(intensity, now, horizon_arrivals, &mut paths),
            replications,
            horizon: horizon_arrivals,
            now,
        })
    }

    /// The planning time `t₀`.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of Monte Carlo replications.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// Number of upcoming arrivals covered per replication.
    pub fn horizon_arrivals(&self) -> usize {
        self.horizon
    }

    /// The Monte Carlo samples of the `index`-th upcoming arrival
    /// (1-based, matching the paper's `ξ_i`) — a zero-copy view into the
    /// sampler's matrix.
    pub fn arrival_samples(&self, index: usize) -> Result<&[f64], ScalingError> {
        if index == 0 || index > self.horizon {
            return Err(ScalingError::InvalidParameter(
                "arrival index outside the sampled horizon",
            ));
        }
        Ok(&self.data[(index - 1) * self.replications..][..self.replications])
    }

    /// Mean of the `index`-th upcoming arrival time.
    pub fn mean_arrival(&self, index: usize) -> Result<f64, ScalingError> {
        let samples = self.arrival_samples(index)?;
        Ok(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Sample `horizon` arrivals on every path into the arrival-major matrix.
fn sample_matrix<I>(intensity: &I, now: f64, horizon: usize, paths: &mut [PathState]) -> Vec<f64>
where
    I: Intensity + Sync + ?Sized,
{
    let replications = paths.len();
    let mut data = vec![0.0; horizon * replications];
    let threads = available_threads_for(replications * horizon);
    if threads == 1 {
        // Serial: write straight into the arrival-major matrix. The
        // strided stores stay cache-resident because consecutive paths
        // share each column cacheline and one path touches only
        // `horizon` lines (≤ a few KB for realistic horizons).
        for (r, path) in paths.iter_mut().enumerate() {
            let mut slot = r;
            sample_row(intensity, now, horizon, path, |_, t| {
                data[slot] = t;
                slot += replications;
            });
        }
        return data;
    }
    // Parallel: workers generate into row-major per-chunk buffers (each
    // path's arrivals contiguous) so the expensive part — RNG, log,
    // inversion — parallelizes without sharing the matrix; the transpose
    // into arrival-major storage happens on the calling thread. Per-path
    // RNG streams keep the output identical for any worker count.
    let chunks = robustscaler_parallel::map_chunks_mut(paths, threads, |_, chunk| {
        let mut rows = vec![0.0_f64; chunk.len() * horizon];
        for (i, path) in chunk.iter_mut().enumerate() {
            let row = &mut rows[i * horizon..(i + 1) * horizon];
            sample_row(intensity, now, horizon, path, |k, t| row[k] = t);
        }
        rows
    });
    // Transpose the row-major worker buffers into the arrival-major matrix
    // in path tiles: within one tile the source rows stay resident in L1
    // across all columns, instead of every read touching a cold cacheline.
    const TILE_PATHS: usize = 16;
    let mut r0 = 0;
    for rows in chunks {
        let chunk_paths = rows.len() / horizon;
        for i0 in (0..chunk_paths).step_by(TILE_PATHS) {
            let i1 = (i0 + TILE_PATHS).min(chunk_paths);
            for k in 0..horizon {
                let column = &mut data[k * replications..][..replications];
                for i in i0..i1 {
                    column[r0 + i] = rows[i * horizon + k];
                }
            }
        }
        r0 += chunk_paths;
    }
    data
}

/// How many worker threads to use for generating `samples` samples.
fn available_threads_for(samples: usize) -> usize {
    (samples / MIN_SAMPLES_PER_THREAD).clamp(1, robustscaler_parallel::available_threads())
}

/// Sample one path's next `count` arrivals, advancing its state and
/// handing each `(column, arrival_time)` to `emit`.
#[inline]
fn sample_row<I: Intensity + ?Sized>(
    intensity: &I,
    now: f64,
    count: usize,
    path: &mut PathState,
    mut emit: impl FnMut(usize, f64),
) {
    for k in 0..count {
        let u: f64 = path.rng.gen();
        path.cumulative += -(1.0 - u).ln();
        // Λ⁻¹ is evaluated from `now` with the cumulative mass so the
        // per-step numerical error does not accumulate.
        let t = intensity.inverse_integrated_hinted(now, path.cumulative, &mut path.hint);
        let t = if t.is_finite() { t } else { f64::MAX / 4.0 };
        // Monotonicity guard against numerical jitter.
        let t = t.max(path.previous);
        path.previous = t;
        emit(k, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_nhpp::PiecewiseConstantIntensity;
    use robustscaler_stats::{ContinuousDistribution, Gamma};

    fn constant_intensity(rate: f64) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::new(0.0, 1_000_000.0, vec![rate]).unwrap()
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let intensity = constant_intensity(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ArrivalSampler::new(&intensity, 0.0, 0, 10, &mut rng).is_err());
        assert!(ArrivalSampler::new(&intensity, 0.0, 10, 0, &mut rng).is_err());
    }

    #[test]
    fn constant_rate_arrivals_follow_gamma_distribution() {
        // Under rate λ, ξ_i − t₀ ~ Gamma(i, 1/λ).
        let rate = 0.5;
        let intensity = constant_intensity(rate);
        let mut rng = StdRng::seed_from_u64(2);
        let sampler = ArrivalSampler::new(&intensity, 100.0, 5, 40_000, &mut rng).unwrap();
        assert_eq!(sampler.replications(), 40_000);
        assert_eq!(sampler.horizon_arrivals(), 5);
        assert_eq!(sampler.now(), 100.0);
        for i in [1usize, 3, 5] {
            let gamma = Gamma::new(i as f64, 1.0 / rate).unwrap();
            let mean = sampler.mean_arrival(i).unwrap() - 100.0;
            assert!(
                (mean - gamma.mean()).abs() / gamma.mean() < 0.03,
                "i={i}: mean {mean} vs {}",
                gamma.mean()
            );
            // Check a couple of quantiles as well.
            let mut samples: Vec<f64> = sampler
                .arrival_samples(i)
                .unwrap()
                .iter()
                .map(|t| t - 100.0)
                .collect();
            samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            for &p in &[0.1, 0.5, 0.9] {
                let empirical = samples[(p * samples.len() as f64) as usize];
                let theoretical = gamma.quantile(p);
                assert!(
                    (empirical - theoretical).abs() / theoretical < 0.05,
                    "i={i} p={p}: {empirical} vs {theoretical}"
                );
            }
        }
    }

    #[test]
    fn arrival_order_is_preserved_within_each_path() {
        let intensity =
            PiecewiseConstantIntensity::new(0.0, 50.0, vec![0.01, 2.0, 0.3, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = ArrivalSampler::new(&intensity, 10.0, 20, 200, &mut rng).unwrap();
        for r in 0..200 {
            let path: Vec<f64> = (1..=20)
                .map(|i| sampler.arrival_samples(i).unwrap()[r])
                .collect();
            for w in path.windows(2) {
                assert!(w[1] >= w[0]);
            }
            assert!(path[0] >= 10.0);
        }
    }

    #[test]
    fn later_indices_arrive_later_in_expectation() {
        let intensity = constant_intensity(2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let sampler = ArrivalSampler::new(&intensity, 0.0, 10, 5_000, &mut rng).unwrap();
        let mut prev = 0.0;
        for i in 1..=10 {
            let mean = sampler.mean_arrival(i).unwrap();
            assert!(mean > prev);
            prev = mean;
        }
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let intensity = constant_intensity(1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = ArrivalSampler::new(&intensity, 0.0, 3, 10, &mut rng).unwrap();
        assert!(sampler.arrival_samples(0).is_err());
        assert!(sampler.arrival_samples(4).is_err());
        assert!(sampler.arrival_samples(3).is_ok());
    }

    #[test]
    fn vanishing_intensity_pushes_arrivals_far_into_the_future() {
        // A tiny tail rate means later arrivals are effectively "never".
        let intensity = PiecewiseConstantIntensity::new(0.0, 10.0, vec![1.0, 1e-12]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let sampler = ArrivalSampler::new(&intensity, 0.0, 50, 50, &mut rng).unwrap();
        let far = sampler.mean_arrival(50).unwrap();
        assert!(far > 1e6);
    }

    #[test]
    fn sampling_is_independent_of_the_worker_count() {
        // Force both the inline path (tiny sampler) and the threaded path
        // (large sampler) and compare against per-path recomputation: the
        // matrix layout must hold exactly the per-path streams.
        let intensity =
            PiecewiseConstantIntensity::new(0.0, 40.0, vec![0.2, 2.0, 0.05, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let base_seed: u64 = StdRng::seed_from_u64(9).gen();
        let sampler = ArrivalSampler::new(&intensity, 2.0, 8, 4_096, &mut rng).unwrap();
        for &r in &[0usize, 1, 17, 4_095] {
            let mut path_rng = StdRng::seed_from_u64(
                base_seed.wrapping_add((r as u64).wrapping_mul(SEED_STREAM_INCREMENT)),
            );
            let mut cumulative = 0.0;
            let mut previous = 2.0;
            for k in 1..=8 {
                let u: f64 = path_rng.gen();
                cumulative += -(1.0 - u).ln();
                let t = intensity.inverse_integrated(2.0, cumulative).max(previous);
                previous = t;
                assert_eq!(sampler.arrival_samples(k).unwrap()[r], t, "r={r} k={k}");
            }
        }
    }
}
