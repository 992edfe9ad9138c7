//! Sort-and-search stochastic root finding (paper Algorithm 3).
//!
//! Two empirical functions of the creation time `x` appear in the decision
//! rules, both piecewise linear and monotone in `x` with breakpoints at the
//! Monte Carlo samples:
//!
//! * the expected waiting time
//!   `Ŵ(x) = (1/R) Σ_r (τ_r − (ξ_r − x)⁺)⁺` — non-decreasing in `x`
//!   (creating later means more waiting), slope `+1/R` after each
//!   `ξ_r − τ_r` and `−1/R` after each `ξ_r`;
//! * the expected idle cost
//!   `Ĉ(x) = (1/R) Σ_r (ξ_r − τ_r − x)⁺` — non-increasing in `x`
//!   (creating later means less idling), slope `−1/R` until each `ξ_r − τ_r`.
//!
//! Both roots are found by sorting the breakpoints once and sweeping the
//! linear pieces, i.e. `O(R log R)` — exactly Algorithm 3's complexity.

use robustscaler_scaling::ScalingError;

/// Internal view of the `(ξ_r, τ_r)` Monte Carlo samples. The root solvers
/// are generic over the storage so the decision path can feed a flat
/// arrival row borrowed from the sampler matrix plus one deterministic
/// pending time, while the pair-based public API keeps its shape; both
/// instantiations run identical arithmetic in identical order, so their
/// results are bit-for-bit equal for equal sample values.
trait SampleView {
    fn len(&self) -> usize;
    fn xi(&self, r: usize) -> f64;
    fn tau(&self, r: usize) -> f64;
}

impl SampleView for &[(f64, f64)] {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }
    #[inline]
    fn xi(&self, r: usize) -> f64 {
        self[r].0
    }
    #[inline]
    fn tau(&self, r: usize) -> f64 {
        self[r].1
    }
}

struct FlatSamples<'a> {
    xis: &'a [f64],
    tau: f64,
}

impl SampleView for FlatSamples<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.xis.len()
    }
    #[inline]
    fn xi(&self, r: usize) -> f64 {
        self.xis[r]
    }
    #[inline]
    fn tau(&self, _r: usize) -> f64 {
        self.tau
    }
}

/// Evaluate the empirical expected waiting time `Ŵ(x)` directly (O(R)).
/// Exposed for tests and calibration diagnostics.
pub fn empirical_waiting(samples: &[(f64, f64)], x: f64) -> f64 {
    // samples are (ξ_r, τ_r) pairs.
    let r = samples.len() as f64;
    samples
        .iter()
        .map(|&(xi, tau)| (tau - (xi - x).max(0.0)).max(0.0))
        .sum::<f64>()
        / r
}

/// Evaluate the empirical expected idle cost `Ĉ(x)` directly (O(R)).
pub fn empirical_idle_cost(samples: &[(f64, f64)], x: f64) -> f64 {
    idle_cost_at(&samples, x)
}

fn idle_cost_at<S: SampleView>(samples: &S, x: f64) -> f64 {
    let r = samples.len() as f64;
    (0..samples.len())
        .map(|i| (samples.xi(i) - samples.tau(i) - x).max(0.0))
        .sum::<f64>()
        / r
}

/// Solve `Ŵ(x) = target` for the *largest* such `x` when the target is
/// attainable (the latest creation time that still meets the expected
/// waiting-time budget, which is the cost-optimal choice of eq. 5).
///
/// Returns:
/// * `Ok(x)` with the root when `0 ≤ target ≤ max Ŵ`,
/// * `Ok(largest ξ sample)` when `target ≥ mean(τ)` (any sufficiently late
///   creation meets the budget; the paper's Algorithm 3 returns `ξ^{(R)}`),
/// * `Err(Infeasible)` when `target < 0` (impossible budget).
///
/// Allocates a 2R-element breakpoint buffer per call; planner-style loops
/// that solve many roots should hold a scratch buffer and call
/// [`solve_waiting_root_with`] instead.
pub fn solve_waiting_root(samples: &[(f64, f64)], target: f64) -> Result<f64, ScalingError> {
    let mut breakpoints = Vec::new();
    solve_waiting_root_with(samples, target, &mut breakpoints)
}

/// [`solve_waiting_root`] with a caller-provided breakpoint scratch buffer
/// (cleared and refilled on every call), so per-decision allocation drops to
/// zero once the buffer has grown to 2R entries.
pub fn solve_waiting_root_with(
    samples: &[(f64, f64)],
    target: f64,
    breakpoints: &mut Vec<(f64, f64)>,
) -> Result<f64, ScalingError> {
    waiting_root_impl(&samples, target, breakpoints)
}

/// [`solve_waiting_root_with`] over a flat arrival column: the samples `ξ_r`
/// are a borrowed row of the sampler matrix and every replication has the
/// deterministic pending time `tau`. Bit-identical to the pair-based solver
/// for the same `(ξ_r, τ)` values, without materializing the pairs.
pub fn solve_waiting_root_flat(
    xis: &[f64],
    tau: f64,
    target: f64,
    breakpoints: &mut Vec<(f64, f64)>,
) -> Result<f64, ScalingError> {
    waiting_root_impl(&FlatSamples { xis, tau }, target, breakpoints)
}

fn waiting_root_impl<S: SampleView>(
    samples: &S,
    target: f64,
    breakpoints: &mut Vec<(f64, f64)>,
) -> Result<f64, ScalingError> {
    let n = samples.len();
    if n == 0 {
        return Err(ScalingError::InvalidParameter(
            "at least one Monte Carlo sample is required",
        ));
    }
    if target < 0.0 {
        return Err(ScalingError::Infeasible(
            "expected waiting-time budget is negative",
        ));
    }
    let r = n as f64;
    // Breakpoints: +1/R slope change at ξ−τ, −1/R at ξ.
    breakpoints.clear();
    breakpoints.reserve(n * 2);
    for i in 0..n {
        let (xi, tau) = (samples.xi(i), samples.tau(i));
        breakpoints.push((xi - tau, 1.0 / r));
        breakpoints.push((xi, -1.0 / r));
    }
    breakpoints.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite breakpoints"));

    let max_value = (0..n).map(|i| samples.tau(i)).sum::<f64>() / r;
    if target >= max_value {
        // Any x beyond the largest arrival sample attains the maximum; the
        // paper returns ξ^{(R)}.
        let largest_xi = (0..n)
            .map(|i| samples.xi(i))
            .fold(f64::NEG_INFINITY, f64::max);
        return Ok(largest_xi);
    }

    // Sweep the linear pieces left to right.
    let mut slope = 0.0;
    let mut value = 0.0;
    let mut x_prev = breakpoints[0].0;
    if target == 0.0 {
        return Ok(x_prev);
    }
    for &(x_bp, slope_delta) in breakpoints.iter() {
        let value_next = value + slope * (x_bp - x_prev);
        if value < target && target <= value_next {
            // The root lies inside this piece.
            return Ok(x_prev + (target - value) / slope);
        }
        value = value_next;
        slope += slope_delta;
        x_prev = x_bp;
    }
    // target < max_value guarantees the loop found the piece; reaching here
    // means floating-point slack — return the last breakpoint.
    Ok(x_prev)
}

/// Solve `Ĉ(x) = target` for the unique root of the non-increasing idle-cost
/// function (the latest creation time whose expected idle stays within the
/// budget of eq. 7; callers clamp the result to "now").
///
/// Returns `Err(Infeasible)` when `target < 0`; any non-negative budget has a
/// root because `Ĉ` decreases with slope −1 for creation times before every
/// breakpoint and reaches 0 at the largest breakpoint.
///
/// Allocates an R-element breakpoint buffer per call; planner-style loops
/// should hold a scratch buffer and call [`solve_idle_cost_root_with`].
pub fn solve_idle_cost_root(samples: &[(f64, f64)], target: f64) -> Result<f64, ScalingError> {
    let mut points = Vec::new();
    solve_idle_cost_root_with(samples, target, &mut points)
}

/// [`solve_idle_cost_root`] with a caller-provided breakpoint scratch buffer
/// (cleared and refilled on every call).
pub fn solve_idle_cost_root_with(
    samples: &[(f64, f64)],
    target: f64,
    points: &mut Vec<f64>,
) -> Result<f64, ScalingError> {
    idle_cost_root_impl(&samples, target, points)
}

/// [`solve_idle_cost_root_with`] over a flat arrival column; see
/// [`solve_waiting_root_flat`] for the storage contract.
pub fn solve_idle_cost_root_flat(
    xis: &[f64],
    tau: f64,
    target: f64,
    points: &mut Vec<f64>,
) -> Result<f64, ScalingError> {
    idle_cost_root_impl(&FlatSamples { xis, tau }, target, points)
}

fn idle_cost_root_impl<S: SampleView>(
    samples: &S,
    target: f64,
    points: &mut Vec<f64>,
) -> Result<f64, ScalingError> {
    let n = samples.len();
    if n == 0 {
        return Err(ScalingError::InvalidParameter(
            "at least one Monte Carlo sample is required",
        ));
    }
    if target < 0.0 {
        return Err(ScalingError::Infeasible("idle-cost budget is negative"));
    }
    // Breakpoints of Ĉ: slope is −(#{ξ_r − τ_r > x})/R, increasing by 1/R as
    // x passes each ξ_r − τ_r.
    points.clear();
    points.reserve(n);
    points.extend((0..n).map(|i| samples.xi(i) - samples.tau(i)));
    points.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    let r = n as f64;

    let first = points[0];
    let value_at_first = idle_cost_at(samples, first);
    if target >= value_at_first {
        // The root lies left of the earliest breakpoint, where Ĉ has slope −1
        // (every sample contributes ξ_r − τ_r − x).
        return Ok(first - (target - value_at_first));
    }
    // Ĉ decreases from value_at_first to 0 at the largest breakpoint; sweep.
    let mut value = value_at_first;
    let mut x_prev = first;
    for (k, &x_bp) in points.iter().enumerate().skip(1) {
        // On (points[k-1], points[k]) the slope is −(R − k)/R.
        let slope = -((r - k as f64) / r);
        let value_next = value + slope * (x_bp - x_prev);
        if value_next <= target && target <= value {
            return Ok(x_prev + (target - value) / slope);
        }
        value = value_next;
        x_prev = x_bp;
    }
    // target < Ĉ(largest breakpoint) = 0 cannot happen for target >= 0.
    Ok(x_prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_samples(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let xi = rng.gen_range(0.0..300.0);
                let tau = rng.gen_range(1.0..30.0);
                (xi, tau)
            })
            .collect()
    }

    #[test]
    fn rejects_empty_samples_and_negative_targets() {
        assert!(solve_waiting_root(&[], 1.0).is_err());
        assert!(solve_idle_cost_root(&[], 1.0).is_err());
        let samples = random_samples(10, 1);
        assert!(matches!(
            solve_waiting_root(&samples, -0.1),
            Err(ScalingError::Infeasible(_))
        ));
        assert!(matches!(
            solve_idle_cost_root(&samples, -0.1),
            Err(ScalingError::Infeasible(_))
        ));
    }

    #[test]
    fn waiting_root_matches_direct_evaluation() {
        for seed in 0..5_u64 {
            let samples = random_samples(500, seed);
            let mean_tau = samples.iter().map(|&(_, t)| t).sum::<f64>() / samples.len() as f64;
            for &frac in &[0.05, 0.2, 0.5, 0.8, 0.95] {
                let target = frac * mean_tau;
                let x = solve_waiting_root(&samples, target).unwrap();
                let achieved = empirical_waiting(&samples, x);
                assert!(
                    (achieved - target).abs() < 1e-9,
                    "seed {seed} frac {frac}: target {target}, achieved {achieved}"
                );
            }
        }
    }

    #[test]
    fn waiting_root_handles_extreme_targets() {
        let samples = random_samples(100, 7);
        let mean_tau = samples.iter().map(|&(_, t)| t).sum::<f64>() / samples.len() as f64;
        // Slack budget: return the largest arrival sample.
        let largest_xi = samples.iter().map(|&(x, _)| x).fold(f64::MIN, f64::max);
        assert_eq!(
            solve_waiting_root(&samples, mean_tau * 2.0).unwrap(),
            largest_xi
        );
        // Zero budget: the earliest breakpoint (minimal ξ − τ).
        let x0 = solve_waiting_root(&samples, 0.0).unwrap();
        assert!(empirical_waiting(&samples, x0) < 1e-12);
    }

    #[test]
    fn idle_cost_root_matches_direct_evaluation() {
        for seed in 10..15_u64 {
            let samples = random_samples(400, seed);
            let max_cost = empirical_idle_cost(
                &samples,
                samples
                    .iter()
                    .map(|&(x, t)| x - t)
                    .fold(f64::INFINITY, f64::min),
            );
            for &frac in &[0.1, 0.3, 0.6, 0.9] {
                let target = frac * max_cost;
                let x = solve_idle_cost_root(&samples, target).unwrap();
                let achieved = empirical_idle_cost(&samples, x);
                assert!(
                    (achieved - target).abs() < 1e-9,
                    "seed {seed} frac {frac}: target {target}, achieved {achieved}"
                );
            }
        }
    }

    #[test]
    fn idle_cost_root_left_of_the_first_breakpoint_is_exact() {
        let samples = random_samples(50, 20);
        // A budget larger than Ĉ at the earliest breakpoint places the root in
        // the slope −1 region; the achieved idle cost must still match.
        let earliest = samples
            .iter()
            .map(|&(x, t)| x - t)
            .fold(f64::INFINITY, f64::min);
        let budget = empirical_idle_cost(&samples, earliest) + 42.0;
        let x = solve_idle_cost_root(&samples, budget).unwrap();
        assert!(x < earliest);
        assert!((empirical_idle_cost(&samples, x) - budget).abs() < 1e-9);
    }

    #[test]
    fn waiting_function_is_monotone_nondecreasing() {
        let samples = random_samples(200, 30);
        let mut prev = -1.0;
        for i in 0..100 {
            let x = -50.0 + i as f64 * 5.0;
            let v = empirical_waiting(&samples, x);
            assert!(v + 1e-12 >= prev);
            prev = v;
        }
    }

    #[test]
    fn idle_cost_function_is_monotone_nonincreasing() {
        let samples = random_samples(200, 31);
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let x = -50.0 + i as f64 * 5.0;
            let v = empirical_idle_cost(&samples, x);
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }

    #[test]
    fn scratch_variants_match_the_allocating_wrappers() {
        let mut breakpoints = Vec::new();
        let mut points = Vec::new();
        for seed in 40..44_u64 {
            let samples = random_samples(300, seed);
            for &target in &[0.5, 3.0, 11.0] {
                assert_eq!(
                    solve_waiting_root_with(&samples, target, &mut breakpoints).unwrap(),
                    solve_waiting_root(&samples, target).unwrap()
                );
                assert_eq!(
                    solve_idle_cost_root_with(&samples, target, &mut points).unwrap(),
                    solve_idle_cost_root(&samples, target).unwrap()
                );
            }
        }
        // The reused buffers hold exactly the last call's breakpoints.
        assert_eq!(breakpoints.len(), 600);
        assert_eq!(points.len(), 300);
    }

    #[test]
    fn flat_variants_match_the_pair_based_solvers_bit_for_bit() {
        let mut breakpoints = Vec::new();
        let mut points = Vec::new();
        for seed in 50..54_u64 {
            let xis: Vec<f64> = random_samples(250, seed).iter().map(|&(x, _)| x).collect();
            let const_samples: Vec<(f64, f64)> = xis.iter().map(|&x| (x, 13.0)).collect();
            for &target in &[0.5, 3.0, 11.0] {
                assert_eq!(
                    solve_waiting_root_flat(&xis, 13.0, target, &mut breakpoints).unwrap(),
                    solve_waiting_root(&const_samples, target).unwrap()
                );
                assert_eq!(
                    solve_idle_cost_root_flat(&xis, 13.0, target, &mut points).unwrap(),
                    solve_idle_cost_root(&const_samples, target).unwrap()
                );
            }
        }
    }

    #[test]
    fn deterministic_single_sample_has_exact_roots() {
        // One sample: ξ = 100, τ = 10.
        let samples = vec![(100.0, 10.0)];
        // Waiting budget 4 s: x = ξ − τ + 4 = 94.
        assert!((solve_waiting_root(&samples, 4.0).unwrap() - 94.0).abs() < 1e-12);
        // Idle budget 25 s: x = ξ − τ − 25 = 65.
        assert!((solve_idle_cost_root(&samples, 25.0).unwrap() - 65.0).abs() < 1e-12);
    }
}
