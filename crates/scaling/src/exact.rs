//! Exact per-query decisions by the time-change theorem (paper eqs. 3, 5, 7).
//!
//! Under an NHPP with intensity `λ`, the `i`-th arrival after `now`
//! satisfies `Λ(now, ξ_i) ~ Gamma(i, 1)` — the time change eq. 8 uses for
//! κ. Its law is therefore known in closed form,
//! `P(ξ_i ≤ t) = P(i, Λ(now, t))` with `P` the regularized lower incomplete
//! gamma function, and with a deterministic pending time `τ` every decision
//! rule reduces to a closed form or a monotone one-dimensional root:
//!
//! * **HP (eq. 3):** `x_i* = Λ⁻¹(now, F⁻¹_{Γ(i,1)}(α)) − τ`.
//! * **RT (eq. 5):** `x_i*` solves
//!   `W(x) = E[(τ − (ξ_i − x)⁺)⁺] = ∫ₓ^{x+τ} P(i, Λ(now, t)) dt = d − µ_s`.
//! * **cost (eq. 7):** `x_i*` solves
//!   `C(x) = E[(ξ_i − τ − x)⁺] = ∫_{x+τ}^∞ Q(i, Λ(now, t)) dt = B − µ_τ − µ_s`.
//!
//! The forecast is piecewise constant, so `Λ(now, ·)` is piecewise linear
//! and both integrals are evaluated piece by piece with the identities
//! `∫P(i,u)du = u·P(i,u) − i·P(i+1,u)` and
//! `∫_u^∞ Q(i,v)dv = i·Q(i+1,u) − u·Q(i,u)`. Beyond the forecast's end the
//! final rate extends, exactly as [`PiecewiseConstantIntensity`] defines
//! `Λ`; a zero tail rate leaves probability `Q(i, Λ(now, ∞))` on
//! `ξ_i = ∞`, which makes the cost rule's expected idle time infinite.
//!
//! Every result is a pure function of (forecast, `now`, `i`, rule, `τ`):
//! no sampling and no RNG. The paper's Monte Carlo solvers (Algorithm 3),
//! which live outside the library in `robustscaler_bench::montecarlo::
//! decisions`, converge to these values at the `1/√R` rate and serve as
//! the test oracle.

use crate::decisions::{DecisionRule, ScalingDecision};
use robustscaler_nhpp::{Intensity, PiecewiseConstantIntensity};
use robustscaler_stats::special::{gamma_p, gamma_p_inverse, gamma_q};

/// Root-finding stops once the bracket is this narrow relative to the
/// offset magnitude (about a nanosecond at offsets of hours).
const RELATIVE_TOLERANCE: f64 = 1e-12;

/// Iteration cap of the safeguarded Newton solver; bisection alone halves
/// any finite bracket below the tolerance well within it.
const MAX_ITERATIONS: usize = 200;

/// Below this mass increment across a piece, the closed-form antiderivative
/// difference loses more to cancellation than the midpoint rule errs, so
/// the piece integrates by its midpoint instead.
const MIDPOINT_MASS: f64 = 1e-4;

/// One linear piece of `s ↦ Λ(now, now + s)`: it starts at offset `from`
/// with integrated mass `mass` and grows at `rate` until the next piece.
#[derive(Debug, Clone, Copy)]
struct Piece {
    from: f64,
    mass: f64,
    rate: f64,
}

/// The exact law of the upcoming arrivals seen from one planning instant.
///
/// Holds `Λ(now, now + s)` for offsets `s ≥ 0` as linear pieces (one per
/// forecast bucket from `now` on, plus the unbounded tail), so each
/// evaluation of `W`, `C` or the arrival CDF touches only the pieces it
/// integrates over.
#[derive(Debug, Clone)]
pub struct ArrivalLaw {
    now: f64,
    /// Non-empty; the last piece extends to `+∞`.
    pieces: Vec<Piece>,
}

impl ArrivalLaw {
    /// The law of the arrivals after `now` under the forecast `intensity`.
    /// `now` may lie before the forecast's start (the first rate extends
    /// backwards) or after its end (only the tail remains).
    pub fn new(intensity: &PiecewiseConstantIntensity, now: f64) -> Self {
        let rates = intensity.rates();
        let width = intensity.bucket_width();
        let start = intensity.start();
        let mut pieces = Vec::new();
        let mut push = |from: f64, rate: f64| {
            let mass = match pieces.last() {
                Some(&Piece {
                    from: f,
                    mass,
                    rate,
                }) => mass + rate * (from - f),
                None => 0.0,
            };
            pieces.push(Piece { from, mass, rate });
        };
        if now < start {
            push(0.0, rates[0]);
        }
        for (k, &rate) in rates.iter().enumerate() {
            let right = start + (k + 1) as f64 * width;
            if right <= now {
                continue;
            }
            let left = start + k as f64 * width;
            push((left - now).max(0.0), rate);
        }
        // Beyond the forecast the final rate extends.
        let tail = *rates.last().expect("a forecast has at least one bucket");
        push((intensity.end() - now).max(0.0), tail);
        Self { now, pieces }
    }

    /// Index of the piece containing offset `s ≥ 0`.
    fn piece_of(&self, s: f64) -> usize {
        self.pieces.partition_point(|p| p.from <= s).max(1) - 1
    }

    /// `Λ(now, now + s)`, zero for `s ≤ 0`.
    fn mass_at(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        let p = self.pieces[self.piece_of(s)];
        p.mass + p.rate * (s - p.from)
    }

    /// `P(ξ_i ≤ t)`: the probability that the `i`-th upcoming arrival has
    /// come by absolute time `t`.
    pub fn arrival_cdf(&self, i: usize, t: f64) -> f64 {
        gamma_p(i as f64, self.mass_at(t - self.now))
    }

    /// `∫_a^b P(i, Λ(now, now + s)) ds` over offsets `a ≤ b` (the
    /// integrand is zero before `now`).
    fn integral_p(&self, i: usize, a: f64, b: f64) -> f64 {
        let a = a.max(0.0);
        if b <= a {
            return 0.0;
        }
        let shape = i as f64;
        let mut total = 0.0;
        for k in self.piece_of(a)..self.pieces.len() {
            let p = self.pieces[k];
            let hi = self.pieces.get(k + 1).map_or(b, |n| n.from.min(b));
            let lo = a.max(p.from);
            if hi > lo {
                let g0 = p.mass + p.rate * (lo - p.from);
                let g1 = p.mass + p.rate * (hi - p.from);
                total += if g1 - g0 > MIDPOINT_MASS {
                    (lower_antiderivative(shape, g1) - lower_antiderivative(shape, g0)) / p.rate
                } else {
                    gamma_p(shape, 0.5 * (g0 + g1)) * (hi - lo)
                };
            }
            if hi >= b {
                break;
            }
        }
        total
    }

    /// `E[ξ_i] − now = ∫_0^∞ Q(i, Λ(now, now + s)) ds`; infinite when a
    /// zero tail rate leaves mass on `ξ_i = ∞`.
    fn mean_offset(&self, i: usize) -> f64 {
        let shape = i as f64;
        let mut total = 0.0;
        for (k, p) in self.pieces.iter().enumerate() {
            let upper_at_start = gamma_q(shape, p.mass);
            if upper_at_start == 0.0 {
                break;
            }
            let Some(next) = self.pieces.get(k + 1) else {
                total += if p.rate > 0.0 {
                    upper_tail_integral(shape, p.mass) / p.rate
                } else {
                    f64::INFINITY
                };
                break;
            };
            let g1 = next.mass;
            total += if g1 - p.mass > MIDPOINT_MASS {
                (upper_tail_integral(shape, p.mass) - upper_tail_integral(shape, g1)) / p.rate
            } else {
                gamma_q(shape, 0.5 * (p.mass + g1)) * (next.from - p.from)
            };
        }
        total
    }

    /// `W(x)`: the expected waiting time of the `i`-th upcoming query when
    /// its instance is created at absolute time `x` with pending time `tau`.
    pub fn expected_waiting(&self, i: usize, x: f64, tau: f64) -> f64 {
        let s = x - self.now;
        self.integral_p(i, s, s + tau)
    }

    /// `C(x)`: the expected idle time of the instance created at absolute
    /// time `x` for the `i`-th upcoming query (pending time `tau`).
    pub fn expected_idle(&self, i: usize, x: f64, tau: f64) -> f64 {
        let s = x + tau - self.now;
        // E[(ξ − now − s)⁺] = E[ξ − now] − s + E[(now + s − ξ)⁺].
        self.mean_offset(i) - s + self.integral_p(i, 0.0, s)
    }

    /// The RT rule's raw creation time: the latest `x` with
    /// `W(x) ≤ target_waiting`, `+∞` when every `x` meets the budget
    /// (`target_waiting ≥ τ`, or the arrival may never come).
    pub fn waiting_root(&self, i: usize, tau: f64, target_waiting: f64) -> f64 {
        let last = self.pieces[self.pieces.len() - 1];
        let ceiling = if last.rate > 0.0 {
            tau
        } else {
            tau * gamma_p(i as f64, last.mass)
        };
        if target_waiting >= ceiling {
            return f64::INFINITY;
        }
        let shape = i as f64;
        let waiting = |x: f64| {
            let value = self.integral_p(i, x, x + tau) - target_waiting;
            let slope = gamma_p(shape, self.mass_at(x + tau)) - gamma_p(shape, self.mass_at(x));
            (value, slope)
        };
        // W vanishes for creations at least τ before now and grows towards
        // its ceiling, so a bracket is found by doubling past the offset
        // where the mean mass i has arrived.
        let Some((lo, hi)) = bracket(-tau, self.mean_mass_offset(i), |x| waiting(x).0) else {
            return f64::INFINITY;
        };
        self.now + newton_bisect(lo, hi, waiting)
    }

    /// The cost rule's raw creation time: the `x` with
    /// `C(x) = target_idle`, `+∞` when no creation time keeps the expected
    /// idle time finite.
    pub fn idle_root(&self, i: usize, tau: f64, target_idle: f64) -> f64 {
        let mean = self.mean_offset(i);
        if !mean.is_finite() {
            return f64::INFINITY;
        }
        if target_idle >= mean {
            // The root lies where C is linear: s ≤ 0, C = mean − s.
            return self.now + (mean - target_idle) - tau;
        }
        let shape = i as f64;
        // In s = x + τ − now, target − C is non-decreasing with slope Q.
        let shortfall = |s: f64| {
            let value = target_idle - (mean - s + self.integral_p(i, 0.0, s));
            (value, gamma_q(shape, self.mass_at(s)))
        };
        let Some((lo, hi)) = bracket(0.0, self.mean_mass_offset(i), |s| shortfall(s).0) else {
            return f64::INFINITY;
        };
        self.now + newton_bisect(lo, hi, shortfall) - tau
    }

    /// The offset where `Λ` reaches `i` (the mean of `Γ(i, 1)`), or the
    /// forecast's end when it never does: a scale for root brackets.
    fn mean_mass_offset(&self, i: usize) -> f64 {
        let goal = i as f64;
        let k = self.pieces.partition_point(|p| p.mass < goal).max(1) - 1;
        let p = self.pieces[k];
        if p.rate > 0.0 && p.mass < goal {
            p.from + (goal - p.mass) / p.rate
        } else {
            p.from
        }
    }
}

/// `u·P(a, u) − a·P(a+1, u)`, an antiderivative of `P(a, ·)`.
fn lower_antiderivative(a: f64, u: f64) -> f64 {
    u * gamma_p(a, u) - a * gamma_p(a + 1.0, u)
}

/// `∫_u^∞ Q(a, v) dv = a·Q(a+1, u) − u·Q(a, u)`.
fn upper_tail_integral(a: f64, u: f64) -> f64 {
    a * gamma_q(a + 1.0, u) - u * gamma_q(a, u)
}

/// A bracket `[lo, hi]` of the sign change of the non-decreasing `f`,
/// given `f(lo) ≤ 0`: `hi` starts at `max(scale, lo + 1)` and moves right
/// by doubling steps. `None` if no finite `hi` has `f(hi) > 0`.
fn bracket(mut lo: f64, scale: f64, f: impl Fn(f64) -> f64) -> Option<(f64, f64)> {
    let mut step = (scale - lo).max(1.0);
    let mut hi = lo + step;
    while f(hi) <= 0.0 {
        lo = hi;
        step *= 2.0;
        hi = lo + step;
        if !hi.is_finite() {
            return None;
        }
    }
    Some((lo, hi))
}

/// Root of the non-decreasing `f` inside `[lo, hi]` (`f(lo) ≤ 0 < f(hi)`),
/// where `f` returns `(value, slope)`: Newton steps while they stay inside
/// the shrinking bracket, bisection otherwise.
fn newton_bisect(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> (f64, f64)) -> f64 {
    let mut x = 0.5 * (lo + hi);
    for _ in 0..MAX_ITERATIONS {
        let (value, slope) = f(x);
        if value == 0.0 {
            return x;
        }
        if value < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let tolerance = RELATIVE_TOLERANCE * (1.0 + x.abs());
        if hi - lo <= tolerance {
            break;
        }
        let newton = x - value / slope;
        let next = if slope > 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if (next - x).abs() <= tolerance {
            return next;
        }
        x = next;
    }
    x
}

/// The exact decision for the `arrival_index`-th upcoming query (1-based)
/// under `rule` with deterministic pending time `tau`, planned at `now`.
///
/// A one-off entry point (oracle tests, experiments); the planner walks
/// consecutive indices through the same computations with its cached Gamma
/// quantiles and a monotone inverse cursor. A raw creation time of `+∞`
/// means the query needs no creation ahead of its arrival.
pub fn decide_exact(
    intensity: &PiecewiseConstantIntensity,
    now: f64,
    arrival_index: usize,
    rule: &DecisionRule,
    tau: f64,
) -> ScalingDecision {
    let raw = match *rule {
        DecisionRule::HittingProbability { alpha } => {
            intensity.inverse_integrated(now, gamma_p_inverse(arrival_index as f64, alpha)) - tau
        }
        DecisionRule::ResponseTime { target_waiting } => {
            ArrivalLaw::new(intensity, now).waiting_root(arrival_index, tau, target_waiting)
        }
        DecisionRule::CostBudget { target_idle } => {
            ArrivalLaw::new(intensity, now).idle_root(arrival_index, tau, target_idle)
        }
    };
    ScalingDecision::at(arrival_index, raw, now)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rate: f64) -> PiecewiseConstantIntensity {
        PiecewiseConstantIntensity::new(0.0, 1e7, vec![rate]).unwrap()
    }

    #[test]
    fn hp_matches_the_exponential_quantile_for_the_first_arrival() {
        // ξ₁ − now ~ Exp(λ): the α-quantile of ξ₁ − τ is now + Q_exp(α) − τ.
        let alpha = 0.2;
        let d = decide_exact(
            &flat(0.2),
            1000.0,
            1,
            &DecisionRule::HittingProbability { alpha },
            13.0,
        );
        let exact = 1000.0 - (1.0 - alpha).ln() / 0.2 - 13.0;
        assert!((d.unconstrained_creation_time - exact).abs() < 1e-9);
    }

    #[test]
    fn waiting_and_idle_match_constant_rate_closed_forms() {
        // Constant rate λ, first arrival: P(ξ ≤ now + u) = 1 − e^{−λu}.
        let rate = 0.3;
        let tau = 13.0;
        let law = ArrivalLaw::new(&flat(rate), 50.0);
        for &x in &[30.0_f64, 45.0, 50.0, 61.0, 90.0] {
            // W(x) = ∫_x^{x+τ} (1 − e^{−λ(t − now)})⁺ dt.
            let a = (x - 50.0).max(0.0);
            let b = (x + tau - 50.0).max(0.0);
            let w = (b - a) - ((-rate * a).exp() - (-rate * b).exp()) / rate;
            assert!((law.expected_waiting(1, x, tau) - w).abs() < 1e-9, "W({x})");
            // C(x) = E[(ξ − x − τ)⁺].
            let s = x + tau - 50.0;
            let c = if s <= 0.0 {
                1.0 / rate - s
            } else {
                (-rate * s).exp() / rate
            };
            assert!((law.expected_idle(1, x, tau) - c).abs() < 1e-9, "C({x})");
        }
    }

    #[test]
    fn roots_solve_their_equations() {
        let intensity =
            PiecewiseConstantIntensity::new(0.0, 20.0, vec![0.5, 0.0, 2.0, 0.1, 1.0]).unwrap();
        let law = ArrivalLaw::new(&intensity, 5.0);
        for i in [1usize, 3, 8] {
            let x = law.waiting_root(i, 13.0, 2.5);
            assert!(
                (law.expected_waiting(i, x, 13.0) - 2.5).abs() < 1e-9,
                "RT i={i}"
            );
            let x = law.idle_root(i, 13.0, 4.0);
            assert!(
                (law.expected_idle(i, x, 13.0) - 4.0).abs() < 1e-8,
                "cost i={i}"
            );
        }
    }

    #[test]
    fn rt_target_at_least_tau_never_creates_ahead() {
        let d = decide_exact(
            &flat(1.0),
            0.0,
            2,
            &DecisionRule::ResponseTime {
                target_waiting: 13.0,
            },
            13.0,
        );
        assert_eq!(d.unconstrained_creation_time, f64::INFINITY);
        assert!(!d.clamped);
        // Just below τ the root is finite.
        let law = ArrivalLaw::new(&flat(1.0), 0.0);
        assert!(law.waiting_root(2, 13.0, 12.9).is_finite());
    }

    #[test]
    fn slack_cost_budget_creates_now() {
        // E[ξ₁ − now] = 100 s; a 10⁹ s idle budget is met by creating at
        // once (the raw root lies far in the past and is clamped).
        let d = decide_exact(
            &flat(0.01),
            500.0,
            1,
            &DecisionRule::CostBudget { target_idle: 1e9 },
            13.0,
        );
        assert!(d.clamped);
        assert_eq!(d.creation_time, 500.0);
        let expected = 500.0 + (100.0 - 1e9) - 13.0;
        assert!((d.unconstrained_creation_time - expected).abs() < 1e-6);
    }

    #[test]
    fn infeasible_decisions_are_clamped_to_now() {
        // 50 QPS: the first arrival comes almost at once, so no rule can
        // give it a 13 s head start.
        let intensity = flat(50.0);
        for rule in [
            DecisionRule::HittingProbability { alpha: 0.05 },
            DecisionRule::ResponseTime {
                target_waiting: 0.5,
            },
            DecisionRule::CostBudget { target_idle: 5.0 },
        ] {
            let d = decide_exact(&intensity, 500.0, 1, &rule, 13.0);
            assert!(d.clamped, "{rule:?}");
            assert_eq!(d.creation_time, 500.0);
            assert!(d.unconstrained_creation_time < 500.0);
        }
    }

    #[test]
    fn zero_tail_rate_leaves_unreachable_arrivals_uncreated() {
        // Total mass 2: the 40th arrival almost surely never comes.
        let intensity = PiecewiseConstantIntensity::new(0.0, 10.0, vec![0.2, 0.0]).unwrap();
        for rule in [
            DecisionRule::HittingProbability { alpha: 0.1 },
            DecisionRule::ResponseTime {
                target_waiting: 2.0,
            },
            DecisionRule::CostBudget { target_idle: 5.0 },
        ] {
            let d = decide_exact(&intensity, 0.0, 40, &rule, 13.0);
            assert_eq!(d.unconstrained_creation_time, f64::INFINITY, "{rule:?}");
        }
        // The cost rule's idle time is infinite for any reachable index too.
        let law = ArrivalLaw::new(&intensity, 0.0);
        assert_eq!(law.idle_root(1, 13.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn now_before_the_forecast_extends_the_first_rate_backwards() {
        let intensity = PiecewiseConstantIntensity::new(100.0, 10.0, vec![0.5, 1.0]).unwrap();
        let law = ArrivalLaw::new(&intensity, 80.0);
        // 20 s at 0.5 before the start, then 10 s at 0.5 and 1.0 after.
        assert!((law.mass_at(20.0) - 10.0).abs() < 1e-12);
        assert!((law.mass_at(35.0) - 20.0).abs() < 1e-12);
        assert!((law.mass_at(50.0) - 35.0).abs() < 1e-12);
    }
}
