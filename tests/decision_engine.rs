//! Property tests for the decision engines.
//!
//! * The Monte Carlo engine's fast path — the monotone inverse cursor over
//!   piecewise-constant intensities — must be *exactly* equivalent to its
//!   straightforward counterpart, bit for bit.
//! * The exact engine planning runs is checked against Monte Carlo as an
//!   oracle, one property per rule: over random piecewise intensities
//!   (zero-rate buckets, zero tail rates), indices, targets and planning
//!   instants inside and before the forecast, the Monte Carlo decision at
//!   R = 20,000 meets the exact rule's equation to within
//!   [`STANDARD_ERRORS`] standard errors of its own estimate, and an
//!   arrival the exact engine never creates for is one Monte Carlo places
//!   beyond any finite horizon too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler::nhpp::{Intensity, InverseCursor, PiecewiseConstantIntensity};
use robustscaler::scaling::{decide_exact, ArrivalLaw, DecisionRule, PendingTimeModel};
use robustscaler::stats::special::gamma_q;
use robustscaler_bench::montecarlo::{
    decide, decide_with, ArrivalSampler, DecisionConfig, DecisionScratch,
};

/// Monte Carlo replications of the oracle.
const ORACLE_REPLICATIONS: usize = 20_000;

/// How many standard errors of the Monte Carlo estimate the exact
/// equation's residual at the Monte Carlo decision may reach.
const STANDARD_ERRORS: f64 = 6.0;

/// Monte Carlo stand-in for "never": the sampler maps unreachable arrivals
/// to `f64::MAX / 4`, so decisions driven by them land beyond this.
const UNREACHABLE: f64 = 1e300;

/// The deterministic pending time of every oracle case.
const TAU: f64 = 13.0;

/// Strategy: a piecewise-constant intensity with a handful of buckets,
/// including zero-rate buckets (each rate is zero with probability ~1/3),
/// but always a positive final rate so every cumulative mass is reachable.
fn intensity_strategy() -> impl Strategy<Value = PiecewiseConstantIntensity> {
    (
        prop::collection::vec((0.0_f64..3.0, prop::bool::ANY), 1..12),
        0.05_f64..40.0,
        -50.0_f64..50.0,
        0.01_f64..2.0,
    )
        .prop_map(|(raw_rates, bucket_width, start, tail_rate)| {
            let mut rates: Vec<f64> = raw_rates
                .into_iter()
                .map(|(rate, zero)| if zero { 0.0 } else { rate })
                .collect();
            rates.push(tail_rate);
            PiecewiseConstantIntensity::new(start, bucket_width, rates).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The monotone inverse cursor returns exactly what the stateless
    /// `inverse_integrated` returns, over random intensities with zero-rate
    /// buckets, random origins and nondecreasing target sequences — and a
    /// cursor resumed from a saved hint continues the sequence identically.
    #[test]
    fn inverse_cursor_matches_stateless_inversion(
        intensity in intensity_strategy(),
        from_offset in -10.0_f64..10.0,
        increments in prop::collection::vec(0.0_f64..5.0, 1..60),
        split_at in 0usize..60,
    ) {
        let from = intensity.start() + from_offset;
        let split = split_at.min(increments.len());
        let mut cursor = InverseCursor::new(&intensity, from);
        let mut target = 0.0;
        let mut resumed_after_split = None;
        for (step, inc) in increments.iter().enumerate() {
            if step == split {
                // Save and resume mid-sequence, as the sampler does when it
                // extends its horizon.
                resumed_after_split = Some(InverseCursor::resume(&intensity, from, cursor.hint()));
            }
            target += inc;
            let expected = intensity.inverse_integrated(from, target);
            let got = cursor.advance(target);
            prop_assert!(
                got == expected || (got.is_infinite() && expected.is_infinite()),
                "step {}: cursor {} vs stateless {}", step, got, expected
            );
            if let Some(resumed) = resumed_after_split.as_mut() {
                let resumed_got = resumed.advance(target);
                prop_assert!(
                    resumed_got == expected
                        || (resumed_got.is_infinite() && expected.is_infinite()),
                    "step {}: resumed cursor {} vs stateless {}", step, resumed_got, expected
                );
            }
        }
    }

    /// `decide_with` (validation hoisted, scratch buffers reused across
    /// calls) computes exactly the decisions of the allocating `decide`.
    #[test]
    fn scratch_decisions_match_allocating_decisions(
        seed in 0u64..1_000,
        rate in 0.05_f64..20.0,
        replications in 1usize..200,
        rule_kind in 0usize..3,
    ) {
        let intensity = PiecewiseConstantIntensity::new(0.0, 1e6, vec![rate]).unwrap();
        let mut sampler_rng = StdRng::seed_from_u64(seed);
        let sampler =
            ArrivalSampler::new(&intensity, 0.0, 5, replications, &mut sampler_rng).unwrap();
        let pending = PendingTimeModel::Deterministic(13.0);
        let rule = match rule_kind {
            0 => DecisionRule::HittingProbability { alpha: 0.17 },
            1 => DecisionRule::ResponseTime { target_waiting: 2.5 },
            _ => DecisionRule::CostBudget { target_idle: 7.0 },
        };
        let config = DecisionConfig { rule, pending };
        config.validate().unwrap();

        let mut scratch = DecisionScratch::new();
        for index in 1..=5 {
            let with_scratch = decide_with(&sampler, index, &config, &mut scratch).unwrap();
            let allocating = decide(&sampler, index, &config).unwrap();
            prop_assert_eq!(with_scratch, allocating, "index {}", index);
        }
    }
}

/// Strategy: an oracle forecast — up to seven buckets, each zero-rate with
/// probability ~1/2, and a final (tail) rate that is zero half the time, so
/// late arrivals may never come.
fn oracle_intensity_strategy() -> impl Strategy<Value = PiecewiseConstantIntensity> {
    (
        prop::collection::vec((0.0_f64..2.0, prop::bool::ANY), 1..8),
        5.0_f64..40.0,
        prop::bool::ANY,
        0.05_f64..1.5,
    )
        .prop_map(|(raw_rates, bucket_width, zero_tail, tail_rate)| {
            let mut rates: Vec<f64> = raw_rates
                .into_iter()
                .map(|(rate, zero)| if zero { 0.0 } else { rate })
                .collect();
            rates.push(if zero_tail { 0.0 } else { tail_rate });
            PiecewiseConstantIntensity::new(100.0, bucket_width, rates).unwrap()
        })
}

/// One oracle case: the forecast, a planning instant (`now_fraction` of the
/// forecast's span from its start; negative is before the forecast), the
/// exact law there and the Monte Carlo samples of the `index`-th arrival.
struct OracleCase {
    intensity: PiecewiseConstantIntensity,
    now: f64,
    law: ArrivalLaw,
    sampler: ArrivalSampler,
    index: usize,
}

impl OracleCase {
    fn new(
        intensity: PiecewiseConstantIntensity,
        now_fraction: f64,
        index: usize,
        seed: u64,
    ) -> Self {
        let now = intensity.start() + now_fraction * (intensity.end() - intensity.start());
        let law = ArrivalLaw::new(&intensity, now);
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler =
            ArrivalSampler::new(&intensity, now, index, ORACLE_REPLICATIONS, &mut rng).unwrap();
        Self {
            intensity,
            now,
            law,
            sampler,
            index,
        }
    }

    /// The probability that the arrival ever comes, `P(i, Λ(now, ∞))`.
    fn reachable(&self) -> f64 {
        self.law.arrival_cdf(self.index, self.far())
    }

    /// The probability that it never comes, `Q(i, Λ(now, ∞))`, without the
    /// rounding of `1 − P` (the cost rule is infinite for any positive
    /// value).
    fn unreachable(&self) -> f64 {
        let mass = self.intensity.integrated(self.now, self.far());
        gamma_q(self.index as f64, mass)
    }

    /// A time past which a zero tail rate adds no mass and a positive one
    /// makes every arrival certain.
    fn far(&self) -> f64 {
        self.intensity.end().max(self.now) + 1e9
    }

    /// The exact and Monte Carlo unconstrained creation times under `rule`.
    fn decide(&self, rule: DecisionRule) -> (f64, f64) {
        let exact = decide_exact(&self.intensity, self.now, self.index, &rule, TAU);
        let config = DecisionConfig {
            rule,
            pending: PendingTimeModel::Deterministic(TAU),
        };
        let monte_carlo = decide(&self.sampler, self.index, &config).unwrap();
        (
            exact.unconstrained_creation_time,
            monte_carlo.unconstrained_creation_time,
        )
    }

    /// Mean and standard error of `f(ξ_r)` over the Monte Carlo samples.
    fn estimate(&self, f: impl Fn(f64) -> f64) -> (f64, f64) {
        let samples = self.sampler.arrival_samples(self.index).unwrap();
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&xi| f(xi)).sum::<f64>() / n;
        let variance = samples
            .iter()
            .map(|&xi| (f(xi) - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        (mean, (variance / n).sqrt())
    }
}

/// Both engines agree the query needs no creation ahead (`+∞`), or both
/// give a finite time; returns whether the times are finite.
fn agree_on_reachability(exact: f64, monte_carlo: f64) -> bool {
    if exact.is_infinite() {
        assert!(
            monte_carlo > UNREACHABLE,
            "exact +inf, Monte Carlo {monte_carlo}"
        );
        false
    } else {
        assert!(
            monte_carlo < UNREACHABLE,
            "exact {exact}, Monte Carlo {monte_carlo}"
        );
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// HP (eq. 3): the exact creation time puts the arrival CDF at exactly
    /// α; at the Monte Carlo creation time the exact CDF is within
    /// [`STANDARD_ERRORS`] binomial standard errors of α (plus the
    /// empirical quantile's 1/R interpolation step).
    #[test]
    fn exact_hp_decisions_match_monte_carlo(
        intensity in oracle_intensity_strategy(),
        now_fraction in -0.5_f64..0.9,
        index in 1usize..12,
        alpha in 0.05_f64..0.5,
        seed in 0u64..1_000,
    ) {
        let case = OracleCase::new(intensity, now_fraction, index, seed);
        let standard_error = (alpha * (1.0 - alpha) / ORACLE_REPLICATIONS as f64).sqrt();
        // Skip cases within noise of "the arrival may never come" at α.
        prop_assume!((case.reachable() - alpha).abs() > STANDARD_ERRORS * standard_error);
        let (exact, monte_carlo) = case.decide(DecisionRule::HittingProbability { alpha });
        if agree_on_reachability(exact, monte_carlo) {
            let at_exact = case.law.arrival_cdf(index, exact + TAU);
            prop_assert!((at_exact - alpha).abs() < 1e-9, "F(exact) = {}", at_exact);
            let at_monte_carlo = case.law.arrival_cdf(index, monte_carlo + TAU);
            prop_assert!(
                (at_monte_carlo - alpha).abs()
                    <= STANDARD_ERRORS * standard_error + 2.0 / ORACLE_REPLICATIONS as f64,
                "F(Monte Carlo) = {} vs α = {}", at_monte_carlo, alpha
            );
        }
    }

    /// RT (eq. 5): the exact creation time solves W(x) = d; at the Monte
    /// Carlo creation time the exact W is within [`STANDARD_ERRORS`]
    /// standard errors of the empirical waiting there.
    #[test]
    fn exact_rt_decisions_match_monte_carlo(
        intensity in oracle_intensity_strategy(),
        now_fraction in -0.5_f64..0.9,
        index in 1usize..12,
        target in 0.2_f64..12.5,
        seed in 0u64..1_000,
    ) {
        let case = OracleCase::new(intensity, now_fraction, index, seed);
        // W saturates at τ·P(reachable); skip targets within noise of it.
        let reachable = case.reachable();
        let ceiling_error =
            TAU * (reachable * (1.0 - reachable) / ORACLE_REPLICATIONS as f64).sqrt();
        prop_assume!((target - TAU * reachable).abs() > STANDARD_ERRORS * ceiling_error + 1e-6);
        let (exact, monte_carlo) =
            case.decide(DecisionRule::ResponseTime { target_waiting: target });
        if agree_on_reachability(exact, monte_carlo) {
            let at_exact = case.law.expected_waiting(index, exact, TAU);
            prop_assert!((at_exact - target).abs() < 1e-7, "W(exact) = {}", at_exact);
            let (_, standard_error) =
                case.estimate(|xi| (TAU - (xi - monte_carlo).max(0.0)).max(0.0));
            let at_monte_carlo = case.law.expected_waiting(index, monte_carlo, TAU);
            prop_assert!(
                (at_monte_carlo - target).abs() <= STANDARD_ERRORS * standard_error + 1e-6,
                "W(Monte Carlo) = {} vs d = {} (SE {})", at_monte_carlo, target, standard_error
            );
        }
    }

    /// Cost (eq. 7): the exact creation time solves C(x) = B; at the Monte
    /// Carlo creation time the exact C is within [`STANDARD_ERRORS`]
    /// standard errors of the empirical idle time there. With a zero tail
    /// rate the expected idle time is infinite and neither engine creates.
    #[test]
    fn exact_cost_decisions_match_monte_carlo(
        intensity in oracle_intensity_strategy(),
        now_fraction in -0.5_f64..0.9,
        index in 1usize..12,
        target in 0.5_f64..20.0,
        seed in 0u64..1_000,
    ) {
        let case = OracleCase::new(intensity, now_fraction, index, seed);
        // An unreachable arrival makes the idle time infinite; Monte Carlo
        // only sees that once some of its paths never arrive.
        let unreachable = case.unreachable();
        prop_assume!(unreachable == 0.0 || unreachable > 0.01);
        let (exact, monte_carlo) = case.decide(DecisionRule::CostBudget { target_idle: target });
        if agree_on_reachability(exact, monte_carlo) {
            let at_exact = case.law.expected_idle(index, exact, TAU);
            prop_assert!(
                (at_exact - target).abs() < 1e-7 * (1.0 + target),
                "C(exact) = {}", at_exact
            );
            let (_, standard_error) = case.estimate(|xi| (xi - TAU - monte_carlo).max(0.0));
            let at_monte_carlo = case.law.expected_idle(index, monte_carlo, TAU);
            prop_assert!(
                (at_monte_carlo - target).abs() <= STANDARD_ERRORS * standard_error + 1e-6,
                "C(Monte Carlo) = {} vs B = {} (SE {})", at_monte_carlo, target, standard_error
            );
        }
    }
}
