//! Special functions needed by the distribution layer.
//!
//! The Gamma CDF/quantile (used by the κ threshold of Algorithm 4 and the
//! time-rescaling argument of Proposition 2) requires the regularized lower
//! incomplete gamma function and its inverse; the normal CDF requires `erf`.
//! All routines are implemented from scratch following the classic
//! series/continued-fraction formulations (Numerical Recipes style) with
//! double precision accuracy sufficient for the paper's experiments.

/// Natural logarithm of the Gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with g = 7 and 9 coefficients, accurate to
/// roughly 15 significant digits over the positive real axis.
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7, n = 9.
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, x)` is the CDF at `x` of a Gamma distribution with shape `a` and
/// scale 1. Returns values in `[0, 1]`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_continued_fraction(a, x)
    }
}

/// Iteration cap of the incomplete gamma series and continued fraction.
/// Near `x ≈ a` both need `O(√a)` terms — about 1,400 at `a = 36,000` —
/// so the cap admits shapes into the millions; smaller shapes converge and
/// stop long before it.
const INCOMPLETE_GAMMA_MAX_ITER: usize = 10_000;

/// Series expansion of `P(a, x)`, effective for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = INCOMPLETE_GAMMA_MAX_ITER;
    const EPS: f64 = 1e-15;

    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction (modified Lentz) expansion of `Q(a, x)`, effective for
/// `x >= a + 1`.
fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = INCOMPLETE_GAMMA_MAX_ITER;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = f64::MIN_POSITIVE / EPS;

    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Inverse of the regularized lower incomplete gamma function.
///
/// Returns `x` such that `P(a, x) = p`. This is the quantile function of a
/// Gamma(shape = a, scale = 1) distribution. Uses a Wilson–Hilferty starting
/// guess followed by safeguarded Newton iterations.
pub fn gamma_p_inverse(a: f64, p: f64) -> f64 {
    debug_assert!(a > 0.0, "gamma_p_inverse requires a > 0, got {a}");
    debug_assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    let ln_gamma_a = ln_gamma(a);
    // Wilson-Hilferty approximation as the starting point.
    let mut x = if a > 1.0 {
        let z = normal_quantile(p);
        let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
        (a * t * t * t).max(1e-12)
    } else {
        // Small-shape initial guess from the series P(a,x) ~ x^a / (a Γ(a)).
        let t = 1.0 - a * (0.253 + a * 0.12);
        if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
        }
    };

    // Safeguarded Newton iterations on P(a, x) - p = 0.
    let mut lo = 0.0_f64;
    let mut hi = f64::INFINITY;
    for _ in 0..100 {
        if x <= 0.0 {
            x = 0.5 * (lo + if hi.is_finite() { hi } else { lo + 1.0 });
        }
        let err = gamma_p(a, x) - p;
        if err > 0.0 {
            hi = hi.min(x);
        } else {
            lo = lo.max(x);
        }
        if err.abs() < 1e-12 {
            return x;
        }
        // pdf of Gamma(a, 1) at x.
        let ln_pdf = (a - 1.0) * x.ln() - x - ln_gamma_a;
        let pdf = ln_pdf.exp();
        let mut step = if pdf > 0.0 { err / pdf } else { 0.0 };
        let mut x_new = x - step;
        if x_new <= lo || (hi.is_finite() && x_new >= hi) || step == 0.0 {
            // Fall back to bisection when Newton leaves the bracket.
            x_new = if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                (x * 2.0).max(lo + 1.0)
            };
            step = x - x_new;
        }
        x = x_new;
        if step.abs() < 1e-14 * x.max(1.0) {
            return x;
        }
    }
    x
}

/// Error function `erf(x)`.
///
/// Computed through the identity `erf(x) = P(1/2, x²)` for `x ≥ 0` (and odd
/// symmetry), inheriting the ~1e-15 accuracy of the incomplete gamma
/// series/continued-fraction evaluation.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Uses `erfc(x) = Q(1/2, x²)` for `x ≥ 0` to retain accuracy in the far
/// right tail where `1 - erf(x)` would cancel catastrophically.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` via the Acklam rational approximation
/// refined with one Halley step (accuracy ~1e-9 on (0, 1)).
pub fn normal_quantile(p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step using the high-precision erfc.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural logarithm of `n!` computed via `ln Γ(n + 1)`.
pub fn ln_factorial(n: u64) -> f64 {
    // Small cases exactly to avoid accumulation error in Poisson pmf tests.
    const TABLE: [f64; 11] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5_040.0,
        40_320.0,
        362_880.0,
        3_628_800.0,
    ];
    if (n as usize) < TABLE.len() {
        TABLE[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(3.0), 2.0_f64.ln(), 1e-12);
        assert_close(ln_gamma(6.0), 120.0_f64.ln(), 1e-12);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(10.5) = 1133278.3889487855...
        assert_close(ln_gamma(10.5), 1_133_278.388_948_785_5_f64.ln(), 1e-10);
    }

    #[test]
    fn gamma_p_matches_exponential_cdf_for_shape_one() {
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn gamma_p_matches_erlang_cdf() {
        // For integer shape k, P(k, x) = 1 - exp(-x) * sum_{i<k} x^i / i!.
        let k = 5_u64;
        for &x in &[0.5, 1.0, 3.0, 5.0, 8.0, 20.0] {
            let mut sum = 0.0;
            let mut term = 1.0;
            for i in 0..k {
                if i > 0 {
                    term *= x / i as f64;
                }
                sum += term;
            }
            let expected = 1.0 - (-x).exp() * sum;
            assert_close(gamma_p(k as f64, x), expected, 1e-12);
        }
    }

    #[test]
    fn gamma_p_and_q_sum_to_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.01, 0.5, 1.0, 2.0, 10.0, 60.0] {
                assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_inverse_round_trips() {
        for &a in &[0.5, 1.0, 2.0, 5.0, 17.0, 100.0] {
            for &p in &[0.001, 0.05, 0.1, 0.5, 0.9, 0.95, 0.999] {
                let x = gamma_p_inverse(a, p);
                assert_close(gamma_p(a, x), p, 1e-8);
            }
        }
    }

    #[test]
    fn gamma_p_inverse_handles_extremes() {
        assert_eq!(gamma_p_inverse(3.0, 0.0), 0.0);
        assert!(gamma_p_inverse(3.0, 1.0).is_infinite());
    }

    #[test]
    fn erf_matches_known_values() {
        assert_close(erf(0.0), 0.0, 1e-12);
        assert_close(erf(1.0), 0.842_700_792_949_715, 1e-6);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 1e-6);
        assert_close(erf(2.0), 0.995_322_265_018_953, 1e-6);
    }

    #[test]
    fn normal_cdf_and_quantile_are_inverse() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert_close(normal_cdf(x), p, 1e-8);
        }
        assert_close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-6);
        assert_close(normal_quantile(0.5), 0.0, 1e-9);
    }

    #[test]
    fn incomplete_gamma_converges_for_large_shapes() {
        // The recurrence P(a + 1, x) = P(a, x) − xᵃe⁻ˣ/Γ(a + 1) fails when a
        // truncated series or continued fraction mis-evaluates either side.
        for &a in &[5_000.0_f64, 36_000.0, 100_000.0] {
            for &x in &[a - 0.3 * a.sqrt(), a + 0.3 * a.sqrt() + 1.0] {
                let density = (a * x.ln() - x - ln_gamma(a + 1.0)).exp();
                assert_close(gamma_p(a + 1.0, x), gamma_p(a, x) - density, 1e-10);
            }
        }
    }

    #[test]
    fn ln_factorial_matches_direct_computation() {
        assert_close(ln_factorial(0), 0.0, 1e-12);
        assert_close(ln_factorial(5), 120.0_f64.ln(), 1e-12);
        assert_close(ln_factorial(20), 2.432_902_008_176_64e18_f64.ln(), 1e-10);
    }
}
