//! Quadratically approximated ADMM for the regularized NHPP loss
//! (paper Algorithm 2).
//!
//! Auxiliary variables `y = D₂r` and `z = D_L r` split the non-smooth and
//! periodic penalties off the Poisson likelihood. Each iteration:
//!
//! 1. solves the `r`-subproblem after a second-order Taylor expansion of the
//!    `Δt·1ᵀeʳ` term around the current iterate — a sparse SPD linear system
//!    `A_k r = B_k` with `A_k = Δt·diag(e^{r_k}) + ρD₂ᵀD₂ + ρD_LᵀD_L`,
//! 2. updates `y` by soft-thresholding,
//! 3. updates `z` in closed form, and
//! 4. performs the dual ascent on `ν_y`, `ν_z`.
//!
//! The linear system is solved either with a banded Cholesky factorization
//! (`O(T·L²)`, exactly the complexity the paper quotes) or with a matrix-free
//! Jacobi-preconditioned conjugate gradient (`O(T)` per product) — the
//! `Auto` policy picks CG once the bandwidth would exceed a threshold.
//!
//! ## The lane kernel
//!
//! One banded fit is latency-bound: each row of the Cholesky factor waits
//! on a square root and divisions from the rows before it.
//! [`AdmmSolver::fit_lanes`] fits up to [`MAX_LANES`] independent series of
//! equal length, bucket width, period and config in lockstep, with every
//! per-bucket quantity interleaved across the lanes, so the lanes' chains
//! overlap; it allocates per group, never per iteration. Each lane performs
//! exactly [`AdmmSolver::fit`]'s floating-point operations in `fit`'s
//! order, so it returns the same `r` bits and the same [`AdmmReport`]; a
//! lane that converges or fails stops alone while the others run on. The
//! fleet's refit pass fits each round's refits this way; `fit` stays the
//! single-fit path and the oracle the lanes are tested against.

use crate::error::NhppError;
use crate::loss::{RegularizedLoss, RegularizedLossConfig};
use robustscaler_linalg::{
    cg::{conjugate_gradient, CgOptions, LinearOperator},
    vector::soft_threshold,
    DifferenceOperator, SymmetricBandedMatrix,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Strategy for the `r`-subproblem linear solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubproblemSolver {
    /// Banded Cholesky when the bandwidth is small, CG otherwise.
    Auto,
    /// Always factorize the banded system (`O(T·L²)` per iteration).
    BandedCholesky,
    /// Always use the matrix-free preconditioned conjugate gradient.
    ConjugateGradient,
}

/// Configuration of the ADMM trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmmConfig {
    /// Weight β₁ of the ℓ1 second-difference penalty.
    pub beta1: f64,
    /// Weight β₂ of the ℓ2 periodic penalty.
    pub beta2: f64,
    /// ADMM penalty parameter ρ > 0.
    pub rho: f64,
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the scaled primal residual and the
    /// per-iteration change of `r`.
    pub tolerance: f64,
    /// Linear solver policy for the `r`-subproblem.
    pub solver: SubproblemSolver,
    /// Maximum absolute change of any `r_t` in one iteration (a trust-region
    /// safeguard for the quadratic approximation of the exponential).
    pub max_step: f64,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            beta1: 2.0,
            beta2: 5.0,
            rho: 1.0,
            max_iterations: 200,
            tolerance: 1e-6,
            solver: SubproblemSolver::Auto,
            max_step: 5.0,
        }
    }
}

impl AdmmConfig {
    /// Whether a fit of `len` buckets with `period` solves its
    /// `r`-subproblem by banded Cholesky — the fits
    /// [`AdmmSolver::fit_lanes`] runs in lockstep.
    fn uses_banded(&self, len: usize, period: Option<usize>) -> bool {
        match self.solver {
            SubproblemSolver::BandedCholesky => true,
            SubproblemSolver::ConjugateGradient => false,
            SubproblemSolver::Auto => period.filter(|&p| p < len).unwrap_or(2).max(2) <= 96,
        }
    }

    /// Whether fits of shapes `a` and `b` (length, period) under this
    /// config can run in one [`AdmmSolver::fit_lanes`] group: both on the
    /// banded path with the same periodic lag and band, and lengths within
    /// an eighth of each other (a group runs every lane to the longest
    /// length).
    pub fn shares_lanes(&self, a: (usize, Option<usize>), b: (usize, Option<usize>)) -> bool {
        let lag = |(len, period): (usize, Option<usize>)| period.filter(|&p| p < len);
        self.uses_banded(a.0, a.1)
            && self.uses_banded(b.0, b.1)
            && lag(a) == lag(b)
            && band_width(a.0, lag(a)) == band_width(b.0, lag(b))
            && a.0.abs_diff(b.0) * 8 <= a.0.max(b.0)
    }
}

/// Half-bandwidth of the banded system of a `len`-bucket fit with
/// periodic lag `lag`: `max(L, 2)`, clamped to the matrix.
fn band_width(len: usize, lag: Option<usize>) -> usize {
    lag.unwrap_or(0).max(2).min(len.saturating_sub(1))
}

/// Convergence report of one ADMM fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmmReport {
    /// Outer iterations performed.
    pub iterations: usize,
    /// Final scaled primal residual.
    pub primal_residual: f64,
    /// Final value of the regularized loss (eq. 1).
    pub final_loss: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// The ADMM trainer for one count series.
#[derive(Debug, Clone)]
pub struct AdmmSolver {
    loss: RegularizedLoss,
    config: AdmmConfig,
}

/// Matrix-free representation of `A_k` for the CG path.
struct SystemOperator<'a> {
    diag: &'a [f64],
    rho: f64,
    loss: &'a RegularizedLoss,
}

impl LinearOperator for SystemOperator<'_> {
    fn dim(&self) -> usize {
        self.diag.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for ((yi, &di), &xi) in y.iter_mut().zip(self.diag.iter()).zip(x.iter()) {
            *yi = di * xi;
        }
        let d2 = self.loss.second_difference();
        let fwd = d2.apply(x).expect("dimensions fixed");
        let back = d2.apply_transpose(&fwd).expect("dimensions fixed");
        for (yi, b) in y.iter_mut().zip(back.iter()) {
            *yi += self.rho * b;
        }
        if let Some(dl) = self.loss.periodic_difference() {
            let fwd = dl.apply(x).expect("dimensions fixed");
            let back = dl.apply_transpose(&fwd).expect("dimensions fixed");
            for (yi, b) in y.iter_mut().zip(back.iter()) {
                *yi += self.rho * b;
            }
        }
    }

    fn diagonal(&self) -> Option<Vec<f64>> {
        let t = self.diag.len();
        let mut diag = self.diag.to_vec();
        // diag(D₂ᵀD₂): stencil [1, -2, 1] contributes 1, 4, 1 per row.
        for row in 0..t.saturating_sub(2) {
            diag[row] += self.rho;
            diag[row + 1] += 4.0 * self.rho;
            diag[row + 2] += self.rho;
        }
        if let Some(dl) = self.loss.periodic_difference() {
            let lag = dl.lag();
            for row in 0..t.saturating_sub(lag) {
                diag[row] += self.rho;
                diag[row + lag] += self.rho;
            }
        }
        Some(diag)
    }
}

impl AdmmSolver {
    /// Create a trainer for per-bucket counts `Q`, bucket width Δt and an
    /// optional detected period (in buckets).
    pub fn new(
        counts: Vec<f64>,
        bucket_width: f64,
        period: Option<usize>,
        config: AdmmConfig,
    ) -> Result<Self, NhppError> {
        if !(config.rho > 0.0) {
            return Err(NhppError::InvalidParameter("rho must be > 0"));
        }
        if config.max_iterations == 0 {
            return Err(NhppError::InvalidParameter("max_iterations must be >= 1"));
        }
        if !(config.tolerance > 0.0) {
            return Err(NhppError::InvalidParameter("tolerance must be > 0"));
        }
        if !(config.max_step > 0.0) {
            return Err(NhppError::InvalidParameter("max_step must be > 0"));
        }
        let loss = RegularizedLoss::new(
            counts,
            RegularizedLossConfig {
                bucket_width,
                beta1: config.beta1,
                beta2: config.beta2,
                period,
            },
        )?;
        Ok(Self { loss, config })
    }

    /// Access the underlying loss (e.g. to evaluate baselines).
    pub fn loss(&self) -> &RegularizedLoss {
        &self.loss
    }

    /// The initial iterate: a lightly smoothed log-QPS.
    fn initial_log_rates(&self) -> Vec<f64> {
        let dt = self.loss.config().bucket_width;
        let raw: Vec<f64> = self
            .loss
            .counts()
            .iter()
            .map(|&q| ((q + 0.5) / dt).ln())
            .collect();
        // 3-point moving average to temper isolated spikes in the start point.
        let n = raw.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 2).min(n);
                raw[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// Decide whether this fit should use the banded factorization.
    fn use_banded(&self) -> bool {
        self.config
            .uses_banded(self.loss.len(), self.periodic_lag())
    }

    /// Solve the `r`-subproblem `A_k r = B_k`.
    fn solve_system(
        &self,
        diag: &[f64],
        rhs: &[f64],
        warm_start: &[f64],
    ) -> Result<Vec<f64>, NhppError> {
        if self.use_banded() {
            let t = diag.len();
            let d2 = self.loss.second_difference();
            let bandwidth = self
                .loss
                .periodic_difference()
                .map(|dl| dl.gram_half_bandwidth())
                .unwrap_or(0)
                .max(d2.gram_half_bandwidth());
            let mut a = SymmetricBandedMatrix::zeros(t, bandwidth);
            a.add_diagonal(diag).map_err(NhppError::from)?;
            d2.add_gram_to(&mut a, self.config.rho)
                .map_err(NhppError::from)?;
            if let Some(dl) = self.loss.periodic_difference() {
                dl.add_gram_to(&mut a, self.config.rho)
                    .map_err(NhppError::from)?;
            }
            a.solve(rhs).map_err(NhppError::from)
        } else {
            let operator = SystemOperator {
                diag,
                rho: self.config.rho,
                loss: &self.loss,
            };
            let (solution, _) = conjugate_gradient(
                &operator,
                rhs,
                warm_start,
                CgOptions {
                    tolerance: 1e-9,
                    max_iterations: 10 * diag.len() + 100,
                },
            )
            .map_err(NhppError::from)?;
            Ok(solution)
        }
    }

    /// Run the ADMM iterations and return the fitted log-intensities together
    /// with a convergence report.
    pub fn fit(&self) -> Result<(Vec<f64>, AdmmReport), NhppError> {
        let dt = self.loss.config().bucket_width;
        let rho = self.config.rho;
        let d2 = self.loss.second_difference();
        let counts = self.loss.counts();
        let t = counts.len();

        let mut r = self.initial_log_rates();
        let mut y = d2.apply(&r).expect("dimensions fixed");
        let mut z = self
            .loss
            .periodic_difference()
            .map(|dl| dl.apply(&r).expect("dimensions fixed"));
        let mut nu_y = vec![0.0; y.len()];
        let mut nu_z = z.as_ref().map(|z| vec![0.0; z.len()]);

        let mut iterations = 0;
        let mut primal_residual = f64::INFINITY;
        let mut converged = false;

        for iter in 1..=self.config.max_iterations {
            iterations = iter;

            // --- r update (quadratic approximation of the exponential). ---
            // A_k = Δt·diag(e^{r_k}) + ρD₂ᵀD₂ + ρD_LᵀD_L
            // B_k = Q − Δt·e^{r_k} + Δt·diag(e^{r_k})·r_k
            //       + D₂ᵀ(ν_y + ρ·y) + D_Lᵀ(ν_z + ρ·z)
            let exp_r: Vec<f64> = r.iter().map(|v| (dt * v.exp()).max(1e-12)).collect();
            let mut rhs: Vec<f64> = counts
                .iter()
                .zip(exp_r.iter())
                .zip(r.iter())
                .map(|((&q, &er), &ri)| q - er + er * ri)
                .collect();
            let combo_y: Vec<f64> = nu_y
                .iter()
                .zip(y.iter())
                .map(|(nu, yv)| nu + rho * yv)
                .collect();
            let back_y = d2.apply_transpose(&combo_y).expect("dimensions fixed");
            for (b, v) in rhs.iter_mut().zip(back_y.iter()) {
                *b += v;
            }
            if let (Some(dl), Some(zv), Some(nz)) =
                (self.loss.periodic_difference(), z.as_ref(), nu_z.as_ref())
            {
                let combo_z: Vec<f64> = nz
                    .iter()
                    .zip(zv.iter())
                    .map(|(nu, zi)| nu + rho * zi)
                    .collect();
                let back_z = dl.apply_transpose(&combo_z).expect("dimensions fixed");
                for (b, v) in rhs.iter_mut().zip(back_z.iter()) {
                    *b += v;
                }
            }
            let r_unclamped = self.solve_system(&exp_r, &rhs, &r)?;
            // Trust-region safeguard on the quadratic approximation.
            let mut max_change = 0.0_f64;
            let mut r_next = Vec::with_capacity(t);
            for (old, new) in r.iter().zip(r_unclamped.iter()) {
                let delta = (new - old).clamp(-self.config.max_step, self.config.max_step);
                max_change = max_change.max(delta.abs());
                r_next.push(old + delta);
            }
            r = r_next;

            // --- y update: soft-thresholding (paper line 3). ---
            let d2r = d2.apply(&r).expect("dimensions fixed");
            let shifted: Vec<f64> = d2r
                .iter()
                .zip(nu_y.iter())
                .map(|(d, nu)| d - nu / rho)
                .collect();
            y = soft_threshold(&shifted, self.config.beta1 / rho);

            // --- z update: closed form (paper line 4). ---
            let dlr = self
                .loss
                .periodic_difference()
                .map(|dl| dl.apply(&r).expect("dimensions fixed"));
            if let (Some(dlr_v), Some(zv), Some(nz)) = (dlr.as_ref(), z.as_mut(), nu_z.as_ref()) {
                let beta2 = self.config.beta2;
                for ((zi, &d), &nu) in zv.iter_mut().zip(dlr_v.iter()).zip(nz.iter()) {
                    *zi = (rho * d - nu) / (beta2 + rho);
                }
            }

            // --- dual updates (paper lines 5-6). ---
            let mut residual_sq = 0.0;
            let mut residual_dim = 0usize;
            for ((nu, &yv), &d) in nu_y.iter_mut().zip(y.iter()).zip(d2r.iter()) {
                let gap = yv - d;
                *nu += rho * gap;
                residual_sq += gap * gap;
            }
            residual_dim += y.len();
            if let (Some(dlr_v), Some(zv), Some(nz)) = (dlr.as_ref(), z.as_ref(), nu_z.as_mut()) {
                for ((nu, &zi), &d) in nz.iter_mut().zip(zv.iter()).zip(dlr_v.iter()) {
                    let gap = zi - d;
                    *nu += rho * gap;
                    residual_sq += gap * gap;
                }
                residual_dim += zv.len();
            }
            primal_residual = if residual_dim > 0 {
                (residual_sq / residual_dim as f64).sqrt()
            } else {
                0.0
            };

            if primal_residual < self.config.tolerance && max_change < self.config.tolerance {
                converged = true;
                break;
            }
        }

        let report = AdmmReport {
            iterations,
            primal_residual,
            final_loss: self.loss.value(&r),
            converged,
        };
        Ok((r, report))
    }

    /// Whether this fit can share a lane group with `other`: same config
    /// and bucket width, and shapes [`AdmmConfig::shares_lanes`] accepts.
    fn shares_lanes_with(&self, other: &Self) -> bool {
        self.config == other.config
            && self.loss.config().bucket_width == other.loss.config().bucket_width
            && self.config.shares_lanes(
                (self.loss.len(), self.loss.config().period),
                (other.loss.len(), other.loss.config().period),
            )
    }

    fn periodic_lag(&self) -> Option<usize> {
        self.loss.periodic_difference().map(|dl| dl.lag())
    }

    /// Half-bandwidth of `A_k`'s band.
    fn half_bandwidth(&self) -> usize {
        band_width(self.loss.len(), self.periodic_lag())
    }

    /// Fit every solver and return the results in input order, each
    /// bit-identical to that solver's [`AdmmSolver::fit`].
    ///
    /// Banded-path fits that share bucket width, period and config, with
    /// lengths within an eighth of each other ([`AdmmConfig::shares_lanes`]),
    /// run in lockstep, up to [`MAX_LANES`] at a time, each joining the
    /// first open group it fits in the order they come; the rest go
    /// through [`AdmmSolver::fit`] one by one. See the
    /// [lane kernel](crate::admm#the-lane-kernel).
    pub fn fit_lanes(solvers: &[AdmmSolver]) -> Vec<Result<(Vec<f64>, AdmmReport), NhppError>> {
        let mut results: Vec<Option<FitResult>> = (0..solvers.len()).map(|_| None).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (index, solver) in solvers.iter().enumerate() {
            if !solver.use_banded() {
                results[index] = Some(solver.fit());
                continue;
            }
            match groups
                .iter_mut()
                .find(|g| g.len() < MAX_LANES && solvers[g[0]].shares_lanes_with(solver))
            {
                Some(group) => group.push(index),
                None => groups.push(vec![index]),
            }
        }
        for group in groups {
            let lanes: Vec<&AdmmSolver> = group.iter().map(|&i| &solvers[i]).collect();
            let fitted = match lanes.len() {
                1 => LaneKernel::<1>::new(&lanes).run(),
                2 => LaneKernel::<2>::new(&lanes).run(),
                3 => LaneKernel::<3>::new(&lanes).run(),
                _ => LaneKernel::<4>::new(&lanes).run(),
            };
            for (index, result) in group.into_iter().zip(fitted) {
                results[index] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every solver is fitted"))
            .collect()
    }
}

/// Most fits [`AdmmSolver::fit_lanes`] runs in lockstep.
pub const MAX_LANES: usize = 4;

type FitResult = Result<(Vec<f64>, AdmmReport), NhppError>;

/// `K` banded-path fits of one bucket width, periodic lag, band and
/// config, iterated in lockstep over the longest lane's length.
///
/// Every per-bucket quantity is stored lane-interleaved (`v[i·K + lane]`)
/// and the system matrix as a flat row-major band (row `i` holds columns
/// `i − w ..= i`, the diagonal last), so each step runs across the lanes
/// back to back and the lanes' sqrt/division chains overlap. Each lane
/// performs exactly the floating-point operations of
/// [`AdmmSolver::fit`] on its own series, in the same order:
///
/// - `A_k`'s off-diagonals do not depend on the iterate, so they are
///   assembled once per lane, by the same `add_gram_to` calls `fit`
///   makes; its diagonal is `Δt·e^{r}` plus the Gram's diagonal terms,
///   replayed in `add_gram_to`'s order;
/// - the row-oriented banded Cholesky computes every factor entry with
///   the same subtraction sequence as the column-oriented
///   `SymmetricBandedMatrix::cholesky`, and the forward substitution
///   runs row by row behind it.
///
/// A lane shorter than the longest runs on through rows past its end,
/// which no row of its own reads: those rows carry a unit diagonal and no
/// coupling, and every step that would read past the lane's end adds the
/// exact identity instead (`−0.0` to a sum, `+0.0` from a difference).
struct LaneKernel<'a, const K: usize> {
    solvers: Vec<&'a AdmmSolver>,
    /// Each lane's length.
    len: [usize; K],
    /// Rows of the band: the longest lane's length.
    rows: usize,
    /// Half-bandwidth of the band.
    w: usize,
    lag: Option<usize>,
    /// `A_k`'s off-diagonal band: row `i`, column `i − w + c` of lane `l`
    /// at `(i·w + c)·K + l` (0 left of column 0 and past the lane's end).
    off_diagonal: Vec<f64>,
    /// The Gram's diagonal terms, in `add_gram_to`'s order: term `a` of
    /// row `i`, lane `l` at `(i·5 + a)·K + l`, padded with `+0.0` (adding
    /// it leaves the positive diagonal unchanged).
    diagonal_terms: Vec<f64>,
    /// How many of row `i`'s terms any lane has.
    diagonal_term_count: Vec<usize>,
}

impl<'a, const K: usize> LaneKernel<'a, K> {
    fn new(solvers: &[&'a AdmmSolver]) -> Self {
        assert_eq!(solvers.len(), K, "one solver per lane");
        let len: [usize; K] = std::array::from_fn(|l| solvers[l].loss.len());
        let rows = len.iter().copied().max().unwrap_or(0);
        let lag = solvers[0].periodic_lag();
        let w = solvers[0].half_bandwidth();
        let mut off_diagonal = vec![0.0; rows * w * K];
        let mut diagonal_terms = vec![0.0; rows * 5 * K];
        let mut diagonal_term_count = vec![1; rows];
        for (l, solver) in solvers.iter().enumerate() {
            assert!(
                solver.periodic_lag() == lag && solver.half_bandwidth() == w,
                "lanes share their period and band"
            );
            let t = len[l];
            let rho = solver.config.rho;
            let d2 = solver.loss.second_difference();
            let dl = solver.loss.periodic_difference();
            let mut gram = SymmetricBandedMatrix::zeros(t, w);
            d2.add_gram_to(&mut gram, rho).expect("dimensions fixed");
            if let Some(dl) = dl {
                dl.add_gram_to(&mut gram, rho).expect("dimensions fixed");
            }
            for i in 0..t {
                for c in w.saturating_sub(i)..w {
                    off_diagonal[(i * w + c) * K + l] = gram.get(i, i + c - w);
                }
            }
            for i in t..rows {
                diagonal_terms[i * 5 * K + l] = 1.0;
            }
            let mut counts = vec![0usize; t];
            let mut push = |row: usize, value: f64| {
                diagonal_terms[(row * 5 + counts[row]) * K + l] = value;
                counts[row] += 1;
                diagonal_term_count[row] = diagonal_term_count[row].max(counts[row]);
            };
            const STENCIL: [f64; 3] = [1.0, -2.0, 1.0];
            for row in 0..d2.output_dim() {
                for (a, s) in STENCIL.iter().enumerate() {
                    push(row + a, rho * s * s);
                }
            }
            if let Some(dl) = dl {
                for row in 0..dl.output_dim() {
                    push(row, rho);
                    push(row + dl.lag(), rho);
                }
            }
        }
        Self {
            solvers: solvers.to_vec(),
            len,
            rows,
            w,
            lag,
            off_diagonal,
            diagonal_terms,
            diagonal_term_count,
        }
    }

    fn run(self) -> Vec<FitResult> {
        let config = self.solvers[0].config;
        let (t, w) = (self.rows, self.w);
        let (my, mz) = (self.my_of(t), self.mz_of(t));
        let lane_my = self.len.map(|t| self.my_of(t));
        let lane_mz = self.len.map(|t| self.mz_of(t));
        // Below `split`, every step's rows are inside every lane: those
        // rows skip the lane-end checks.
        let min_len = self.len.iter().copied().min().unwrap_or(0);
        let split = min_len.saturating_sub(w.max(2));
        let mut s = LaneState::<K>::start(&self);

        let mut results: Vec<Option<FitResult>> = (0..K).map(|_| None).collect();
        let mut primal_residual = [f64::INFINITY; K];
        for iter in 1..=config.max_iterations {
            // --- r update: B_k = Q − Δt·e^{r} + Δt·e^{r}·r + D₂ᵀ(ν_y + ρy)
            // + D_Lᵀ(ν_z + ρz), summed per bucket in `fit`'s order. ---
            self.rhs_rows::<false>(&mut s, 0..split);
            self.rhs_rows::<true>(&mut s, split..t);
            // --- A_k = L·Lᵀ with L·u = B_k solved behind it, then
            // Lᵀ·x = u (`u` and `x` overwrite `rhs`). ---
            // The aperiodic band (w = 2) gets loops of constant length.
            let pivot_failure = match w {
                2 => self.factor_forward::<2>(&mut s),
                _ => self.factor_forward::<0>(&mut s),
            };
            match w {
                2 => {
                    self.backward_rows::<true, 2>(&mut s, split..t);
                    self.backward_rows::<false, 2>(&mut s, 0..split);
                }
                _ => {
                    self.backward_rows::<true, 0>(&mut s, split..t);
                    self.backward_rows::<false, 0>(&mut s, 0..split);
                }
            }
            for (l, pivot) in pivot_failure.into_iter().enumerate() {
                if let (Some(pivot), None) = (pivot, &results[l]) {
                    results[l] = Some(Err(NhppError::from(
                        robustscaler_linalg::LinalgError::NotPositiveDefinite { pivot },
                    )));
                }
            }
            // Trust-region safeguard on the quadratic approximation.
            let mut max_change = [0.0_f64; K];
            self.step_rows::<false>(&mut s, 0..split, &mut max_change);
            self.step_rows::<true>(&mut s, split..t, &mut max_change);
            // --- y by soft-thresholding, z in closed form, each with its
            // dual ascent. ---
            let mut residual_sq = [0.0; K];
            self.y_rows::<false>(&mut s, 0..split.min(my), &mut residual_sq);
            self.y_rows::<true>(&mut s, split.min(my)..my, &mut residual_sq);
            self.z_rows::<false>(&mut s, 0..split.min(mz), &mut residual_sq);
            self.z_rows::<true>(&mut s, split.min(mz)..mz, &mut residual_sq);

            let mut running = false;
            for l in 0..K {
                if results[l].is_some() {
                    continue;
                }
                let residual_dim = lane_my[l] + lane_mz[l];
                primal_residual[l] = if residual_dim > 0 {
                    (residual_sq[l] / residual_dim as f64).sqrt()
                } else {
                    0.0
                };
                if primal_residual[l] < config.tolerance && max_change[l] < config.tolerance {
                    results[l] = Some(Ok(self.finish(l, &s.r, iter, primal_residual[l], true)));
                } else if iter == config.max_iterations {
                    results[l] = Some(Ok(self.finish(l, &s.r, iter, primal_residual[l], false)));
                } else {
                    running = true;
                }
            }
            if !running {
                break;
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane stops by the iteration budget"))
            .collect()
    }

    /// Rows of `y = D₂r` for a `t`-bucket lane.
    fn my_of(&self, t: usize) -> usize {
        t.saturating_sub(2)
    }

    /// Rows of `z = D_L r` for a `t`-bucket lane.
    fn mz_of(&self, t: usize) -> usize {
        self.lag.map_or(0, |lag| t - lag)
    }

    /// `B_k` for `rows`: `Q − Δt·e^{r} + Δt·e^{r}·r`, plus `D₂ᵀ(ν_y + ρy)`
    /// and `D_Lᵀ(ν_z + ρz)` summed as `apply_transpose` sums them.
    fn rhs_rows<const MASKED: bool>(&self, s: &mut LaneState<K>, rows: Range<usize>) {
        let dt = self.solvers[0].loss.config().bucket_width;
        let (my, mz) = (self.my_of(self.rows), self.mz_of(self.rows));
        let lane_my = self.len.map(|t| self.my_of(t));
        let lane_mz = self.len.map(|t| self.mz_of(t));
        let lag = self.lag.unwrap_or(0);
        for i in rows {
            for l in 0..K {
                let ri = s.r[i * K + l];
                let er = (dt * ri.exp()).max(1e-12);
                s.exp_r[i * K + l] = er;
                let cy = |k: usize| s.combo_y[k * K + l];
                let mut back = 0.0;
                if i >= 2 && i - 2 < my {
                    back += lane_term::<MASKED>(i - 2 < lane_my[l], cy(i - 2), -0.0);
                }
                if i >= 1 && i - 1 < my {
                    back -= lane_term::<MASKED>(i - 1 < lane_my[l], 2.0 * cy(i - 1), 0.0);
                }
                if i < my {
                    back += lane_term::<MASKED>(i < lane_my[l], cy(i), -0.0);
                }
                let mut b = s.q[i * K + l] - er + er * ri;
                b += back;
                if self.lag.is_some() {
                    let cz = |k: usize| s.combo_z[k * K + l];
                    let mut back = 0.0;
                    if i >= lag {
                        back -= lane_term::<MASKED>(i - lag < lane_mz[l], cz(i - lag), 0.0);
                    }
                    if i < mz {
                        back += lane_term::<MASKED>(i < lane_mz[l], cz(i), -0.0);
                    }
                    b += back;
                }
                s.rhs[i * K + l] = b;
            }
        }
    }

    /// Assemble and factor `A_k = L·Lᵀ` row by row, solving `L·u = B_k`
    /// behind it; returns each lane's first failed pivot. `W` is the
    /// half-bandwidth when known at compile time, 0 otherwise.
    fn factor_forward<const W: usize>(&self, s: &mut LaneState<K>) -> [Option<usize>; K] {
        let w = if W > 0 { W } else { self.w };
        let row = (w + 1) * K;
        let band = &mut s.band;
        let rhs = &mut s.rhs;
        let mut pivot_failure = [None; K];
        for i in 0..self.rows {
            let base = i * row;
            band[base..base + w * K]
                .copy_from_slice(&self.off_diagonal[i * w * K..(i + 1) * w * K]);
            let mut d = [0.0; K];
            d.copy_from_slice(&s.exp_r[i * K..(i + 1) * K]);
            let terms = &self.diagonal_terms[i * 5 * K..(i * 5 + self.diagonal_term_count[i]) * K];
            for terms in terms.chunks_exact(K) {
                for l in 0..K {
                    d[l] += terms[l];
                }
            }
            band[base + w * K..base + (w + 1) * K].copy_from_slice(&d);
            let j0 = i.saturating_sub(w);
            for j in j0..i {
                let cij = (j + w - i) * K;
                let jbase = j * row;
                let mut v = [0.0; K];
                v.copy_from_slice(&band[base + cij..base + cij + K]);
                for k in j0..j {
                    let ik = base + (k + w - i) * K;
                    let jk = jbase + (k + w - j) * K;
                    for l in 0..K {
                        v[l] -= band[ik + l] * band[jk + l];
                    }
                }
                for l in 0..K {
                    band[base + cij + l] = v[l] / band[jbase + w * K + l];
                }
            }
            let mut u = [0.0; K];
            u.copy_from_slice(&rhs[i * K..(i + 1) * K]);
            for k in j0..i {
                let ik = base + (k + w - i) * K;
                for l in 0..K {
                    let v = band[ik + l];
                    d[l] -= v * v;
                    u[l] -= v * rhs[k * K + l];
                }
            }
            for l in 0..K {
                if d[l] <= 0.0 && i < self.len[l] && pivot_failure[l].is_none() {
                    pivot_failure[l] = Some(i);
                }
                let diag = d[l].sqrt();
                band[base + w * K + l] = diag;
                rhs[i * K + l] = u[l] / diag;
            }
        }
        pivot_failure
    }

    /// Backward substitution `Lᵀ·x = u` over `rows`, last row first (`W`
    /// as in [`LaneKernel::factor_forward`]).
    fn backward_rows<const MASKED: bool, const W: usize>(
        &self,
        s: &mut LaneState<K>,
        rows: Range<usize>,
    ) {
        let t = self.rows;
        let w = if W > 0 { W } else { self.w };
        let row = (w + 1) * K;
        for i in rows.rev() {
            let mut v = [0.0; K];
            v.copy_from_slice(&s.rhs[i * K..(i + 1) * K]);
            for k in i + 1..=(i + w).min(t - 1) {
                let ki = k * row + (i + w - k) * K;
                for l in 0..K {
                    let term = s.band[ki + l] * s.rhs[k * K + l];
                    v[l] -= lane_term::<MASKED>(k < self.len[l], term, 0.0);
                }
            }
            for l in 0..K {
                s.rhs[i * K + l] = v[l] / s.band[i * row + w * K + l];
            }
        }
    }

    /// `r ← r + clamp(x − r, ±max_step)` over `rows`, tracking each lane's
    /// largest step.
    fn step_rows<const MASKED: bool>(
        &self,
        s: &mut LaneState<K>,
        rows: Range<usize>,
        max_change: &mut [f64; K],
    ) {
        let max_step = self.solvers[0].config.max_step;
        for i in rows {
            for l in 0..K {
                let old = s.r[i * K + l];
                let delta = (s.rhs[i * K + l] - old).clamp(-max_step, max_step);
                let change = lane_term::<MASKED>(i < self.len[l], delta.abs(), 0.0);
                max_change[l] = max_change[l].max(change);
                s.r[i * K + l] = old + delta;
            }
        }
    }

    /// The `y` update by soft-thresholding and its dual ascent, over
    /// `rows` of `y`.
    fn y_rows<const MASKED: bool>(
        &self,
        s: &mut LaneState<K>,
        rows: Range<usize>,
        residual_sq: &mut [f64; K],
    ) {
        let config = self.solvers[0].config;
        let rho = config.rho;
        let threshold = config.beta1 / rho;
        for k in rows {
            for l in 0..K {
                let at = k * K + l;
                let d = s.r[at] - 2.0 * s.r[at + K] + s.r[at + 2 * K];
                let shifted = d - s.nu_y[at] / rho;
                let yv = shifted.signum() * (shifted.abs() - threshold).max(0.0);
                let gap = yv - d;
                s.nu_y[at] += rho * gap;
                let inside = k < self.my_of(self.len[l]);
                residual_sq[l] += lane_term::<MASKED>(inside, gap * gap, -0.0);
                s.y[at] = yv;
                s.combo_y[at] = s.nu_y[at] + rho * yv;
            }
        }
    }

    /// The closed-form `z` update and its dual ascent, over `rows` of `z`.
    fn z_rows<const MASKED: bool>(
        &self,
        s: &mut LaneState<K>,
        rows: Range<usize>,
        residual_sq: &mut [f64; K],
    ) {
        let config = self.solvers[0].config;
        let (rho, beta2) = (config.rho, config.beta2);
        let lag = self.lag.unwrap_or(0);
        for k in rows {
            for l in 0..K {
                let at = k * K + l;
                let d = s.r[at] - s.r[at + lag * K];
                let zi = (rho * d - s.nu_z[at]) / (beta2 + rho);
                let gap = zi - d;
                s.nu_z[at] += rho * gap;
                let inside = k < self.mz_of(self.len[l]);
                residual_sq[l] += lane_term::<MASKED>(inside, gap * gap, -0.0);
                s.z[at] = zi;
                s.combo_z[at] = s.nu_z[at] + rho * zi;
            }
        }
    }

    /// Lane `l`'s log-rates and report once it stops.
    fn finish(
        &self,
        l: usize,
        r: &[f64],
        iterations: usize,
        primal_residual: f64,
        converged: bool,
    ) -> (Vec<f64>, AdmmReport) {
        let r: Vec<f64> = r
            .iter()
            .skip(l)
            .step_by(K)
            .take(self.len[l])
            .copied()
            .collect();
        let report = AdmmReport {
            iterations,
            primal_residual,
            final_loss: self.solvers[l].loss.value(&r),
            converged,
        };
        (r, report)
    }
}

/// A [`LaneKernel`] run's iterate and scratch, all lane-interleaved.
struct LaneState<const K: usize> {
    q: Vec<f64>,
    r: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    nu_y: Vec<f64>,
    nu_z: Vec<f64>,
    /// `ν_y + ρ·y` and `ν_z + ρ·z`, the right-hand side's dual terms.
    combo_y: Vec<f64>,
    combo_z: Vec<f64>,
    exp_r: Vec<f64>,
    /// `B_k`, then `u`, then `x`.
    rhs: Vec<f64>,
    band: Vec<f64>,
}

impl<const K: usize> LaneState<K> {
    /// The start point, as `fit` builds it per lane.
    fn start(kernel: &LaneKernel<'_, K>) -> Self {
        let t = kernel.rows;
        let (my, mz) = (kernel.my_of(t), kernel.mz_of(t));
        let mut q = vec![0.0; t * K];
        let mut r = vec![0.0; t * K];
        let mut y = vec![0.0; my * K];
        let mut z = vec![0.0; mz * K];
        for (l, solver) in kernel.solvers.iter().enumerate() {
            let r0 = solver.initial_log_rates();
            let y0 = solver.loss.second_difference().apply(&r0);
            let z0 = solver.loss.periodic_difference().map(|dl| dl.apply(&r0));
            let lane = [
                (&mut q, solver.loss.counts()),
                (&mut r, &r0[..]),
                (&mut y, &y0.expect("dimensions fixed")[..]),
            ];
            for (out, values) in lane {
                for (i, &v) in values.iter().enumerate() {
                    out[i * K + l] = v;
                }
            }
            if let Some(z0) = z0 {
                for (i, v) in z0.expect("dimensions fixed").into_iter().enumerate() {
                    z[i * K + l] = v;
                }
            }
        }
        let rho = kernel.solvers[0].config.rho;
        let (nu_y, nu_z) = (vec![0.0; my * K], vec![0.0; mz * K]);
        let combo_y = nu_y.iter().zip(&y).map(|(nu, yv)| nu + rho * yv).collect();
        let combo_z = nu_z.iter().zip(&z).map(|(nu, zi)| nu + rho * zi).collect();
        Self {
            q,
            r,
            y,
            z,
            nu_y,
            nu_z,
            combo_y,
            combo_z,
            exp_r: vec![0.0; t * K],
            rhs: vec![0.0; t * K],
            band: vec![0.0; t * (kernel.w + 1) * K],
        }
    }
}

/// `value` for a lane where the row is `inside` it, else `identity` (the
/// operation's exact identity: `−0.0` for a sum, `+0.0` for a
/// difference). Without `MASKED` every lane is inside: rows below every
/// lane's end compile without the check.
#[inline(always)]
fn lane_term<const MASKED: bool>(inside: bool, value: f64, identity: f64) -> f64 {
    if !MASKED || inside {
        value
    } else {
        identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustscaler_stats::{DiscreteDistribution, Poisson};

    fn poisson_counts(rates: &[f64], dt: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        rates
            .iter()
            .map(|&lambda| {
                let mean = lambda * dt;
                if mean <= 0.0 {
                    0.0
                } else {
                    Poisson::new(mean).unwrap().sample(&mut rng) as f64
                }
            })
            .collect()
    }

    #[test]
    fn constructor_validates_config() {
        let bad_rho = AdmmConfig {
            rho: 0.0,
            ..AdmmConfig::default()
        };
        assert!(AdmmSolver::new(vec![1.0; 10], 1.0, None, bad_rho).is_err());
        let bad_iter = AdmmConfig {
            max_iterations: 0,
            ..AdmmConfig::default()
        };
        assert!(AdmmSolver::new(vec![1.0; 10], 1.0, None, bad_iter).is_err());
        let bad_tol = AdmmConfig {
            tolerance: 0.0,
            ..AdmmConfig::default()
        };
        assert!(AdmmSolver::new(vec![1.0; 10], 1.0, None, bad_tol).is_err());
        let bad_step = AdmmConfig {
            max_step: 0.0,
            ..AdmmConfig::default()
        };
        assert!(AdmmSolver::new(vec![1.0; 10], 1.0, None, bad_step).is_err());
    }

    #[test]
    fn recovers_constant_intensity() {
        let dt = 60.0;
        let true_rate = 0.5; // 0.5 QPS
        let counts = poisson_counts(&vec![true_rate; 200], dt, 1);
        let solver = AdmmSolver::new(
            counts,
            dt,
            None,
            AdmmConfig {
                beta1: 5.0,
                beta2: 0.0,
                ..AdmmConfig::default()
            },
        )
        .unwrap();
        let (r, report) = solver.fit().unwrap();
        assert!(report.iterations > 0);
        let mean_rate: f64 = r.iter().map(|v| v.exp()).sum::<f64>() / r.len() as f64;
        assert!(
            (mean_rate - true_rate).abs() / true_rate < 0.1,
            "recovered {mean_rate} vs true {true_rate}"
        );
    }

    #[test]
    fn smoothing_beats_raw_log_counts_on_noisy_data() {
        let dt = 60.0;
        // Smooth sinusoidal ground truth.
        let true_rates: Vec<f64> = (0..300)
            .map(|i| 0.4 + 0.3 * (2.0 * std::f64::consts::PI * i as f64 / 75.0).sin())
            .collect();
        let counts = poisson_counts(&true_rates, dt, 2);
        let solver = AdmmSolver::new(counts.clone(), dt, None, AdmmConfig::default()).unwrap();
        let (r, _) = solver.fit().unwrap();
        let mse = |estimate: &[f64]| -> f64 {
            estimate
                .iter()
                .zip(true_rates.iter())
                .map(|(e, t)| (e - t) * (e - t))
                .sum::<f64>()
                / true_rates.len() as f64
        };
        let fitted: Vec<f64> = r.iter().map(|v| v.exp()).collect();
        let raw: Vec<f64> = counts.iter().map(|q| q / dt).collect();
        assert!(
            mse(&fitted) < mse(&raw),
            "fitted MSE {} should beat raw MSE {}",
            mse(&fitted),
            mse(&raw)
        );
    }

    #[test]
    fn periodic_regularization_improves_estimation() {
        let dt = 60.0;
        let period = 50usize;
        let true_rates: Vec<f64> = (0..400)
            .map(|i| {
                0.1 + 0.4
                    * (2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64)
                        .sin()
                        .powi(2)
            })
            .collect();
        let counts = poisson_counts(&true_rates, dt, 3);
        let mse_for = |period_opt: Option<usize>, beta2: f64| -> f64 {
            let solver = AdmmSolver::new(
                counts.clone(),
                dt,
                period_opt,
                AdmmConfig {
                    beta1: 2.0,
                    beta2,
                    max_iterations: 150,
                    ..AdmmConfig::default()
                },
            )
            .unwrap();
            let (r, _) = solver.fit().unwrap();
            r.iter()
                .map(|v| v.exp())
                .zip(true_rates.iter())
                .map(|(e, t)| (e - t) * (e - t))
                .sum::<f64>()
                / true_rates.len() as f64
        };
        let with_reg = mse_for(Some(period), 20.0);
        let without_reg = mse_for(None, 0.0);
        assert!(
            with_reg < without_reg,
            "periodic regularization should reduce MSE: {with_reg} vs {without_reg}"
        );
    }

    #[test]
    fn admm_solution_approaches_the_unregularized_optimum_when_betas_are_zero() {
        let dt = 10.0;
        let counts = vec![5.0, 8.0, 2.0, 7.0, 4.0, 9.0, 3.0, 6.0];
        let solver = AdmmSolver::new(
            counts.clone(),
            dt,
            None,
            AdmmConfig {
                beta1: 0.0,
                beta2: 0.0,
                max_iterations: 300,
                tolerance: 1e-9,
                ..AdmmConfig::default()
            },
        )
        .unwrap();
        let (r, report) = solver.fit().unwrap();
        assert!(report.converged, "report: {report:?}");
        for (ri, q) in r.iter().zip(counts.iter()) {
            let expected = (q / dt).ln();
            assert!(
                (ri - expected).abs() < 1e-3,
                "r {} vs log-QPS {expected}",
                ri
            );
        }
    }

    #[test]
    fn banded_and_cg_paths_agree() {
        let dt = 60.0;
        let period = 30usize;
        let true_rates: Vec<f64> = (0..240)
            .map(|i| 0.3 + 0.2 * (2.0 * std::f64::consts::PI * i as f64 / period as f64).cos())
            .collect();
        let counts = poisson_counts(&true_rates, dt, 5);
        let fit_with = |solver_kind: SubproblemSolver| -> Vec<f64> {
            let solver = AdmmSolver::new(
                counts.clone(),
                dt,
                Some(period),
                AdmmConfig {
                    solver: solver_kind,
                    max_iterations: 120,
                    ..AdmmConfig::default()
                },
            )
            .unwrap();
            solver.fit().unwrap().0
        };
        let banded = fit_with(SubproblemSolver::BandedCholesky);
        let cg = fit_with(SubproblemSolver::ConjugateGradient);
        let max_diff = banded
            .iter()
            .zip(cg.iter())
            .fold(0.0_f64, |acc, (a, b)| acc.max((a - b).abs()));
        assert!(max_diff < 1e-3, "solver paths diverge: {max_diff}");
    }

    /// Assert that `fit_lanes` returns exactly what `fit` returns for
    /// every solver: the same `r` bits and the same report.
    fn assert_lanes_match_fit(solvers: &[AdmmSolver]) -> Vec<AdmmReport> {
        let lanes = AdmmSolver::fit_lanes(solvers);
        assert_eq!(lanes.len(), solvers.len());
        let mut reports = Vec::new();
        for (solver, lane) in solvers.iter().zip(lanes) {
            match (solver.fit(), lane) {
                (Ok((want_r, want)), Ok((got_r, got))) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got_r), bits(&want_r));
                    assert_eq!(got.iterations, want.iterations);
                    assert_eq!(got.converged, want.converged);
                    assert_eq!(
                        got.primal_residual.to_bits(),
                        want.primal_residual.to_bits()
                    );
                    assert_eq!(got.final_loss.to_bits(), want.final_loss.to_bits());
                    reports.push(got);
                }
                (Err(want), Err(got)) => assert_eq!(got, want),
                (want, got) => panic!("fit {want:?} vs lanes {got:?}"),
            }
        }
        reports
    }

    /// Counts for lane `l`: a level, an optional period-`period` wave and
    /// multiplicative noise; a zero level gives an all-zero series.
    fn lane_counts(t: usize, level: f64, period: usize, noise: &[f64]) -> Vec<f64> {
        (0..t)
            .map(|i| {
                let wave =
                    1.0 + (std::f64::consts::TAU * (i % period) as f64 / period as f64).sin();
                (level * wave * (0.5 + noise[i % noise.len()])).round()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The lane kernel is `fit`, bit for bit: 1–4 lanes, lengths from 1
        /// bucket up, equal within a group or up to an eighth apart (or
        /// further, which splits the group), aperiodic and periodic fits
        /// (lags up to 96 take the banded lanes, longer ones and periods
        /// past the series end fall back or drop the penalty), and
        /// tolerances loose enough that lanes stop at different iterations.
        #[test]
        fn fit_lanes_matches_fit_bit_for_bit(
            shape in (1usize..5, 1usize..140, 0usize..4, 1usize..40),
            shortfall in proptest::prelude::prop::collection::vec(0usize..24, 4..5),
            levels in proptest::prelude::prop::collection::vec(0.0_f64..40.0, 4..5),
            noise in proptest::prelude::prop::collection::vec(0.0_f64..1.0, 97..98),
            tuning in (0usize..3, 1usize..60, 0.0_f64..6.0, 0.0_f64..12.0),
        ) {
            let (lanes, t, period_kind, period_seed) = shape;
            let (tolerance_kind, max_iterations, beta1, beta2) = tuning;
            let period = match period_kind {
                0 => None,
                1 => Some(period_seed),
                2 => Some((t / 3).max(1)),
                _ => Some(t + period_seed),
            };
            let config = AdmmConfig {
                beta1,
                beta2,
                max_iterations,
                tolerance: [1e-6, 1e-3, 5e-2][tolerance_kind],
                ..AdmmConfig::default()
            };
            let solvers: Vec<AdmmSolver> = (0..lanes)
                .map(|l| {
                    let wave = period.unwrap_or(24).max(2);
                    let t = t.saturating_sub(shortfall[l] % (t / 4 + 1)).max(1);
                    let counts = lane_counts(t, levels[l], wave, &noise[l..]);
                    AdmmSolver::new(counts, 60.0, period, config).unwrap()
                })
                .collect();
            assert_lanes_match_fit(&solvers);
        }
    }

    #[test]
    fn lanes_that_converge_at_different_iterations_stop_alone() {
        let noise: Vec<f64> = (0..97).map(|i| ((i * 37) % 97) as f64 / 97.0).collect();
        let config = AdmmConfig {
            tolerance: 1e-4,
            max_iterations: 300,
            ..AdmmConfig::default()
        };
        let solvers: Vec<AdmmSolver> = [0.0, 3.0, 20.0, 7.0]
            .iter()
            .map(|&level| {
                let counts = lane_counts(200, level, 50, &noise);
                AdmmSolver::new(counts, 60.0, Some(50), config).unwrap()
            })
            .collect();
        let reports = assert_lanes_match_fit(&solvers);
        let mut iterations: Vec<usize> = reports.iter().map(|r| r.iterations).collect();
        iterations.dedup();
        assert!(iterations.len() > 1, "iterations {iterations:?}");
    }

    #[test]
    fn fit_lanes_groups_compatible_fits_and_keeps_input_order() {
        let noise: Vec<f64> = (0..97).map(|i| ((i * 53) % 97) as f64 / 97.0).collect();
        let config = AdmmConfig {
            max_iterations: 25,
            ..AdmmConfig::default()
        };
        // Mixed lengths (within an eighth and further apart), periods (one
        // past the banded threshold, one on the CG path by config) and more
        // compatible fits than one group holds.
        let mut solvers = Vec::new();
        for (k, &(t, period)) in [
            (120, None),
            (90, Some(12)),
            (113, None),
            (250, Some(120)),
            (120, None),
            (84, Some(12)),
            (106, None),
            (60, None),
            (120, None),
            (120, Some(12)),
        ]
        .iter()
        .enumerate()
        {
            let counts = lane_counts(t, 2.0 + k as f64, 24, &noise);
            solvers.push(AdmmSolver::new(counts, 60.0, period, config).unwrap());
        }
        let cg = AdmmConfig {
            solver: SubproblemSolver::ConjugateGradient,
            ..config
        };
        solvers.push(AdmmSolver::new(lane_counts(120, 4.0, 24, &noise), 60.0, None, cg).unwrap());
        assert_lanes_match_fit(&solvers);
        assert!(AdmmSolver::fit_lanes(&[]).is_empty());
    }

    #[test]
    fn fit_reduces_the_regularized_loss_from_the_start_point() {
        let dt = 60.0;
        let true_rates: Vec<f64> = (0..150)
            .map(|i| 0.2 + 0.1 * ((i / 25) % 2) as f64)
            .collect();
        let counts = poisson_counts(&true_rates, dt, 7);
        let solver = AdmmSolver::new(counts, dt, Some(50), AdmmConfig::default()).unwrap();
        let start = solver.initial_log_rates();
        let start_loss = solver.loss().value(&start);
        let (r, report) = solver.fit().unwrap();
        assert!(report.final_loss < start_loss);
        assert_eq!(r.len(), 150);
    }
}
