//! Criterion bench: ADMM training cost as a function of the series length T
//! and the period length L, plus the banded-Cholesky vs conjugate-gradient
//! ablation for the r-subproblem.
//!
//! Backs the complexity discussion of paper §V (O(T·L²) per iteration) and
//! the training-time numbers of §VII-B2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler_nhpp::admm::{AdmmConfig, AdmmSolver, SubproblemSolver};
use robustscaler_stats::{DiscreteDistribution, Poisson};

fn synthetic_counts(t: usize, period: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..t)
        .map(|i| {
            let phase = (i % period) as f64 / period as f64;
            let rate = 5.0 + 20.0 * (std::f64::consts::TAU * phase).sin().max(0.0);
            Poisson::new(rate).unwrap().sample(&mut rng) as f64
        })
        .collect()
}

fn bench_series_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_fit_vs_series_length");
    group.sample_size(10);
    for &t in &[250usize, 500, 1_000] {
        let counts = synthetic_counts(t, 100, 1);
        group.bench_with_input(BenchmarkId::from_parameter(t), &counts, |b, counts| {
            b.iter(|| {
                let solver = AdmmSolver::new(
                    counts.clone(),
                    60.0,
                    Some(100),
                    AdmmConfig {
                        max_iterations: 15,
                        ..AdmmConfig::default()
                    },
                )
                .unwrap();
                solver.fit().unwrap()
            });
        });
    }
    group.finish();
}

fn bench_solver_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_subproblem_solver_ablation");
    group.sample_size(10);
    let t = 600;
    for &period in &[30usize, 150] {
        let counts = synthetic_counts(t, period, 2);
        for (name, solver_kind) in [
            ("banded", SubproblemSolver::BandedCholesky),
            ("cg", SubproblemSolver::ConjugateGradient),
        ] {
            group.bench_with_input(BenchmarkId::new(name, period), &counts, |b, counts| {
                b.iter(|| {
                    let solver = AdmmSolver::new(
                        counts.clone(),
                        60.0,
                        Some(period),
                        AdmmConfig {
                            max_iterations: 10,
                            solver: solver_kind,
                            ..AdmmConfig::default()
                        },
                    )
                    .unwrap();
                    solver.fit().unwrap()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_series_length, bench_solver_ablation);
criterion_main!(benches);
