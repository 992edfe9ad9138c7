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

/// The lane kernel against `fit` on the fleet's refit shape: T = 360
/// buckets, no period, 40 iterations. Every iteration fits the same four
/// series — `fit` one by one, or `fit_lanes` in groups of 1, 2 or 4 — so
/// the ids compare directly and a quarter of the time is the cost per fit.
fn bench_fit_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("admm_fit_lanes");
    group.sample_size(20);
    let config = AdmmConfig {
        max_iterations: 40,
        ..AdmmConfig::default()
    };
    let solvers: Vec<AdmmSolver> = (0..4)
        .map(|seed| {
            AdmmSolver::new(synthetic_counts(360, 97, 10 + seed), 60.0, None, config).unwrap()
        })
        .collect();
    group.bench_function("fit", |b| {
        b.iter(|| solvers.iter().map(|s| s.fit().unwrap()).collect::<Vec<_>>())
    });
    for lanes in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(lanes), &lanes, |b, &lanes| {
            b.iter(|| {
                solvers
                    .chunks(lanes)
                    .flat_map(AdmmSolver::fit_lanes)
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_series_length,
    bench_solver_ablation,
    bench_fit_lanes
);
criterion_main!(benches);
