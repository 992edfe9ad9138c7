//! Criterion bench: scaling-decision computation (paper Fig. 8's runtime
//! axis). The exact engine that planning runs — one decision and one full
//! planning window per rule — beside the paper's Monte Carlo reference: the
//! sort-and-search Algorithm 3 and the quantile rule of eq. (3) as a
//! function of the sample count R. Also the NHPP forecast every serving
//! round reads: the drift check's window and a planning horizon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustscaler_nhpp::{ForecastConfig, Forecaster, NhppModel, PiecewiseConstantIntensity};
use robustscaler_scaling::{
    decide_exact, solve_waiting_root, ArrivalSampler, DecisionConfig, DecisionRule,
    PendingTimeModel, PlannerConfig, PlannerState, SequentialPlanner,
};

/// The three rules at the paper's targets (α = 0.1, 1 s waiting, 2 s idle).
const RULES: [(&str, DecisionRule); 3] = [
    ("hp", DecisionRule::HittingProbability { alpha: 0.1 }),
    (
        "rt",
        DecisionRule::ResponseTime {
            target_waiting: 1.0,
        },
    ),
    ("cost", DecisionRule::CostBudget { target_idle: 2.0 }),
];

fn bench_sort_and_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_and_search_vs_samples");
    for &r in &[100usize, 1_000, 10_000] {
        let mut rng = StdRng::seed_from_u64(r as u64);
        let samples: Vec<(f64, f64)> = (0..r)
            .map(|_| (rng.gen_range(0.0..500.0), rng.gen_range(1.0..30.0)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(r), &samples, |b, samples| {
            b.iter(|| solve_waiting_root(samples, 3.0).unwrap());
        });
    }
    group.finish();
}

/// The Monte Carlo reference for one HP decision: sampling R paths plus the
/// quantile rule.
fn bench_single_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("hp_decision_vs_samples");
    let intensity = PiecewiseConstantIntensity::new(0.0, 1e6, vec![5.0]).unwrap();
    for &r in &[100usize, 1_000] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                let sampler = ArrivalSampler::new(&intensity, 0.0, 5, r, &mut rng).unwrap();
                robustscaler_scaling::decisions::decide(
                    &sampler,
                    3,
                    &DecisionConfig {
                        rule: DecisionRule::HittingProbability { alpha: 0.1 },
                        pending: PendingTimeModel::Deterministic(13.0),
                        monte_carlo_samples: r,
                    },
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// One exact decision (the third upcoming arrival at 5 QPS) per rule — the
/// counterpart of `hp_decision_vs_samples`.
fn bench_exact_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_decision");
    let intensity = PiecewiseConstantIntensity::new(0.0, 1e6, vec![5.0]).unwrap();
    for (name, rule) in RULES {
        group.bench_function(name, |b| {
            b.iter(|| decide_exact(&intensity, 0.0, 3, &rule, 13.0));
        });
    }
    group.finish();
}

/// A full exact planning round per rule at 5 QPS over a 10 s window
/// (≈ 50 arrivals in the window, ≈ 115 decisions with the 13 s lead), on a
/// 60 s-bucket diurnal-ish forecast like a serving tenant's. The planner is
/// reused across iterations, so the HP quantile table is warm — the serving
/// steady state.
fn bench_exact_plan_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_plan_window");
    let rates: Vec<f64> = (0..60)
        .map(|k| 5.0 * (1.0 + 0.3 * (k as f64 / 9.5).sin()))
        .collect();
    let intensity = PiecewiseConstantIntensity::new(0.0, 60.0, rates).unwrap();
    for (name, rule) in RULES {
        let mut planner = SequentialPlanner::new(PlannerConfig {
            rule,
            pending: PendingTimeModel::Deterministic(13.0),
            planning_interval: 10.0,
            max_decisions_per_round: 10_000,
        })
        .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| planner.plan_window(&intensity, 30.0, PlannerState { covered: 0 }));
        });
    }
    group.finish();
}

/// One forecast from a one-day periodic model (period 1,440 of 60 s
/// buckets, the shape of a fleet template model), starting mid-bucket at
/// noon: the drift check's 600 s window and a 3,600 s planning horizon.
/// Both emit fewer buckets than the period, so only their phases are
/// computed.
fn bench_forecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast");
    let log_rates = (0..1_440)
        .map(|b| (1.0 + 0.8 * (b as f64 * std::f64::consts::TAU / 1_440.0).sin()).ln())
        .collect();
    let model = NhppModel::from_log_rates(0.0, 60.0, log_rates, Some(1_440)).unwrap();
    let forecaster = Forecaster::new(model, ForecastConfig::default()).unwrap();
    for (name, horizon) in [("drift_window", 600.0), ("horizon", 3_600.0)] {
        group.bench_function(name, |b| {
            b.iter(|| forecaster.forecast(43_230.0, horizon).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sort_and_search,
    bench_single_decision,
    bench_exact_decision,
    bench_exact_plan_window,
    bench_forecast
);
criterion_main!(benches);
