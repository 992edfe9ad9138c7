//! Table I: accuracy of the Monte Carlo approximated decisions on the
//! simulated high-QPS workload.
//!
//! The paper trains on 6 hours of the closed-form hourly-peak intensity,
//! tests on the 7th hour, uses a fixed 13 s pod pending time, Exp(20 s)
//! processing, updates decisions every 5 s with R = 1000, and reports:
//! target HP 0.9 → achieved ≈ 0.99; target extra-RT 1 s → achieved ≈ 0.5 s;
//! target idle cost 2 s → achieved ≈ 2.5 s. The shape to reproduce is
//! "achieved ≈ target (HP conservatively above)".
//!
//! The policies plan with the exact engine, which is the R → ∞ limit of
//! the paper's Monte Carlo decisions; their achieved levels form that
//! column. Beside it, the per-decision gap |Monte Carlo − exact| of the
//! creation times at R ∈ {300, 1000, 10000}, over planning instants across
//! the test hour, shows the Monte Carlo error shrinking at the 1/√R rate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler_bench::montecarlo::{decide_batch, ArrivalSampler, DecisionConfig};
use robustscaler_bench::workloads::scale_from_env;
use robustscaler_core::{
    evaluate_policy, RobustScalerConfig, RobustScalerPipeline, RobustScalerVariant,
};
use robustscaler_nhpp::Forecaster;
use robustscaler_scaling::{
    decide_exact, DecisionRule, PendingTimeModel, PlannerConfig, PlannerState, SequentialPlanner,
};
use robustscaler_simulator::{PendingTimeDistribution, SimulationConfig};
use robustscaler_traces::{simulated_high_qps, ProcessingTimeModel};

const HOUR: f64 = 3_600.0;

/// Replication counts of the Monte Carlo columns.
const REPLICATIONS: [usize; 3] = [300, 1_000, 10_000];

/// Arrival indices compared per planning instant (the first ones of the
/// round — the decisions the round actually schedules first).
const INDICES_PER_INSTANT: usize = 40;

/// Periodicity detection runs on the un-aggregated 1-minute series. At the
/// default 5× aggregation the Hampel filter's window spans about an hour,
/// so it removes the workload's ~7-minute hourly spike as an outlier and
/// no period is detected: the forecast for the test hour is then flat and
/// every policy plans almost nothing.
const PERIODICITY_AGGREGATION: usize = 1;

/// Mean |Monte Carlo − exact| creation time, per entry of
/// [`REPLICATIONS`], over planning instants every minute of the test hour,
/// and the number of decisions compared.
fn decision_gaps(
    forecaster: &Forecaster,
    rule: DecisionRule,
    from: f64,
    pending: PendingTimeModel,
) -> ([f64; 3], usize) {
    let tau = pending.mean();
    let mut planner = SequentialPlanner::new(PlannerConfig {
        rule,
        pending,
        planning_interval: 5.0,
        max_decisions_per_round: 2_000,
    })
    .expect("valid planner config");
    let mut sums = [0.0; 3];
    let mut compared = 0;
    for minute in 0..60 {
        let now = from + 60.0 * minute as f64;
        let forecast = forecaster.forecast(now, 600.0).expect("forecast");
        let round = planner.plan_window(&forecast, now, PlannerState { covered: 0 });
        let count = round.decisions.len().clamp(1, INDICES_PER_INSTANT);
        let exact: Vec<f64> = (1..=count)
            .map(|i| decide_exact(&forecast, now, i, &rule, tau).unconstrained_creation_time)
            .collect();
        for (k, &replications) in REPLICATIONS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1_000 * minute + k as u64);
            let sampler = ArrivalSampler::new(&forecast, now, count, replications, &mut rng)
                .expect("valid sampler");
            let config = DecisionConfig { rule, pending };
            let monte_carlo = decide_batch(&sampler, 1, count, &config).expect("decisions");
            for (mc, exact) in monte_carlo.iter().zip(&exact) {
                if exact.is_finite() {
                    sums[k] += (mc.unconstrained_creation_time - exact).abs();
                    if k == 0 {
                        compared += 1;
                    }
                }
            }
        }
    }
    (sums.map(|sum| sum / compared.max(1) as f64), compared)
}

fn main() {
    let scale = scale_from_env(1.0);
    // Peak QPS: the paper uses 10^4; 40·scale keeps the run to a couple of
    // minutes while exercising the same code path (set RS_SCALE higher to
    // push towards the paper's level).
    let peak = 40.0 * scale;
    println!("Table I reproduction — Monte Carlo decision accuracy (peak {peak} QPS)");

    let trace = simulated_high_qps(
        peak,
        7.0 * HOUR,
        ProcessingTimeModel::Exponential { mean: 20.0 },
        2024,
    );
    let (train, test) = trace.split_at(trace.start() + 6.0 * HOUR).unwrap();
    println!(
        "workload: {} train / {} test queries",
        train.len(),
        test.len()
    );

    let sim = SimulationConfig {
        pending: PendingTimeDistribution::Deterministic(13.0),
        seed: 20,
        recent_history_window: 600.0,
    };

    let build = |variant: RobustScalerVariant| {
        let mut config = RobustScalerConfig::for_variant(variant);
        config.mean_processing = 20.0;
        config.planning_interval = 5.0;
        config.periodicity_aggregation = PERIODICITY_AGGREGATION;
        RobustScalerPipeline::new(config)
            .expect("valid configuration")
            .build_policy(&train)
            .expect("training succeeds")
    };

    println!(
        "\n{:<20} {:>16} {:>24}",
        "variant", "target level", "achieved (exact, R → ∞)"
    );

    // RobustScaler-HP: target hitting probability 0.9.
    let mut hp = build(RobustScalerVariant::HittingProbability { target: 0.9 });
    let (hp_result, _) = evaluate_policy(&test, &mut hp, sim).unwrap();
    println!(
        "{:<20} {:>16.2} {:>24.3}",
        "RobustScaler-HP", 0.9, hp_result.hit_rate
    );

    // RobustScaler-RT: target of 1 s of waiting on top of the 20 s processing
    // mean (the paper reports the d − µ_s part).
    let mut rt = build(RobustScalerVariant::ResponseTime { target: 21.0 });
    let (_, rt_metrics) = evaluate_policy(&test, &mut rt, sim).unwrap();
    println!(
        "{:<20} {:>16.2} {:>24.3}",
        "RobustScaler-RT",
        1.0,
        rt_metrics.waiting_avg()
    );

    // RobustScaler-cost: idle budget of 2 s per instance on top of the fixed
    // 13 + 20 s.
    let mut cost = build(RobustScalerVariant::CostBudget { budget: 35.0 });
    let (_, cost_metrics) = evaluate_policy(&test, &mut cost, sim).unwrap();
    let achieved_idle = cost_metrics.cost_per_query() - 13.0 - 20.0;
    println!(
        "{:<20} {:>16.2} {:>24.3}",
        "RobustScaler-cost", 2.0, achieved_idle
    );

    // Per-decision Monte Carlo error against the exact engine, on the
    // forecast of a model trained like the policies above.
    let mut config =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    config.mean_processing = 20.0;
    config.planning_interval = 5.0;
    config.periodicity_aggregation = PERIODICITY_AGGREGATION;
    let pipeline = RobustScalerPipeline::new(config).expect("valid configuration");
    let forecaster = pipeline
        .train(&train)
        .and_then(|trained| trained.forecaster(pipeline.config()))
        .expect("training succeeds");
    println!(
        "\n{:<20} {:>10} {:>14} {:>14} {:>14}",
        "rule", "decisions", "R = 300", "R = 1000", "R = 10000"
    );
    for (name, variant) in [
        (
            "HP (α = 0.1)",
            RobustScalerVariant::HittingProbability { target: 0.9 },
        ),
        (
            "RT (1 s waiting)",
            RobustScalerVariant::ResponseTime { target: 21.0 },
        ),
        (
            "cost (2 s idle)",
            RobustScalerVariant::CostBudget { budget: 35.0 },
        ),
    ] {
        let rule = variant
            .to_rule(config.mean_processing, config.pending.mean())
            .expect("valid rule");
        let (gaps, compared) = decision_gaps(&forecaster, rule, test.start(), config.pending);
        println!(
            "{:<20} {:>10} {:>14.4} {:>14.4} {:>14.4}",
            name, compared, gaps[0], gaps[1], gaps[2]
        );
    }
    println!("(mean |Monte Carlo − exact| creation time per decision, seconds)");

    println!(
        "\nExpected shape (paper Table I): HP achieved ≥ target (0.99 vs 0.9),\n\
         RT-waiting achieved ≤ target (0.51 vs 1), idle cost achieved slightly\n\
         above target (2.5 vs 2). The Monte Carlo gap to the exact decisions\n\
         shrinks about √10 for every 10× more replications."
    );
}
