//! Figure 8: runtime of computing the scaling decisions (eqs. 3, 5, 7)
//! versus the instantaneous QPS, on the simulated high-QPS workload.
//!
//! The paper updates decisions every 5 seconds with R = 1000 Monte Carlo
//! samples and reports per-update runtimes of a few seconds even at QPS in
//! the thousands, growing linearly with QPS. This binary sweeps the QPS
//! level and, for each of the three decision rules, times one planning
//! round of the exact planner beside the paper's Monte Carlo computation of
//! the same decisions (one arrival sampler with R = 1000 paths, then
//! `decide_batch` over the round's arrival indices), and prints the
//! (QPS, runtime) series.

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler_bench::montecarlo::{decide_batch, ArrivalSampler, DecisionConfig};
use robustscaler_bench::workloads::scale_from_env;
use robustscaler_nhpp::PiecewiseConstantIntensity;
use robustscaler_scaling::{
    DecisionRule, PendingTimeModel, PlannerConfig, PlannerState, SequentialPlanner,
};
use std::time::Instant;

const PENDING: PendingTimeModel = PendingTimeModel::Deterministic(13.0);

/// Seconds for one exact planning round at `qps`, and its decision count.
fn time_exact(rule: DecisionRule, intensity: &PiecewiseConstantIntensity) -> (f64, usize) {
    let mut planner = SequentialPlanner::new(PlannerConfig {
        rule,
        pending: PENDING,
        planning_interval: 5.0,
        max_decisions_per_round: 200_000,
    })
    .expect("valid planner config");
    let started = Instant::now();
    let round = planner.plan_window(intensity, 0.0, PlannerState { covered: 0 });
    (started.elapsed().as_secs_f64(), round.decisions.len())
}

/// Seconds for the Monte Carlo decisions of arrivals `1..=count` at
/// `replications` paths: sampling plus `decide_batch`.
fn time_monte_carlo(
    rule: DecisionRule,
    intensity: &PiecewiseConstantIntensity,
    count: usize,
    replications: usize,
    seed: u64,
) -> f64 {
    let config = DecisionConfig {
        rule,
        pending: PENDING,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let started = Instant::now();
    let sampler =
        ArrivalSampler::new(intensity, 0.0, count, replications, &mut rng).expect("valid sampler");
    decide_batch(&sampler, 1, count, &config).expect("decisions succeed");
    started.elapsed().as_secs_f64()
}

fn main() {
    let scale = scale_from_env(1.0);
    // The paper sweeps QPS up to 10^4; at scale 1.0 we go up to 2000 QPS so
    // the experiment finishes in seconds (the trend is already linear).
    let max_qps = 2_000.0 * scale;
    let replications = 1_000;
    println!(
        "Figure 8 reproduction — decision runtime vs QPS (Δ = 5 s, peak {max_qps} QPS): \
         exact planner vs Monte Carlo at R = {replications}"
    );
    println!(
        "\n{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "QPS", "decisions", "HP exact", "HP MC", "RT exact", "RT MC", "cost exact", "cost MC"
    );
    let rules = [
        DecisionRule::HittingProbability { alpha: 0.1 },
        DecisionRule::ResponseTime {
            target_waiting: 1.0,
        },
        DecisionRule::CostBudget { target_idle: 2.0 },
    ];
    let mut qps = 1.0;
    while qps <= max_qps {
        let intensity =
            PiecewiseConstantIntensity::new(0.0, 1_000_000.0, vec![qps]).expect("valid intensity");
        let mut cells = Vec::new();
        let mut hp_decisions = 0;
        for (k, rule) in rules.iter().enumerate() {
            let (exact, count) = time_exact(*rule, &intensity);
            if k == 0 {
                hp_decisions = count;
            }
            let mc = time_monte_carlo(
                *rule,
                &intensity,
                count.max(1),
                replications,
                qps as u64 + 1,
            );
            cells.push(format!("{exact:>12.5} {mc:>12.5}"));
        }
        println!("{:>10.1} {:>10} {}", qps, hp_decisions, cells.join(" "));
        qps *= if qps < 10.0 { 10.0 } else { 2.0 };
    }
    println!(
        "\nRuntimes in seconds per planning round. Expected shape (paper): runtime\n\
         grows roughly linearly with QPS (the number of per-window decisions is\n\
         proportional to QPS and each Monte Carlo decision costs O(R log R)),\n\
         staying in seconds even at thousands of QPS. The exact planner needs no\n\
         samples: each decision costs a few incomplete-gamma evaluations."
    );
}
