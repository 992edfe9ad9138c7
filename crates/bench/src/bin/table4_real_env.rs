//! Table IV: RobustScaler-HP in a simulated versus "real" environment.
//!
//! The paper deploys on an Alibaba Serverless Kubernetes cluster, which a
//! reproduction cannot (see the substitution note of the README's paper →
//! code index). The "real" environment here is the same event simulator
//! but with the measured wall-clock latency of every planning round
//! charged against the schedule (decisions only take effect after they
//! have been computed). If the two rows are close, the decision
//! computation is fast enough not to disturb the scaling process — the
//! paper's conclusion.

use robustscaler_bench::workloads::{crs_workload, scale_from_env};
use robustscaler_core::{
    evaluate_policy, RobustScalerConfig, RobustScalerPipeline, RobustScalerVariant,
};

fn main() {
    let scale = scale_from_env(0.25);
    println!("Table IV reproduction — simulated vs real environment (scale {scale})");
    let workload = crs_workload(scale);

    let run = |charge_latency: bool| {
        let mut config = RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
            target: 0.9,
        });
        config.mean_processing = workload.mean_processing;
        config.planning_interval = 30.0;
        config.charge_compute_latency = charge_latency;
        let mut policy = RobustScalerPipeline::new(config)
            .expect("valid configuration")
            .build_policy(&workload.train)
            .expect("training succeeds");
        let (result, metrics) = evaluate_policy(&workload.test, &mut policy, workload.sim).unwrap();
        let per_round_ms =
            1_000.0 * policy.compute_seconds() / policy.planning_rounds().max(1) as f64;
        (result, metrics.cost_per_query(), per_round_ms)
    };

    let (simulated, simulated_cost, _) = run(false);
    let (real, real_cost, per_round_ms) = run(true);

    println!(
        "\n{:<12} {:>8} {:>10} {:>16}",
        "environment", "HP", "RT (s)", "cost/query (s)"
    );
    println!(
        "{:<12} {:>8.2} {:>10.1} {:>16.1}",
        "simulated", simulated.hit_rate, simulated.rt_avg, simulated_cost
    );
    println!(
        "{:<12} {:>8.2} {:>10.1} {:>16.1}",
        "real", real.hit_rate, real.rt_avg, real_cost
    );
    println!(
        "\nmean decision-computation latency charged: {per_round_ms:.2} ms per planning round"
    );
    println!(
        "\nExpected shape (paper Table IV): the two rows are close (HP 0.80 vs\n\
         0.83, RT 181 vs 189 s, cost 240 vs 229 s in the paper) because the\n\
         optimizer runs in milliseconds."
    );
}
