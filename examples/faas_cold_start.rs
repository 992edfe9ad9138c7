//! FaaS-style scenario: a bursty, high-QPS workload where the per-hour peak
//! is hundreds of times the trough (the paper's scalability workload,
//! §VII-B2). The example runs RobustScaler-RT against the Adaptive Backup
//! Pool and reports response-time statistics and decision-computation time,
//! demonstrating that the optimizer stays fast even at high QPS.
//!
//! Run with: `cargo run --release --example faas_cold_start`

use robustscaler::core::{
    evaluate_policy, RobustScalerConfig, RobustScalerPipeline, RobustScalerVariant,
};
use robustscaler::simulator::{AdaptiveBackupPool, PendingTimeDistribution, SimulationConfig};
use robustscaler::traces::{simulated_high_qps, ProcessingTimeModel};
use std::time::Instant;

fn main() {
    // Peak of 30 QPS (scaled down from the paper's 10^4 so the example runs
    // in seconds), pod pending time 13 s, Exp(20 s) processing.
    let trace = simulated_high_qps(
        30.0,
        5.0 * 3_600.0,
        ProcessingTimeModel::Exponential { mean: 20.0 },
        77,
    );
    println!(
        "FaaS-like workload: {} invocations over {:.1} h, mean {:.2} QPS",
        trace.len(),
        trace.duration() / 3_600.0,
        trace.mean_qps()
    );
    let (train, test) = trace.split_at(trace.start() + 4.0 * 3_600.0).unwrap();

    let sim = SimulationConfig {
        pending: PendingTimeDistribution::Deterministic(13.0),
        seed: 9,
        recent_history_window: 600.0,
    };

    // RobustScaler-RT targeting an expected response time of 21 s
    // (processing mean 20 s + 1 s waiting budget).
    let mut config =
        RobustScalerConfig::for_variant(RobustScalerVariant::ResponseTime { target: 21.0 });
    config.mean_processing = 20.0;
    config.planning_interval = 10.0;
    let pipeline = RobustScalerPipeline::new(config).expect("valid configuration");

    let train_started = Instant::now();
    let mut policy = pipeline.build_policy(&train).expect("training succeeds");
    let training_seconds = train_started.elapsed().as_secs_f64();

    let (rs, rs_metrics) = evaluate_policy(&test, &mut policy, sim).unwrap();
    let planning_rounds = policy.planning_rounds();
    let compute_seconds = policy.compute_seconds();

    let mut adap = AdaptiveBackupPool::new(20.0);
    let (adap_result, adap_metrics) = evaluate_policy(&test, &mut adap, sim).unwrap();

    println!("\nNHPP training time: {training_seconds:.2} s");
    println!(
        "decision computation: {planning_rounds} planning rounds, {:.3} ms per round",
        1_000.0 * compute_seconds / planning_rounds.max(1) as f64
    );

    println!(
        "\n{:<22} {:>9} {:>9} {:>10} {:>14}",
        "policy", "hit_rate", "rt_avg", "rt_p99", "relative_cost"
    );
    for (result, metrics) in [(&rs, &rs_metrics), (&adap_result, &adap_metrics)] {
        let p99 = metrics.rt_quantiles(&[0.99]).unwrap()[0];
        println!(
            "{:<22} {:>9.3} {:>9.1} {:>10.1} {:>14.3}",
            result.policy, result.hit_rate, result.rt_avg, p99, result.relative_cost
        );
    }
    println!(
        "\nRobustScaler-RT keeps the mean response time near the 20 s processing\n\
         floor by pre-warming instances just ahead of the hourly surge, while the\n\
         adaptive pool reacts only after the surge has begun."
    );
}
