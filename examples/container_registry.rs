//! Container-registry scenario (the paper's CRS motivation): very low,
//! noisy traffic with long image-build processing times, where keeping a
//! warm pool is wasteful but cold starts hurt the build latency.
//!
//! The example sweeps the Backup Pool size and the Adaptive Backup Pool
//! ratio, and contrasts them with RobustScaler-HP at two target levels,
//! printing a miniature version of the paper's Fig. 4(a) Pareto table.
//!
//! Run with: `cargo run --release --example container_registry`

use robustscaler::core::{
    evaluate_policy, EvaluationResult, RobustScalerConfig, RobustScalerPipeline,
    RobustScalerVariant,
};
use robustscaler::simulator::{
    AdaptiveBackupPool, BackupPool, PendingTimeDistribution, SimulationConfig,
};
use robustscaler::traces::{crs_like, ProcessingTimeModel, TraceConfig};

fn main() {
    // One week of CRS-like traffic at 3x scale keeps enough queries for a
    // stable comparison while running in seconds.
    let trace = crs_like(&TraceConfig {
        duration: 7.0 * 86_400.0,
        traffic_scale: 3.0,
        processing: ProcessingTimeModel::LogNormal {
            mean: 180.0,
            std_dev: 240.0,
        },
        seed: 11,
    });
    println!(
        "CRS-like workload: {} queries over {:.1} days",
        trace.len(),
        trace.duration() / 86_400.0
    );
    // Train on the first five days, evaluate on the last two.
    let (train, test) = trace.split_at(trace.start() + 5.0 * 86_400.0).unwrap();

    let sim = SimulationConfig {
        pending: PendingTimeDistribution::Deterministic(13.0),
        seed: 3,
        recent_history_window: 600.0,
    };

    let mut rows: Vec<EvaluationResult> = Vec::new();

    for &size in &[0usize, 1, 2, 4] {
        let mut policy = BackupPool::new(size);
        let (mut result, _) = evaluate_policy(&test, &mut policy, sim).unwrap();
        result.policy = format!("backup-pool(B={size})");
        rows.push(result);
    }
    for &ratio in &[50.0, 200.0] {
        let mut policy = AdaptiveBackupPool::new(ratio);
        let (mut result, _) = evaluate_policy(&test, &mut policy, sim).unwrap();
        result.policy = format!("adaptive-bp(r={ratio})");
        rows.push(result);
    }
    for &target in &[0.8, 0.95] {
        let mut config =
            RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target });
        config.mean_processing = 180.0;
        config.planning_interval = 60.0;
        let pipeline = RobustScalerPipeline::new(config).expect("valid configuration");
        let mut policy = pipeline.build_policy(&train).expect("training succeeds");
        let (mut result, _) = evaluate_policy(&test, &mut policy, sim).unwrap();
        result.policy = format!("robustscaler-hp({target})");
        rows.push(result);
    }

    println!(
        "\n{:<24} {:>9} {:>9} {:>14}",
        "policy", "hit_rate", "rt_avg", "relative_cost"
    );
    for r in &rows {
        println!(
            "{:<24} {:>9.3} {:>9.1} {:>14.3}",
            r.policy, r.hit_rate, r.rt_avg, r.relative_cost
        );
    }
    println!(
        "\nReading the table as a Pareto plot: for a given relative cost, higher\n\
         hit_rate / lower rt_avg is better — RobustScaler-HP should sit above the\n\
         Backup Pool line, mirroring Fig. 4(a) of the paper."
    );
}
