//! Pareto sweep helpers: run one policy configuration over a workload and
//! collect the paper's headline metrics.

use crate::workloads::Workload;
use robustscaler_core::{
    evaluate_policy, RobustScalerConfig, RobustScalerPipeline, RobustScalerVariant,
};
use robustscaler_simulator::{AdaptiveBackupPool, BackupPool, SimulationMetrics};
use serde::{Deserialize, Serialize};

/// One policy configuration of a Pareto sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Backup Pool with the given size.
    BackupPool(usize),
    /// Adaptive Backup Pool with the given QPS multiplier.
    AdaptiveBackupPool(f64),
    /// RobustScaler-HP with the given target hitting probability.
    RobustScalerHp(f64),
    /// RobustScaler-RT with the given target expected response time (s).
    RobustScalerRt(f64),
    /// RobustScaler-cost with the given per-instance budget (s).
    RobustScalerCost(f64),
}

impl PolicySpec {
    /// Label used in result tables, e.g. `BP(B=4)` or `RS-HP(0.9)`.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::BackupPool(b) => format!("BP(B={b})"),
            PolicySpec::AdaptiveBackupPool(r) => format!("AdapBP(r={r})"),
            PolicySpec::RobustScalerHp(p) => format!("RS-HP({p})"),
            PolicySpec::RobustScalerRt(d) => format!("RS-RT({d})"),
            PolicySpec::RobustScalerCost(b) => format!("RS-cost({b})"),
        }
    }

    /// Family name used to group points into Pareto lines.
    pub fn family(&self) -> &'static str {
        match self {
            PolicySpec::BackupPool(_) => "BP",
            PolicySpec::AdaptiveBackupPool(_) => "AdapBP",
            PolicySpec::RobustScalerHp(_) => "RobustScaler-HP",
            PolicySpec::RobustScalerRt(_) => "RobustScaler-RT",
            PolicySpec::RobustScalerCost(_) => "RobustScaler-cost",
        }
    }
}

/// One point of a Pareto plot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Policy family ("BP", "AdapBP", "RobustScaler-HP", ...).
    pub family: String,
    /// Full label including the swept parameter.
    pub label: String,
    /// Hit rate on the test trace.
    pub hit_rate: f64,
    /// Average response time on the test trace (s).
    pub rt_avg: f64,
    /// Total cost (s of instance lifetime).
    pub total_cost: f64,
    /// Cost relative to the purely reactive baseline.
    pub relative_cost: f64,
    /// Variance of hit rate over 50-query windows (QoS stability, Fig. 5a).
    pub hit_variance: f64,
    /// Variance of mean RT over 50-query windows (QoS stability, Fig. 5b).
    pub rt_variance: f64,
}

/// Build the RobustScaler pipeline configuration shared by all sweeps.
///
/// `planning_interval` is exposed because Fig. 10 d sweeps it explicitly.
pub fn robustscaler_config(
    variant: RobustScalerVariant,
    workload: &Workload,
    planning_interval: f64,
) -> RobustScalerConfig {
    let mut config = RobustScalerConfig::for_variant(variant);
    config.mean_processing = workload.mean_processing;
    config.planning_interval = planning_interval;
    config.admm.max_iterations = 100;
    config
}

/// Run a whole sweep of policy configurations over one workload, fanning the
/// independent evaluations out across the machine's cores.
///
/// Each spec trains and simulates with its own seeded RNGs (nothing is
/// shared), so the results are identical to running [`run_policy_spec`]
/// serially in order — parallelism only changes the wall-clock time.
pub fn run_policy_specs(
    workload: &Workload,
    specs: &[PolicySpec],
    planning_interval: f64,
) -> Vec<(ParetoPoint, SimulationMetrics)> {
    robustscaler_parallel::parallel_map(
        specs,
        robustscaler_parallel::available_threads(),
        |&spec| {
            eprintln!("  running {} on {} ...", spec.label(), workload.name);
            run_policy_spec(workload, spec, planning_interval)
        },
    )
}

/// Run one policy configuration over a workload and report its Pareto point
/// together with the full simulation metrics.
pub fn run_policy_spec(
    workload: &Workload,
    spec: PolicySpec,
    planning_interval: f64,
) -> (ParetoPoint, SimulationMetrics) {
    let (result, metrics) = match spec {
        PolicySpec::BackupPool(size) => {
            let mut policy = BackupPool::new(size);
            evaluate_policy(&workload.test, &mut policy, workload.sim).expect("simulation succeeds")
        }
        PolicySpec::AdaptiveBackupPool(ratio) => {
            let mut policy = AdaptiveBackupPool::new(ratio);
            evaluate_policy(&workload.test, &mut policy, workload.sim).expect("simulation succeeds")
        }
        PolicySpec::RobustScalerHp(target) => {
            let config = robustscaler_config(
                RobustScalerVariant::HittingProbability { target },
                workload,
                planning_interval,
            );
            let mut policy = RobustScalerPipeline::new(config)
                .expect("valid configuration")
                .build_policy(&workload.train)
                .expect("training succeeds");
            evaluate_policy(&workload.test, &mut policy, workload.sim).expect("simulation succeeds")
        }
        PolicySpec::RobustScalerRt(target) => {
            let config = robustscaler_config(
                RobustScalerVariant::ResponseTime { target },
                workload,
                planning_interval,
            );
            let mut policy = RobustScalerPipeline::new(config)
                .expect("valid configuration")
                .build_policy(&workload.train)
                .expect("training succeeds");
            evaluate_policy(&workload.test, &mut policy, workload.sim).expect("simulation succeeds")
        }
        PolicySpec::RobustScalerCost(budget) => {
            let config = robustscaler_config(
                RobustScalerVariant::CostBudget { budget },
                workload,
                planning_interval,
            );
            let mut policy = RobustScalerPipeline::new(config)
                .expect("valid configuration")
                .build_policy(&workload.train)
                .expect("training succeeds");
            evaluate_policy(&workload.test, &mut policy, workload.sim).expect("simulation succeeds")
        }
    };

    let point = ParetoPoint {
        family: spec.family().to_string(),
        label: spec.label(),
        hit_rate: result.hit_rate,
        rt_avg: result.rt_avg,
        total_cost: result.total_cost,
        relative_cost: result.relative_cost,
        hit_variance: metrics.windowed_hit_variance(50).unwrap_or(0.0),
        rt_variance: metrics.windowed_rt_variance(50).unwrap_or(0.0),
    };
    (point, metrics)
}

/// Print a set of Pareto points as an aligned plain-text table.
pub fn print_table(title: &str, points: &[ParetoPoint]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>9} {:>9} {:>13} {:>12} {:>12}",
        "policy", "hit_rate", "rt_avg", "relative_cost", "hit_var", "rt_var"
    );
    for p in points {
        println!(
            "{:<22} {:>9.3} {:>9.1} {:>13.3} {:>12.5} {:>12.2}",
            p.label, p.hit_rate, p.rt_avg, p.relative_cost, p.hit_variance, p.rt_variance
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::google_workload;

    #[test]
    fn labels_and_families() {
        assert_eq!(PolicySpec::BackupPool(3).label(), "BP(B=3)");
        assert_eq!(PolicySpec::BackupPool(3).family(), "BP");
        assert_eq!(PolicySpec::AdaptiveBackupPool(30.0).family(), "AdapBP");
        assert_eq!(PolicySpec::RobustScalerHp(0.9).label(), "RS-HP(0.9)");
        assert_eq!(PolicySpec::RobustScalerRt(25.0).family(), "RobustScaler-RT");
        assert_eq!(
            PolicySpec::RobustScalerCost(40.0).family(),
            "RobustScaler-cost"
        );
    }

    #[test]
    fn baseline_sweep_produces_monotone_cost() {
        let workload = google_workload(0.15);
        let (small, _) = run_policy_spec(&workload, PolicySpec::BackupPool(0), 30.0);
        let (large, _) = run_policy_spec(&workload, PolicySpec::BackupPool(3), 30.0);
        assert!(large.total_cost > small.total_cost);
        assert!(large.hit_rate >= small.hit_rate);
        assert!((small.relative_cost - 1.0).abs() < 1e-9);
    }
}
