//! Figure 4 (a–f): Pareto plots of hit rate / average response time versus
//! relative cost for BP, AdapBP and the three RobustScaler variants on the
//! three workloads.
//!
//! Each printed table corresponds to one pair of sub-figures (one workload);
//! a row is one point of the corresponding Pareto line.

use robustscaler_bench::sweep::{print_table, run_policy_specs, ParetoPoint, PolicySpec};
use robustscaler_bench::workloads::{
    alibaba_workload, crs_workload, google_workload, scale_from_env, Workload,
};

fn sweep(workload: &Workload, specs: &[PolicySpec]) -> Vec<ParetoPoint> {
    // The policy evaluations are independent; fan them out across cores.
    run_policy_specs(workload, specs, 30.0)
        .into_iter()
        .map(|(point, _)| point)
        .collect()
}

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 4 reproduction — Pareto sweeps (scale {scale})");

    // CRS-like: low traffic, pool sizes 0..4, RobustScaler targets spread
    // over the achievable range (the paper sweeps B ∈ [0, 8]).
    let crs = crs_workload(scale);
    let crs_points = sweep(
        &crs,
        &[
            PolicySpec::BackupPool(0),
            PolicySpec::BackupPool(1),
            PolicySpec::BackupPool(2),
            PolicySpec::BackupPool(4),
            PolicySpec::AdaptiveBackupPool(50.0),
            PolicySpec::AdaptiveBackupPool(200.0),
            PolicySpec::AdaptiveBackupPool(600.0),
            PolicySpec::RobustScalerHp(0.5),
            PolicySpec::RobustScalerHp(0.8),
            PolicySpec::RobustScalerHp(0.95),
            PolicySpec::RobustScalerRt(190.0),
            PolicySpec::RobustScalerRt(184.0),
            PolicySpec::RobustScalerCost(200.0),
            PolicySpec::RobustScalerCost(230.0),
        ],
    );
    print_table(
        "Fig. 4(a)/(b) — CRS-like: hit_rate & rt_avg vs relative_cost",
        &crs_points,
    );

    // Alibaba-like: higher traffic, larger pools.
    let alibaba = alibaba_workload(scale);
    let alibaba_points = sweep(
        &alibaba,
        &[
            PolicySpec::BackupPool(0),
            PolicySpec::BackupPool(2),
            PolicySpec::BackupPool(6),
            PolicySpec::BackupPool(12),
            PolicySpec::AdaptiveBackupPool(10.0),
            PolicySpec::AdaptiveBackupPool(30.0),
            PolicySpec::AdaptiveBackupPool(80.0),
            PolicySpec::RobustScalerHp(0.5),
            PolicySpec::RobustScalerHp(0.8),
            PolicySpec::RobustScalerHp(0.95),
            PolicySpec::RobustScalerRt(40.0),
            PolicySpec::RobustScalerRt(33.0),
            PolicySpec::RobustScalerCost(46.0),
            PolicySpec::RobustScalerCost(55.0),
        ],
    );
    print_table(
        "Fig. 4(c)/(d) — Alibaba-like: hit_rate & rt_avg vs relative_cost",
        &alibaba_points,
    );

    // Google-like.
    let google = google_workload(scale);
    let google_points = sweep(
        &google,
        &[
            PolicySpec::BackupPool(0),
            PolicySpec::BackupPool(1),
            PolicySpec::BackupPool(3),
            PolicySpec::BackupPool(6),
            PolicySpec::AdaptiveBackupPool(10.0),
            PolicySpec::AdaptiveBackupPool(40.0),
            PolicySpec::AdaptiveBackupPool(120.0),
            PolicySpec::RobustScalerHp(0.5),
            PolicySpec::RobustScalerHp(0.8),
            PolicySpec::RobustScalerHp(0.95),
            PolicySpec::RobustScalerRt(70.0),
            PolicySpec::RobustScalerRt(63.0),
            PolicySpec::RobustScalerCost(76.0),
            PolicySpec::RobustScalerCost(90.0),
        ],
    );
    print_table(
        "Fig. 4(e)/(f) — Google-like: hit_rate & rt_avg vs relative_cost",
        &google_points,
    );

    println!(
        "\nReading guide: within one table, compare rows at similar relative_cost.\n\
         The paper's qualitative claim is that the RobustScaler families sit\n\
         top-left of BP (higher hit_rate / lower rt_avg at equal cost), with\n\
         AdapBP competitive on CRS at low cost but less stable (see fig5)."
    );
}
