//! Figure 5: QoS stability — variance of windowed hit rate / response time
//! averages versus their means, on the CRS-like workload.
//!
//! Each policy is run at several trade-off settings; for every run the
//! response times (hit indicators) of every 50 consecutive queries are
//! averaged and the variance of those window means is reported against the
//! overall mean, exactly as described for Fig. 5.

use robustscaler_bench::sweep::{run_policy_specs, PolicySpec};
use robustscaler_bench::workloads::{crs_workload, scale_from_env};

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 5 reproduction — QoS variance on the CRS-like workload (scale {scale})");
    let workload = crs_workload(scale);

    let specs = [
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
    ];

    println!(
        "\n{:<22} {:>12} {:>14} {:>12} {:>14}",
        "policy", "mean_hit", "var(hit|50)", "mean_rt", "var(rt|50)"
    );
    // The policy evaluations are independent; fan them out across cores.
    for (point, _) in run_policy_specs(&workload, &specs, 30.0) {
        println!(
            "{:<22} {:>12.3} {:>14.5} {:>12.1} {:>14.2}",
            point.label, point.hit_rate, point.hit_variance, point.rt_avg, point.rt_variance
        );
    }
    println!(
        "\nThe paper's Fig. 5 finding: at comparable mean QoS, RobustScaler-HP and\n\
         -RT show much smaller window-to-window variance than AdapBP, with\n\
         RobustScaler-cost in between."
    );
}
