//! Figure 9: QoS/cost before and after (a) injecting missing data into the
//! CRS-like training trace and (b) erasing the burst anomaly from the
//! Alibaba-like training trace, for RobustScaler-HP and RobustScaler-cost.
//!
//! If the metric pairs are nearly identical, the autoscaler is robust to the
//! modification — the paper's Fig. 9 conclusion.

use robustscaler_bench::sweep::{print_table, run_policy_spec, ParetoPoint, PolicySpec};
use robustscaler_bench::workloads::{alibaba_workload, crs_workload, scale_from_env, Workload};
use robustscaler_traces::{erase_burst, remove_day};

const DAY: f64 = 86_400.0;
const HOUR: f64 = 3_600.0;

fn run_specs(workload: &Workload, specs: &[PolicySpec], suffix: &str) -> Vec<ParetoPoint> {
    specs
        .iter()
        .map(|&spec| {
            eprintln!("  running {} ({suffix}) ...", spec.label());
            let (mut point, _) = run_policy_spec(workload, spec, 30.0);
            point.label = format!("{} {suffix}", point.label);
            point
        })
        .collect()
}

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 9 reproduction — robustness to missing data and anomalies (scale {scale})");

    let specs = [
        PolicySpec::RobustScalerHp(0.8),
        PolicySpec::RobustScalerHp(0.95),
        PolicySpec::RobustScalerCost(200.0),
        PolicySpec::RobustScalerCost(230.0),
    ];

    // (a)(b) CRS-like with one full training day removed.
    let crs = crs_workload(scale);
    let crs_missing = Workload {
        train: remove_day(&crs.train, 6),
        ..crs.clone()
    };
    let mut points = run_specs(&crs, &specs, "w/o missing");
    points.extend(run_specs(&crs_missing, &specs, "w/ missing"));
    print_table(
        "Fig. 9(a)/(b) — CRS-like, before vs after missing-data injection",
        &points,
    );

    // (c)(d) Alibaba-like with the day-4 burst erased from training data.
    let alibaba = alibaba_workload(scale);
    let burst_start = 3.0 * DAY + 15.0 * HOUR;
    let alibaba_clean = Workload {
        train: erase_burst(&alibaba.train, burst_start, burst_start + 2_400.0, 0.15, 5),
        ..alibaba.clone()
    };
    let specs_ali = [
        PolicySpec::RobustScalerHp(0.8),
        PolicySpec::RobustScalerHp(0.95),
        PolicySpec::RobustScalerCost(46.0),
        PolicySpec::RobustScalerCost(55.0),
    ];
    let mut points = run_specs(&alibaba, &specs_ali, "w/ anomaly");
    points.extend(run_specs(&alibaba_clean, &specs_ali, "w/o anomaly"));
    print_table(
        "Fig. 9(c)/(d) — Alibaba-like, before vs after anomaly removal",
        &points,
    );

    println!(
        "\nExpected shape (paper): each \"w/\" row is nearly identical to its\n\
         \"w/o\" counterpart — the NHPP's robust regularization absorbs missing\n\
         data and isolated bursts in the training window."
    );
}
