//! Table II: response-time quantiles (75 / 95 / 99 / 99.9%) on the CRS-like
//! workload with and without missing-data injection into the training trace.
//!
//! The paper's point: the quantiles barely move, i.e. the pipeline is robust
//! to a whole missing day of training data.

use robustscaler_bench::sweep::{run_policy_spec, PolicySpec};
use robustscaler_bench::workloads::{crs_workload, scale_from_env, Workload};
use robustscaler_traces::remove_day;

const LEVELS: [f64; 4] = [0.75, 0.95, 0.99, 0.999];

fn quantile_row(workload: &Workload, spec: PolicySpec) -> Vec<f64> {
    let (_, metrics) = run_policy_spec(workload, spec, 30.0);
    metrics.rt_quantiles(&LEVELS).expect("non-empty metrics")
}

fn main() {
    let scale = scale_from_env(0.25);
    println!("Table II reproduction — RT quantiles with/without missing data (scale {scale})");
    let base = crs_workload(scale);
    let missing = Workload {
        train: remove_day(&base.train, 6),
        ..base.clone()
    };

    println!(
        "\n{:<12} {:<28} {:>9} {:>9} {:>9} {:>9}",
        "quantile", "configuration", "75%", "95%", "99%", "99.9%"
    );
    for (name, spec) in [
        ("RS-HP(0.9)", PolicySpec::RobustScalerHp(0.9)),
        ("RS-cost(215)", PolicySpec::RobustScalerCost(215.0)),
    ] {
        eprintln!("  running {name} without missing data ...");
        let without = quantile_row(&base, spec);
        eprintln!("  running {name} with missing data ...");
        let with = quantile_row(&missing, spec);
        println!(
            "{:<12} {:<28} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            name, "w/o missing", without[0], without[1], without[2], without[3]
        );
        println!(
            "{:<12} {:<28} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            name, "w/ missing", with[0], with[1], with[2], with[3]
        );
    }
    println!(
        "\nExpected shape (paper Table II): each pair of rows is nearly identical\n\
         at every quantile level."
    );
}
