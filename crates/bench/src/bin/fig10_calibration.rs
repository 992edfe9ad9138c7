//! Figure 10(a)–(c): nominal versus actual QoS/cost levels on the CRS-like
//! workload.
//!
//! RobustScaler-HP is swept over nominal hitting probabilities, -RT over
//! nominal response times and -cost over nominal per-instance budgets; each
//! row shows the nominal value next to the value actually achieved on the
//! test trace. Points close to the diagonal (`actual ≈ nominal`) reproduce
//! the paper's calibration claim.

use robustscaler_bench::sweep::{run_policy_spec, PolicySpec};
use robustscaler_bench::workloads::{crs_workload, scale_from_env};

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 10(a)-(c) reproduction — nominal vs actual QoS/cost (scale {scale})");
    let workload = crs_workload(scale);

    println!("\n(a) hitting probability: nominal vs actual");
    println!("{:>12} {:>12}", "nominal", "actual");
    for &target in &[0.5, 0.7, 0.8, 0.9, 0.95] {
        let (point, _) = run_policy_spec(&workload, PolicySpec::RobustScalerHp(target), 30.0);
        println!("{:>12.2} {:>12.3}", target, point.hit_rate);
    }

    println!("\n(b) expected response time (s): nominal vs actual");
    println!("{:>12} {:>12}", "nominal", "actual");
    for &target in &[183.0, 186.0, 190.0, 195.0] {
        let (point, _) = run_policy_spec(&workload, PolicySpec::RobustScalerRt(target), 30.0);
        println!("{:>12.1} {:>12.1}", target, point.rt_avg);
    }

    println!("\n(c) per-instance cost (s): nominal vs actual");
    println!("{:>12} {:>12}", "nominal", "actual");
    for &budget in &[195.0, 200.0, 215.0, 230.0] {
        let (point, metrics) =
            run_policy_spec(&workload, PolicySpec::RobustScalerCost(budget), 30.0);
        let actual = metrics.cost_per_query();
        println!(
            "{:>12.1} {:>12.1}   (relative_cost {:.3})",
            budget, actual, point.relative_cost
        );
    }

    println!(
        "\nExpected shape (paper): all three series hug the diagonal y = x —\n\
         the constraint level fed to the optimizer is what the replay achieves.\n\
         Note the RT/cost nominal levels sit close to the processing-time floor\n\
         (~180 s) because waiting and idling are small fractions of a build."
    );
}
