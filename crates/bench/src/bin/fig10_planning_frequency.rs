//! Figure 10(d): effect of the planning interval Δ.
//!
//! RobustScaler-HP is run with Δ from a few seconds up to several minutes at
//! a fixed target; the paper's finding is that less frequent planning needs
//! more cost to reach the same response time, because decisions are made
//! earlier with less information.

use robustscaler_bench::sweep::{run_policy_spec, PolicySpec};
use robustscaler_bench::workloads::{crs_workload, scale_from_env};

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 10(d) reproduction — planning frequency sweep (scale {scale})");
    let workload = crs_workload(scale);

    println!(
        "\n{:>12} {:>10} {:>10} {:>14}",
        "Δ (s)", "hit_rate", "rt_avg", "relative_cost"
    );
    for &delta in &[5.0, 15.0, 30.0, 60.0, 120.0, 300.0] {
        eprintln!("  running Δ = {delta} ...");
        let (point, _) = run_policy_spec(&workload, PolicySpec::RobustScalerHp(0.9), delta);
        println!(
            "{:>12.0} {:>10.3} {:>10.1} {:>14.3}",
            delta, point.hit_rate, point.rt_avg, point.relative_cost
        );
    }
    println!(
        "\nExpected shape (paper): as Δ grows the relative cost needed to hold the\n\
         same QoS level creeps upward (and/or the delivered QoS degrades),\n\
         because creations must be committed earlier under more uncertainty."
    );
}
