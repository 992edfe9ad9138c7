//! Figure 6: average response time vs relative cost under growing
//! perturbations of the CRS-like trace (c = 1, 2, 4, 6), comparing AdapBP
//! and RobustScaler-HP.
//!
//! The perturbation follows §VII-B1: every hour a five-minute window of
//! queries is deleted (starting at the top of the hour) and, starting at the
//! sixth minute, another five-minute window receives `c` extra copies of its
//! queries.

use robustscaler_bench::sweep::{print_table, run_policy_spec, ParetoPoint, PolicySpec};
use robustscaler_bench::workloads::{crs_workload, scale_from_env, Workload};
use robustscaler_traces::{amplify_windows, delete_windows};

/// Apply the paper's perturbation of size `c` to both halves of a workload.
pub fn perturb_workload(base: &Workload, c: usize) -> Workload {
    let perturb = |trace: &robustscaler_simulator::Trace| {
        let deleted = delete_windows(trace, 3_600.0, 0.0, 300.0);
        amplify_windows(&deleted, 3_600.0, 360.0, 300.0, c, 97)
    };
    Workload {
        name: base.name,
        train: perturb(&base.train),
        test: perturb(&base.test),
        mean_processing: base.mean_processing,
        sim: base.sim,
    }
}

fn main() {
    let scale = scale_from_env(0.25);
    println!("Figure 6 reproduction — rt_avg vs relative_cost under perturbations (scale {scale})");
    let base = crs_workload(scale);
    let specs = [
        PolicySpec::AdaptiveBackupPool(50.0),
        PolicySpec::AdaptiveBackupPool(200.0),
        PolicySpec::AdaptiveBackupPool(600.0),
        PolicySpec::RobustScalerHp(0.5),
        PolicySpec::RobustScalerHp(0.8),
        PolicySpec::RobustScalerHp(0.95),
    ];
    for &c in &[1usize, 2, 4, 6] {
        let workload = perturb_workload(&base, c);
        let points: Vec<ParetoPoint> = specs
            .iter()
            .map(|&spec| {
                eprintln!("  c={c}: running {} ...", spec.label());
                run_policy_spec(&workload, spec, 30.0).0
            })
            .collect();
        print_table(&format!("Fig. 6 — perturbation size c = {c}"), &points);
    }
    println!(
        "\nExpected shape (paper): as c grows, AdapBP's response time degrades\n\
         faster than RobustScaler-HP's, which closes the gap at low cost and\n\
         eventually dominates."
    );
}
