//! Golden regression suite: fixed-seed end-to-end runs (pipeline → plan →
//! simulator) with the headline metrics pinned to frozen expectations.
//!
//! The PR 1 periodicity bug class — a refactor that subtly dephases the
//! forecast — does not fail unit tests; it shows up as a hit rate
//! collapsing from ≥ 0.9 to ~0.6 on a periodic trace. This suite freezes
//! the qualitative floors (hit rate) *and* quantitative bands (cost,
//! `rt_avg`, relative cost) for the HP and cost-constrained rules, plus
//! the closed-loop online harness, so any future hot-path rework that
//! shifts the numbers must consciously re-pin them.
//!
//! Everything here is deterministic: synthetic traces and the simulator
//! run from fixed seeds, and planning is exact (no sampling, no RNG), so a
//! repeat run must reproduce the metrics bit for bit.

use robustscaler::core::{
    evaluate_policy, EvaluationResult, RobustScalerConfig, RobustScalerPipeline,
    RobustScalerVariant,
};
use robustscaler::online::{run_closed_loop, HarnessConfig, OnlineConfig};
use robustscaler::simulator::{PendingTimeDistribution, SimulationConfig, Trace};
use robustscaler::traces::{google_like, ProcessingTimeModel, TraceConfig};

const HOUR: f64 = 3_600.0;

/// The bundled golden workload: 4 days of the Google-like diurnal trace
/// for training plus a 12-hour test window, fixed seed.
fn golden_trace() -> Trace {
    google_like(&TraceConfig {
        duration: 108.0 * HOUR,
        traffic_scale: 0.5,
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed: 424_242,
    })
}

fn golden_config(variant: RobustScalerVariant) -> RobustScalerConfig {
    let mut config = RobustScalerConfig::for_variant(variant);
    config.mean_processing = 20.0;
    config.planning_interval = 10.0;
    config.admm.max_iterations = 80;
    config
}

fn golden_sim() -> SimulationConfig {
    SimulationConfig {
        pending: PendingTimeDistribution::Deterministic(13.0),
        seed: 9,
        recent_history_window: 600.0,
    }
}

fn run_offline(variant: RobustScalerVariant) -> EvaluationResult {
    let trace = golden_trace();
    let (train, test) = trace.split_at(trace.start() + 96.0 * HOUR).unwrap();
    let mut policy = RobustScalerPipeline::new(golden_config(variant))
        .unwrap()
        .build_policy(&train)
        .unwrap();
    let (result, _) = evaluate_policy(&test, &mut policy, golden_sim()).unwrap();
    result
}

/// Assert `value` lies within ±`tolerance` (relative) of `golden`.
fn assert_within(metric: &str, value: f64, golden: f64, tolerance: f64) {
    let deviation = (value - golden).abs() / golden.abs().max(1e-12);
    assert!(
        deviation <= tolerance,
        "{metric} = {value} drifted {:.1}% from the golden {golden} (tolerance {:.0}%) — \
         if the change is intentional, re-pin the golden value",
        100.0 * deviation,
        100.0 * tolerance,
    );
}

#[test]
fn golden_hp_rule_offline() {
    let result = run_offline(RobustScalerVariant::HittingProbability { target: 0.98 });
    eprintln!(
        "GOLDEN hp: hit={} rt={} cost={} rel={}",
        result.hit_rate, result.rt_avg, result.total_cost, result.relative_cost
    );
    // Hard floor from the paper's target: the forecast must keep ≥ 90% of
    // queries hitting a warm instance.
    assert!(
        result.hit_rate >= 0.9,
        "HP hit rate {} fell below the 0.9 floor (forecast dephased?)",
        result.hit_rate
    );
    assert!(result.hit_rate < 1.0, "hit rate 1.0 → over-provisioning");
    // Golden values measured at pin time (hit 0.9391, rt 19.84 s,
    // cost 319 414 s, relative 1.91); bands absorb benign numeric drift.
    assert_within("hp rt_avg", result.rt_avg, 19.8, 0.10);
    assert_within("hp total_cost", result.total_cost, 320_000.0, 0.15);
    assert_within("hp relative_cost", result.relative_cost, 1.9, 0.15);
}

#[test]
fn golden_cost_rule_offline() {
    // Budget 40 s/instance = pending 13 + processing 20 + 7 s idle budget.
    let result = run_offline(RobustScalerVariant::CostBudget { budget: 40.0 });
    eprintln!(
        "GOLDEN cost: hit={} rt={} cost={} cost/q={} rel={}",
        result.hit_rate,
        result.rt_avg,
        result.total_cost,
        result.total_cost / result.queries as f64,
        result.relative_cost
    );
    // The cost variant honors its per-instance budget on average...
    let cost_per_query = result.total_cost / result.queries as f64;
    assert!(
        cost_per_query <= 42.0,
        "cost/query {cost_per_query} blew the 40 s budget"
    );
    // ...while still hitting usefully more often than reactive (0%).
    assert!(result.hit_rate > 0.3, "cost hit rate {}", result.hit_rate);
    // Golden values at pin time: hit 0.4148, rt 24.38 s, cost 192 903 s
    // (37.5 s/query), relative 1.15.
    assert_within("cost rt_avg", result.rt_avg, 24.4, 0.10);
    assert_within("cost total_cost", result.total_cost, 193_000.0, 0.15);
    assert_within("cost relative_cost", result.relative_cost, 1.15, 0.15);
}

#[test]
fn golden_online_harness_closed_loop() {
    // The serving-layer acceptance bar: a closed-loop replay (ingest →
    // drift/refit → plan → simulate) on the bundled trace holds the HP
    // floor with a fixed seed.
    let trace = google_like(&TraceConfig {
        duration: 36.0 * HOUR,
        traffic_scale: 0.5,
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed: 31_337,
    });
    let mut online = OnlineConfig::new(golden_config(RobustScalerVariant::HittingProbability {
        target: 0.98,
    }));
    online.window_buckets = 2_880;
    online.min_training_buckets = 600;
    online.refit_interval = 4.0 * HOUR;
    let config = HarnessConfig {
        online,
        sim: golden_sim(),
        warmup: 24.0 * HOUR,
        faults: None,
        plan_reuse: None,
    };
    let (report, _) = run_closed_loop(&trace, &config).unwrap();
    eprintln!(
        "GOLDEN online: hit={} rt={} cost={} rel={} refits={} rounds={}",
        report.hit_rate,
        report.rt_avg,
        report.total_cost,
        report.relative_cost,
        report.stats.refits,
        report.stats.planning_rounds
    );
    assert!(
        report.hit_rate >= 0.9,
        "online HP hit rate {} fell below the 0.9 floor",
        report.hit_rate
    );
    // Golden values at pin time: hit 0.9053, rt 20.96 s, cost 355 714 s,
    // 7 refits over the 12 h replay.
    assert_within("online rt_avg", report.rt_avg, 21.0, 0.10);
    assert_within("online total_cost", report.total_cost, 356_000.0, 0.15);
    assert!(
        report.stats.refits >= 2,
        "rolling refits did not run (refits = {})",
        report.stats.refits
    );

    // Bit-for-bit determinism: the same configuration replays to the same
    // report (exact planning, seeded simulator, fixed refit schedule).
    let (repeat, _) = run_closed_loop(&trace, &config).unwrap();
    assert_eq!(report, repeat, "closed-loop replay is not deterministic");
}
