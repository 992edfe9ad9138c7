//! Closed-loop harness demo: replay a synthetic diurnal trace through the
//! full online serving loop (ingest → drift check → refit → plan →
//! simulated cluster) and report the paper's metrics.
//!
//! Flags:
//!
//! * `--restart-dir <dir>` — kill-and-restore replay: the serving process
//!   "dies" at the warm-up boundary, is checkpointed to `<dir>`, restored
//!   from disk, and must produce a bit-identical report to the
//!   uninterrupted run (the binary verifies this and fails on mismatch);
//! * `--record <path>` — record the session (warm-up, every round's
//!   arrivals/plans/refits, final QoS) as a replayable JSONL trace (see
//!   the `trace_replay` binary);
//! * `--json <path>` — dump the run as JSON: `{"report": ..., "trace":
//!   ..., "warnings": [...]}` — `trace` carries the record counts when
//!   recording, and `warnings` is non-empty whenever the run degraded
//!   (dropped arrivals, failed planning rounds);
//! * `--fault-*` — deterministic fault injection (see `--help`).
//!
//! Environment knobs: `HARNESS_HOURS` (trace length, default 6) and
//! `HARNESS_SCALE` (traffic scale, default 0.5).

use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_online::{
    run_closed_loop, run_closed_loop_recorded, run_closed_loop_with_restart, FaultPlan,
    HarnessConfig, HarnessReport, OnlineConfig, TraceSummary,
};
use robustscaler_simulator::{PendingTimeDistribution, SimulationConfig};
use robustscaler_traces::{google_like, ProcessingTimeModel, TraceConfig};
use serde::Serialize;

const USAGE: &str = "\
Closed-loop harness demo: replay a synthetic diurnal trace through the full
online serving loop (ingest -> drift check -> refit -> plan -> simulated
cluster) and report the paper's metrics.

USAGE: harness_demo [FLAGS]

  --restart-dir <dir>   kill-and-restore replay: checkpoint at the warm-up
                        boundary, restore from <dir>, verify bit-identity
  --record <path>       record the session as a replayable JSONL trace
  --json <path>         dump {report, trace, warnings} as JSON
  --help                print this help

Deterministic fault injection (chaos mode). Every fault decision is a pure
function of --fault-seed and the round index — two runs with the same knobs
inject the same faults at the same rounds, and a recorded chaos session
replays bit-for-bit. The warm-up phase is never faulted. Probabilities are
per planning round:

  --fault-seed <n>             fault-schedule seed (default 1337)
  --fault-plan-error <p>       probability planning fails with an injected error
  --fault-arrival-nan <p>      probability one drained arrival is corrupted to NaN
  --fault-clock-skew <p>       probability a drained batch is shifted in time
  --fault-clock-skew-secs <s>  signed skew magnitude in seconds (default 30)

Environment: HARNESS_HOURS (trace length, default 6), HARNESS_SCALE
(traffic scale, default 0.5).";

/// `--json` payload: the report, the trace summary when recording, and the
/// degradation warnings (empty on a fully clean run).
#[derive(Debug, Clone, Serialize)]
struct DemoJson {
    report: HarnessReport,
    trace: Option<TraceSummary>,
    warnings: Vec<String>,
}

/// Degradation warnings: non-empty whenever the run was not fully clean.
fn collect_warnings(report: &HarnessReport, faulted: bool) -> Vec<String> {
    let mut warnings = Vec::new();
    if let Some(queue) = &report.queue {
        if queue.dropped_full > 0 {
            warnings.push(format!(
                "arrival queue dropped {} batch(es) on the floor (queue full)",
                queue.dropped_full
            ));
        }
    }
    if report.stats.failed_rounds > 0 {
        warnings.push(format!(
            "{} planning round(s) failed{}",
            report.stats.failed_rounds,
            if faulted {
                " (deterministic fault injection active)"
            } else {
                ""
            }
        ));
    }
    warnings
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn print_report(report: &HarnessReport) {
    println!("policy:         {}", report.policy);
    println!("queries:        {}", report.queries);
    println!("hit rate:       {:.4}", report.hit_rate);
    println!("rt_avg:         {:.3} s", report.rt_avg);
    println!("relative cost:  {:.3}", report.relative_cost);
    println!(
        "serving:        {} refits ({} drift), {} planned / {} skipped / {} failed rounds",
        report.stats.refits,
        report.stats.drift_refits,
        report.stats.planning_rounds,
        report.stats.skipped_rounds,
        report.stats.failed_rounds
    );
    if let Some(queue) = &report.queue {
        println!(
            "ingest queue:   {} enqueued, {} dropped (full), peak {} queued, \
             {:.1} drained/round",
            queue.enqueued,
            queue.dropped_full,
            queue.queued_peak,
            report.drained_per_round.unwrap_or(0.0)
        );
    }
}

fn arg_f64(flag: &str, value: Option<String>) -> f64 {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a numeric value");
        std::process::exit(2);
    })
}

fn main() {
    let mut restart_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut faults = FaultPlan {
        seed: 1_337,
        ..FaultPlan::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--restart-dir" => {
                restart_dir = Some(args.next().expect("--restart-dir needs a path"));
            }
            "--record" => record_path = Some(args.next().expect("--record needs a path")),
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--fault-seed" => faults.seed = arg_f64(&arg, args.next()) as u64,
            "--fault-plan-error" => faults.plan_error = arg_f64(&arg, args.next()),
            "--fault-arrival-nan" => faults.arrival_nan = arg_f64(&arg, args.next()),
            "--fault-clock-skew" => faults.clock_skew = arg_f64(&arg, args.next()),
            "--fault-clock-skew-secs" => faults.clock_skew_secs = arg_f64(&arg, args.next()),
            other => {
                eprintln!("unknown flag `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    let faulted = faults.enabled();

    let hours = env_f64("HARNESS_HOURS", 6.0);
    let trace = google_like(&TraceConfig {
        duration: hours * 3_600.0,
        traffic_scale: env_f64("HARNESS_SCALE", 0.5),
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed: 424_242,
    });

    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.mean_processing = 20.0;
    pipeline.planning_interval = 10.0;
    pipeline.admm.max_iterations = 80;
    let config = HarnessConfig {
        online: OnlineConfig::new(pipeline),
        sim: SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: 9,
            recent_history_window: 600.0,
        },
        warmup: (hours / 2.0) * 3_600.0,
        faults: faulted.then_some(faults),
        plan_reuse: None,
    };

    println!(
        "Closed-loop harness — {hours} h trace, {} h warm-up{}",
        hours / 2.0,
        if faulted {
            format!(" — chaos mode (fault seed {})", faults.seed)
        } else {
            String::new()
        }
    );
    let (report, trace_summary) = match &record_path {
        Some(path) => {
            let (report, _, summary) =
                run_closed_loop_recorded(&trace, &config, path).expect("recorded closed loop runs");
            (report, Some(summary))
        }
        None => {
            let (report, _) = run_closed_loop(&trace, &config).expect("closed loop runs");
            (report, None)
        }
    };
    print_report(&report);
    if let Some(summary) = &trace_summary {
        println!(
            "trace:          {} ({} records, {} rounds)",
            summary.path, summary.records, summary.rounds
        );
    }
    let warnings = collect_warnings(&report, faulted);
    for warning in &warnings {
        println!("warning:        {warning}");
    }

    if let Some(dir) = restart_dir {
        let (restarted, _) =
            run_closed_loop_with_restart(&trace, &config, &dir).expect("restart replay runs");
        let identical = restarted == report;
        println!(
            "\nkill-and-restore replay via {dir}: {}",
            if identical { "IDENTICAL" } else { "MISMATCH" }
        );
        if !identical {
            std::process::exit(1);
        }
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string(&DemoJson {
            report,
            trace: trace_summary,
            warnings,
        })
        .expect("serializable report");
        std::fs::write(&path, json).expect("writable json path");
        println!("report written to {path}");
    }
}
