//! Multi-tenant fleet serving demo: rounds/sec at fleet scale through the
//! event-driven ingestion runtime, plus durable checkpoint/restore.
//!
//! Builds a [`TenantFleet`] of N independent tenants (each with its own
//! model, ring and RNG) fed through its [`ArrivalBus`], and runs a
//! stretch of planning rounds the way production would: a producer thread
//! enqueues the *next* window's arrivals **while the current round
//! plans**, the producer joins at the round boundary, and the next
//! round's workers drain the queues before planning. It reports the
//! sustained planning throughput — tenant-rounds/sec — for the serial
//! (1 worker) and parallel (all cores) cases, queue health (enqueued /
//! dropped-full / high-water / drained-per-round), and a determinism
//! check that both worker counts produce identical plans despite the
//! overlapped ingestion.
//!
//! Flags:
//!
//! * `--checkpoint-dir <dir>` — checkpoint the fleet mid-run (queued
//!   arrivals included), restore it into a fresh fleet, and verify the
//!   restored fleet's remaining rounds are bit-identical to the
//!   uninterrupted run (the checkpoint stays on disk for a later
//!   `--restore`);
//! * `--restore` — start from the checkpoint in `--checkpoint-dir` instead
//!   of building a warm fleet;
//! * `--page-dir <dir>` — page tenant 0 of the parallel fleet out to a
//!   hibernation page in `<dir>` (`tenant-00000000.bin`, kept on disk for
//!   `dump`) and verify the page reads back to the same snapshot;
//! * `--record <path>` — record the parallel fleet's timed stretch (model
//!   installs, every round's arrivals/plans/refits, queue drains, final
//!   QoS) as a replayable JSONL trace; recording enqueues synchronously
//!   (no producer overlap) so the recorded queue contents are exact, and
//!   is rejected together with `--restore` (a restored fleet's history
//!   predates the trace);
//! * `--json <path>` — dump the run report as JSON (includes the trace
//!   path and record counts when recording, plus a `warnings` array that
//!   is non-empty whenever the run degraded: dropped arrivals, quarantined
//!   tenants, checkpoint retries or fallbacks);
//! * `--fault-*` — deterministic fault injection; faulted runs plan through
//!   the supervised round path (quarantine, backoff probes, sticky
//!   fallbacks) instead of failing outright (see `--help`).
//!
//! `fleet_demo dump <file>` instead prints one binary tenant payload — a
//! checkpoint shard (`gen-*/shard-*.bin`) or a hibernation page
//! (`tenant-*.bin`) — as JSON, and exits.
//!
//! Environment knobs: `FLEET_TENANTS` (default 250) and `FLEET_ROUNDS`
//! (default 20).

use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_nhpp::NhppModel;
use robustscaler_online::{
    codec, ArrivalBus, CheckpointIoStats, FaultPlan, FaultyStorage, HibernationStore, OnlineConfig,
    QueueStats, SupervisionStats, TenantFleet, TraceRecorder, TraceSummary,
};
use robustscaler_parallel::available_threads;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
Multi-tenant fleet serving demo: rounds/sec at fleet scale through the
event-driven ingestion runtime, plus durable checkpoint/restore.

USAGE: fleet_demo [FLAGS]
       fleet_demo dump <file>  print a checkpoint shard or page file as JSON

  --checkpoint-dir <dir>  checkpoint mid-run, restore, verify bit-identity
  --restore               start from the checkpoint in --checkpoint-dir
  --page-dir <dir>        page tenant 0 out to <dir>, verify it reads back
  --record <path>         record the parallel stretch as a JSONL trace
  --json <path>           dump the run report (with warnings) as JSON
  --help                  print this help

Deterministic fault injection (chaos mode). Every fault decision is a pure
function of --fault-seed and the (round, tenant) pair — same knobs, same
faults, bit-identical outcomes at any worker count. With any fault enabled
the demo plans through the supervised path: failing tenants are quarantined
with exponential-backoff probes and served their last good plan (sticky
fallback) while unhealthy. Probabilities are per tenant-round:

  --fault-seed <n>             fault-schedule seed (default 1337)
  --fault-plan-error <p>       probability planning fails with an injected error
  --fault-plan-panic <p>       probability planning panics inside the round worker
                               (caught; poisons only that tenant's slot)
  --fault-arrival-nan <p>      probability one drained arrival is corrupted to NaN
  --fault-clock-skew <p>       probability a drained batch is shifted in time
  --fault-clock-skew-secs <s>  signed skew magnitude in seconds (default 30)
  --fault-io <p>               per-file probability each checkpoint write fails
                               (writes retry with bounded backoff; high values
                               can exhaust the retries and fail the run)
  --fault-tenant <n>           restrict planning/arrival faults to tenant n

Environment: FLEET_TENANTS (default 250), FLEET_ROUNDS (default 20).";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed stretch of rounds.
#[derive(Debug, Clone, Serialize)]
struct RunReport {
    workers: usize,
    wall_secs: f64,
    tenant_rounds_per_sec: f64,
    decisions: usize,
}

/// Checkpoint/restore measurements and the kill-and-restore verdict.
#[derive(Debug, Clone, Serialize)]
struct CheckpointReport {
    dir: String,
    generation: u64,
    shards: usize,
    tenant_count: usize,
    write_secs: f64,
    restore_secs: f64,
    identical_after_restore: bool,
}

/// One tenant paged out to a hibernation page and read back.
#[derive(Debug, Clone, Serialize)]
struct PageReport {
    dir: String,
    tenant: u64,
    bytes: u64,
    identical_after_page_in: bool,
}

/// Page tenant 0 of `fleet` out to a page store in `dir` and read it back.
fn page_and_verify(fleet: &TenantFleet, dir: &str) -> PageReport {
    let store = HibernationStore::new(dir);
    let tenant = fleet.tenant(0).expect("tenant 0 is resident");
    let snapshot = tenant.scaler.snapshot();
    let receipt = store
        .page_out(tenant.id, snapshot.clone())
        .expect("page written");
    let back = store.page_in(tenant.id, receipt).expect("page read back");
    let bytes = std::fs::read_dir(dir)
        .expect("page dir listed")
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    PageReport {
        dir: dir.to_string(),
        tenant: tenant.id,
        bytes,
        identical_after_page_in: back == snapshot,
    }
}

/// Arrival-queue health of one timed stretch.
#[derive(Debug, Clone, Serialize)]
struct QueueReport {
    enqueued: u64,
    dropped_full: u64,
    queued_peak: u64,
    drained: u64,
    drained_per_round: f64,
}

impl QueueReport {
    fn from_stats(stats: QueueStats, rounds: usize) -> Self {
        Self {
            enqueued: stats.enqueued,
            dropped_full: stats.dropped_full,
            queued_peak: stats.queued_peak,
            drained: stats.drained,
            drained_per_round: if rounds == 0 {
                0.0
            } else {
                stats.drained as f64 / rounds as f64
            },
        }
    }
}

/// The demo's full JSON report (`--json <path>`).
#[derive(Debug, Clone, Serialize)]
struct DemoReport {
    tenants: usize,
    rounds: usize,
    restored_from_checkpoint: bool,
    /// Arrivals are enqueued by a producer thread overlapped with the
    /// previous round's planning (the drain-at-round-boundary contract).
    ingest_overlapped: bool,
    runs: Vec<RunReport>,
    queue: QueueReport,
    determinism_across_workers: bool,
    checkpoint: Option<CheckpointReport>,
    /// The page round trip (`--page-dir`).
    page: Option<PageReport>,
    /// Recorded-session trace (`--record`): path plus record/round counts.
    trace: Option<TraceSummary>,
    /// The fault schedule when chaos mode is active (`--fault-*`).
    faults: Option<FaultPlan>,
    /// Supervision counters from the parallel stretch (chaos mode only).
    supervision: Option<SupervisionStats>,
    /// Degradation warnings: empty on a fully clean run, non-empty when
    /// arrivals were dropped, tenants were quarantined, or checkpoint I/O
    /// had to retry or fall back.
    warnings: Vec<String>,
}

/// Degradation warnings surfaced in the report and on stdout.
fn collect_warnings(
    queue: &QueueReport,
    supervision: Option<&SupervisionStats>,
    io: &CheckpointIoStats,
) -> Vec<String> {
    let mut warnings = Vec::new();
    if queue.dropped_full > 0 {
        warnings.push(format!(
            "arrival queue dropped {} batch(es) on the floor (queue full)",
            queue.dropped_full
        ));
    }
    if let Some(sup) = supervision {
        if sup.failures > 0 {
            warnings.push(format!(
                "{} tenant-round(s) failed ({} by panic), {} served the degraded sticky fallback",
                sup.failures, sup.panics, sup.degraded_rounds
            ));
        }
        if sup.probes > 0 || sup.quarantined_now > 0 {
            warnings.push(format!(
                "{} tenant(s) quarantined right now; {} recovery probe(s) ran, {} succeeded",
                sup.quarantined_now, sup.probes, sup.recoveries
            ));
        }
    }
    if io.retries > 0 {
        warnings.push(format!(
            "checkpoint writes retried {} time(s) before succeeding",
            io.retries
        ));
    }
    if io.generation_fallbacks > 0 {
        warnings.push(format!(
            "{} restore(s) fell back past a corrupt generation",
            io.generation_fallbacks
        ));
    }
    warnings
}

fn fleet_config() -> OnlineConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = 10.0;
    pipeline.mean_processing = 20.0;
    OnlineConfig::new(pipeline)
}

/// A fleet whose tenants are warm-started with a diurnal-ish model so every
/// round exercises the full forecast → plan path without paying ADMM
/// training inside the timed loop.
fn build_fleet(tenants: usize) -> TenantFleet {
    let config = fleet_config();
    let mut fleet = TenantFleet::new(&config, 0.0, tenants).expect("valid fleet");
    for index in 0..tenants {
        // Tenant traffic levels spread over [0.5, 2.5] QPS with a mild
        // sinusoidal daily profile — ~50 arrivals per 10 s window at the
        // top end, the Fig. 8 bench shape.
        let base = 0.5 + 2.0 * (index as f64 / tenants.max(2) as f64);
        let log_rates: Vec<f64> = (0..1_440)
            .map(|b| (base * (1.0 + 0.3 * (b as f64 / 1_440.0 * std::f64::consts::TAU).sin())).ln())
            .collect();
        let model = NhppModel::from_log_rates(0.0, 60.0, log_rates, Some(1_440)).expect("model");
        fleet
            .tenant_mut(index)
            .expect("index in range")
            .scaler
            .install_model(model, 0.0)
            .expect("install");
    }
    fleet
}

/// Enqueue round `round`'s synthetic arrival window for every tenant — a
/// deterministic function of (round, tenant), so any two fleets fed the
/// same round sequence see identical queue contents regardless of when
/// (or from which thread) the enqueue ran.
fn enqueue_window(bus: &ArrivalBus, tenants: usize, round: usize) {
    let now = 86_400.0 + 10.0 * round as f64;
    for tenant in 0..tenants {
        let arrivals = [
            now + 1.0 + (tenant % 5) as f64,
            now + 4.5 + (tenant % 3) as f64,
            now + 8.0,
        ];
        bus.push_batch(tenant, &arrivals).expect("queue has room");
    }
}

/// Run `rounds` planning rounds starting at round index `first_round`,
/// overlapping each round's planning with the enqueue of the *next*
/// round's arrivals on a producer thread (joined at the round boundary,
/// so drains — and therefore plans — stay deterministic). Returns (wall
/// seconds, decision count, per-round first-creation fingerprints for
/// determinism comparison).
fn run_rounds(
    fleet: &mut TenantFleet,
    first_round: usize,
    rounds: usize,
) -> (f64, usize, Vec<Vec<f64>>) {
    run_rounds_with(fleet, first_round, rounds, false)
}

fn run_rounds_with(
    fleet: &mut TenantFleet,
    first_round: usize,
    rounds: usize,
    synchronous: bool,
) -> (f64, usize, Vec<Vec<f64>>) {
    let interval = 10.0;
    let tenants = fleet.len();
    let chaos = fleet.fault_plan().is_some();
    let bus = Arc::clone(fleet.bus().expect("every fleet owns its bus"));
    let mut decisions = 0usize;
    let mut plans = Vec::with_capacity(rounds);
    let started = Instant::now();
    // Only a cold start (round 0) enqueues its window up front; a
    // continuation stretch already holds window `first_round` — the prior
    // stretch's trailing producer enqueued it (and a restored fleet got it
    // from the checkpoint), so enqueueing again would double-ingest the
    // boundary window.
    if first_round == 0 {
        enqueue_window(&bus, tenants, 0);
    }
    for round in first_round..first_round + rounds {
        let now = 86_400.0 + interval * round as f64;
        // Recording mode enqueues the next window synchronously *after*
        // the round: a producer overlapped with the round's drain would
        // race the recorder's pre-drain queue capture. The queue contents
        // at every drain are identical either way — only wall clock moves.
        let producer = if synchronous {
            None
        } else {
            let bus = Arc::clone(&bus);
            Some(std::thread::spawn(move || {
                enqueue_window(&bus, tenants, round + 1)
            }))
        };
        // Chaos mode plans through the supervised path: injected failures
        // quarantine their tenant and serve the sticky fallback instead of
        // aborting the demo. A clean run keeps the plain round (identical
        // plans, no supervision bookkeeping inside the timed loop).
        let round_plans: Vec<_> = if chaos {
            fleet
                .run_round_supervised(now, &vec![round % 3; tenants])
                .expect("supervised round succeeds")
                .outcomes
                .into_iter()
                .map(|outcome| outcome.plan)
                .collect()
        } else {
            fleet
                .run_round_uniform(now, round % 3)
                .expect("round succeeds")
                .into_iter()
                .map(|plan| Some(plan.expect("warm-started tenant plans")))
                .collect()
        };
        match producer {
            Some(producer) => producer.join().expect("producer thread panicked"),
            None => enqueue_window(&bus, tenants, round + 1),
        }
        decisions += round_plans
            .iter()
            .flatten()
            .map(|p| p.decisions.len())
            .sum::<usize>();
        plans.push(
            round_plans
                .iter()
                .map(|p| {
                    p.as_ref()
                        .and_then(|p| p.decisions.first())
                        .map_or(f64::NAN, |d| d.creation_time)
                })
                .collect(),
        );
    }
    (started.elapsed().as_secs_f64(), decisions, plans)
}

fn plans_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|(p, q)| (p.is_nan() && q.is_nan()) || p == q)
        })
}

/// Kill-and-restore check: checkpoint `fleet` to `dir`, restore a fresh
/// fleet from disk, run the same remaining rounds on both, and compare.
fn checkpoint_and_verify(
    fleet: &mut TenantFleet,
    config: &OnlineConfig,
    dir: &str,
    first_round: usize,
    rounds: usize,
) -> CheckpointReport {
    let started = Instant::now();
    let manifest = fleet.checkpoint(dir).expect("checkpoint succeeds");
    let write_secs = started.elapsed().as_secs_f64();
    let started = Instant::now();
    // The manifest re-arms the fault plan and supervision policy, so the
    // continuation needs no wiring by hand.
    let mut restored = TenantFleet::restore(dir, config).expect("restore succeeds");
    let restore_secs = started.elapsed().as_secs_f64();
    let (_, _, live_plans) = run_rounds(fleet, first_round, rounds);
    let (_, _, restored_plans) = run_rounds(&mut restored, first_round, rounds);
    CheckpointReport {
        dir: dir.to_string(),
        generation: manifest.generation,
        shards: manifest.shards.len(),
        tenant_count: manifest.tenant_count,
        write_secs,
        restore_secs,
        identical_after_restore: plans_equal(&live_plans, &restored_plans),
    }
}

/// `fleet_demo dump <file>`: render a binary shard or page as JSON on
/// standard output (non-finite floats print as `null`).
fn dump(path: Option<String>) -> ! {
    let Some(path) = path else {
        eprintln!("dump needs a shard or page file");
        std::process::exit(2);
    };
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    match codec::decode_value(&bytes) {
        Ok(value) => {
            println!("{}", serde_json::value_to_string(&value));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("dump") {
        dump(std::env::args().nth(2));
    }
    let tenants = env_usize("FLEET_TENANTS", 250);
    let rounds = env_usize("FLEET_ROUNDS", 20);
    let cores = available_threads();

    let mut checkpoint_dir: Option<String> = None;
    let mut page_dir: Option<String> = None;
    let mut restore = false;
    let mut json_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut faults = FaultPlan {
        seed: 1_337,
        ..FaultPlan::default()
    };
    let arg_f64 = |flag: &str, value: Option<String>| -> f64 {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a numeric value");
            std::process::exit(2);
        })
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(args.next().expect("--checkpoint-dir needs a path"));
            }
            "--restore" => restore = true,
            "--page-dir" => page_dir = Some(args.next().expect("--page-dir needs a path")),
            "--record" => record_path = Some(args.next().expect("--record needs a path")),
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--fault-seed" => faults.seed = arg_f64(&arg, args.next()) as u64,
            "--fault-plan-error" => faults.plan_error = arg_f64(&arg, args.next()),
            "--fault-plan-panic" => faults.plan_panic = arg_f64(&arg, args.next()),
            "--fault-arrival-nan" => faults.arrival_nan = arg_f64(&arg, args.next()),
            "--fault-clock-skew" => faults.clock_skew = arg_f64(&arg, args.next()),
            "--fault-clock-skew-secs" => faults.clock_skew_secs = arg_f64(&arg, args.next()),
            "--fault-io" => faults.checkpoint_io = arg_f64(&arg, args.next()),
            "--fault-tenant" => faults.target_tenant = Some(arg_f64(&arg, args.next()) as u64),
            other => {
                eprintln!("unknown flag `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    let chaos = faults.enabled();
    if restore && checkpoint_dir.is_none() {
        eprintln!("--restore requires --checkpoint-dir");
        std::process::exit(2);
    }
    if restore && record_path.is_some() {
        eprintln!("--record cannot be combined with --restore: a restored fleet's training history predates the trace, so the recording would not replay from its own header");
        std::process::exit(2);
    }

    let config = fleet_config();
    println!(
        "Fleet serving demo — {tenants} tenants, {rounds} rounds, {cores} core(s){}",
        if chaos {
            format!(" — chaos mode (fault seed {})", faults.seed)
        } else {
            String::new()
        }
    );

    let build = || -> TenantFleet {
        let mut fleet = if restore {
            let dir = checkpoint_dir.as_deref().expect("checked above");
            let fleet = TenantFleet::restore(dir, &config).expect("restore succeeds");
            println!("restored {} tenants from {dir}", fleet.len());
            fleet
        } else {
            build_fleet(tenants)
        };
        // A restored fleet keeps the fault plan its checkpoint recorded;
        // the flags, when given, override it.
        if chaos {
            fleet.set_faults(faults);
        }
        fleet
    };

    let mut serial_fleet = build();
    let tenants = serial_fleet.len();
    serial_fleet.set_workers(1);
    let (serial_secs, serial_decisions, serial_plans) = run_rounds(&mut serial_fleet, 0, rounds);

    let mut parallel_fleet = build();
    parallel_fleet.set_workers(cores);
    // Recording attaches *before* the timed stretch (per-tenant Install
    // records are emitted at attach, outside the timed loop) and detaches
    // after it, before the checkpoint phase's extra verification rounds.
    if let Some(path) = &record_path {
        let recorder = TraceRecorder::to_file(path, &parallel_fleet.trace_header())
            .expect("writable trace path");
        parallel_fleet
            .start_recording(recorder)
            .expect("fresh fleet starts recording");
    }
    let (parallel_secs, parallel_decisions, parallel_plans) =
        run_rounds_with(&mut parallel_fleet, 0, rounds, record_path.is_some());
    let trace = record_path.as_ref().map(|_| {
        let summary = parallel_fleet
            .finish_recording()
            .expect("trace finalizes")
            .expect("recording was active");
        println!(
            "trace: {} ({} records, {} rounds)",
            summary.path, summary.records, summary.rounds
        );
        summary
    });

    let tenant_rounds = (tenants * rounds) as f64;
    println!(
        "\n{:>12} {:>14} {:>18} {:>14}",
        "workers", "wall (s)", "tenant-rounds/s", "decisions"
    );
    println!(
        "{:>12} {:>14.3} {:>18.1} {:>14}",
        1,
        serial_secs,
        tenant_rounds / serial_secs,
        serial_decisions
    );
    println!(
        "{:>12} {:>14.3} {:>18.1} {:>14}",
        cores,
        parallel_secs,
        tenant_rounds / parallel_secs,
        parallel_decisions
    );

    let identical =
        serial_decisions == parallel_decisions && plans_equal(&serial_plans, &parallel_plans);
    println!(
        "\ndeterminism across worker counts: {}",
        if identical { "IDENTICAL" } else { "MISMATCH" }
    );

    let queue = QueueReport::from_stats(parallel_fleet.queue_stats(), rounds);
    println!(
        "queue health: {} enqueued, {} dropped (full), peak {} queued, \
         {:.1} drained/round",
        queue.enqueued, queue.dropped_full, queue.queued_peak, queue.drained_per_round
    );

    let supervision = chaos.then(|| parallel_fleet.supervision_stats());
    if let Some(sup) = &supervision {
        println!(
            "supervision: {} failed tenant-rounds ({} panics), {} degraded, \
             {} probes / {} recoveries, {} quarantined now",
            sup.failures,
            sup.panics,
            sup.degraded_rounds,
            sup.probes,
            sup.recoveries,
            sup.quarantined_now
        );
    }

    // `--fault-io`: checkpoint writes go through the fault-injecting
    // storage backend; the store's bounded retries absorb the failures
    // (and show up as warnings below).
    if faults.checkpoint_io > 0.0 {
        parallel_fleet.set_checkpoint_storage(Arc::new(FaultyStorage::new(faults)));
    }

    // Kill-and-restore: checkpoint the parallel fleet after its timed
    // stretch, restore from disk, and verify the next rounds match the
    // fleet that never stopped.
    let checkpoint = checkpoint_dir.as_deref().map(|dir| {
        let report = checkpoint_and_verify(&mut parallel_fleet, &config, dir, rounds, 3);
        println!(
            "checkpoint: gen {} ({} shards, {} tenants) written in {:.3} s, \
             restored in {:.3} s — continuation {}",
            report.generation,
            report.shards,
            report.tenant_count,
            report.write_secs,
            report.restore_secs,
            if report.identical_after_restore {
                "IDENTICAL"
            } else {
                "MISMATCH"
            }
        );
        report
    });
    let checkpoint_ok = checkpoint
        .as_ref()
        .is_none_or(|c| c.identical_after_restore);
    let page = page_dir.as_deref().map(|dir| {
        let report = page_and_verify(&parallel_fleet, dir);
        println!(
            "page: tenant {} paged out to {dir} ({} bytes) — page-in {}",
            report.tenant,
            report.bytes,
            if report.identical_after_page_in {
                "IDENTICAL"
            } else {
                "MISMATCH"
            }
        );
        report
    });
    let page_ok = page.as_ref().is_none_or(|p| p.identical_after_page_in);

    let warnings = collect_warnings(
        &queue,
        supervision.as_ref(),
        &parallel_fleet.checkpoint_io_stats(),
    );
    for warning in &warnings {
        println!("warning: {warning}");
    }

    if let Some(path) = json_path {
        let report = DemoReport {
            tenants,
            rounds,
            restored_from_checkpoint: restore,
            ingest_overlapped: record_path.is_none(),
            queue,
            runs: vec![
                RunReport {
                    workers: 1,
                    wall_secs: serial_secs,
                    tenant_rounds_per_sec: tenant_rounds / serial_secs,
                    decisions: serial_decisions,
                },
                RunReport {
                    workers: cores,
                    wall_secs: parallel_secs,
                    tenant_rounds_per_sec: tenant_rounds / parallel_secs,
                    decisions: parallel_decisions,
                },
            ],
            determinism_across_workers: identical,
            checkpoint,
            page,
            trace,
            faults: chaos.then_some(faults),
            supervision,
            warnings,
        };
        let json = serde_json::to_string(&report).expect("serializable report");
        std::fs::write(&path, json).expect("writable json path");
        println!("report written to {path}");
    }

    if !identical || !checkpoint_ok || !page_ok {
        std::process::exit(1);
    }
}
