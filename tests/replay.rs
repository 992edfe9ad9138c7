//! Replay suite: the recorded-trace contract that gates CI.
//!
//! A session recorded to a JSONL trace must **replay**: re-executing the
//! session from the trace header regenerates every plan and refit
//! bit-for-bit (strict mode), and any injected divergence is caught with a
//! pointed diff naming the round, tenant and field. The golden corpus
//! under `tests/traces/` pins four scenario shapes (diurnal, flash-crowd,
//! drift-triggering and kill-and-restore-mid-burst); CI replays them
//! strictly, so any behavioural change to ingestion, training or planning
//! shows up as a divergence, not a silent drift. Regenerate the
//! goldens intentionally with `REGEN_GOLDEN_TRACES=1 cargo test --test
//! replay`. On top of the goldens, the format itself must fail loudly:
//! truncated, corrupted, version-unknown or self-inconsistent traces are
//! rejected with the offending line number.

use proptest::prelude::*;
use robustscaler::core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler::online::{
    codec, replay_trace, BusConfig, CheckpointStore, MemorySink, OnlineConfig, OnlineError,
    PolicyBands, RecordedTrace, RefitTrigger, ReplayMode, TenantFleet, TraceRecord, TraceRecorder,
    TRACE_FORMAT_VERSION,
};
use serde::Value;
use std::path::{Path, PathBuf};

/// Fresh per-test temp directory (no tempfile crate in the offline build),
/// collision-safe across processes and test threads.
fn temp_dir(tag: &str) -> PathBuf {
    static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "robustscaler-replay-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The committed golden corpus lives next to this test file.
fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("traces")
}

fn base_config() -> OnlineConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.bucket_width = 10.0;
    pipeline.periodicity_aggregation = 2;
    pipeline.admm.max_iterations = 30;
    pipeline.monte_carlo_samples = 60;
    pipeline.planning_interval = 20.0;
    pipeline.mean_processing = 5.0;
    pipeline.forecast_horizon = 400.0;
    let mut config = OnlineConfig::new(pipeline);
    config.window_buckets = 256;
    config.min_training_buckets = 10;
    config
}

fn bus_config() -> BusConfig {
    BusConfig {
        capacity_per_tenant: 8_192,
        tenants_per_group: 2,
    }
}

/// Enqueue round `round`'s arrival window for every tenant: round 0 covers
/// the warm stretch `[0, 400)`, later rounds the 20 s window ending at the
/// round boundary, with arrivals spaced `gap_for(tenant, round)` apart.
fn enqueue_window(fleet: &TenantFleet, round: usize, gap_for: &dyn Fn(usize, usize) -> f64) {
    for index in 0..fleet.len() {
        let gap = gap_for(index, round);
        let (lo, hi) = if round == 0 {
            (0.0, 400.0)
        } else {
            (
                400.0 + 20.0 * (round as f64 - 1.0),
                400.0 + 20.0 * round as f64,
            )
        };
        let mut t = lo + 0.5 * gap;
        while t < hi {
            assert!(fleet.enqueue(index, t).unwrap(), "queue has room");
            t += gap;
        }
    }
}

/// Record a fresh 3-tenant fleet session: `rounds` bus-fed
/// rounds with the given per-(tenant, round) arrival gaps, each round
/// planned with `covered_for(round)` instances already covered, returned as
/// the trace text.
fn record_fleet(
    config: &OnlineConfig,
    rounds: usize,
    gap_for: &dyn Fn(usize, usize) -> f64,
    covered_for: &dyn Fn(usize) -> usize,
) -> String {
    let mut fleet = TenantFleet::new(config, 0.0, 3).unwrap();
    fleet.attach_bus(bus_config()).unwrap();
    let sink = MemorySink::new();
    let lines = sink.lines();
    let recorder = TraceRecorder::new(Box::new(sink), &fleet.trace_header()).unwrap();
    fleet.start_recording(recorder).unwrap();
    for round in 0..rounds {
        enqueue_window(&fleet, round, gap_for);
        fleet
            .run_round_uniform(400.0 + 20.0 * round as f64, covered_for(round))
            .unwrap();
    }
    fleet.finish_recording().unwrap().unwrap();
    let lines = lines.lock().unwrap();
    lines.join("\n")
}

/// Record a session that is killed mid-burst: two recorded rounds, a burst
/// enqueued but not yet drained, recorder detached + fleet checkpointed,
/// then a *restored* fleet re-attaches the same recorder and serves two
/// more rounds — one continuous trace spanning the process boundary.
/// `edit_checkpoint` may rewrite the checkpoint directory before restore.
fn record_kill_restore(config: &OnlineConfig, edit_checkpoint: &dyn Fn(&Path)) -> String {
    let dir = temp_dir("kill-restore-golden");
    let gap_for = |tenant: usize, _round: usize| 4.0 + tenant as f64;
    let mut fleet = TenantFleet::new(config, 0.0, 3).unwrap();
    fleet.attach_bus(bus_config()).unwrap();
    let sink = MemorySink::new();
    let lines = sink.lines();
    let recorder = TraceRecorder::new(Box::new(sink), &fleet.trace_header()).unwrap();
    fleet.start_recording(recorder).unwrap();
    for round in 0..2 {
        enqueue_window(&fleet, round, &gap_for);
        fleet
            .run_round_uniform(400.0 + 20.0 * round as f64, round)
            .unwrap();
    }
    // The burst lands on the bus; the process "dies" before draining it.
    for index in 0..fleet.len() {
        for k in 0..10 {
            assert!(fleet.enqueue(index, 441.0 + k as f64).unwrap());
        }
    }
    let recorder = fleet.take_recorder().unwrap().expect("recording was on");
    fleet.checkpoint_sharded(&dir, 2).unwrap();
    drop(fleet);
    edit_checkpoint(&dir);

    let mut restored = TenantFleet::restore(&dir, config).unwrap();
    restored.start_recording(recorder).unwrap();
    for round in 2..4 {
        enqueue_window(&restored, round, &gap_for);
        restored
            .run_round_uniform(400.0 + 20.0 * round as f64, round)
            .unwrap();
    }
    restored.finish_recording().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let lines = lines.lock().unwrap();
    lines.join("\n")
}

/// Regenerate one golden scenario's trace text.
fn record_scenario(name: &str) -> String {
    let mut config = base_config();
    match name {
        // Mild sinusoidal daily profile: per-round gaps swing around each
        // tenant's base rate.
        "diurnal" => record_fleet(
            &config,
            6,
            &|tenant, round| {
                3.0 + tenant as f64 + 2.0 * (round as f64 * std::f64::consts::TAU / 6.0).sin()
            },
            &|round| round,
        ),
        // Quiet traffic with a 12x surge in round 3's window.
        "flash_crowd" => record_fleet(
            &config,
            6,
            &|tenant, round| {
                if round == 3 {
                    0.4
                } else {
                    5.0 + tenant as f64
                }
            },
            &|round| round,
        ),
        // Scheduled refits disabled: only the drift detector can refit.
        // Quiet training then a sustained surge must trip it.
        "drift" => {
            config.refit_interval = 1e9;
            config.drift_window = 200.0;
            record_fleet(
                &config,
                8,
                &|_, round| {
                    if round >= 3 {
                        0.5
                    } else {
                        8.0
                    }
                },
                &|round| round,
            )
        }
        "kill_restore" => record_kill_restore(&config, &|_| {}),
        other => panic!("unknown golden scenario `{other}`"),
    }
}

/// Load a golden (regenerating it first under `REGEN_GOLDEN_TRACES=1`),
/// replay it strictly, and return the parsed trace for extra assertions.
fn replay_golden(name: &str) -> RecordedTrace {
    let path = traces_dir().join(format!("{name}.jsonl"));
    if std::env::var("REGEN_GOLDEN_TRACES").as_deref() == Ok("1") {
        std::fs::create_dir_all(traces_dir()).unwrap();
        let mut text = record_scenario(name);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden trace {} unreadable ({e}); regenerate with \
             REGEN_GOLDEN_TRACES=1 cargo test --test replay",
            path.display()
        )
    });
    let trace = RecordedTrace::parse(&text).unwrap();
    // A build reads only its own format, so every golden is re-recorded
    // whenever the format version changes.
    assert_eq!(
        trace.header.version, TRACE_FORMAT_VERSION,
        "golden `{name}` was recorded at another format version"
    );
    let report = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default())
        .unwrap_or_else(|e| panic!("golden `{name}` diverged: {e}"));
    assert!(report.passed(), "golden `{name}`: {:?}", report.divergences);
    assert!(report.rounds >= 2, "golden `{name}` is too short");
    assert!(report.plans_checked > 0);
    trace
}

#[test]
fn golden_diurnal_replays_strictly() {
    replay_golden("diurnal");
}

#[test]
fn golden_flash_crowd_replays_strictly() {
    replay_golden("flash_crowd");
}

#[test]
fn golden_drift_replays_strictly_and_contains_a_drift_refit() {
    let trace = replay_golden("drift");
    assert!(
        trace.records.iter().any(|(_, record)| matches!(
            record,
            TraceRecord::Refit(refit) if refit.trigger == RefitTrigger::Drift
        )),
        "the drift scenario must record at least one drift-triggered refit"
    );
}

#[test]
fn golden_kill_restore_replays_strictly() {
    let trace = replay_golden("kill_restore");
    // The trace spans the process boundary: rounds recorded on both sides.
    let rounds = trace
        .records
        .iter()
        .filter(|(_, r)| matches!(r, TraceRecord::Round { .. }))
        .count();
    assert_eq!(rounds, 4);
}

/// Acceptance criterion: a single mutated plan field is caught, and the
/// diff names the round, the tenant and the field.
#[test]
fn injected_plan_mutation_is_caught_with_a_pointed_diff() {
    let text = record_fleet(
        &base_config(),
        3,
        &|tenant, _| 4.0 + tenant as f64,
        &|round| round,
    );
    let mut trace = RecordedTrace::parse(&text).unwrap();
    let mut mutated = None;
    for (_, record) in &mut trace.records {
        if let TraceRecord::Plan(plan) = record {
            if plan.error.is_none() {
                plan.expected_arrivals_in_window += 1.0;
                mutated = Some((plan.round, plan.tenant));
                break;
            }
        }
    }
    let (round, tenant) = mutated.expect("the session produced at least one successful plan");
    let err = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap_err();
    match &err {
        OnlineError::ReplayDivergence {
            round: got_round,
            tenant: got_tenant,
            field,
            ..
        } => {
            assert_eq!(*got_round, round);
            assert_eq!(*got_tenant, tenant);
            assert_eq!(field, "expected_arrivals_in_window");
        }
        other => panic!("expected a replay divergence, got {other:?}"),
    }
    // The rendered diff carries the same coordinates.
    let message = err.to_string();
    assert!(message.contains(&format!("round {round}")), "{message}");
    assert!(message.contains(&format!("tenant {tenant}")), "{message}");
    assert!(message.contains("expected_arrivals_in_window"), "{message}");
}

#[test]
fn truncated_trailing_record_fails_naming_the_line() {
    let text = record_fleet(
        &base_config(),
        2,
        &|tenant, _| 4.0 + tenant as f64,
        &|round| round,
    );
    let lines: Vec<&str> = text.lines().collect();
    let last = lines.len();

    // Half a final record (a crash mid-write): the parser points at it.
    let mut torn = lines[..last - 1].join("\n");
    torn.push('\n');
    torn.push_str(&lines[last - 1][..lines[last - 1].len() / 2]);
    let err = RecordedTrace::parse(&torn).unwrap_err();
    assert!(err.to_string().contains(&format!("line {last}")), "{err}");

    // The final QoS record missing entirely: parseable, but replay reports
    // the truncation instead of silently passing a partial session.
    let trace = RecordedTrace::parse(&lines[..last - 1].join("\n")).unwrap();
    let err = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap_err();
    assert!(err.to_string().contains("QoS"), "{err}");
}

#[test]
fn unknown_future_version_fails_naming_line_one() {
    let text = record_fleet(
        &base_config(),
        2,
        &|tenant, _| 4.0 + tenant as f64,
        &|round| round,
    );
    let current = format!("\"version\":{TRACE_FORMAT_VERSION}");
    // A future version and the previous one both fail: a build reads only
    // the version it writes.
    for version in [99, TRACE_FORMAT_VERSION - 1] {
        let other = text.replacen(&current, &format!("\"version\":{version}"), 1);
        assert_ne!(text, other, "header serialization changed shape");
        let err = RecordedTrace::parse(&other).unwrap_err();
        let message = err.to_string();
        assert!(message.contains(&format!("version {version}")), "{message}");
        assert!(message.contains("line 1"), "{message}");
    }
}

#[test]
fn corrupted_event_line_fails_naming_the_line() {
    let text = record_fleet(
        &base_config(),
        2,
        &|tenant, _| 4.0 + tenant as f64,
        &|round| round,
    );
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() > 5);
    lines[4] = "{this is not a record".to_string();
    let err = RecordedTrace::parse(&lines.join("\n")).unwrap_err();
    assert!(err.to_string().contains("line 5"), "{err}");
}

#[test]
fn header_inconsistent_with_its_own_session_fails_naming_line_one() {
    let text = record_fleet(
        &base_config(),
        2,
        &|tenant, _| 4.0 + tenant as f64,
        &|round| round,
    );
    // A single-scaler session claiming 3 tenants is self-contradictory.
    let warped = text.replacen("\"session\":\"Fleet\"", "\"session\":\"Single\"", 1);
    assert_ne!(text, warped, "header serialization changed shape");
    let err = RecordedTrace::parse(&warped).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("line 1"), "{message}");
    assert!(message.to_lowercase().contains("single"), "{message}");
}

/// Rewrite JSON the way a writer whose `BusConfig` still had the
/// adaptive-capacity and drain-budget fields, and whose `QueueStats` still
/// had `spilled`, serialized it: those keys, always `0`, trail
/// `tenants_per_group` and `drains`, the last surviving fields.
fn with_retired_bus_keys(text: &str) -> String {
    let insert_after = |text: &str, key: &str, extra: &str| {
        let mut out = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(at) = rest.find(key) {
            let close = at + rest[at..].find('}').expect("object closes");
            out.push_str(&rest[..close]);
            out.push_str(extra);
            rest = &rest[close..];
        }
        out.push_str(rest);
        out
    };
    let text = insert_after(
        text,
        "\"tenants_per_group\":",
        ",\"max_capacity_per_tenant\":0,\"max_drain_per_round\":0",
    );
    insert_after(&text, "\"drains\":", ",\"spilled\":0")
}

/// [`with_retired_bus_keys`] for a binary shard's value tree: every
/// object holding `tenants_per_group` or `drains` gains the retired keys
/// after its last member.
fn add_retired_bus_keys(value: &mut Value) {
    match value {
        Value::Arr(items) => items.iter_mut().for_each(add_retired_bus_keys),
        Value::Obj(pairs) => {
            pairs.iter_mut().for_each(|(_, v)| add_retired_bus_keys(v));
            if pairs.iter().any(|(k, _)| k == "tenants_per_group") {
                for key in ["max_capacity_per_tenant", "max_drain_per_round"] {
                    pairs.push((key.to_string(), Value::UInt(0)));
                }
            }
            if pairs.iter().any(|(k, _)| k == "drains") {
                pairs.push(("spilled".to_string(), Value::UInt(0)));
            }
        }
        _ => {}
    }
}

/// FNV-1a 64, the shard checksum a manifest records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checkpoints and traces from before the bus options were retired carry
/// their keys: the manifest's bus, every shard's queue stats, the trace
/// header's bus and every round's queue stats. Such a checkpoint must still
/// restore mid-session and the trace must still replay strictly.
#[test]
fn retired_bus_and_queue_keys_still_restore_and_replay() {
    let rewrite_checkpoint = |dir: &Path| {
        let mut manifest = CheckpointStore::new(dir).read_manifest().unwrap();
        for shard in &mut manifest.shards {
            let path = dir.join(&shard.file);
            let mut value = codec::decode_value(&std::fs::read(&path).unwrap()).unwrap();
            add_retired_bus_keys(&mut value);
            let text = serde_json::value_to_string(&value);
            assert!(text.contains("\"spilled\":0"), "shard {}", shard.file);
            let bytes = codec::encode(&value);
            std::fs::write(&path, &bytes).unwrap();
            shard.checksum = format!("{:016x}", fnv1a64(&bytes));
            shard.bytes = bytes.len() as u64;
        }
        let text = with_retired_bus_keys(&serde_json::to_string(&manifest).unwrap());
        assert!(text.contains("\"max_drain_per_round\":0"));
        std::fs::write(dir.join("manifest.json"), text).unwrap();
    };
    let text = with_retired_bus_keys(&record_kill_restore(&base_config(), &rewrite_checkpoint));
    let header = text.lines().next().unwrap();
    assert!(header.contains("\"max_capacity_per_tenant\":0"), "{header}");
    assert!(text.contains("\"spilled\":0"));
    let trace = RecordedTrace::parse(&text).unwrap();
    assert_eq!(trace.header.bus, bus_config());
    let report = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
    assert!(report.passed(), "{:?}", report.divergences);
    assert!(report.plans_checked > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Record → replay is bit-equivalent on arbitrary arrival streams, and
    /// the recorded bytes are identical for 1, 3 and 8 workers.
    #[test]
    fn record_then_replay_round_trips_for_any_stream_and_worker_count(
        tenant_count in 2usize..5,
        gaps in prop::collection::vec(3.0f64..12.0, 2..5),
        rounds in 2usize..5,
    ) {
        let config = base_config();
        let texts: Vec<String> = [1usize, 3, 8]
            .iter()
            .map(|&workers| {
                let mut fleet =
                    TenantFleet::new(&config, 0.0, tenant_count).unwrap();
                fleet.attach_bus(bus_config()).unwrap();
                fleet.set_workers(workers);
                let sink = MemorySink::new();
                let lines = sink.lines();
                let recorder =
                    TraceRecorder::new(Box::new(sink), &fleet.trace_header())
                        .unwrap();
                fleet.start_recording(recorder).unwrap();
                for round in 0..rounds {
                    enqueue_window(&fleet, round, &|tenant, _| {
                        gaps[tenant % gaps.len()]
                    });
                    fleet
                        .run_round_uniform(400.0 + 20.0 * round as f64, round)
                        .unwrap();
                }
                fleet.finish_recording().unwrap().unwrap();
                let lines = lines.lock().unwrap();
                lines.join("\n")
            })
            .collect();
        prop_assert_eq!(&texts[0], &texts[1], "1 vs 3 workers");
        prop_assert_eq!(&texts[0], &texts[2], "1 vs 8 workers");

        let trace = RecordedTrace::parse(&texts[0]).unwrap();
        let report =
            replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
        prop_assert!(report.passed(), "{:?}", report.divergences);
        prop_assert_eq!(report.rounds, rounds as u64);
    }
}
