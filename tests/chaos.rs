//! Chaos suite: deterministic fault injection against the supervised
//! fleet and the self-healing checkpoint store.
//!
//! Every fault here comes from a seeded [`FaultPlan`] — a pure function
//! of (seed, round, tenant, path tag, call count) — so each scenario is
//! reproducible bit-for-bit. The suite pins the three robustness
//! contracts:
//!
//! 1. **isolation** — a faulty tenant (errors, panics, corrupted
//!    arrivals) never perturbs its healthy neighbors' plans, at any
//!    worker count;
//! 2. **durability** — the checkpoint directory stays restorable after
//!    any injected crash point, falling back to the newest restorable
//!    generation when the current one is torn;
//! 3. **determinism** — the same seed and fault plan reproduce the same
//!    outcomes, including every quarantine, probe and recovery,
//!    and a recorded chaos session (crash + restore included) replays
//!    strictly.

use proptest::prelude::*;
use robustscaler::core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler::nhpp::NhppModel;
use robustscaler::online::{
    replay_path, BusConfig, FaultInjector, FaultPlan, FaultyStorage, FleetRound, OnlineConfig,
    OnlineError, OsStorage, PolicyBands, ReplayMode, SupervisorConfig, TenantFleet, TenantHealth,
    TraceRecorder,
};
use std::sync::Arc;

fn chaos_config() -> OnlineConfig {
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

fn small_bus() -> BusConfig {
    BusConfig {
        capacity_per_tenant: 4_096,
        tenants_per_group: 2,
    }
}

/// A fresh scratch directory under the (possibly CI-isolated) TMPDIR.
fn scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "robustscaler-chaos-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Silence the default panic hook's stderr spew for *injected* panics
/// (the fleet's `catch_unwind` boundaries still see the payload).
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|m| (*m).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains("injected") {
                previous(info);
            }
        }));
    });
}

/// Enqueue round `round`'s traffic window on the fleet's bus: tenant `i`
/// sees one arrival every `4 + i` seconds; round 0 covers the 400 s
/// training prefix, later rounds one 20 s planning interval each.
fn enqueue_window(fleet: &TenantFleet, round: u64) {
    let (lo, hi) = if round == 0 {
        (0.0, 400.0)
    } else {
        (
            400.0 + 20.0 * (round - 1) as f64,
            400.0 + 20.0 * round as f64,
        )
    };
    for index in 0..fleet.len() {
        let gap = 4.0 + index as f64;
        let first = (lo / gap).ceil() as usize;
        for t in (first..).map(|k| k as f64 * gap).take_while(|t| *t < hi) {
            assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
        }
    }
}

fn round_now(round: u64) -> f64 {
    400.0 + 20.0 * round as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One faulty tenant — planning errors or panics plus corrupted
    /// arrivals, all targeted at a single victim — leaves every healthy
    /// tenant's `PlanningRound` bit-identical to a fault-free run, at 1,
    /// 3 and 8 workers.
    #[test]
    fn faulty_neighbor_never_perturbs_healthy_tenants(
        seed in 0u64..1_000,
        victim in 0usize..3,
        flavor in 0u8..2,
    ) {
        silence_injected_panics();
        let panic_flavor = flavor == 1;
        let tenants = 3usize;
        let config = chaos_config();
        let run = |faults: Option<FaultPlan>, workers: usize| {
            let mut fleet = TenantFleet::new(&config, 0.0, tenants).unwrap();
            fleet.set_workers(workers);
            fleet.attach_bus(small_bus()).unwrap();
            if let Some(plan) = faults {
                fleet.set_faults(plan);
            }
            let mut all = Vec::new();
            for round in 0..4u64 {
                enqueue_window(&fleet, round);
                all.push(fleet.run_round_uniform(round_now(round), 0).unwrap());
            }
            all
        };
        let plan = FaultPlan {
            seed,
            plan_error: if panic_flavor { 0.0 } else { 0.7 },
            plan_panic: if panic_flavor { 0.7 } else { 0.0 },
            arrival_nan: 0.5,
            clock_skew: 0.3,
            clock_skew_secs: -35.0,
            target_tenant: Some(victim as u64),
            ..FaultPlan::default()
        };
        let clean = run(None, 1);
        for workers in [1usize, 3, 8] {
            let chaotic = run(Some(plan), workers);
            for (round, (clean_round, chaotic_round)) in
                clean.iter().zip(chaotic.iter()).enumerate()
            {
                for tenant in 0..tenants {
                    if tenant == victim {
                        continue;
                    }
                    prop_assert_eq!(
                        &clean_round[tenant],
                        &chaotic_round[tenant],
                        "round {} tenant {} workers {}",
                        round,
                        tenant,
                        workers
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever write-side I/O faults a checkpoint attempt hits — torn
    /// shard writes, failed manifest copies and renames — the
    /// directory always restores afterwards, to the state of *some*
    /// successfully completed checkpoint.
    #[test]
    fn checkpoint_directory_survives_any_injected_crash_point(
        seed in 0u64..10_000,
        io_p in 0.1f64..0.9,
    ) {
        let config = chaos_config();
        let dir = scratch("ckpt");
        let mut fleet = TenantFleet::new(&config, 0.0, 4).unwrap();
        for index in 0..4 {
            let gap = 4.0 + index as f64;
            for k in 0..(400.0 / gap) as usize {
                assert!(fleet.enqueue(index, k as f64 * gap).unwrap());
            }
        }
        fleet.run_round_uniform(400.0, 0).unwrap();
        // Generation 1 lands cleanly; every later generation fights the
        // injected I/O fault schedule.
        fleet.checkpoint_sharded(&dir, 2).unwrap();
        let mut good_states = vec![fleet.aggregate_stats()];
        fleet.set_checkpoint_storage(Arc::new(FaultyStorage::new(FaultPlan {
            seed,
            checkpoint_io: io_p,
            ..FaultPlan::default()
        })));
        for round in 1..4u64 {
            let now = round_now(round);
            assert!(fleet.enqueue(0, now - 1.0).unwrap());
            fleet.run_round_uniform(now, 0).unwrap();
            if fleet.checkpoint_sharded(&dir, 2).is_ok() {
                good_states.push(fleet.aggregate_stats());
            }
            let restored = TenantFleet::restore(&dir, &config);
            prop_assert!(
                restored.is_ok(),
                "unrestorable after injected crash point (round {}): {:?}",
                round,
                restored.err()
            );
            let restored_stats = restored.unwrap().aggregate_stats();
            prop_assert!(
                good_states.contains(&restored_stats),
                "restored to a state no successful checkpoint captured"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The determinism contract under chaos: the same base seed, fault plan
/// and supervision policy reproduce bit-identical supervised rounds —
/// every plan, every degraded fallback, every quarantine entry, probe
/// and recovery — plus identical serving and supervision counters.
#[test]
fn chaos_runs_are_bit_deterministic() {
    silence_injected_panics();
    let config = chaos_config();
    let plan = FaultPlan {
        seed: 77,
        plan_error: 0.4,
        plan_panic: 0.2,
        arrival_nan: 0.3,
        clock_skew: 0.2,
        clock_skew_secs: -45.0,
        ..FaultPlan::default()
    };
    let supervisor = SupervisorConfig {
        quarantine_after: 1,
        probe_backoff: 1,
        max_backoff: 4,
    };
    let run = || {
        let mut fleet = TenantFleet::new(&config, 0.0, 4).unwrap();
        fleet.attach_bus(small_bus()).unwrap();
        fleet.set_supervisor(supervisor);
        fleet.set_faults(plan);
        let mut rounds = Vec::new();
        for round in 0..8u64 {
            enqueue_window(&fleet, round);
            rounds.push(
                fleet
                    .run_round_supervised(round_now(round), &[0; 4])
                    .unwrap(),
            );
        }
        (rounds, fleet.supervision_stats(), fleet.aggregate_stats())
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed + fault plan diverged");
    // The schedule actually did something: at least one failure and one
    // recovery action happened over the 8 rounds.
    assert!(
        first.1.failures > 0,
        "fault plan never fired: {:?}",
        first.1
    );
}

/// A recorded chaos session — injected planning errors and arrival
/// corruption, plus a mid-session crash whose checkpoint is written
/// through faulty storage — restores, continues recording the *same*
/// trace, and replays bit-for-bit (strict) and within QoS bands
/// (lenient).
#[test]
fn recorded_chaos_session_survives_crash_restore_and_replays() {
    let config = chaos_config();
    let ckpt_dir = scratch("replay-ckpt");
    let trace_dir = scratch("replay-trace");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("chaos.jsonl");

    let plan = FaultPlan {
        seed: 5,
        plan_error: 0.5,
        arrival_nan: 0.4,
        clock_skew: 0.25,
        clock_skew_secs: 30.0,
        ..FaultPlan::default()
    };
    let supervisor = SupervisorConfig {
        quarantine_after: 1,
        probe_backoff: 1,
        max_backoff: 2,
    };
    let mut fleet = TenantFleet::new(&config, 0.0, 3).unwrap();
    fleet.attach_bus(small_bus()).unwrap();
    fleet.set_supervisor(supervisor);
    fleet.set_faults(plan);
    let header = fleet.trace_header();
    fleet
        .start_recording(TraceRecorder::to_file(&trace_path, &header).unwrap())
        .unwrap();
    for round in 0..3u64 {
        enqueue_window(&fleet, round);
        fleet.run_round_uniform(round_now(round), 0).unwrap();
    }

    // Mid-session crash: the checkpoint is written through faulty
    // storage (exercising write retries); if the whole attempt still
    // fails, the caller's self-healing move is to write again on clean
    // storage — the directory is never left
    // unrestorable either way.
    fleet.set_checkpoint_storage(Arc::new(FaultyStorage::new(FaultPlan {
        seed: 6,
        checkpoint_io: 0.3,
        ..FaultPlan::default()
    })));
    if fleet.checkpoint_sharded(&ckpt_dir, 2).is_err() {
        fleet.set_checkpoint_storage(Arc::new(OsStorage));
        fleet.checkpoint_sharded(&ckpt_dir, 2).unwrap();
    }
    let recorder = fleet.take_recorder().unwrap().unwrap();
    let stats_at_crash = fleet.aggregate_stats();
    drop(fleet);

    // The successor process: restore from disk (the manifest re-arms the
    // policy and fault plan), re-attach the recorder and keep serving.
    let mut restored = TenantFleet::restore(&ckpt_dir, &config).unwrap();
    assert_eq!(restored.round(), 3, "restored mid-session round counter");
    assert_eq!(restored.aggregate_stats(), stats_at_crash);
    assert_eq!(restored.supervisor(), supervisor);
    assert_eq!(restored.fault_plan(), Some(plan));
    restored.start_recording(recorder).unwrap();
    for round in 3..6u64 {
        enqueue_window(&restored, round);
        restored.run_round_uniform(round_now(round), 0).unwrap();
    }
    let summary = restored.finish_recording().unwrap().unwrap();
    assert_eq!(summary.rounds, 6);

    // The spliced trace replays as one continuous session: strictly
    // (bit-identical plans, errors, refits and counters across the
    // crash) and leniently within trivially-satisfied QoS bands.
    let strict = replay_path(&trace_path, ReplayMode::Strict, &PolicyBands::default()).unwrap();
    assert!(
        strict.passed(),
        "strict divergence: {:?}",
        strict.divergences
    );
    assert_eq!(strict.rounds, 6);
    let lenient = replay_path(
        &trace_path,
        ReplayMode::Lenient,
        &PolicyBands {
            min_hit_rate: None,
            max_rt_avg: None,
            max_relative_cost: None,
        },
    )
    .unwrap();
    assert!(
        lenient.passed(),
        "lenient violations: {:?}",
        lenient.band_violations
    );

    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// A 3-tenant bus-fed fleet built the way `fleet_demo` builds it: every
/// tenant `warm` accepts gets a model installed up front, so it plans at
/// once although its ring is too short to refit. Supervision quarantines
/// after one failure and probes with backoff 1, 2, 4, … rounds.
fn probed_fleet(warm: impl Fn(usize) -> bool) -> TenantFleet {
    let mut fleet = TenantFleet::new(&chaos_config(), 0.0, 3).unwrap();
    fleet.attach_bus(small_bus()).unwrap();
    for index in (0..fleet.len()).filter(|&index| warm(index)) {
        let rate = 1.0 / (4.0 + index as f64);
        let model = NhppModel::from_log_rates(0.0, 10.0, vec![rate.ln(); 40], Some(40)).unwrap();
        fleet
            .tenant_mut(index)
            .unwrap()
            .scaler
            .install_model(model, 0.0)
            .unwrap();
    }
    fleet.set_supervisor(SupervisorConfig {
        quarantine_after: 1,
        probe_backoff: 1,
        max_backoff: 8,
    });
    fleet
}

/// Run round `round` of a [`probed_fleet`]: tenant `i` sees one arrival
/// every `4 + i` seconds over `[20 round, 20 (round + 1))`, so the ring
/// holds 2 (round + 1) complete 10 s buckets — fewer than the 10 a refit
/// needs until round 4. Every queue must be empty afterwards.
fn run_probed_round(fleet: &mut TenantFleet, round: u64) -> FleetRound {
    let (lo, hi) = (20.0 * round as f64, 20.0 * (round + 1) as f64);
    for index in 0..fleet.len() {
        let gap = 4.0 + index as f64;
        let first = (lo / gap).ceil() as usize;
        for t in (first..).map(|k| k as f64 * gap).take_while(|t| *t < hi) {
            assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
        }
    }
    let outcome = fleet.run_round_supervised(hi, &[0; 3]).unwrap();
    let bus = fleet.bus().unwrap();
    for index in 0..fleet.len() {
        assert_eq!(
            bus.queued(index).unwrap(),
            0,
            "round {round} tenant {index}"
        );
    }
    outcome
}

/// A failed probe still drains its tenant's queue. The victim has no model
/// and fails its first round on an injected planning error, so it is
/// quarantined at once; every probe after that fails its forced refit on
/// the short ring before reaching the fault, so the fault fires on round 0
/// only. Each failed probe must drain the bus like every other round, and
/// the recorded session must replay strictly.
#[test]
fn failed_probe_still_drains_its_queue_and_replays() {
    let trace_dir = scratch("failed-probe");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("probe.jsonl");

    let mut fleet = probed_fleet(|index| index != 0);
    fleet.set_faults(FaultPlan {
        seed: 3,
        plan_error: 1.0,
        target_tenant: Some(0),
        ..FaultPlan::default()
    });
    let header = fleet.trace_header();
    fleet
        .start_recording(TraceRecorder::to_file(&trace_path, &header).unwrap())
        .unwrap();

    // Probes run at rounds 1 and 3 (backoff 1, then 2).
    let mut injected = 0;
    for round in 0..7u64 {
        let outcome = run_probed_round(&mut fleet, round);
        let victim = &outcome.outcomes[0];
        injected += matches!(victim.error, Some(OnlineError::Injected { .. })) as usize;
        if round == 1 || round == 3 {
            assert_eq!(victim.health, TenantHealth::Probing, "round {round}");
        }
        for neighbour in &outcome.outcomes[1..] {
            assert!(neighbour.error.is_none(), "round {round}: {neighbour:?}");
        }
    }
    assert_eq!(injected, 1, "the fault fires on round 0 only");
    let stats = fleet.supervision_stats();
    assert_eq!((stats.probes, stats.recoveries), (2, 0), "{stats:?}");
    fleet.finish_recording().unwrap().unwrap();

    let strict = replay_path(&trace_path, ReplayMode::Strict, &PolicyBands::default()).unwrap();
    assert!(
        strict.passed(),
        "strict divergence: {:?}",
        strict.divergences
    );
    assert_eq!(strict.rounds, 7);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// A warm-started tenant recovers on its first probe. Its ring is too short
/// to refit, so the probe skips the forced refit and plans from the
/// installed model. The fault schedule errors the victim on round 0 only:
/// the first seed whose schedule does so is taken, so the scenario does not
/// hang on one hash value. The recorded session must replay strictly.
#[test]
fn quarantined_warm_tenant_recovers_from_its_installed_model() {
    let rounds = 6u64;
    let faults = (0..)
        .map(|seed| FaultPlan {
            seed,
            plan_error: 0.5,
            target_tenant: Some(0),
            ..FaultPlan::default()
        })
        .find(|plan| {
            let injector = FaultInjector::new(*plan);
            (0..rounds).all(|round| injector.plan_fault(round, 0).is_some() == (round == 0))
        })
        .unwrap();
    let trace_dir = scratch("warm-probe");
    std::fs::create_dir_all(&trace_dir).unwrap();
    let trace_path = trace_dir.join("probe.jsonl");

    let mut fleet = probed_fleet(|_| true);
    fleet.set_faults(faults);
    let header = fleet.trace_header();
    fleet
        .start_recording(TraceRecorder::to_file(&trace_path, &header).unwrap())
        .unwrap();

    for round in 0..rounds {
        let outcome = run_probed_round(&mut fleet, round);
        let victim = &outcome.outcomes[0];
        match round {
            0 => assert!(
                matches!(victim.error, Some(OnlineError::Injected { .. })),
                "{victim:?}"
            ),
            1 => assert_eq!(victim.health, TenantHealth::Recovered, "{victim:?}"),
            _ => assert_eq!(victim.health, TenantHealth::Healthy, "round {round}"),
        }
        if round > 0 {
            assert!(victim.error.is_none() && !victim.sticky, "round {round}");
        }
        for neighbour in &outcome.outcomes[1..] {
            assert!(neighbour.error.is_none(), "round {round}: {neighbour:?}");
        }
    }
    let stats = fleet.supervision_stats();
    assert_eq!((stats.probes, stats.recoveries), (1, 1), "{stats:?}");
    assert_eq!(stats.quarantined_now, 0, "{stats:?}");
    fleet.finish_recording().unwrap().unwrap();

    let strict = replay_path(&trace_path, ReplayMode::Strict, &PolicyBands::default()).unwrap();
    assert!(
        strict.passed(),
        "strict divergence: {:?}",
        strict.divergences
    );
    assert_eq!(strict.rounds, rounds);
    let _ = std::fs::remove_dir_all(&trace_dir);
}

// ---------------------------------------------------------------------------
// Hibernating-tier chaos: faults at the residency seams
// ---------------------------------------------------------------------------

fn residency_config() -> robustscaler::online::ResidencyConfig {
    robustscaler::online::ResidencyConfig {
        cold_after: 2,
        idle_epsilon: 1e-9,
        start_cold: true,
    }
}

/// Enqueue one planning window (round 0 carries the training prefix)
/// for tenants `0..active` only; the rest stay dark.
fn enqueue_active(fleet: &TenantFleet, round: u64, active: usize) {
    let (lo, hi) = if round == 0 {
        (0.0, 400.0)
    } else {
        (round_now(round - 1), round_now(round))
    };
    for index in 0..active {
        let gap = 4.0 + index as f64;
        let first = (lo / gap).ceil() as usize;
        for t in (first..).map(|k| k as f64 * gap).take_while(|t| *t < hi) {
            assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
        }
    }
}

/// Drive a residency fleet: steady traffic to tenants `0..3`, the dark
/// tenant 4 poked awake at rounds 2 and 6 (hibernating again in
/// between), collecting every round's per-tenant results.
fn drive_residency(
    fleet: &mut TenantFleet,
    rounds: u64,
) -> Vec<Vec<Result<robustscaler::scaling::PlanningRound, robustscaler::online::OnlineError>>> {
    let mut all = Vec::new();
    for round in 0..rounds {
        if round == 2 || round == 6 {
            assert!(fleet.tenant_mut(4).is_some());
        }
        enqueue_active(fleet, round, 3);
        all.push(fleet.run_round_uniform(round_now(round), 0).unwrap());
    }
    all
}

/// A tenant faulted *while it wakes* stays isolated: every healthy
/// neighbor's plans are bit-identical to a fault-free run, and the
/// failing tenant never hibernates (only healthy-idle tenants go cold).
#[test]
fn faulty_wake_never_perturbs_healthy_neighbors() {
    let config = chaos_config();
    let build = || {
        let mut fleet = TenantFleet::new(&config, 0.0, 5).unwrap();
        fleet.enable_residency(residency_config()).unwrap();
        fleet.attach_bus(small_bus()).unwrap();
        fleet
    };

    let clean_rounds = {
        let mut clean = build();
        drive_residency(&mut clean, 9)
    };

    let mut faulted = build();
    faulted.set_faults(FaultPlan {
        seed: 4242,
        plan_error: 0.7,
        target_tenant: Some(4),
        ..FaultPlan::default()
    });
    let faulted_rounds = drive_residency(&mut faulted, 9);

    let mut injected = 0;
    for (round, (clean_row, faulted_row)) in clean_rounds.iter().zip(&faulted_rounds).enumerate() {
        for tenant in 0..4 {
            assert_eq!(
                clean_row[tenant], faulted_row[tenant],
                "healthy tenant {tenant} perturbed at round {round}"
            );
        }
        if matches!(
            faulted_row[4],
            Err(robustscaler::online::OnlineError::Injected { .. })
        ) {
            injected += 1;
        }
    }
    assert!(injected > 0, "fault plan never fired on the waking tenant");
    // A failing tenant is never healthy-idle, so it must not hibernate
    // while faulted; hibernation bookkeeping differs only on tenant 4.
    let stats = faulted.residency_stats();
    assert_eq!(
        stats.paged + stats.hot + stats.cold,
        5,
        "residency accounting out of sync: {stats:?}"
    );
}

/// Page-out I/O failure is contained: the tenant stays resident (cold
/// but safe), the failure is counted, planning results stay
/// bit-identical to a fleet that never pages, and the sweep retries
/// until the storage heals.
#[test]
fn page_out_io_failure_keeps_tenant_resident_and_bit_identical() {
    let config = chaos_config();
    let reference_rounds = {
        let mut fleet = TenantFleet::new(&config, 0.0, 5).unwrap();
        fleet.enable_residency(residency_config()).unwrap();
        fleet.attach_bus(small_bus()).unwrap();
        drive_residency(&mut fleet, 9)
    };

    // Every page write fails: hibernation proceeds (the tenant goes
    // cold and is skipped), but nothing ever reaches disk.
    let dir = scratch("pageout-fault");
    let mut fleet = TenantFleet::new_cold(&config, 0.0, 5, 23, residency_config()).unwrap();
    fleet.attach_bus(small_bus()).unwrap();
    fleet.set_checkpoint_storage(Arc::new(FaultyStorage::new(FaultPlan {
        seed: 5,
        checkpoint_io: 1.0,
        ..FaultPlan::default()
    })));
    fleet.set_hibernation_dir(&dir).unwrap();
    let faulted_rounds = drive_residency(&mut fleet, 9);
    assert_eq!(reference_rounds, faulted_rounds);
    let stats = fleet.residency_stats();
    assert_eq!(stats.page_outs, 0, "{stats:?}");
    assert!(stats.page_out_failures > 0, "{stats:?}");
    assert!(stats.hibernated_total > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // Flaky storage: failed page-outs are retried by the sweep and
    // eventually land, still bit-identically. Their write retries count
    // in the fleet's checkpoint I/O stats, and the pages that landed
    // load back.
    let dir = scratch("pageout-flaky");
    let mut fleet = TenantFleet::new_cold(&config, 0.0, 5, 23, residency_config()).unwrap();
    fleet.attach_bus(small_bus()).unwrap();
    fleet.set_checkpoint_storage(Arc::new(FaultyStorage::new(FaultPlan {
        seed: 11,
        checkpoint_io: 0.35,
        ..FaultPlan::default()
    })));
    fleet.set_hibernation_dir(&dir).unwrap();
    let flaky_rounds = drive_residency(&mut fleet, 9);
    assert_eq!(reference_rounds, flaky_rounds);
    let stats = fleet.residency_stats();
    assert!(stats.page_outs > 0, "nothing ever paged out: {stats:?}");
    let io = fleet.checkpoint_io_stats();
    assert!(io.retries > 0, "no page write retried: {io:?}");
    assert!(stats.paged > 0, "no page left to load: {stats:?}");
    fleet.wake_all().unwrap();
    let stats = fleet.residency_stats();
    assert_eq!((stats.paged, stats.page_in_failures), (0, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash + restore with mixed residency under an active fault plan:
/// the restore re-arms the supervisor and the fault schedule from the
/// manifest, `restore_with` re-attaches the page store, and the restored
/// fleet continues bit-identically to the fleet that never crashed.
#[test]
fn crash_restore_with_mixed_residency_and_faults_is_bit_identical() {
    let config = chaos_config();
    let pages = scratch("mixed-fault-pages");
    let ckpt = scratch("mixed-fault-ckpt");
    let supervisor = SupervisorConfig {
        quarantine_after: 3,
        probe_backoff: 1,
        max_backoff: 4,
    };
    let faults = FaultPlan {
        seed: 2024,
        plan_error: 0.3,
        target_tenant: Some(1),
        ..FaultPlan::default()
    };

    let mut live = TenantFleet::new_cold(&config, 0.0, 5, 41, residency_config()).unwrap();
    live.attach_bus(small_bus()).unwrap();
    live.set_hibernation_dir(&pages).unwrap();
    live.set_supervisor(supervisor);
    live.set_faults(faults);
    drive_residency(&mut live, 7);
    live.checkpoint_sharded(&ckpt, 2).unwrap();

    let continue_run = |fleet: &mut TenantFleet| {
        let mut rounds = Vec::new();
        for round in 7..10u64 {
            enqueue_active(fleet, round, 3);
            rounds.push(fleet.run_round_uniform(round_now(round), 0).unwrap());
        }
        (rounds, fleet.supervision_stats())
    };
    let live_result = continue_run(&mut live);

    for workers in [1usize, 3, 8] {
        let (mut restored, _) = TenantFleet::restore_with(
            &ckpt,
            &config,
            robustscaler::online::RestoreOptions {
                hibernation_dir: Some(pages.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(restored.supervisor(), supervisor);
        assert_eq!(restored.fault_plan(), Some(faults));
        restored.set_workers(workers);
        let restored_result = continue_run(&mut restored);
        assert_eq!(
            live_result, restored_result,
            "restored chaos fleet diverged at {workers} workers"
        );
    }

    let _ = std::fs::remove_dir_all(&pages);
    let _ = std::fs::remove_dir_all(&ckpt);
}
