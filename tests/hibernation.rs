//! Hibernating tenant store: the residency tier's equivalence and
//! memory-bounding contracts.
//!
//! The pinned contract is **transparency**: a fleet with paging enabled
//! (cold tenants leave memory, woken tenants page back in) produces
//! bit-identical round results, residency transitions and aggregate
//! stats to the same fleet with paging disabled (cold tenants merely
//! skipped in place), for any worker count. On top of that this suite
//! pins:
//!
//! - **memory bounding** — a `new_cold` fleet registers tenants without
//!   materializing scalers; only tenants that see traffic (or direct
//!   access) ever become resident;
//! - **round-trip paging** — access-woken virgin tenants that stay
//!   quiet re-hibernate through the page store and wake again from
//!   disk, bit-identically;
//! - **recording** — a cold-started session records residency
//!   transitions in its trace and replays strictly;
//! - **restore wiring** — `restore` re-arms the supervisor and fault
//!   plan from the manifest; `restore_with` also
//!   re-attaches the page store;
//! - **dormant skips** — a round skips tenants at the dormant fixed point
//!   without touching them; arrivals, passed wake times, direct access,
//!   a late page store, clones and restores all bring them back exactly
//!   when a full visit would.

use proptest::prelude::*;
use robustscaler::core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler::nhpp::NhppModel;
use robustscaler::online::{
    replay_path, BusConfig, FaultPlan, FleetRound, OnlineConfig, PolicyBands, ReplayMode,
    ResidencyConfig, ResidencyEvent, RestoreOptions, SupervisorConfig, TenantFleet, TraceRecorder,
    WakeReason,
};
use std::path::PathBuf;

fn online_config() -> OnlineConfig {
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

fn residency_config() -> ResidencyConfig {
    ResidencyConfig {
        cold_after: 2,
        idle_epsilon: 1e-9,
        start_cold: true,
    }
}

fn bus_config() -> BusConfig {
    BusConfig {
        capacity_per_tenant: 4_096,
        tenants_per_group: 2,
    }
}

/// A fresh scratch directory under the (possibly CI-isolated) TMPDIR.
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "robustscaler-hibernation-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const TENANTS: usize = 6;
/// Tenants that receive bus traffic; the rest stay dark.
const ACTIVE: [usize; 3] = [0, 1, 2];
/// The dark tenant the script wakes by direct access.
const POKED: usize = 4;

fn round_now(round: u64) -> f64 {
    400.0 + 20.0 * round as f64
}

/// Enqueue one planning window of arrivals for every active tenant
/// (round 0 also carries the 0..400s training prefix).
fn enqueue_window(fleet: &TenantFleet, round: u64) {
    let (lo, hi) = if round == 0 {
        (0.0, 400.0)
    } else {
        (round_now(round - 1), round_now(round))
    };
    for &index in &ACTIVE {
        let gap = 4.0 + index as f64;
        let first = (lo / gap).ceil() as usize;
        for t in (first..).map(|k| k as f64 * gap).take_while(|t| *t < hi) {
            assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
        }
    }
}

/// The scripted session both fleets run: active tenants get steady bus
/// traffic; the dark tenant `POKED` is touched directly at rounds 3 and
/// 8 — waking it virgin, letting it re-hibernate (and, with paging on,
/// leave memory), then waking it again from its page.
type RoundResults =
    Vec<Vec<Result<robustscaler::scaling::PlanningRound, robustscaler::online::OnlineError>>>;
type ResidencyLog = Vec<(u64, robustscaler::online::ResidencyEvent)>;

fn drive(fleet: &mut TenantFleet, rounds: u64) -> (RoundResults, ResidencyLog) {
    let mut results = Vec::new();
    let mut events = Vec::new();
    for round in 0..rounds {
        if round == 3 || round == 8 {
            assert!(
                fleet.tenant_mut(POKED).is_some(),
                "direct access must wake tenant {POKED}"
            );
        }
        enqueue_window(fleet, round);
        results.push(fleet.run_round_uniform(round_now(round), 0).unwrap());
        events.extend(fleet.take_residency_events());
    }
    (results, events)
}

/// Build the paging fleet: cold registration plus an on-disk page store.
fn paging_fleet(seed: u64, dir: &PathBuf) -> TenantFleet {
    let config = online_config();
    let mut fleet = TenantFleet::new_cold(&config, 0.0, TENANTS, seed, residency_config()).unwrap();
    fleet.attach_bus(bus_config()).unwrap();
    fleet.set_hibernation_dir(dir).unwrap();
    fleet
}

/// Build the reference fleet: everything resident, same residency
/// policy, no page store.
fn reference_fleet() -> TenantFleet {
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, TENANTS).unwrap();
    fleet.enable_residency(residency_config()).unwrap();
    fleet.attach_bus(bus_config()).unwrap();
    fleet
}

/// The tentpole contract, deterministically: paging on ≡ paging off,
/// and the paging fleet demonstrably pages (out to disk and back in).
#[test]
fn paging_fleet_matches_resident_fleet_bit_for_bit() {
    let dir = scratch("equivalence");
    let mut paged = paging_fleet(7, &dir);
    let mut resident = reference_fleet();

    let (paged_rounds, paged_events) = drive(&mut paged, 11);
    let (resident_rounds, resident_events) = drive(&mut resident, 11);

    assert_eq!(paged_rounds, resident_rounds);
    assert_eq!(paged_events, resident_events);
    assert_eq!(paged.aggregate_stats(), resident.aggregate_stats());

    let stats = paged.residency_stats();
    // The poked tenant hibernated after its first wake and was paged to
    // disk; its second wake read the page back.
    assert!(stats.hibernated_total >= 1, "no hibernation: {stats:?}");
    assert!(stats.page_outs >= 1, "nothing paged out: {stats:?}");
    assert!(stats.page_ins >= 1, "nothing paged in: {stats:?}");
    assert_eq!(stats.page_out_failures + stats.page_in_failures, 0);
    // Wake/hibernate bookkeeping is paging-independent.
    let reference = resident.residency_stats();
    assert_eq!(stats.hibernated_total, reference.hibernated_total);
    assert_eq!(stats.woken_total, reference.woken_total);
    assert_eq!(stats.hot, reference.hot);
    // Dark tenants never materialized in the paging fleet.
    assert!(stats.paged >= TENANTS - ACTIVE.len() - 1, "{stats:?}");
    for round in &paged_rounds {
        for &index in &[3usize, 5] {
            assert!(
                matches!(
                    round[index],
                    Err(robustscaler::online::OnlineError::Hibernated { .. })
                ),
                "dark tenant {index} should stay hibernated"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Acceptance criterion: hibernate → page-out → wake is
    /// bit-equivalent to never leaving memory, for 1, 3 and 8 workers,
    /// across seeds.
    #[test]
    fn paging_is_transparent_for_any_worker_count(seed in 0u64..1_000) {
        let reference = {
            let mut fleet = reference_fleet();
            fleet.set_workers(1);
            drive(&mut fleet, 10)
        };
        for workers in [1usize, 3, 8] {
            let dir = scratch("workers");
            let mut fleet = paging_fleet(seed, &dir);
            fleet.set_workers(workers);
            let got = drive(&mut fleet, 10);
            prop_assert_eq!(
                &got.0, &reference.0,
                "paging fleet diverged at {} workers", workers
            );
            prop_assert_eq!(
                &got.1, &reference.1,
                "residency transitions diverged at {} workers", workers
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// When each event of [`drive_dormancy`]'s script fires (round numbers).
#[derive(Debug, Clone, Copy)]
struct DormancyScript {
    /// `BURST` gets arrivals pushed while it is dormant.
    burst: u64,
    /// `POKED` is touched directly, twice.
    pokes: (u64, u64),
    /// `QUIET` gets a near-silent model whose refit deadline is a finite
    /// wake time a few rounds later.
    quiet: u64,
    /// The fleet under test attaches its page store (never before the
    /// poked tenant has settled cold and resident).
    attach: u64,
    /// The fleet under test is replaced by its clone.
    clone: u64,
    /// The fleet under test is checkpointed and replaced by its restore.
    restore: u64,
}

const DORMANCY_ROUNDS: u64 = 18;
const BURST: usize = 5;
const QUIET: usize = 6;

/// What [`drive_dormancy`] compares: per-round supervised reports and
/// residency events, then the final serving, supervision and queue
/// counters and tier occupancy.
type DormancyLog = (Vec<FleetRound>, ResidencyLog, String, (usize, usize));

/// Run the dormancy script. `under_test` holds the fleet's page
/// directory, checkpoint directory and worker count: that fleet starts
/// without a page store, attaches one mid-run and is cloned and restored;
/// `None` runs the always-resident reference unchanged.
fn drive_dormancy(
    fleet: &mut TenantFleet,
    script: DormancyScript,
    under_test: Option<(&PathBuf, &PathBuf, usize)>,
) -> DormancyLog {
    let mut rounds = Vec::new();
    let mut events = Vec::new();
    for round in 0..DORMANCY_ROUNDS {
        if let Some((pages, checkpoint, workers)) = under_test {
            if round == script.attach {
                fleet.set_hibernation_dir(pages).unwrap();
            }
            if round == script.clone {
                *fleet = fleet.clone();
            }
            if round == script.restore {
                fleet.checkpoint(checkpoint).unwrap();
                let options = RestoreOptions {
                    hibernation_dir: fleet.hibernation_dir().map(PathBuf::from),
                    ..RestoreOptions::default()
                };
                *fleet = TenantFleet::restore_with(checkpoint, &online_config(), options)
                    .unwrap()
                    .0;
                fleet.set_workers(workers);
            }
        }
        if round == script.pokes.0 || round == script.pokes.1 {
            assert!(fleet.tenant_mut(POKED).is_some());
        }
        if round == script.quiet {
            // Silent everywhere the forecast looks; the refit deadline,
            // five rounds out, is the wake time.
            let now = round_now(round);
            let model = NhppModel::from_log_rates(0.0, 10.0, vec![-60.0; 256], None).unwrap();
            let scaler = &mut fleet.tenant_mut(QUIET).unwrap().scaler;
            let refit_interval = scaler.config().refit_interval;
            scaler
                .install_model(model, now + 100.0 - refit_interval)
                .unwrap();
        }
        enqueue_window(fleet, round);
        if round == script.burst {
            let now = round_now(round);
            fleet.enqueue(BURST, now - 15.0).unwrap();
            fleet.enqueue(BURST, now - 5.0).unwrap();
        }
        rounds.push(
            fleet
                .run_round_supervised(round_now(round), &[0; 8])
                .unwrap(),
        );
        events.extend(fleet.take_residency_events());
        if under_test.is_some() && round >= script.attach {
            // With a store attached, every cold tenant leaves memory in the
            // round it goes (or is found) cold.
            let stats = fleet.residency_stats();
            assert_eq!(stats.paged, stats.cold, "round {round}: {stats:?}");
        }
    }
    let stats = fleet.residency_stats();
    let counters = format!(
        "{:?} {:?} {:?}",
        fleet.aggregate_stats(),
        fleet.supervision_stats(),
        fleet.queue_stats()
    );
    (rounds, events, counters, (stats.hot, stats.cold))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Skipping dormant tenants is invisible: a fleet driven through
    /// arrivals while dormant, a passed wake time, direct access, a page
    /// store attached after cold residents settled, a clone and a
    /// checkpoint/restore reports exactly what an always-resident fleet
    /// does, at 1, 2 and 3 workers.
    #[test]
    fn dormant_skips_match_an_always_resident_fleet(
        burst in 4u64..12,
        first_poke in 1u64..4,
        second_poke in 7u64..11,
        quiet in 2u64..6,
        attach in 7u64..10,
        clone in 2u64..16,
        restore in 2u64..16,
    ) {
        let script = DormancyScript {
            burst,
            pokes: (first_poke, second_poke),
            quiet,
            attach,
            clone,
            restore,
        };
        let reference = {
            let mut fleet = TenantFleet::new(&online_config(), 0.0, 8).unwrap();
            fleet.enable_residency(residency_config()).unwrap();
            fleet.attach_bus(bus_config()).unwrap();
            fleet.set_workers(1);
            drive_dormancy(&mut fleet, script, None)
        };
        // The script reaches what it means to: an arrival wake of the
        // dormant burst tenant and a due wake of the quiet one.
        let wakes = |reason| {
            reference
                .1
                .iter()
                .filter(|(_, e)| *e == ResidencyEvent::Wake { reason })
                .map(|&(id, _)| id as usize)
                .collect::<Vec<_>>()
        };
        prop_assert!(wakes(WakeReason::Arrival).contains(&BURST), "{:?}", reference.1);
        prop_assert!(wakes(WakeReason::Due).contains(&QUIET), "{:?}", reference.1);
        for workers in [1usize, 2, 3] {
            let pages = scratch("dormant-pages");
            let checkpoint = scratch("dormant-checkpoint");
            let mut fleet =
                TenantFleet::new_cold(&online_config(), 0.0, 8, 0, residency_config()).unwrap();
            fleet.attach_bus(bus_config()).unwrap();
            fleet.set_workers(workers);
            let got = drive_dormancy(&mut fleet, script, Some((&pages, &checkpoint, workers)));
            prop_assert_eq!(&got.0, &reference.0, "rounds diverged at {} workers", workers);
            prop_assert_eq!(&got.1, &reference.1, "events diverged at {} workers", workers);
            prop_assert_eq!(&got.2, &reference.2, "counters diverged at {} workers", workers);
            prop_assert_eq!(got.3, reference.3, "occupancy diverged at {} workers", workers);
            let _ = std::fs::remove_dir_all(&pages);
            let _ = std::fs::remove_dir_all(&checkpoint);
        }
    }
}

/// Memory bounding: a large cold registration materializes only the
/// tenants that see traffic; everyone else stays paged and reports
/// [`Hibernated`](robustscaler::online::OnlineError::Hibernated).
#[test]
fn cold_registration_materializes_only_active_tenants() {
    let config = online_config();
    let registered = 5_000;
    let active = 8;
    let mut fleet =
        TenantFleet::new_cold(&config, 0.0, registered, 21, residency_config()).unwrap();
    fleet.attach_bus(bus_config()).unwrap();

    for round in 0..3u64 {
        for index in 0..active {
            let gap = 4.0 + index as f64;
            let (lo, hi) = if round == 0 {
                (0.0, 400.0)
            } else {
                (round_now(round - 1), round_now(round))
            };
            let first = (lo / gap).ceil() as usize;
            for t in (first..).map(|k| k as f64 * gap).take_while(|t| *t < hi) {
                assert!(fleet.enqueue(index, t).unwrap());
            }
        }
        let results = fleet.run_round_uniform(round_now(round), 0).unwrap();
        assert_eq!(results.len(), registered);
        for (index, result) in results.iter().enumerate().skip(active) {
            assert!(
                matches!(
                    result,
                    Err(robustscaler::online::OnlineError::Hibernated { .. })
                ),
                "tenant {index} should be dormant, got {result:?}"
            );
        }
    }

    let stats = fleet.residency_stats();
    assert_eq!(stats.paged, registered - active, "{stats:?}");
    assert_eq!(stats.hot, active, "{stats:?}");
    assert_eq!(stats.woken_total, active as u64, "{stats:?}");
}

/// A cold-started, paging session records its residency transitions
/// and replays strictly, bit-for-bit.
#[test]
fn recorded_hibernating_session_replays_strictly() {
    let dir = scratch("replay-pages");
    let trace = scratch("replay-trace").join("trace.jsonl");
    std::fs::create_dir_all(trace.parent().unwrap()).unwrap();

    let mut fleet = paging_fleet(13, &dir);
    fleet.set_tracing(true);
    let sink = robustscaler::online::FileSink::create(&trace).unwrap();
    let recorder = TraceRecorder::new(Box::new(sink), &fleet.trace_header()).unwrap();
    fleet.start_recording(recorder).unwrap();
    drive(&mut fleet, 11);
    let summary = fleet.finish_recording().unwrap().unwrap();
    assert!(summary.rounds >= 11);

    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.contains("\"residency\""),
        "trace header must declare the residency policy"
    );
    assert!(
        text.contains("Hibernate") && text.contains("Wake"),
        "trace must record hibernate/wake transitions"
    );

    let report = replay_path(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
    assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    assert!(report.rounds >= 11);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(trace.parent().unwrap());
}

/// Checkpointing a fleet with mixed residency (hot, resident-cold,
/// paged virgin, paged on-disk) restores to a bit-identical
/// continuation — and the checkpoint alone suffices: the restored
/// fleet needs no page directory to keep planning.
#[test]
fn mixed_residency_checkpoint_restores_bit_identically() {
    let pages = scratch("mixed-pages");
    let checkpoint = scratch("mixed-checkpoint");
    let mut live = paging_fleet(29, &pages);
    drive(&mut live, 9);
    live.checkpoint_sharded(&checkpoint, 2).unwrap();

    let continue_run = |fleet: &mut TenantFleet| {
        let mut rounds = Vec::new();
        for round in 9..12u64 {
            enqueue_window(fleet, round);
            rounds.push(fleet.run_round_uniform(round_now(round), 0).unwrap());
        }
        rounds
    };
    let live_rounds = continue_run(&mut live);

    for workers in [1usize, 3, 8] {
        let config = online_config();
        let (mut restored, notes) = TenantFleet::restore_with(
            &checkpoint,
            &config,
            RestoreOptions {
                hibernation_dir: Some(pages.clone()),
                ..RestoreOptions::default()
            },
        )
        .unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        restored.set_workers(workers);
        let restored_rounds = continue_run(&mut restored);
        assert_eq!(
            live_rounds, restored_rounds,
            "restored fleet diverged at {workers} workers"
        );
    }

    let _ = std::fs::remove_dir_all(&pages);
    let _ = std::fs::remove_dir_all(&checkpoint);
}

/// The restore-wiring contract: a plain `restore` comes back with the
/// supervisor policy and fault plan the session ran with
/// (the manifest carries them); the page store is a deployment setting
/// and comes from `restore_with`'s options.
#[test]
fn plain_restore_rearms_the_checkpointed_wiring() {
    let pages = scratch("rearm-pages");
    let checkpoint = scratch("rearm-checkpoint");
    let supervisor = SupervisorConfig {
        quarantine_after: 7,
        ..SupervisorConfig::default()
    };
    let faults = FaultPlan {
        seed: 99,
        plan_error: 0.25,
        target_tenant: Some(1),
        ..FaultPlan::default()
    };

    let mut live = paging_fleet(31, &pages);
    live.set_supervisor(supervisor);
    live.set_faults(faults);
    drive(&mut live, 5);
    live.checkpoint_sharded(&checkpoint, 2).unwrap();

    let config = online_config();
    // A plain restore: everything the session ran with comes back.
    let bare = TenantFleet::restore(&checkpoint, &config).unwrap();
    assert_eq!(bare.supervisor(), supervisor);
    assert_eq!(bare.fault_plan(), Some(faults));
    assert_eq!(bare.residency(), live.residency());
    assert_eq!(bare.hibernation_dir(), None);

    // The page store comes from the restore options.
    let (with_pages, _) = TenantFleet::restore_with(
        &checkpoint,
        &config,
        RestoreOptions {
            hibernation_dir: Some(pages.clone()),
            ..RestoreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(with_pages.supervisor(), supervisor);
    assert_eq!(with_pages.fault_plan(), Some(faults));
    assert_eq!(with_pages.hibernation_dir(), Some(pages.as_path()));

    let _ = std::fs::remove_dir_all(&pages);
    let _ = std::fs::remove_dir_all(&checkpoint);
}
