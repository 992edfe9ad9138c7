//! Persistence suite: the durable-state contract of the snapshot/checkpoint
//! layer.
//!
//! The load-bearing property is **kill-and-restore equivalence**: state
//! snapshotted mid-run and restored in a "fresh process" must continue
//! bit-identically to state that never stopped — at the ring level, the
//! scaler level, and the sharded fleet level (for any worker count). On top
//! of that, the on-disk format must fail loudly: a truncated or bit-flipped
//! shard is detected by checksum and reported per shard, never silently
//! zeroing a tenant. Checkpoint fidelity rides on the vendored serde_json
//! emitting full-precision numbers, so the suite also pins bit-exact `f64`
//! and full-range `u64` JSON round-trips.

use proptest::prelude::*;
use robustscaler::core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler::online::{
    BusConfig, CheckpointStorage, CheckpointStore, OnlineConfig, OnlineError, OnlineScaler,
    OsStorage, ResidencyConfig, RestoreOptions, ScalerSnapshot, TenantFleet,
};
use robustscaler::timeseries::{CountRing, RingSnapshot};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fresh per-test temp directory (no tempfile crate in the offline build).
/// Collision-safe across processes (pid) and within one (monotonic counter),
/// so proptest cases and parallel test threads never share a directory.
fn temp_dir(tag: &str) -> PathBuf {
    static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "robustscaler-persistence-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
    config.window_buckets = 128;
    config.min_training_buckets = 10;
    config
}

/// Full-range finite `f64`s, including subnormals, extremes and exact
/// integers — generated from raw bit patterns so the whole representable
/// space is covered, not just "nice" values.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            // NaN/inf bit patterns: recycle the mantissa into a finite value.
            f64::from_bits(bits & 0x000F_FFFF_FFFF_FFFF)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serde_json `to_string` → `from_str` is bit-exact for finite f64
    /// (checkpoint fidelity rides on this).
    #[test]
    fn json_f64_round_trip_is_bit_exact(xs in prop::collection::vec(finite_f64(), 1..50)) {
        let json = serde_json::to_string(&xs).unwrap();
        let back: Vec<f64> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(xs.len(), back.len());
        for (a, b) in xs.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} round-tripped as {}", a, b);
        }
    }

    /// Full-range u64 (RNG states, seeds) survive JSON exactly.
    #[test]
    fn json_u64_round_trip_is_exact(xs in prop::collection::vec(0u64..u64::MAX, 1..50)) {
        let json = serde_json::to_string(&xs).unwrap();
        let back: Vec<u64> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(xs, back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ring level: snapshot → JSON → restore → continue ingesting is
    /// indistinguishable from the ring that never stopped, for arbitrary
    /// arrival sequences and an arbitrary split point.
    #[test]
    fn ring_snapshot_restore_continue_is_bit_identical(
        arrivals in prop::collection::vec(0.0_f64..2_000.0, 10..200),
        split in 0usize..200,
        bucket_width in 1.0_f64..30.0,
        capacity in 4usize..64,
    ) {
        let split = split.min(arrivals.len());
        let mut live = CountRing::new(0.0, bucket_width, capacity).unwrap();
        live.observe_batch(&arrivals[..split]);
        // Simulated process death: state exists only as JSON bytes.
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snapshot: RingSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = snapshot.restore().unwrap();
        prop_assert_eq!(&live, &restored);
        for &t in &arrivals[split..] {
            prop_assert_eq!(live.observe(t), restored.observe(t));
        }
        prop_assert_eq!(&live, &restored);
        prop_assert_eq!(live.observed(), restored.observed());
        prop_assert_eq!(live.dropped(), restored.dropped());
        if !live.is_empty() {
            prop_assert_eq!(live.series().unwrap(), restored.series().unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scaler level: snapshot mid-serving → JSON → restore → continue
    /// (interleaved ingestion and planning) is bit-identical to the scaler
    /// that never stopped — model, RNG stream, drift/refit schedule and
    /// forecast cache all resume exactly.
    #[test]
    fn scaler_snapshot_restore_continue_is_bit_identical(
        seed in 0u64..u64::MAX,
        gap in 2.0_f64..8.0,
        pre_rounds in 0usize..3,
        post_rounds in 1usize..4,
    ) {
        let config = online_config();
        let mut live = OnlineScaler::new(config, 0.0).unwrap();
        let warm: Vec<f64> = (0..(400.0 / gap) as usize).map(|i| i as f64 * gap).collect();
        live.ingest_batch(&warm);
        for i in 0..pre_rounds {
            let _ = live.plan_round(400.0 + 20.0 * i as f64, i);
        }
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snapshot: ScalerSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored = OnlineScaler::restore(snapshot, config).unwrap();
        let resume_at = 400.0 + 20.0 * pre_rounds as f64;
        for i in 0..post_rounds {
            let now = resume_at + 20.0 * i as f64;
            // Keep traffic flowing so drift/refit paths stay exercised.
            let chunk: Vec<f64> = (0..8).map(|k| now - 20.0 + 2.5 * k as f64).collect();
            live.ingest_batch(&chunk);
            restored.ingest_batch(&chunk);
            let a = live.plan_round(now, i);
            let b = restored.plan_round(now, i);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(live.stats(), restored.stats());
    }
}

/// Enqueue per-tenant traffic with distinct rates (tenant `i` gets one
/// arrival every `3 + i` seconds); the next round drains it.
fn enqueue_fleet(fleet: &TenantFleet, duration: f64) {
    for index in 0..fleet.len() {
        let gap = 3.0 + index as f64;
        let n = (duration / gap) as usize;
        for k in 0..n {
            assert!(fleet.enqueue(index, k as f64 * gap).unwrap());
        }
    }
}

/// Acceptance criterion: a `TenantFleet` checkpointed mid-run and restored
/// in a fresh process produces bit-identical `PlanningRound`s to the
/// uninterrupted fleet, for 1, 3 and 8 workers.
#[test]
fn fleet_kill_and_restore_is_bit_identical_for_any_worker_count() {
    let dir = temp_dir("fleet-equivalence");
    let config = online_config();
    let tenant_count = 7;

    // The uninterrupted fleet: enqueue, run three rounds, keep going.
    let mut live = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
    enqueue_fleet(&live, 400.0);
    for round in 0..3 {
        live.run_round_uniform(400.0 + 20.0 * round as f64, round)
            .unwrap();
    }
    // Mid-run checkpoint (3 tenants per shard → 3 shard files).
    let manifest = live.checkpoint_sharded(&dir, 3).unwrap();
    assert_eq!(manifest.tenant_count, tenant_count);
    assert_eq!(manifest.shards.len(), 3);

    // Continue the live fleet: more ingestion, three more rounds.
    let continue_run = |fleet: &mut TenantFleet| {
        for index in 0..fleet.len() {
            for k in 0..20 {
                assert!(fleet.enqueue(index, 460.0 + k as f64 * 2.0).unwrap());
            }
        }
        (0..3)
            .map(|round| {
                fleet
                    .run_round_uniform(460.0 + 20.0 * round as f64, round + 1)
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    let live_rounds = continue_run(&mut live);

    // "Fresh process": restore from disk only, at several worker counts.
    for workers in [1usize, 3, 8] {
        let mut restored = TenantFleet::restore(&dir, &config).unwrap();
        restored.set_workers(workers);
        assert_eq!(restored.len(), tenant_count);
        let restored_rounds = continue_run(&mut restored);
        assert_eq!(
            live_rounds, restored_rounds,
            "restored fleet diverged at {workers} workers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Ingestion-runtime acceptance criterion: a fleet checkpointed
    /// **mid-burst** — arrivals enqueued on the bus but not yet drained —
    /// restores with its queues intact and replays bit-identically to the
    /// fleet that never stopped, for 1, 3 and 8 workers.
    #[test]
    fn restore_with_queued_arrivals_replays_bit_identically(
        burst_len in 1usize..25,
        burst_gap in 0.5_f64..4.0,
        post_rounds in 1usize..4,
    ) {
        let dir = temp_dir("fleet-mid-burst");
        let config = online_config();
        let tenant_count = 5;
        let mut live = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
        live.attach_bus(BusConfig {
            capacity_per_tenant: 2_048,
            tenants_per_group: 2,
        })
        .unwrap();
        // Warm traffic through the bus, one settled round.
        for index in 0..tenant_count {
            let gap = 3.0 + index as f64;
            for k in 0..(400.0 / gap) as usize {
                prop_assert!(live.enqueue(index, k as f64 * gap).unwrap());
            }
        }
        live.run_round_uniform(400.0, 0).unwrap();
        // The burst lands on the bus; the process "dies" before draining.
        for index in 0..tenant_count {
            for k in 0..burst_len {
                prop_assert!(live.enqueue(index, 401.0 + k as f64 * burst_gap).unwrap());
            }
        }
        let manifest = live.checkpoint_sharded(&dir, 2).unwrap();
        prop_assert_eq!(manifest.bus.capacity_per_tenant, 2_048);
        prop_assert_eq!(manifest.tenant_count, tenant_count);

        // Continue the live fleet: the next rounds drain the burst.
        let continue_run = |fleet: &mut TenantFleet| {
            (0..post_rounds)
                .map(|round| {
                    let now = 420.0 + 20.0 * round as f64;
                    for index in 0..fleet.len() {
                        fleet.enqueue(index, now - 10.0 + index as f64).unwrap();
                    }
                    fleet.run_round_uniform(now, round + 1).unwrap()
                })
                .collect::<Vec<_>>()
        };
        let live_rounds = continue_run(&mut live);

        // "Fresh process": restore from disk only, at several worker
        // counts — queues, back-pressure accounting and plans all match.
        for workers in [1usize, 3, 8] {
            let mut restored = TenantFleet::restore(&dir, &config).unwrap();
            restored.set_workers(workers);
            let restored_rounds = continue_run(&mut restored);
            prop_assert_eq!(
                &live_rounds,
                &restored_rounds,
                "mid-burst restore diverged at {} workers",
                workers
            );
            prop_assert_eq!(live.aggregate_stats(), restored.aggregate_stats());
            prop_assert_eq!(live.queue_stats(), restored.queue_stats());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every checkpoint serializes every shard, so a later generation written
/// over an existing directory restores exactly like the same fleet
/// checkpointed into a fresh one.
#[test]
fn later_generations_restore_identically_to_a_fresh_directory() {
    let dir = temp_dir("fleet-later");
    let fresh_dir = temp_dir("fleet-later-fresh");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 6).unwrap();
    fleet
        .attach_bus(BusConfig {
            capacity_per_tenant: 1_024,
            tenants_per_group: 2,
        })
        .unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();
    fleet.checkpoint_sharded(&dir, 2).unwrap();

    // Touch one tenant's scaler and another's queue; checkpoint again.
    fleet.enqueue(1, 405.0).unwrap();
    assert_eq!(fleet.drain_bus().unwrap(), 1);
    fleet.enqueue(4, 406.0).unwrap();
    let later = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(later.generation, 2);
    assert!(
        later.shards.iter().all(|s| s.reused_from.is_none()),
        "no shard may be reused: {:?}",
        later.shards
    );
    fleet.checkpoint_sharded(&fresh_dir, 2).unwrap();

    let mut from_later = TenantFleet::restore(&dir, &config).unwrap();
    let mut from_fresh = TenantFleet::restore(&fresh_dir, &config).unwrap();
    assert_eq!(from_later.aggregate_stats(), from_fresh.aggregate_stats());
    assert_eq!(from_later.queue_stats(), from_fresh.queue_stats());
    for round in 1..3 {
        let now = 400.0 + 20.0 * round as f64;
        assert_eq!(
            from_later.run_round_uniform(now, round).unwrap(),
            from_fresh.run_round_uniform(now, round).unwrap()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// Changing `tenants_per_shard` between checkpoints regroups the tenants:
/// 6 tenants checkpointed as [2,2,2] and then as [4,2] must restore the
/// right tenants in the right order, and keep planning like the live
/// fleet.
#[test]
fn regrouped_checkpoints_restore_the_right_tenants() {
    let dir = temp_dir("fleet-regroup");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 6).unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();

    let first = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(first.shards.len(), 3);
    let regrouped = fleet.checkpoint_sharded(&dir, 4).unwrap();
    assert_eq!(regrouped.shards.len(), 2);
    assert_eq!(
        regrouped
            .shards
            .iter()
            .map(|s| s.tenants)
            .collect::<Vec<_>>(),
        [4, 2]
    );

    let mut restored = TenantFleet::restore(&dir, &config).unwrap();
    assert_eq!(restored.len(), 6);
    assert_eq!(restored.aggregate_stats(), fleet.aggregate_stats());
    assert_eq!(
        restored.run_round_uniform(420.0, 1).unwrap(),
        fleet.run_round_uniform(420.0, 1).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: a truncated shard is detected via checksum and
/// reported per shard — the error names the shard, the other shards stay
/// loadable, and no tenant is ever silently zeroed.
#[test]
fn corrupted_shard_fails_with_a_named_checksum_error_others_loadable() {
    let dir = temp_dir("fleet-corruption");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 6).unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();
    let manifest = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(manifest.shards.len(), 3);

    // Truncate the middle shard (simulates a crash or disk corruption).
    let victim = &manifest.shards[1];
    let victim_path = dir.join(&victim.file);
    let bytes = std::fs::read(&victim_path).unwrap();
    std::fs::write(&victim_path, &bytes[..bytes.len() - 17]).unwrap();

    // The whole-fleet restore fails, naming the corrupt shard.
    let err = TenantFleet::restore(&dir, &config).unwrap_err();
    match &err {
        OnlineError::Checkpoint {
            shard: Some(shard),
            message,
        } => {
            assert_eq!(shard, &victim.file);
            assert!(message.contains("checksum mismatch"), "{message}");
        }
        other => panic!("expected a shard-scoped checksum error, got {other:?}"),
    }

    // Per-shard loading: the other two shards load their tenants intact.
    let store = CheckpointStore::new(&dir);
    let (_, per_shard) = store.load_shards(2).unwrap();
    assert!(per_shard[0].is_ok());
    assert!(per_shard[1].is_err());
    assert!(per_shard[2].is_ok());
    let recovered: usize = per_shard
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(Vec::len)
        .sum();
    assert_eq!(recovered, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep never removes the newest restorable generation: every write
/// keeps its previous generation, so when bit rot strikes the current one
/// after its write, scan-back restore still finds the previous generation
/// on disk and restores exactly its state. The next write is restorable by
/// construction (every shard serialized, fsynced and checksummed), so only
/// then is the generation before the rotten one dropped.
#[test]
fn retention_guard_never_sweeps_past_the_newest_restorable_generation() {
    let dir = temp_dir("retention-guard");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 6).unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();
    let gen1 = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(gen1.generation, 1);
    let stats_v1 = fleet.aggregate_stats();
    let snapshots_v1 = CheckpointStore::new(&dir).load(2).unwrap();

    fleet.run_round_uniform(420.0, 1).unwrap();
    let gen2 = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(gen2.generation, 2);
    assert!(
        dir.join("gen-000001").exists(),
        "scan-back generation swept"
    );

    // Bit rot strikes generation 2 after the write.
    std::fs::write(dir.join(&gen2.shards[1].file), b"{ torn").unwrap();

    // Restore falls back to generation 1 with its exact state, and says so.
    let store = CheckpointStore::new(&dir);
    let recovered = store.load(2).unwrap();
    assert_eq!(recovered, snapshots_v1);
    assert_eq!(store.io_stats().generation_fallbacks, 1);
    let notes = store.take_notes();
    assert!(
        notes.iter().any(|n| n.contains("restored generation 1")),
        "{notes:?}"
    );
    let restored = TenantFleet::restore(&dir, &config).unwrap();
    assert_eq!(restored.aggregate_stats(), stats_v1);

    // Writing the recovered state makes generation 3, which loads without
    // a fallback; its sweep drops generation 1 and keeps generation 2.
    let gen3 = store
        .write_with(
            &recovered,
            &robustscaler::online::WriteOptions {
                tenants_per_shard: 2,
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(gen3.generation, 3);
    assert!(gen3.shards.iter().all(|s| s.reused_from.is_none()));
    assert!(!dir.join("gen-000001").exists(), "generation 1 not swept");
    assert!(dir.join("gen-000002").exists(), "generation 2 not kept");
    let fresh = CheckpointStore::new(&dir);
    assert_eq!(fresh.load(2).unwrap(), snapshots_v1);
    assert_eq!(fresh.io_stats().generation_fallbacks, 0);
    let restored = TenantFleet::restore(&dir, &config).unwrap();
    assert_eq!(restored.aggregate_stats(), stats_v1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fleet heals a checkpoint directory without being told: a shard of a
/// kept generation that rots on disk after its write never reaches the
/// next generation, even when no tenant was touched in between. That
/// generation serializes every shard from live state, verifies in full,
/// restores without a fallback, and its sweep drops only the generation
/// before the rotten one.
#[test]
fn fleet_self_heals_with_a_full_rewrite_after_a_blocked_sweep() {
    let dir = temp_dir("retention-self-heal");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 6).unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();
    fleet.checkpoint_sharded(&dir, 2).unwrap();
    fleet.run_round_uniform(420.0, 1).unwrap();
    let gen2 = fleet.checkpoint_sharded(&dir, 2).unwrap();

    // Bit rot strikes generation 2 after the write.
    std::fs::write(dir.join(&gen2.shards[0].file), b"{ torn").unwrap();

    let gen3 = fleet.checkpoint_sharded(&dir, 2).unwrap();
    assert_eq!(gen3.generation, 3);
    assert!(
        gen3.shards.iter().all(|s| s.reused_from.is_none()),
        "the checkpoint after the rot must rewrite every shard: {:?}",
        gen3.shards
    );
    // Every shard of generation 3 loads checksum-verified, with no
    // fallback to an older generation.
    let store = CheckpointStore::new(&dir);
    assert_eq!(store.load(2).unwrap().len(), 6);
    assert_eq!(store.io_stats().generation_fallbacks, 0);

    // The healed directory restores the live state bit-identically.
    let (mut restored, notes) =
        TenantFleet::restore_with(&dir, &config, RestoreOptions::default()).unwrap();
    assert!(notes.is_empty(), "{notes:?}");
    assert_eq!(restored.aggregate_stats(), fleet.aggregate_stats());
    assert_eq!(
        restored.run_round_uniform(440.0, 2).unwrap(),
        fleet.run_round_uniform(440.0, 2).unwrap()
    );

    assert!(!dir.join("gen-000001").exists(), "generation 1 not swept");
    assert!(dir.join("gen-000002").exists(), "generation 2 not kept");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A storage backend that keeps every file under its root: the paths the
/// checkpoint store passes in name nothing on disk, so only the backend
/// can see what was written.
#[derive(Debug)]
struct RebasedStorage(PathBuf);

impl CheckpointStorage for RebasedStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        OsStorage.create_dir_all(&self.0.join(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        OsStorage.write(&self.0.join(path), bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsStorage.rename(&self.0.join(from), &self.0.join(to))
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        OsStorage.remove_dir_all(&self.0.join(path))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        OsStorage.sync_dir(&self.0.join(path))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        OsStorage.read(&self.0.join(path))
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        OsStorage.read_dir_names(&self.0.join(path))
    }
}

/// Checkpoints written through a non-OS storage backend see their own
/// previous generations: the generation counts up, the sweep deletes the
/// oldest under the backend's root, and the fleet restores through the
/// same backend.
#[test]
fn non_os_storage_sees_its_previous_generation() {
    let root = temp_dir("rebased");
    let storage = Arc::new(RebasedStorage(root.clone()));
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 4).unwrap();
    enqueue_fleet(&fleet, 400.0);
    fleet.run_round_uniform(400.0, 0).unwrap();
    fleet.set_checkpoint_storage(storage.clone());
    let dir = Path::new("rebased-checkpoint");
    let first = fleet.checkpoint_sharded(dir, 2).unwrap();
    let second = fleet.checkpoint_sharded(dir, 2).unwrap();
    assert_eq!((first.generation, second.generation), (1, 2));
    assert!(root.join(dir).join("gen-000001").exists());
    let third = fleet.checkpoint_sharded(dir, 2).unwrap();
    assert_eq!(third.generation, 3);
    assert!(!root.join(dir).join("gen-000001").exists());
    assert!(root.join(dir).join("gen-000002").exists());
    let (restored, notes) = TenantFleet::restore_with(
        dir,
        &config,
        RestoreOptions {
            storage: Some(storage),
            ..RestoreOptions::default()
        },
    )
    .unwrap();
    assert!(notes.is_empty(), "{notes:?}");
    assert_eq!(restored.aggregate_stats(), fleet.aggregate_stats());
    let _ = std::fs::remove_dir_all(&root);
}

/// Restore validates the policies a manifest carries the way their
/// setters do: a hand-edited manifest with an invalid residency policy
/// fails with `InvalidConfig` instead of arming it.
#[test]
fn hand_edited_manifest_policies_fail_restore_validation() {
    let dir = temp_dir("invalid-manifest");
    let config = online_config();
    let mut fleet = TenantFleet::new(&config, 0.0, 3).unwrap();
    fleet.enable_residency(ResidencyConfig::default()).unwrap();
    let mut manifest = fleet.checkpoint(&dir).unwrap();
    manifest.residency.as_mut().unwrap().cold_after = 0;
    let text = serde_json::to_string(&manifest).unwrap();
    std::fs::write(dir.join("manifest.json"), text).unwrap();
    assert!(matches!(
        TenantFleet::restore(&dir, &config),
        Err(OnlineError::InvalidConfig(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
