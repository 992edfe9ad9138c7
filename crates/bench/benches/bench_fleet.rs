//! Criterion bench: multi-tenant fleet planning throughput.
//!
//! One iteration is one full fleet round — every tenant refreshes its
//! forecast if needed and plans its next window exactly (~5–25 arrivals
//! per 10 s window across the tenant mix). The acceptance bar for the
//! serving layer is ≥ 100 tenant-rounds/sec on one core, i.e. ≤ 2.5 s per
//! round at 250 tenants serially.

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_nhpp::NhppModel;
use robustscaler_online::{BusConfig, OnlineConfig, TenantFleet};
use robustscaler_parallel::available_threads;

/// Warm-started fleet: models installed directly so the timed loop
/// measures the serving path (forecast refresh + plan window), not ADMM.
fn build_fleet(tenants: usize) -> TenantFleet {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = 10.0;
    pipeline.mean_processing = 20.0;
    let config = OnlineConfig::new(pipeline);
    let mut fleet = TenantFleet::new(&config, 0.0, tenants).expect("valid fleet");
    for index in 0..tenants {
        let base = 0.5 + 2.0 * (index as f64 / tenants.max(2) as f64);
        let log_rates = vec![base.ln(); 1_440];
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

/// The warm fleet's round on one worker thread. Each round is timed on its
/// own and the median of 41 reported, as in `fleet_round_parallel`: the
/// mean of ten rounds could not resolve a 30% change.
fn bench_fleet_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_vs_tenants");
    group.sample_size(41);
    for &tenants in &[100usize, 250, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                let mut fleet = build_fleet(tenants);
                fleet.set_workers(1);
                // One untimed warm-up round fills every planner's quantile
                // table and forecast cache; each timed round then plans every
                // tenant exactly.
                fleet.run_round_uniform(86_400.0, 0).expect("warm-up round");
                let mut round = 1u64;
                b.iter_batched(
                    // Advance time so the forecast cache is exercised like a
                    // live serving loop (refresh roughly once per horizon).
                    || {
                        round += 1;
                        86_400.0 + 10.0 * (round - 1) as f64
                    },
                    |now| fleet.run_round_uniform(now, 0).expect("round succeeds"),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// The warm fleet's round on every available thread. Each round is timed
/// on its own and the median reported: a round that refreshes every
/// tenant's forecast is an outlier the mean would absorb, and 41 rounds
/// put the median's spread well inside a 30% change.
fn bench_fleet_round_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_parallel");
    group.sample_size(41);
    let workers = available_threads();
    for &tenants in &[250usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                let mut fleet = build_fleet(tenants);
                fleet.set_workers(workers);
                // One untimed warm-up round, as in `fleet_round_vs_tenants`.
                fleet.run_round_uniform(86_400.0, 0).expect("warm-up round");
                let mut round = 1u64;
                b.iter_batched(
                    || {
                        round += 1;
                        86_400.0 + 10.0 * (round - 1) as f64
                    },
                    |now| fleet.run_round_uniform(now, 0).expect("round succeeds"),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// A 1,000-tenant warm fleet with six hours of traffic in every ring
/// (360 buckets of 60 s, the refit window), in which `due` tenants,
/// spread across the fleet, are due a scheduled refit in the timed round.
/// Every tenant's installed model matches its traffic, so no drift refit
/// fires; the round at `REFIT_ROUND_AT` refits exactly the due tenants.
fn build_refit_fleet(due: usize) -> TenantFleet {
    const TENANTS: usize = 1_000;
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = 10.0;
    pipeline.mean_processing = 20.0;
    pipeline.admm.max_iterations = 40;
    let mut config = OnlineConfig::new(pipeline);
    config.window_buckets = 360;
    config.min_training_buckets = 60;
    let mut fleet = TenantFleet::new(&config, 0.0, TENANTS).expect("valid fleet");
    fleet.set_workers(available_threads());
    let mut rng = StdRng::seed_from_u64(29);
    let stride = TENANTS / due.max(1);
    for index in 0..TENANTS {
        let rate = 0.05 + 0.45 * (index % 17) as f64 / 16.0;
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if t >= REFIT_ROUND_AT {
                break;
            }
            arrivals.push(t);
        }
        let model =
            NhppModel::from_log_rates(0.0, 60.0, vec![rate.ln(); 360], None).expect("model");
        let is_due = due > 0 && index % stride == 0 && index / stride < due;
        let installed_at = if is_due {
            REFIT_ROUND_AT - config.refit_interval
        } else {
            REFIT_ROUND_AT - 60.0
        };
        let scaler = &mut fleet.tenant_mut(index).expect("index in range").scaler;
        scaler.ingest_batch(&arrivals);
        scaler.install_model(model, installed_at).expect("install");
    }
    // One untimed warm-up round fills the forecast caches and planners;
    // nobody is due yet.
    fleet
        .run_round_uniform(REFIT_ROUND_AT - 10.0, 0)
        .expect("warm-up round");
    fleet
}

/// When `build_refit_fleet`'s due tenants are due.
const REFIT_ROUND_AT: f64 = 21_600.0;

/// The fleet round with 0, 8 or 64 scheduled refits among 1,000 warm
/// tenants: the refit pass's cost on top of a plain round. Each timed
/// round runs on a fresh clone of the prepared fleet (the clone is not
/// timed), so every sample refits the same tenants.
fn bench_fleet_round_refits(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_refits");
    group.sample_size(21);
    for &due in &[0usize, 8, 64] {
        let fleet = build_refit_fleet(due);
        let mut probe = fleet.clone();
        let before = probe.aggregate_stats().refits;
        probe
            .run_round_uniform(REFIT_ROUND_AT, 0)
            .expect("round succeeds");
        assert_eq!(probe.aggregate_stats().refits - before, due as u64);
        drop(probe);
        group.bench_with_input(BenchmarkId::from_parameter(due), &due, |b, _| {
            b.iter_batched(
                || fleet.clone(),
                // The fleet is handed back so that dropping it is not timed.
                |mut fleet| {
                    let round = fleet.run_round_uniform(REFIT_ROUND_AT, 0);
                    (round.expect("round succeeds"), fleet)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Ingestion runtime throughput: arrivals/sec through the bus — one
/// iteration enqueues ~40 sorted arrivals per tenant (`push_batch` under
/// the group locks) and drains every queue into its tenant's ring via the
/// bulk append (`drain_bus`), with no planning. Divide the per-tenant
/// count × tenants by the iteration time for arrivals/sec; compare the
/// iteration time against `fleet_round_vs_tenants` at the same tenant
/// count for the drain share of a round (the "ingestion off the critical
/// path" acceptance bar: ≤ 10 % at 250 tenants).
fn bench_ingest_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);
    const PER_TENANT: usize = 40;
    for &tenants in &[250usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                let mut pipeline =
                    RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
                        target: 0.9,
                    });
                pipeline.planning_interval = 10.0;
                let config = OnlineConfig::new(pipeline);
                let mut fleet = TenantFleet::new(&config, 0.0, tenants).expect("valid fleet");
                fleet.set_workers(1);
                let bus = fleet.attach_bus(BusConfig::default()).expect("fresh bus");
                let mut arrivals = vec![0.0_f64; PER_TENANT];
                let mut tick = 0u64;
                b.iter(|| {
                    // Timestamps advance every iteration so the rings keep
                    // accepting (a stalled clock would drop everything as
                    // stale and unrealistically skip the bucket work).
                    let base = 10.0 * tick as f64;
                    tick += 1;
                    for (k, slot) in arrivals.iter_mut().enumerate() {
                        *slot = base + k as f64 * (10.0 / PER_TENANT as f64);
                    }
                    for tenant in 0..tenants {
                        bus.push_batch(tenant, &arrivals).expect("queue has room");
                    }
                    fleet.drain_bus().expect("drain succeeds")
                });
            },
        );
    }
    group.finish();
}

/// Durable-state path: checkpoint (snapshot + serialize + atomic shard
/// writes) and restore (read + checksum-verify + deserialize + forecast
/// cache rebuild) of a warm fleet, sharded at the default group size.
fn bench_fleet_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_checkpoint");
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("robustscaler-bench-ckpt-{}", std::process::id()));
    for &tenants in &[100usize, 250] {
        let mut fleet = build_fleet(tenants);
        fleet.set_workers(1);
        // A planned round so snapshots carry live RNG/cache state, as in
        // production — an idle fleet would checkpoint unrealistically fast.
        fleet
            .run_round_uniform(86_400.0, 0)
            .expect("round succeeds");
        group.bench_with_input(BenchmarkId::new("write", tenants), &tenants, |b, _| {
            b.iter(|| fleet.checkpoint(&dir).expect("checkpoint succeeds"));
        });
        fleet.checkpoint(&dir).expect("checkpoint succeeds");
        let config = fleet.tenant(0).expect("tenant 0").scaler.config();
        let config = *config;
        group.bench_with_input(BenchmarkId::new("restore", tenants), &tenants, |b, _| {
            b.iter(|| TenantFleet::restore(&dir, &config).expect("restore succeeds"));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// The hibernating-tier contract: round latency is driven by *active*
/// tenants, not *registered* ones. `round_100k_registered_1k_active`
/// runs a fleet with 100k cold-registered tenants of which 1k are hot
/// (warm models installed); `round_1k_resident` is the reference fleet
/// holding only those 1k tenants. Both get one untimed warm-up round (it
/// settles the dormant tenants and fills the hot tenants' forecast
/// caches), then each round is timed on its own and the median of 41
/// reported, as in `fleet_round_vs_tenants`. The acceptance bar is the big
/// fleet's median round staying within 2x of the reference's. `page_in`
/// is the latency of waking one hibernated tenant from its page file
/// (read + checksum + parse + scaler rebuild) — the cold-start tax of the
/// tier.
fn bench_fleet_hibernation(c: &mut Criterion) {
    // One untimed warm-up round, then single rounds at advancing times.
    fn time_rounds(group: &mut BenchmarkGroup<'_>, id: BenchmarkId, fleet: &mut TenantFleet) {
        fleet.run_round_uniform(86_400.0, 0).expect("warm-up round");
        let mut round = 1u64;
        group.bench_function(id, |b| {
            b.iter_batched(
                || {
                    round += 1;
                    86_400.0 + 10.0 * (round - 1) as f64
                },
                |now| fleet.run_round_uniform(now, 0).expect("round succeeds"),
                BatchSize::SmallInput,
            );
        });
    }

    use robustscaler_online::{HibernationStore, OnlineScaler, ResidencyConfig};

    let mut group = c.benchmark_group("fleet_hibernation");
    group.sample_size(41);
    let registered = 100_000usize;
    let active = 1_000usize;

    let residency = ResidencyConfig {
        cold_after: 3,
        idle_epsilon: 1e-9,
        start_cold: true,
    };
    let warm = |fleet: &mut TenantFleet, tenants: usize| {
        for index in 0..tenants {
            let base = 0.5 + 2.0 * (index as f64 / tenants.max(2) as f64);
            let log_rates = vec![base.ln(); 1_440];
            let model =
                NhppModel::from_log_rates(0.0, 60.0, log_rates, Some(1_440)).expect("model");
            fleet
                .tenant_mut(index)
                .expect("index in range")
                .scaler
                .install_model(model, 0.0)
                .expect("install");
        }
    };
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = 10.0;
    pipeline.mean_processing = 20.0;
    let config = OnlineConfig::new(pipeline);

    let mut big = TenantFleet::new_cold(&config, 0.0, registered, 7, residency).expect("fleet");
    big.set_workers(1);
    warm(&mut big, active);
    time_rounds(
        &mut group,
        BenchmarkId::new("round_100k_registered_1k_active", registered),
        &mut big,
    );
    drop(big);

    let mut reference = build_fleet(active);
    reference.set_workers(1);
    time_rounds(
        &mut group,
        BenchmarkId::new("round_1k_resident", active),
        &mut reference,
    );
    drop(reference);

    group.sample_size(10);
    // Page-in latency: one hibernated tenant's wake path — page read,
    // checksum verify, JSON parse, scaler rebuild (forecast cache
    // recompute included), exactly what a Wake{Arrival} pays in-round.
    let dir = std::env::temp_dir().join(format!("robustscaler-bench-pages-{}", std::process::id()));
    let store = HibernationStore::new(&dir);
    let scaler = {
        let mut fleet = build_fleet(1);
        fleet
            .run_round_uniform(86_400.0, 0)
            .expect("round succeeds");
        fleet.tenant(0).expect("tenant 0").scaler.snapshot()
    };
    let receipt = store.page_out(0, scaler).expect("page out");
    let scaler_config = config;
    group.bench_function(BenchmarkId::new("page_in", 1), |b| {
        b.iter(|| {
            let snapshot = store.page_in(0, receipt).expect("page in");
            OnlineScaler::restore(snapshot, scaler_config).expect("restore")
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_fleet_round,
    bench_fleet_round_parallel,
    bench_fleet_round_refits,
    bench_ingest_throughput,
    bench_fleet_checkpoint,
    bench_fleet_hibernation
);
criterion_main!(benches);
