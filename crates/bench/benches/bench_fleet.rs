//! Criterion bench: multi-tenant fleet planning throughput.
//!
//! One iteration is one full fleet round — every tenant refreshes its
//! forecast if needed and plans its next window (R = 250 Monte Carlo
//! samples, ~5–25 arrivals per 10 s window across the tenant mix). The
//! acceptance bar for the serving layer is ≥ 100 tenant-rounds/sec at
//! R = 250 on one core, i.e. ≤ 2.5 s per round at 250 tenants serially.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_nhpp::NhppModel;
use robustscaler_online::{BusConfig, OnlineConfig, SharingConfig, TenantFleet};
use robustscaler_parallel::available_threads;

/// Warm-started fleet: models installed directly so the timed loop
/// measures the serving path (forecast refresh + plan window), not ADMM.
fn build_fleet(tenants: usize, samples: usize) -> TenantFleet {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = 10.0;
    pipeline.monte_carlo_samples = samples;
    pipeline.mean_processing = 20.0;
    let config = OnlineConfig::new(pipeline);
    let mut fleet = TenantFleet::new(&config, 0.0, tenants, 7).expect("valid fleet");
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

fn bench_fleet_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_vs_tenants");
    group.sample_size(10);
    for &tenants in &[100usize, 250, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                let mut fleet = build_fleet(tenants, 250);
                fleet.set_workers(1);
                // Cross-tenant batched planning + plan reuse on: the
                // production configuration for large fleets (the
                // `fleet_round_batched` group isolates each layer's
                // speedup against the private path).
                fleet
                    .set_sharing(SharingConfig::on())
                    .expect("valid sharing");
                // One untimed warm-up round so the timed iterations measure
                // the steady state (plan cache populated). The cold all-miss
                // round is what `fleet_round_batched/sharing_only` measures.
                fleet.run_round_uniform(86_400.0, 0).expect("warm-up round");
                let mut round = 1u64;
                b.iter(|| {
                    // Advance time so the forecast cache is exercised like a
                    // live serving loop (refresh roughly once per horizon).
                    let now = 86_400.0 + 10.0 * round as f64;
                    round += 1;
                    fleet.run_round_uniform(now, 0).expect("round succeeds")
                });
            },
        );
    }
    group.finish();
}

/// Cross-tenant batched planning and plan reuse, isolated, on the same
/// 1000-tenant fleet (everything else identical):
///
/// * `sharing_on` — the full production stack ([`SharingConfig::on`]):
///   shared sampling + the round-over-round plan cache. Steady-state
///   rounds time-shift cached plans, so an untimed warm-up round precedes
///   the timed loop; the cold all-miss round costs what `sharing_only`
///   costs.
/// * `sharing_only` — shared sampling alone ([`SharingConfig::sharing_only`],
///   the PR 9 configuration): one arrival matrix per forecast cluster
///   (~33 clusters for this rate mix at the default 5 % quantization),
///   every member still runs its own decision loop every round.
/// * `sharing_off` — the fully private path.
fn bench_fleet_round_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_batched");
    group.sample_size(10);
    let tenants = 1_000usize;
    for (label, sharing) in [
        ("sharing_on", Some(SharingConfig::on())),
        ("sharing_only", Some(SharingConfig::sharing_only())),
        ("sharing_off", None),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &sharing,
            |b, sharing| {
                let mut fleet = build_fleet(tenants, 250);
                fleet.set_workers(1);
                if let Some(sharing) = sharing {
                    fleet.set_sharing(*sharing).expect("valid sharing");
                }
                // Untimed warm-up round (uniform across the three flavours
                // for comparability): `sharing_only`/`sharing_off` rounds
                // all cost the same, but `sharing_on`'s first round is the
                // all-miss round that populates the plan cache — the timed
                // loop then measures the steady state the stack exists for.
                fleet.run_round_uniform(86_400.0, 0).expect("warm-up round");
                let mut round = 1u64;
                b.iter(|| {
                    let now = 86_400.0 + 10.0 * round as f64;
                    round += 1;
                    fleet.run_round_uniform(now, 0).expect("round succeeds")
                });
            },
        );
    }
    group.finish();
}

fn bench_fleet_round_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_round_parallel");
    group.sample_size(10);
    let workers = available_threads();
    for &tenants in &[250usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(tenants),
            &tenants,
            |b, &tenants| {
                let mut fleet = build_fleet(tenants, 250);
                fleet.set_workers(workers);
                let mut round = 0u64;
                b.iter(|| {
                    let now = 86_400.0 + 10.0 * round as f64;
                    round += 1;
                    fleet.run_round_uniform(now, 0).expect("round succeeds")
                });
            },
        );
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
/// path" acceptance bar: ≤ 10 % at 250 tenants, R = 250).
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
                let mut fleet = TenantFleet::new(&config, 0.0, tenants, 7).expect("valid fleet");
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
        let mut fleet = build_fleet(tenants, 250);
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
/// holding only those 1k tenants. The acceptance bar is the big fleet's
/// round staying within 2x of the reference. `page_in` is the latency
/// of waking one hibernated tenant from its page file (read +
/// checksum + parse + scaler rebuild) — the cold-start tax of the tier.
fn bench_fleet_hibernation(c: &mut Criterion) {
    use robustscaler_online::{HibernationStore, OnlineScaler, ResidencyConfig};

    let mut group = c.benchmark_group("fleet_hibernation");
    group.sample_size(10);
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
    pipeline.monte_carlo_samples = 250;
    pipeline.mean_processing = 20.0;
    let config = OnlineConfig::new(pipeline);

    let mut big = TenantFleet::new_cold(&config, 0.0, registered, 7, residency).expect("fleet");
    big.set_workers(1);
    warm(&mut big, active);
    group.bench_function(
        BenchmarkId::new("round_100k_registered_1k_active", registered),
        |b| {
            let mut round = 0u64;
            b.iter(|| {
                let now = 86_400.0 + 10.0 * round as f64;
                round += 1;
                big.run_round_uniform(now, 0).expect("round succeeds")
            });
        },
    );
    drop(big);

    let mut reference = build_fleet(active, 250);
    reference.set_workers(1);
    group.bench_function(BenchmarkId::new("round_1k_resident", active), |b| {
        let mut round = 0u64;
        b.iter(|| {
            let now = 86_400.0 + 10.0 * round as f64;
            round += 1;
            reference.run_round_uniform(now, 0).expect("round succeeds")
        });
    });
    drop(reference);

    // Page-in latency: one hibernated tenant's wake path — page read,
    // checksum verify, JSON parse, scaler rebuild (forecast cache
    // recompute included), exactly what a Wake{Arrival} pays in-round.
    let dir = std::env::temp_dir().join(format!("robustscaler-bench-pages-{}", std::process::id()));
    let store = HibernationStore::new(&dir);
    let scaler = {
        let mut fleet = build_fleet(1, 250);
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
    bench_fleet_round_batched,
    bench_fleet_round_parallel,
    bench_ingest_throughput,
    bench_fleet_checkpoint,
    bench_fleet_hibernation
);
criterion_main!(benches);
