//! Property-based tests of the online serving layer: incremental ingestion
//! must be indistinguishable from batch processing, bus-fed fleet
//! ingestion (enqueue + round-boundary drain) must be indistinguishable
//! from standalone scalers ingesting synchronously, and fleet output must
//! not depend on the worker-thread count.

use proptest::prelude::*;
use robustscaler::core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler::nhpp::admm::SubproblemSolver;
use robustscaler::online::{
    BusConfig, OnlineConfig, OnlineScaler, OnlineStats, SharingConfig, TenantFleet,
};
use robustscaler::timeseries::{CountRing, TimeSeries};

fn online_config(bucket_width: f64) -> OnlineConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.bucket_width = bucket_width;
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

/// Strategy: a sorted list of arrival times over [0, 600) plus a chunking
/// pattern for incremental delivery.
fn arrivals_and_chunks() -> impl Strategy<Value = (Vec<f64>, Vec<usize>)> {
    (
        prop::collection::vec(0.0_f64..600.0, 40..200),
        prop::collection::vec(1usize..20, 1..40),
    )
        .prop_map(|(mut arrivals, chunks)| {
            arrivals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (arrivals, chunks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunked ring ingestion reproduces batch aggregation exactly.
    #[test]
    fn ring_ingestion_equals_batch_aggregation(
        input in arrivals_and_chunks(),
        bucket_width in 5.0_f64..30.0,
    ) {
        let (arrivals, chunks) = input;
        let mut ring = CountRing::new(0.0, bucket_width, 512).unwrap();
        let mut fed = 0;
        let mut chunk_index = 0;
        while fed < arrivals.len() {
            let size = chunks[chunk_index % chunks.len()].min(arrivals.len() - fed);
            ring.observe_batch(&arrivals[fed..fed + size]);
            fed += size;
            chunk_index += 1;
        }
        let series = ring.series().unwrap();
        // Batch reference on the same origin-anchored grid (re-anchoring at
        // series.start() would bin boundary-straddling events differently
        // due to floating-point rounding — the grid is part of the
        // contract).
        let batch = TimeSeries::from_event_times(&arrivals, 0.0, 600.0, bucket_width).unwrap();
        let first = (series.start() / bucket_width).round() as usize;
        prop_assert!(first + series.len() <= batch.len());
        for i in 0..first {
            prop_assert_eq!(batch.get(i), Some(0.0));
        }
        for i in 0..series.len() {
            prop_assert_eq!(series.get(i), batch.get(first + i));
        }
        prop_assert_eq!(ring.observed() as usize, arrivals.len());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Incremental ingestion + refit fits the same model as batch training
    /// on the same prefix of history.
    #[test]
    fn incremental_refit_equals_batch_training(
        input in arrivals_and_chunks(),
    ) {
        let (arrivals, chunks) = input;
        let config = online_config(10.0);
        let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
        let mut fed = 0;
        let mut chunk_index = 0;
        while fed < arrivals.len() {
            let size = chunks[chunk_index % chunks.len()].min(arrivals.len() - fed);
            scaler.ingest_batch(&arrivals[fed..fed + size]);
            fed += size;
            chunk_index += 1;
        }
        scaler.refit_now(600.0).unwrap();
        let online_model = scaler.model().expect("fitted").clone();

        // Batch reference: aggregate the same prefix once and train through
        // the same pipeline entry point.
        let batch_counts = TimeSeries::from_event_times(
            &arrivals,
            online_model.start(),
            online_model.end(),
            10.0,
        )
        .unwrap();
        let pipeline = robustscaler::core::RobustScalerPipeline::new(config.pipeline).unwrap();
        let batch_model = pipeline.train_on_counts(batch_counts).unwrap().model;

        prop_assert_eq!(online_model.log_rates().len(), batch_model.log_rates().len());
        for (a, b) in online_model
            .log_rates()
            .iter()
            .zip(batch_model.log_rates().iter())
        {
            prop_assert!((a - b).abs() < 1e-9, "log-rate {a} vs {b}");
        }
        prop_assert_eq!(online_model.period(), batch_model.period());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched ingestion fast path (`ingest_batch` → ring bulk append)
    /// is bit-identical to the per-arrival reference loop — ring contents,
    /// serving counters, and the drift/refit decisions taken at the next
    /// round boundary — for arbitrary (not necessarily sorted) inputs.
    #[test]
    fn batched_ingestion_equals_the_per_arrival_loop(
        input in arrivals_and_chunks(),
        shuffle_stride in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let (sorted, chunks) = input;
        // Derange the tail a little so out-of-order drops are exercised.
        let mut arrivals = sorted;
        let n = arrivals.len();
        for i in (shuffle_stride..n).step_by(shuffle_stride * 2) {
            arrivals.swap(i - shuffle_stride, i);
        }
        let config = online_config(10.0);
        let mut bulk = OnlineScaler::new(config, 0.0).unwrap();
        let mut reference = OnlineScaler::new(config, 0.0).unwrap();
        let mut fed = 0;
        let mut chunk_index = 0;
        while fed < arrivals.len() {
            let size = chunks[chunk_index % chunks.len()].min(arrivals.len() - fed);
            bulk.ingest_batch(&arrivals[fed..fed + size]);
            for &t in &arrivals[fed..fed + size] {
                reference.ingest(t);
            }
            fed += size;
            chunk_index += 1;
        }
        prop_assert_eq!(bulk.stats(), reference.stats());
        prop_assert_eq!(bulk.ring(), reference.ring());
        prop_assert_eq!(bulk.plan_round(620.0, 0), reference.plan_round(620.0, 0));
        prop_assert_eq!(bulk.stats(), reference.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The acceptance contract of the ingestion runtime: enqueueing
    /// arrivals on the bus and draining them at round boundaries yields
    /// bit-identical fleet plans, serving counters and drift decisions to
    /// one standalone scaler per tenant ingesting every arrival
    /// synchronously through `OnlineScaler::ingest` — for 1, 3 and 8
    /// workers.
    #[test]
    fn bus_fed_fleet_equals_direct_ingestion_for_any_worker_count(
        tenant_count in 2usize..5,
        gaps in prop::collection::vec(3.0_f64..12.0, 2..5),
        rounds in 2usize..5,
    ) {
        let config = online_config(10.0);
        // Window `r` of tenant `i`'s traffic: its uniform stream clipped to
        // [window start, window end).
        let window = |index: usize, round: usize| -> Vec<f64> {
            let gap = gaps[index % gaps.len()];
            let (lo, hi) = if round == 0 {
                (0.0, 400.0)
            } else {
                (400.0 + 20.0 * (round as f64 - 1.0), 400.0 + 20.0 * round as f64)
            };
            let first = (lo / gap).ceil() as usize;
            (first..)
                .map(|k| k as f64 * gap)
                .take_while(|t| *t < hi)
                .collect()
        };

        let run_direct = || {
            let mut scalers: Vec<OnlineScaler> = (0..tenant_count)
                .map(|_| OnlineScaler::new(config, 0.0).unwrap())
                .collect();
            let mut all = Vec::new();
            for round in 0..rounds {
                let now = 400.0 + 20.0 * round as f64;
                let mut plans = Vec::new();
                for (index, scaler) in scalers.iter_mut().enumerate() {
                    for t in window(index, round) {
                        scaler.ingest(t);
                    }
                    plans.push(scaler.plan_round(now, round));
                }
                all.push(plans);
            }
            let mut stats = OnlineStats::default();
            for scaler in &scalers {
                stats.merge(scaler.stats());
            }
            (all, stats)
        };
        let run_bus = |workers: usize| {
            let mut fleet = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
            fleet.set_workers(workers);
            fleet
                .attach_bus(BusConfig {
                    capacity_per_tenant: 4_096,
                    tenants_per_group: 2,
                })
                .unwrap();
            let mut all = Vec::new();
            for round in 0..rounds {
                for index in 0..tenant_count {
                    for t in window(index, round) {
                        assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
                    }
                }
                // The drain at the round boundary ingests this window.
                let now = 400.0 + 20.0 * round as f64;
                all.push(fleet.run_round_uniform(now, round).unwrap());
            }
            (all, fleet.aggregate_stats())
        };

        let direct = run_direct();
        for workers in [1usize, 3, 8] {
            let bused = run_bus(workers);
            prop_assert_eq!(&direct.0, &bused.0, "plans diverged at {} workers", workers);
            prop_assert_eq!(&direct.1, &bused.1, "stats diverged at {} workers", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A fleet plans identically with 1 worker and with many.
    #[test]
    fn fleet_plans_are_worker_count_independent(
        tenant_count in 2usize..6,
        gaps in prop::collection::vec(3.0_f64..12.0, 2..6),
        rounds in 1usize..4,
    ) {
        let config = online_config(10.0);
        let run = |workers: usize| {
            let mut fleet = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
            fleet.set_workers(workers);
            for index in 0..tenant_count {
                let gap = gaps[index % gaps.len()];
                let n = (400.0 / gap) as usize;
                for k in 0..n {
                    assert!(fleet.enqueue(index, k as f64 * gap).unwrap());
                }
            }
            let mut all = Vec::new();
            for round in 0..rounds {
                let now = 400.0 + 20.0 * round as f64;
                all.push(fleet.run_round_uniform(now, round).unwrap());
            }
            all
        };
        let serial = run(1);
        prop_assert_eq!(&serial, &run(3));
        prop_assert_eq!(&serial, &run(8));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `set_sharing` is an inert stub (the plan cache is gone): a fleet
    /// with `SharingConfig::default()` applied explicitly produces
    /// bit-identical plans and stats to a fleet that never touched it, at
    /// 1, 3 and 8 workers.
    #[test]
    fn disabled_sharing_is_bit_identical_at_any_worker_count(
        tenant_count in 2usize..6,
        gaps in prop::collection::vec(3.0_f64..12.0, 2..6),
        rounds in 1usize..4,
    ) {
        let config = online_config(10.0);
        let run = |workers: usize, explicit_off: bool| {
            let mut fleet = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
            fleet.set_workers(workers);
            if explicit_off {
                fleet.set_sharing(SharingConfig::default()).unwrap();
            }
            for index in 0..tenant_count {
                let gap = gaps[index % gaps.len()];
                let n = (400.0 / gap) as usize;
                for k in 0..n {
                    assert!(fleet.enqueue(index, k as f64 * gap).unwrap());
                }
            }
            let mut all = Vec::new();
            for round in 0..rounds {
                let now = 400.0 + 20.0 * round as f64;
                all.push(fleet.run_round_uniform(now, round).unwrap());
            }
            (all, fleet.aggregate_stats())
        };
        let baseline = run(1, false);
        for workers in [1usize, 3, 8] {
            let explicit = run(workers, true);
            prop_assert_eq!(&baseline.0, &explicit.0, "plans diverged at {} workers", workers);
            prop_assert_eq!(&baseline.1, &explicit.1, "stats diverged at {} workers", workers);
        }
    }

    /// `SharingConfig::on()` once armed the plan cache; the cache is gone,
    /// so applying it changes nothing either: plans and stats are
    /// bit-identical to a fleet that never touched it, at 1, 3 and 8
    /// workers.
    #[test]
    fn enabled_sharing_is_worker_count_invariant(
        tenant_count in 2usize..6,
        gaps in prop::collection::vec(3.0_f64..12.0, 1..4),
        rounds in 1usize..4,
    ) {
        let config = online_config(10.0);
        let run = |workers: usize, on: bool| {
            let mut fleet = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
            fleet.set_workers(workers);
            if on {
                fleet.set_sharing(SharingConfig::on()).unwrap();
            }
            for index in 0..tenant_count {
                let gap = gaps[index % gaps.len()];
                let n = (400.0 / gap) as usize;
                for k in 0..n {
                    assert!(fleet.enqueue(index, k as f64 * gap).unwrap());
                }
            }
            let mut all = Vec::new();
            for round in 0..rounds {
                let now = 400.0 + 20.0 * round as f64;
                all.push(fleet.run_round_uniform(now, round).unwrap());
            }
            (all, fleet.aggregate_stats())
        };
        let baseline = run(1, false);
        for workers in [1usize, 3, 8] {
            prop_assert_eq!(&baseline, &run(workers, true), "diverged at {} workers", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rounds in which many tenants refit at once — fitted together in the
    /// fleet's refit pass, in ADMM lane groups — are bit-identical at 1, 2,
    /// 3 and 8 workers, and identical to standalone scalers that each
    /// refit alone (plans, installed models and serving counters). Some
    /// tenants carry a bursty cycle, so groups of different fit shapes
    /// meet in one round. With `conjugate_gradient` set, no fit shares
    /// lanes, so every refit runs alone through `AdmmSolver::fit`.
    #[test]
    fn refit_heavy_rounds_match_standalone_scalers_at_any_worker_count(
        tenant_count in 9usize..20,
        gaps in prop::collection::vec(2.0_f64..12.0, 3..8),
        cycles in prop::collection::vec(0usize..4, 3..8),
        conjugate_gradient in prop::bool::ANY,
    ) {
        let mut config = online_config(10.0);
        config.refit_interval = 60.0;
        if conjugate_gradient {
            config.pipeline.admm.solver = SubproblemSolver::ConjugateGradient;
        }
        let rounds = 8;
        // Window `r` of tenant `i`'s traffic: a uniform stream plus, for a
        // cycle `c > 0`, a burst of four arrivals every `60·c` seconds.
        let window = |index: usize, round: usize| -> Vec<f64> {
            let (lo, hi) = if round == 0 {
                (0.0, 400.0)
            } else {
                (400.0 + 20.0 * (round as f64 - 1.0), 400.0 + 20.0 * round as f64)
            };
            let gap = gaps[index % gaps.len()];
            let mut arrivals: Vec<f64> = ((lo / gap).ceil() as usize..)
                .map(|k| k as f64 * gap)
                .take_while(|t| *t < hi)
                .collect();
            let cycle = 60.0 * cycles[index % cycles.len()] as f64;
            if cycle > 0.0 {
                for k in (lo / cycle).ceil() as usize.. {
                    let at = k as f64 * cycle;
                    if at >= hi {
                        break;
                    }
                    arrivals.extend((0..4).map(|j| at + 0.25 * j as f64));
                }
            }
            arrivals.retain(|t| *t < hi);
            arrivals.sort_by(|a, b| a.total_cmp(b));
            arrivals
        };
        let covered = |round: usize| round % 3;

        let mut scalers: Vec<OnlineScaler> = (0..tenant_count)
            .map(|_| OnlineScaler::new(config, 0.0).unwrap())
            .collect();
        let mut direct = Vec::new();
        let mut refits_per_round = Vec::new();
        for round in 0..rounds {
            let now = 400.0 + 20.0 * round as f64;
            let before: u64 = scalers.iter().map(|s| s.stats().refits).sum();
            let mut plans = Vec::new();
            for (index, scaler) in scalers.iter_mut().enumerate() {
                scaler.ingest_batch(&window(index, round));
                plans.push(scaler.plan_round(now, covered(round)));
            }
            refits_per_round.push(scalers.iter().map(|s| s.stats().refits).sum::<u64>() - before);
            direct.push(plans);
        }
        prop_assert!(
            refits_per_round.iter().filter(|&&n| n >= 8).count() >= 2,
            "refits per round {:?}", refits_per_round
        );

        for workers in [1usize, 2, 3, 8] {
            let mut fleet = TenantFleet::new(&config, 0.0, tenant_count).unwrap();
            fleet.set_workers(workers);
            let mut fleet_plans = Vec::new();
            for round in 0..rounds {
                for index in 0..tenant_count {
                    for t in window(index, round) {
                        assert!(fleet.enqueue(index, t).unwrap(), "queue overflow");
                    }
                }
                let now = 400.0 + 20.0 * round as f64;
                fleet_plans.push(fleet.run_round_uniform(now, covered(round)).unwrap());
            }
            prop_assert_eq!(&direct, &fleet_plans, "plans diverged at {} workers", workers);
            for (index, scaler) in scalers.iter().enumerate() {
                let tenant = &fleet.tenant(index).unwrap().scaler;
                prop_assert_eq!(tenant.stats(), scaler.stats());
                prop_assert_eq!(tenant.model(), scaler.model());
            }
        }
    }
}
