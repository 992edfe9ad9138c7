//! Property-based integration tests spanning crates: invariants that must
//! hold for arbitrary workloads, policies and decision parameters.

use proptest::prelude::*;
use robustscaler::scaling::{cost, hit, response_time};
use robustscaler::simulator::{
    BackupPool, PendingTimeDistribution, Query, Reactive, SimulationConfig, Simulator, Trace,
};
use robustscaler_bench::montecarlo::{solve_idle_cost_root, solve_waiting_root};

/// Strategy: a small random trace with positive inter-arrival gaps.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0.1_f64..50.0, 0.5_f64..30.0), 5..60),
        0.0_f64..100.0,
    )
        .prop_map(|(gaps_and_processing, start)| {
            let mut t = start;
            let queries: Vec<Query> = gaps_and_processing
                .into_iter()
                .map(|(gap, processing)| {
                    t += gap;
                    Query {
                        arrival: t,
                        processing,
                    }
                })
                .collect();
            Trace::new("random", queries).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every query is served exactly once, the total cost is at least the
    /// irreducible pending+processing cost of the served queries, and the
    /// reactive baseline never hits.
    #[test]
    fn simulator_conservation_laws(trace in trace_strategy(), pool_size in 0usize..5) {
        let sim = Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(7.0),
            seed: 3,
            recent_history_window: 300.0,
        }).unwrap();

        let mut policy = BackupPool::new(pool_size);
        let metrics = sim.run(&trace, &mut policy).unwrap();
        prop_assert_eq!(metrics.query_count(), trace.len());
        prop_assert_eq!(metrics.served_instances, trace.len());

        // Response times are at least the processing time of the query.
        for (outcome, query) in metrics.queries.iter().zip(trace.queries()) {
            prop_assert!(outcome.response_time >= query.processing - 1e-9);
            prop_assert!(outcome.waiting_time >= 0.0);
            prop_assert!(outcome.response_time <= query.processing + 7.0 + 1e-9);
        }

        // Total cost is bounded below by the served queries' processing times
        // and above by adding a full pending + idle allowance per instance.
        let processing_total: f64 = trace.queries().iter().map(|q| q.processing).sum();
        prop_assert!(metrics.total_cost() >= processing_total - 1e-6);

        // The reactive baseline never hits and its cost is exactly
        // pending + processing per query.
        let mut reactive = Reactive::new();
        let reactive_metrics = sim.run(&trace, &mut reactive).unwrap();
        prop_assert_eq!(reactive_metrics.hit_rate(), 0.0);
        let expected: f64 = trace.queries().iter().map(|q| q.processing + 7.0).sum();
        prop_assert!((reactive_metrics.total_cost() - expected).abs() < 1e-6);

        // A warm pool can only improve (or tie) hit rate and rt_avg relative
        // to reactive.
        prop_assert!(metrics.hit_rate() >= reactive_metrics.hit_rate());
        prop_assert!(metrics.rt_avg() <= reactive_metrics.rt_avg() + 1e-9);
    }

    /// The closed-form QoS metrics of §VI-A satisfy their defining
    /// identities for arbitrary parameters.
    #[test]
    fn qos_identities(
        arrival in 0.0_f64..1_000.0,
        lead in 0.0_f64..200.0,
        pending in 0.0_f64..60.0,
        processing in 0.1_f64..100.0,
    ) {
        let creation = arrival - lead;
        let rt = response_time(arrival, creation, pending, processing);
        let c = cost(arrival, creation, pending, processing);
        let h = hit(arrival, creation, pending);

        // RT is bounded between the processing time and the cold start level.
        prop_assert!(rt >= processing - 1e-12);
        prop_assert!(rt <= processing + pending + 1e-12);
        // Hits have no waiting at all.
        if h {
            prop_assert!((rt - processing).abs() < 1e-12);
        }
        // Cost decomposition: idle + pending + processing, idle >= 0.
        let idle = c - pending - processing;
        prop_assert!(idle >= -1e-12);
        // Only hits can have strictly positive idle time.
        if idle > 1e-9 {
            prop_assert!(h);
        }
        // Creating earlier (larger lead) never decreases QoS and never
        // decreases cost.
        let rt_later = response_time(arrival, creation + 1.0, pending, processing);
        let cost_later = cost(arrival, creation + 1.0, pending, processing);
        prop_assert!(rt_later + 1e-12 >= rt);
        prop_assert!(cost_later <= c + 1e-12);
    }

    /// The sort-and-search roots actually achieve their targets, and the
    /// waiting/idle targets are monotone in the returned creation time.
    #[test]
    fn sort_and_search_achieves_targets(
        samples in prop::collection::vec((1.0_f64..500.0, 0.5_f64..40.0), 10..200),
        waiting_fraction in 0.05_f64..0.95,
        idle_fraction in 0.05_f64..0.95,
    ) {
        let pairs: Vec<(f64, f64)> = samples;
        let mean_tau: f64 = pairs.iter().map(|&(_, t)| t).sum::<f64>() / pairs.len() as f64;

        let waiting_target = waiting_fraction * mean_tau;
        let x_wait = solve_waiting_root(&pairs, waiting_target).unwrap();
        let achieved_wait: f64 = pairs
            .iter()
            .map(|&(xi, tau)| (tau - (xi - x_wait).max(0.0)).max(0.0))
            .sum::<f64>() / pairs.len() as f64;
        prop_assert!((achieved_wait - waiting_target).abs() < 1e-6);

        let max_idle: f64 = pairs
            .iter()
            .map(|&(xi, tau)| (xi - tau).max(0.0))
            .sum::<f64>() / pairs.len() as f64;
        prop_assume!(max_idle > 1e-6);
        let idle_target = idle_fraction * max_idle * 0.5;
        let x_idle = solve_idle_cost_root(&pairs, idle_target).unwrap();
        let achieved_idle: f64 = pairs
            .iter()
            .map(|&(xi, tau)| (xi - tau - x_idle).max(0.0))
            .sum::<f64>() / pairs.len() as f64;
        prop_assert!((achieved_idle - idle_target).abs() < 1e-6);
    }
}
