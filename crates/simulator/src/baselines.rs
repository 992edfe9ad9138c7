//! The heuristic baseline autoscalers from the paper's evaluation
//! (§VII-A1): the purely reactive strategy, the Backup Pool, and the
//! Adaptive Backup Pool.

use crate::autoscaler::{Autoscaler, ScalingCommand, SystemState};

/// The purely reactive strategy: never pre-create anything; every query
/// triggers a cold start. Equivalent to a Backup Pool of size 0 and used as
/// the denominator of the paper's `relative_cost`.
#[derive(Debug, Clone, Default)]
pub struct Reactive;

impl Reactive {
    /// Create the reactive policy.
    pub fn new() -> Self {
        Self
    }
}

impl Autoscaler for Reactive {
    fn name(&self) -> &str {
        "reactive"
    }
}

/// Backup Pool (BP): keep a constant pool of `size` warm instances; when a
/// query consumes one, immediately create a replacement.
#[derive(Debug, Clone)]
pub struct BackupPool {
    size: usize,
}

impl BackupPool {
    /// Create a Backup Pool policy with the given pool size.
    pub fn new(size: usize) -> Self {
        Self { size }
    }

    /// The configured pool size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Autoscaler for BackupPool {
    fn name(&self) -> &str {
        "backup-pool"
    }

    fn on_start(&mut self, _now: f64) -> Vec<ScalingCommand> {
        if self.size == 0 {
            Vec::new()
        } else {
            vec![ScalingCommand::CreateNow(self.size)]
        }
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        // Replenish the pool back to the target size.
        let current = state.idle_ready + state.idle_pending;
        if current < self.size {
            vec![ScalingCommand::CreateNow(self.size - current)]
        } else {
            Vec::new()
        }
    }
}

/// Seconds between two AdapBP pool-size re-estimations (the paper's ten
/// minutes).
const ADAPTIVE_ADJUSTMENT_INTERVAL: f64 = 600.0;

/// Seconds of recent traffic each AdapBP re-estimation averages over.
const ADAPTIVE_ESTIMATION_WINDOW: f64 = 600.0;

/// Adaptive Backup Pool (AdapBP): every ten minutes the pool size is reset
/// to `ratio × (average QPS over the most recent ten minutes)`, rounded up.
#[derive(Debug, Clone)]
pub struct AdaptiveBackupPool {
    ratio: f64,
    current_target: usize,
}

impl AdaptiveBackupPool {
    /// Create an AdapBP policy with the paper's defaults: the pool target is
    /// re-estimated every ten minutes from the last ten minutes of traffic.
    pub fn new(ratio: f64) -> Self {
        Self {
            ratio: ratio.max(0.0),
            current_target: 0,
        }
    }

    /// The multiplier applied to the estimated QPS.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The current pool-size target.
    pub fn current_target(&self) -> usize {
        self.current_target
    }
}

impl Autoscaler for AdaptiveBackupPool {
    fn name(&self) -> &str {
        "adaptive-backup-pool"
    }

    fn planning_interval(&self) -> Option<f64> {
        Some(ADAPTIVE_ADJUSTMENT_INTERVAL)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let qps = state.recent_qps(ADAPTIVE_ESTIMATION_WINDOW);
        self.current_target = (qps * self.ratio).ceil() as usize;
        let current = state.idle_ready + state.idle_pending;
        if current < self.current_target {
            vec![ScalingCommand::CreateNow(self.current_target - current)]
        } else if current > self.current_target {
            vec![ScalingCommand::ScaleIn(current - self.current_target)]
        } else {
            Vec::new()
        }
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        // Like BP, immediately replace the instance consumed by this query,
        // but never exceed the adaptive target.
        let current = state.idle_ready + state.idle_pending;
        if current < self.current_target {
            vec![ScalingCommand::CreateNow(1)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PendingTimeDistribution, SimulationConfig, Simulator};
    use crate::trace::{Query, Trace};

    fn bursty_trace() -> Trace {
        // Quiet first hour (1 query / 200 s), busy second hour (1 query / 5 s).
        let mut queries = Vec::new();
        let mut t = 0.0;
        while t < 3600.0 {
            queries.push(Query {
                arrival: t,
                processing: 3.0,
            });
            t += 200.0;
        }
        while t < 7200.0 {
            queries.push(Query {
                arrival: t,
                processing: 3.0,
            });
            t += 5.0;
        }
        Trace::new("bursty", queries).unwrap()
    }

    fn sim(seed: u64) -> Simulator {
        Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed,
            recent_history_window: 600.0,
        })
        .unwrap()
    }

    #[test]
    fn reactive_and_pool_names() {
        assert_eq!(Reactive::new().name(), "reactive");
        assert_eq!(BackupPool::new(3).name(), "backup-pool");
        assert_eq!(BackupPool::new(3).size(), 3);
        let adap = AdaptiveBackupPool::new(30.0);
        assert_eq!(adap.name(), "adaptive-backup-pool");
        assert_eq!(adap.ratio(), 30.0);
        assert_eq!(adap.current_target(), 0);
    }

    #[test]
    fn larger_pools_trade_cost_for_hits() {
        let trace = bursty_trace();
        let simulator = sim(1);
        let mut previous_cost = 0.0;
        let mut previous_hit = -1.0;
        for &size in &[0usize, 2, 8] {
            let mut policy = BackupPool::new(size);
            let metrics = simulator.run(&trace, &mut policy).unwrap();
            assert!(
                metrics.total_cost() >= previous_cost,
                "cost should grow with pool size"
            );
            assert!(
                metrics.hit_rate() >= previous_hit,
                "hit rate should grow with pool size"
            );
            previous_cost = metrics.total_cost();
            previous_hit = metrics.hit_rate();
        }
    }

    #[test]
    fn adaptive_pool_tracks_traffic_level() {
        let trace = bursty_trace();
        let simulator = sim(2);
        let mut adap = AdaptiveBackupPool::new(40.0);
        let adap_metrics = simulator.run(&trace, &mut adap).unwrap();

        // A fixed pool sized for the busy hour wastes instances in the quiet
        // hour; AdapBP with a comparable peak size should cost less while
        // keeping a decent hit rate.
        let mut big_fixed = BackupPool::new(8);
        let fixed_metrics = simulator.run(&trace, &mut big_fixed).unwrap();
        assert!(
            adap_metrics.total_cost() < fixed_metrics.total_cost(),
            "adaptive {} vs fixed {}",
            adap_metrics.total_cost(),
            fixed_metrics.total_cost()
        );
        // And it clearly beats reactive on hit rate in the busy hour.
        let mut reactive = Reactive::new();
        let reactive_metrics = simulator.run(&trace, &mut reactive).unwrap();
        assert!(adap_metrics.hit_rate() > reactive_metrics.hit_rate() + 0.2);
    }

    #[test]
    fn adaptive_pool_scales_in_when_traffic_drops() {
        // Busy first, then quiet: the pool must shrink.
        let mut queries = Vec::new();
        let mut t = 0.0;
        while t < 1800.0 {
            queries.push(Query {
                arrival: t,
                processing: 2.0,
            });
            t += 5.0;
        }
        while t < 7200.0 {
            queries.push(Query {
                arrival: t,
                processing: 2.0,
            });
            t += 400.0;
        }
        let trace = Trace::new("declining", queries).unwrap();
        let simulator = sim(3);
        let mut adap = AdaptiveBackupPool::new(50.0);
        let metrics = simulator.run(&trace, &mut adap).unwrap();
        // Scale-ins show up as unused instances deleted before the end.
        let scaled_in = metrics
            .unused
            .iter()
            .filter(|i| i.deleted_at < trace.end() - 1.0)
            .count();
        assert!(scaled_in > 0, "expected scale-in events");
    }

    #[test]
    fn ratio_zero_adapbp_behaves_reactively() {
        let trace = bursty_trace();
        let simulator = sim(4);
        let mut adap = AdaptiveBackupPool::new(0.0);
        let metrics = simulator.run(&trace, &mut adap).unwrap();
        let mut reactive = Reactive::new();
        let reactive_metrics = simulator.run(&trace, &mut reactive).unwrap();
        assert_eq!(metrics.hit_rate(), reactive_metrics.hit_rate());
        assert!((metrics.total_cost() - reactive_metrics.total_cost()).abs() < 1e-9);
    }
}
