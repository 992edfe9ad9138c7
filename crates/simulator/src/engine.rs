//! The discrete-event simulation engine (paper Algorithm 1 dynamics).
//!
//! The engine replays a [`Trace`] against an [`Autoscaler`]. Three event
//! types are processed in chronological order: scheduled instance creations
//! materialize into (pending) instances, planning ticks give the policy a
//! chance to adjust its plan, and query arrivals consume instances.
//!
//! Dispatch rule on a query arrival (matching Section III):
//! 1. if an idle *ready* instance exists, the query is a **hit** and is
//!    processed immediately (the earliest-created ready instance is used);
//! 2. otherwise, if an idle *pending* instance exists, the query waits for
//!    the one that will be ready soonest;
//! 3. otherwise a **cold start** occurs: a fresh instance is created at the
//!    arrival instant, and (for policies that request it) the earliest
//!    scheduled future creation is canceled — it was meant for this query.
//!
//! Every instance is deleted as soon as it finishes processing its query;
//! instances still idle when the simulation ends are charged until the end
//! of the trace, which is how the paper's total cost accounts for wasted
//! warm capacity.

use crate::autoscaler::{Autoscaler, ScalingCommand, SystemState};
use crate::error::SimulatorError;
use crate::metrics::{QueryOutcome, SimulationMetrics};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Distribution of instance pending (startup) times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PendingTimeDistribution {
    /// Every instance takes exactly this long to start (seconds).
    Deterministic(f64),
    /// Log-normal startup time with the given mean and standard deviation.
    LogNormal {
        /// Mean startup time in seconds.
        mean: f64,
        /// Standard deviation of the startup time in seconds.
        std_dev: f64,
    },
}

impl PendingTimeDistribution {
    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), SimulatorError> {
        match self {
            PendingTimeDistribution::Deterministic(v) => {
                if !(*v >= 0.0) || !v.is_finite() {
                    return Err(SimulatorError::InvalidParameter(
                        "deterministic pending time must be finite and >= 0",
                    ));
                }
            }
            PendingTimeDistribution::LogNormal { mean, std_dev } => {
                if !(*mean > 0.0) || !(*std_dev > 0.0) {
                    return Err(SimulatorError::InvalidParameter(
                        "log-normal pending time needs mean > 0 and std_dev > 0",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Expected pending time.
    pub fn mean(&self) -> f64 {
        match self {
            PendingTimeDistribution::Deterministic(v) => *v,
            PendingTimeDistribution::LogNormal { mean, .. } => *mean,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        use robustscaler_stats::ContinuousDistribution;
        match self {
            PendingTimeDistribution::Deterministic(v) => *v,
            PendingTimeDistribution::LogNormal { mean, std_dev } => {
                robustscaler_stats::LogNormal::from_mean_std(*mean, *std_dev)
                    .expect("validated parameters")
                    .sample(rng)
            }
        }
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Instance startup time distribution.
    pub pending: PendingTimeDistribution,
    /// RNG seed (pending-time sampling and any stochastic policy decisions
    /// made through the engine are reproducible given the seed).
    pub seed: u64,
    /// How many seconds of recent arrivals to expose to policies via
    /// [`SystemState::recent_arrivals`].
    pub recent_history_window: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: 0,
            recent_history_window: 600.0,
        }
    }
}

/// An instance that has been created but not yet assigned to a query.
#[derive(Debug, Clone, Copy)]
struct IdleInstance {
    created_at: f64,
    ready_at: f64,
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimulationConfig,
}

impl Simulator {
    /// Create a simulator with the given configuration.
    pub fn new(config: SimulationConfig) -> Result<Self, SimulatorError> {
        config.pending.validate()?;
        if !(config.recent_history_window > 0.0) {
            return Err(SimulatorError::InvalidParameter(
                "recent_history_window must be > 0",
            ));
        }
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Replay `trace` against `policy` and collect metrics.
    pub fn run<A: Autoscaler>(
        &self,
        trace: &Trace,
        policy: &mut A,
    ) -> Result<SimulationMetrics, SimulatorError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut state = EngineState::new(trace.start(), self.config.recent_history_window);
        let mut metrics = SimulationMetrics::default();

        let start = trace.start();
        let commands = policy.on_start(start);
        state.apply_commands(&commands, start, &self.config, &mut rng, &mut metrics);

        let planning_interval = policy.planning_interval();
        let mut next_tick = planning_interval.map(|d| start + d);

        for query in trace.queries() {
            let arrival = query.arrival;

            // Planning ticks strictly before this arrival.
            if let (Some(interval), Some(tick)) = (planning_interval, next_tick.as_mut()) {
                while *tick <= arrival {
                    state.materialize_scheduled(*tick, &self.config, &mut rng);
                    let snapshot = state.snapshot(*tick);
                    let commands = policy.on_planning_tick(&snapshot);
                    state.apply_commands(&commands, *tick, &self.config, &mut rng, &mut metrics);
                    *tick += interval;
                }
            }

            state.materialize_scheduled(arrival, &self.config, &mut rng);
            state.record_arrival(arrival);

            // Dispatch the query.
            let outcome = state.dispatch_query(
                arrival,
                query.processing,
                policy.cancel_scheduled_on_cold_start(),
                &self.config,
                &mut rng,
                &mut metrics,
            );
            metrics.queries.push(outcome);

            let snapshot = state.snapshot(arrival);
            let commands = policy.on_query_arrival(&snapshot);
            state.apply_commands(&commands, arrival, &self.config, &mut rng, &mut metrics);
        }

        // Charge leftover idle instances until the end of the trace.
        let end = trace.end();
        for instance in state.idle.drain(..) {
            metrics.record_unused(instance.created_at, end.max(instance.created_at));
        }
        Ok(metrics)
    }
}

/// Mutable engine bookkeeping.
struct EngineState {
    idle: Vec<IdleInstance>,
    scheduled: Vec<f64>,
    recent_arrivals: VecDeque<f64>,
    recent_window: f64,
    arrivals_so_far: usize,
    now: f64,
}

impl EngineState {
    fn new(start: f64, recent_window: f64) -> Self {
        Self {
            idle: Vec::new(),
            scheduled: Vec::new(),
            recent_arrivals: VecDeque::new(),
            recent_window,
            arrivals_so_far: 0,
            now: start,
        }
    }

    fn snapshot(&self, now: f64) -> SystemState {
        let idle_ready = self.idle.iter().filter(|i| i.ready_at <= now).count();
        SystemState {
            now,
            idle_ready,
            idle_pending: self.idle.len() - idle_ready,
            scheduled: self.scheduled.len(),
            arrivals_so_far: self.arrivals_so_far,
            recent_arrivals: self.recent_arrivals.clone(),
        }
    }

    fn record_arrival(&mut self, arrival: f64) {
        self.arrivals_so_far += 1;
        self.recent_arrivals.push_back(arrival);
        let cutoff = arrival - self.recent_window;
        while self
            .recent_arrivals
            .front()
            .map(|&t| t < cutoff)
            .unwrap_or(false)
        {
            self.recent_arrivals.pop_front();
        }
    }

    fn create_instance<R: Rng + ?Sized>(
        &mut self,
        at: f64,
        config: &SimulationConfig,
        rng: &mut R,
    ) {
        let pending = config.pending.sample(rng);
        self.idle.push(IdleInstance {
            created_at: at,
            ready_at: at + pending,
        });
    }

    fn materialize_scheduled<R: Rng + ?Sized>(
        &mut self,
        up_to: f64,
        config: &SimulationConfig,
        rng: &mut R,
    ) {
        self.now = self.now.max(up_to);
        let mut remaining = Vec::with_capacity(self.scheduled.len());
        let due: Vec<f64> = {
            let mut due = Vec::new();
            for &t in &self.scheduled {
                if t <= up_to {
                    due.push(t);
                } else {
                    remaining.push(t);
                }
            }
            due
        };
        self.scheduled = remaining;
        for t in due {
            self.create_instance(t, config, rng);
        }
    }

    fn apply_commands<R: Rng + ?Sized>(
        &mut self,
        commands: &[ScalingCommand],
        now: f64,
        config: &SimulationConfig,
        rng: &mut R,
        metrics: &mut SimulationMetrics,
    ) {
        for command in commands {
            match *command {
                ScalingCommand::CreateNow(count) => {
                    for _ in 0..count {
                        self.create_instance(now, config, rng);
                    }
                }
                ScalingCommand::CreateAt(t) => {
                    self.scheduled.push(t.max(now));
                }
                ScalingCommand::ScaleIn(count) => {
                    for _ in 0..count {
                        // Remove the most recently created idle instance first
                        // (the least likely to be needed soon).
                        if let Some(pos) = self
                            .idle
                            .iter()
                            .enumerate()
                            .max_by(|a, b| {
                                a.1.created_at
                                    .partial_cmp(&b.1.created_at)
                                    .expect("finite times")
                            })
                            .map(|(i, _)| i)
                        {
                            let removed = self.idle.swap_remove(pos);
                            metrics.record_unused(removed.created_at, now);
                        } else if !self.scheduled.is_empty() {
                            // No idle instance to remove: cancel a scheduled
                            // creation instead (latest first).
                            let pos = self
                                .scheduled
                                .iter()
                                .enumerate()
                                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                                .map(|(i, _)| i)
                                .expect("non-empty");
                            self.scheduled.swap_remove(pos);
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_query<R: Rng + ?Sized>(
        &mut self,
        arrival: f64,
        processing: f64,
        cancel_scheduled_on_cold_start: bool,
        config: &SimulationConfig,
        rng: &mut R,
        metrics: &mut SimulationMetrics,
    ) -> QueryOutcome {
        // Prefer the earliest-ready instance; ready instances beat pending ones
        // automatically because their ready_at is smaller.
        let chosen = self
            .idle
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.ready_at
                    .partial_cmp(&b.1.ready_at)
                    .expect("finite times")
            })
            .map(|(i, _)| i);

        match chosen {
            Some(index) if self.idle[index].ready_at <= arrival => {
                // Hit: processing starts immediately.
                let instance = self.idle.swap_remove(index);
                metrics.record_served(instance.created_at, arrival + processing);
                QueryOutcome {
                    response_time: processing,
                    waiting_time: 0.0,
                    hit: true,
                    cold_start: false,
                }
            }
            Some(index) => {
                // An instance is pending: the query waits for it.
                let instance = self.idle.swap_remove(index);
                let waiting = instance.ready_at - arrival;
                metrics.record_served(instance.created_at, instance.ready_at + processing);
                QueryOutcome {
                    response_time: waiting + processing,
                    waiting_time: waiting,
                    hit: false,
                    cold_start: false,
                }
            }
            None => {
                // Cold start.
                if cancel_scheduled_on_cold_start && !self.scheduled.is_empty() {
                    let pos = self
                        .scheduled
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    self.scheduled.swap_remove(pos);
                }
                let pending = config.pending.sample(rng);
                metrics.record_served(arrival, arrival + pending + processing);
                QueryOutcome {
                    response_time: pending + processing,
                    waiting_time: pending,
                    hit: false,
                    cold_start: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{BackupPool, Reactive};
    use crate::trace::Query;

    fn uniform_trace(n: usize, gap: f64, processing: f64) -> Trace {
        Trace::new(
            "uniform",
            (0..n)
                .map(|i| Query {
                    arrival: i as f64 * gap,
                    processing,
                })
                .collect(),
        )
        .unwrap()
    }

    fn simulator(pending: f64) -> Simulator {
        Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(pending),
            seed: 7,
            recent_history_window: 600.0,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Simulator::new(SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(-1.0),
            ..SimulationConfig::default()
        })
        .is_err());
        assert!(Simulator::new(SimulationConfig {
            recent_history_window: 0.0,
            ..SimulationConfig::default()
        })
        .is_err());
        assert!(PendingTimeDistribution::LogNormal {
            mean: 0.0,
            std_dev: 1.0
        }
        .validate()
        .is_err());
        assert_eq!(PendingTimeDistribution::Deterministic(13.0).mean(), 13.0);
    }

    #[test]
    fn reactive_policy_cold_starts_every_query() {
        let trace = uniform_trace(50, 100.0, 5.0);
        let sim = simulator(13.0);
        let mut policy = Reactive::new();
        let metrics = sim.run(&trace, &mut policy).unwrap();
        assert_eq!(metrics.query_count(), 50);
        assert_eq!(metrics.hit_rate(), 0.0);
        assert_eq!(metrics.cold_start_rate(), 1.0);
        // RT = pending + processing for every query.
        assert!((metrics.rt_avg() - 18.0).abs() < 1e-9);
        // Cost = (pending + processing) per query.
        assert!((metrics.total_cost() - 50.0 * 18.0).abs() < 1e-9);
        assert_eq!(metrics.instance_count(), 50);
    }

    #[test]
    fn backup_pool_hits_when_gaps_exceed_pending_time() {
        // Arrivals every 100 s, pending 13 s: a pool of one instance is always
        // replenished in time, so every query after the first warm-up hits.
        let trace = uniform_trace(50, 100.0, 5.0);
        let sim = simulator(13.0);
        let mut policy = BackupPool::new(1);
        let metrics = sim.run(&trace, &mut policy).unwrap();
        // The pool is created at the first arrival's time (on_start), so the
        // very first query may wait for it; all others hit.
        assert!(
            metrics.hit_rate() >= 0.97,
            "hit rate {}",
            metrics.hit_rate()
        );
        // Cost exceeds the reactive baseline because instances idle.
        let mut reactive = Reactive::new();
        let reactive_metrics = sim.run(&trace, &mut reactive).unwrap();
        assert!(metrics.total_cost() > reactive_metrics.total_cost());
    }

    #[test]
    fn backup_pool_of_zero_is_reactive() {
        let trace = uniform_trace(30, 50.0, 2.0);
        let sim = simulator(10.0);
        let mut bp0 = BackupPool::new(0);
        let mut reactive = Reactive::new();
        let a = sim.run(&trace, &mut bp0).unwrap();
        let b = sim.run(&trace, &mut reactive).unwrap();
        assert_eq!(a.hit_rate(), b.hit_rate());
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-9);
        assert!((a.rt_avg() - b.rt_avg()).abs() < 1e-9);
    }

    #[test]
    fn every_query_is_served_exactly_once() {
        let trace = uniform_trace(200, 7.0, 3.0);
        let sim = simulator(13.0);
        let mut policy = BackupPool::new(3);
        let metrics = sim.run(&trace, &mut policy).unwrap();
        assert_eq!(metrics.query_count(), 200);
        assert_eq!(metrics.served_instances, 200);
        // Conservation: every instance has a non-negative lifecycle.
        assert!(metrics.unused.iter().all(|i| i.lifecycle() >= 0.0));
        assert!(metrics.total_cost() >= 0.0);
    }

    #[test]
    fn pending_instances_reduce_waiting_compared_to_cold_start() {
        // Queries arrive every 10 s with pending 13 s. A pool of 2 means a
        // query usually finds an instance that has been pending for ~7+ s,
        // so waits less than a full cold start.
        let trace = uniform_trace(100, 10.0, 1.0);
        let sim = simulator(13.0);
        let mut pool = BackupPool::new(2);
        let pooled = sim.run(&trace, &mut pool).unwrap();
        let mut reactive = Reactive::new();
        let react = sim.run(&trace, &mut reactive).unwrap();
        assert!(pooled.waiting_avg() < react.waiting_avg());
        assert!(pooled.rt_avg() < react.rt_avg());
    }

    #[test]
    fn scheduled_creations_materialize_and_serve_queries() {
        // A policy that pre-schedules one instance 20 s before each arrival.
        struct Prescheduler {
            arrivals: Vec<f64>,
        }
        impl Autoscaler for Prescheduler {
            fn name(&self) -> &str {
                "prescheduler"
            }
            fn on_start(&mut self, _now: f64) -> Vec<ScalingCommand> {
                self.arrivals
                    .iter()
                    .map(|&a| ScalingCommand::CreateAt(a - 20.0))
                    .collect()
            }
            fn cancel_scheduled_on_cold_start(&self) -> bool {
                true
            }
        }
        let trace = uniform_trace(20, 60.0, 2.0);
        let sim = simulator(13.0);
        let mut policy = Prescheduler {
            arrivals: trace.arrival_times(),
        };
        let metrics = sim.run(&trace, &mut policy).unwrap();
        // Every query except possibly the first (whose creation time would be
        // negative and is clamped to the start) hits.
        assert!(
            metrics.hit_rate() >= 0.95,
            "hit rate {}",
            metrics.hit_rate()
        );
        // Idle time is about 20 − 13 = 7 s per instance.
        let mean_cost = metrics.cost_per_query();
        assert!(
            (mean_cost - (7.0 + 13.0 + 2.0)).abs() < 1.5,
            "cost {mean_cost}"
        );
    }

    #[test]
    fn scale_in_removes_idle_instances_and_charges_their_lifetime() {
        struct CreateThenShrink {
            done: bool,
        }
        impl Autoscaler for CreateThenShrink {
            fn name(&self) -> &str {
                "create-then-shrink"
            }
            fn planning_interval(&self) -> Option<f64> {
                Some(30.0)
            }
            fn on_start(&mut self, _now: f64) -> Vec<ScalingCommand> {
                vec![ScalingCommand::CreateNow(5)]
            }
            fn on_planning_tick(&mut self, _state: &SystemState) -> Vec<ScalingCommand> {
                if self.done {
                    Vec::new()
                } else {
                    self.done = true;
                    vec![ScalingCommand::ScaleIn(3)]
                }
            }
        }
        let trace = uniform_trace(5, 100.0, 1.0);
        let sim = simulator(5.0);
        let mut policy = CreateThenShrink { done: false };
        let metrics = sim.run(&trace, &mut policy).unwrap();
        // 5 pool instances + 0 extra (arrivals served from pool); 3 were
        // scaled in at t=30 having existed 30 s each.
        let unused = metrics.unused_instances();
        assert!(unused >= 3, "unused {unused}");
        let scaled_in_cost: f64 = metrics
            .unused
            .iter()
            .filter(|i| i.deleted_at <= 30.0 + 1e-9)
            .map(|i| i.lifecycle())
            .sum();
        assert!((scaled_in_cost - 90.0).abs() < 1e-6, "{scaled_in_cost}");
    }

    #[test]
    fn leftover_idle_instances_are_charged_to_trace_end() {
        let trace = uniform_trace(3, 10.0, 1.0);
        let sim = simulator(5.0);
        let mut policy = BackupPool::new(4);
        let metrics = sim.run(&trace, &mut policy).unwrap();
        // 4 initial + 3 replenished = 7 instances; 3 served, 4 idle at the end
        // charged until the last arrival (t = 20).
        assert_eq!(metrics.instance_count(), 7);
        assert_eq!(metrics.unused_instances(), 4);
    }
}
