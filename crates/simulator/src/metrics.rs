//! Per-query and aggregate metrics collected by the simulator.
//!
//! The paper's evaluation reports: hit rate, average response time,
//! total/relative cost (sum of instance lifecycle lengths), high response
//! time quantiles (Table II), and the variance of windowed QoS averages
//! (Fig. 5). All of those are derived here.

use crate::error::SimulatorError;
use robustscaler_stats::{mean, quantiles, variance};
use serde::{Deserialize, Serialize};

/// Outcome of one simulated query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Response time (waiting + processing).
    pub response_time: f64,
    /// Waiting time before processing started.
    pub waiting_time: f64,
    /// Whether a ready instance was available on arrival.
    pub hit: bool,
    /// Whether the query triggered a reactive cold start.
    pub cold_start: bool,
}

/// Lifecycle record of one instance that never served a query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Creation time.
    pub created_at: f64,
    /// Deletion time (on scale-in, or at the end of the simulation).
    pub deleted_at: f64,
}

impl InstanceRecord {
    /// Lifecycle length (the paper's per-instance cost).
    pub fn lifecycle(&self) -> f64 {
        (self.deleted_at - self.created_at).max(0.0)
    }
}

/// Aggregated simulation results.
///
/// Every query is served by exactly one instance, so served instances are
/// only counted and their lifecycles summed; a record is kept for each
/// instance that never served a query (the wasted warm capacity).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimulationMetrics {
    /// Per-query outcomes in arrival order.
    pub queries: Vec<QueryOutcome>,
    /// Lifecycle records of the instances that never served a query, in
    /// deletion order.
    pub unused: Vec<InstanceRecord>,
    /// Number of instances that served a query.
    pub served_instances: usize,
    /// Sum of every instance's lifecycle length (served and unused), added
    /// in deletion order.
    pub instance_seconds: f64,
}

impl SimulationMetrics {
    /// Account for an instance that served a query, alive over
    /// `[created_at, deleted_at]`.
    pub(crate) fn record_served(&mut self, created_at: f64, deleted_at: f64) {
        self.served_instances += 1;
        self.instance_seconds += (deleted_at - created_at).max(0.0);
    }

    /// Account for an instance deleted without serving a query.
    pub(crate) fn record_unused(&mut self, created_at: f64, deleted_at: f64) {
        let record = InstanceRecord {
            created_at,
            deleted_at,
        };
        self.instance_seconds += record.lifecycle();
        self.unused.push(record);
    }

    /// Number of instances created over the run.
    pub fn instance_count(&self) -> usize {
        self.served_instances + self.unused.len()
    }

    /// Number of simulated queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Fraction of queries that found a ready instance upon arrival
    /// (the paper's `hit_rate`).
    pub fn hit_rate(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().filter(|q| q.hit).count() as f64 / self.queries.len() as f64
    }

    /// Average response time in seconds (the paper's `rt_avg`).
    pub fn rt_avg(&self) -> f64 {
        mean(
            &self
                .queries
                .iter()
                .map(|q| q.response_time)
                .collect::<Vec<f64>>(),
        )
    }

    /// Average waiting time in seconds.
    pub fn waiting_avg(&self) -> f64 {
        mean(
            &self
                .queries
                .iter()
                .map(|q| q.waiting_time)
                .collect::<Vec<f64>>(),
        )
    }

    /// Total cost: the sum of all instance lifecycle lengths in seconds
    /// (the paper's `total_cost`).
    pub fn total_cost(&self) -> f64 {
        self.instance_seconds
    }

    /// Average cost per query.
    pub fn cost_per_query(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.total_cost() / self.queries.len() as f64
    }

    /// Fraction of queries that triggered a reactive cold start.
    pub fn cold_start_rate(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().filter(|q| q.cold_start).count() as f64 / self.queries.len() as f64
    }

    /// Response-time quantiles at the requested levels (Table II uses
    /// 75/95/99/99.9%).
    pub fn rt_quantiles(&self, levels: &[f64]) -> Result<Vec<f64>, SimulatorError> {
        if self.queries.is_empty() {
            return Err(SimulatorError::EmptyMetrics);
        }
        let rts: Vec<f64> = self.queries.iter().map(|q| q.response_time).collect();
        quantiles(&rts, levels).map_err(|_| SimulatorError::EmptyMetrics)
    }

    /// Variance of the response-time averages over consecutive windows of
    /// `window` queries — the QoS-stability metric of Fig. 5(b).
    pub fn windowed_rt_variance(&self, window: usize) -> Result<f64, SimulatorError> {
        self.windowed_variance(window, |q| q.response_time)
    }

    /// Variance of the hit-rate over consecutive windows of `window` queries
    /// — the QoS-stability metric of Fig. 5(a).
    pub fn windowed_hit_variance(&self, window: usize) -> Result<f64, SimulatorError> {
        self.windowed_variance(window, |q| if q.hit { 1.0 } else { 0.0 })
    }

    fn windowed_variance<F>(&self, window: usize, metric: F) -> Result<f64, SimulatorError>
    where
        F: Fn(&QueryOutcome) -> f64,
    {
        if window == 0 {
            return Err(SimulatorError::InvalidParameter("window must be >= 1"));
        }
        if self.queries.is_empty() {
            return Err(SimulatorError::EmptyMetrics);
        }
        let window_means: Vec<f64> = self
            .queries
            .chunks(window)
            .map(|chunk| mean(&chunk.iter().map(&metric).collect::<Vec<f64>>()))
            .collect();
        Ok(variance(&window_means))
    }

    /// Number of instances that never served a query (wasted warm capacity).
    pub fn unused_instances(&self) -> usize {
        self.unused.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rt: f64, hit: bool) -> QueryOutcome {
        QueryOutcome {
            response_time: rt,
            waiting_time: rt - 1.0,
            hit,
            cold_start: !hit,
        }
    }

    #[test]
    fn aggregates_are_computed_correctly() {
        let mut metrics = SimulationMetrics {
            queries: vec![outcome(2.0, true), outcome(4.0, false), outcome(6.0, true)],
            ..SimulationMetrics::default()
        };
        metrics.record_served(0.0, 10.0);
        metrics.record_served(5.0, 8.0);
        metrics.record_unused(7.0, 9.0);
        assert_eq!(metrics.query_count(), 3);
        assert!((metrics.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((metrics.rt_avg() - 4.0).abs() < 1e-12);
        assert!((metrics.waiting_avg() - 3.0).abs() < 1e-12);
        assert!((metrics.total_cost() - 15.0).abs() < 1e-12);
        assert!((metrics.cost_per_query() - 5.0).abs() < 1e-12);
        assert!((metrics.cold_start_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(metrics.unused_instances(), 1);
        assert_eq!(metrics.instance_count(), 3);
        assert_eq!(
            metrics.unused,
            vec![InstanceRecord {
                created_at: 7.0,
                deleted_at: 9.0
            }]
        );
    }

    #[test]
    fn empty_metrics_are_safe_or_error() {
        let empty = SimulationMetrics::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.rt_avg(), 0.0);
        assert_eq!(empty.total_cost(), 0.0);
        assert_eq!(empty.cost_per_query(), 0.0);
        assert!(empty.rt_quantiles(&[0.5]).is_err());
        assert!(empty.windowed_rt_variance(50).is_err());
    }

    #[test]
    fn quantiles_match_manual_computation() {
        let metrics = SimulationMetrics {
            queries: (1..=100).map(|i| outcome(i as f64, true)).collect(),
            ..SimulationMetrics::default()
        };
        let qs = metrics.rt_quantiles(&[0.75, 0.95, 0.99]).unwrap();
        assert!((qs[0] - 75.25).abs() < 0.5);
        assert!((qs[1] - 95.05).abs() < 0.5);
        assert!((qs[2] - 99.01).abs() < 0.5);
    }

    #[test]
    fn windowed_variance_detects_instability() {
        // Stable: identical response times.
        let stable = SimulationMetrics {
            queries: (0..200).map(|_| outcome(5.0, true)).collect(),
            ..SimulationMetrics::default()
        };
        assert!(stable.windowed_rt_variance(50).unwrap() < 1e-12);
        // Unstable: alternating windows of fast/slow responses.
        let unstable = SimulationMetrics {
            queries: (0..200)
                .map(|i| outcome(if (i / 50) % 2 == 0 { 1.0 } else { 21.0 }, true))
                .collect(),
            ..SimulationMetrics::default()
        };
        assert!(unstable.windowed_rt_variance(50).unwrap() > 50.0);
        assert!(unstable.windowed_hit_variance(50).unwrap() < 1e-12);
        assert!(unstable.windowed_rt_variance(0).is_err());
    }

    #[test]
    fn lifecycle_is_non_negative() {
        let rec = InstanceRecord {
            created_at: 5.0,
            deleted_at: 4.0,
        };
        assert_eq!(rec.lifecycle(), 0.0);
        let mut metrics = SimulationMetrics::default();
        metrics.record_served(5.0, 4.0);
        assert_eq!(metrics.total_cost(), 0.0);
    }
}
