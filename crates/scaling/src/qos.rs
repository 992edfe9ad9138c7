//! QoS and cost metrics of the scaling-per-query model (paper §VI-A).
//!
//! For query `i` with arrival time `ξ`, instance creation time `x`, pending
//! (startup) time `τ` and processing time `s`:
//!
//! * response time `RT = s + (τ − (ξ − x)⁺)⁺`,
//! * hit indicator `1{ξ > x + τ}` (the instance is ready on arrival),
//! * instance cost (lifecycle length) `(ξ − x − τ)⁺ + τ + s`.
//!
//! These closed forms assume the instance was actually created at `x ≤ ξ`;
//! when the policy never created an instance before the arrival the caller
//! passes `x = ξ` (create-on-arrival), and the formulas reduce to the
//! reactive cold-start case.

use crate::error::ScalingError;
use serde::{Deserialize, Serialize};

/// Positive part `(v)⁺`.
#[inline]
fn positive_part(v: f64) -> f64 {
    v.max(0.0)
}

/// Response time of a query (paper's compact form
/// `RT_i = s_i + (τ_i − (ξ_i − x_i)⁺)⁺`).
pub fn response_time(arrival: f64, creation: f64, pending: f64, processing: f64) -> f64 {
    processing + positive_part(pending - positive_part(arrival - creation))
}

/// Whether the query hits a ready instance (`ξ > x + τ`).
pub fn hit(arrival: f64, creation: f64, pending: f64) -> bool {
    arrival > creation + pending
}

/// Lifecycle cost of the instance serving the query
/// (`cost_i = (ξ − x − τ)⁺ + τ + s`).
pub fn cost(arrival: f64, creation: f64, pending: f64, processing: f64) -> f64 {
    positive_part(arrival - creation - pending) + pending + processing
}

/// Per-query outcome bundling the three metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosOutcome {
    /// Response time in seconds.
    pub response_time: f64,
    /// Whether the instance was ready upon arrival.
    pub hit: bool,
    /// Lifecycle cost (seconds of instance lifetime).
    pub cost: f64,
    /// Idle time of the instance before the query arrived.
    pub idle_time: f64,
    /// Waiting time of the query before processing started.
    pub waiting_time: f64,
}

impl QosOutcome {
    /// Evaluate all metrics for one query. `creation` must not exceed
    /// `arrival` (the simulator caps it — an instance that was never
    /// pre-created is created exactly at the arrival).
    pub fn evaluate(arrival: f64, creation: f64, pending: f64, processing: f64) -> Self {
        debug_assert!(
            creation <= arrival + 1e-9,
            "creation {creation} must be <= arrival {arrival}"
        );
        Self {
            response_time: response_time(arrival, creation, pending, processing),
            hit: hit(arrival, creation, pending),
            cost: cost(arrival, creation, pending, processing),
            idle_time: positive_part(arrival - creation - pending),
            waiting_time: positive_part(pending - positive_part(arrival - creation)),
        }
    }
}

/// The pending (instance startup) time model used when planning.
///
/// The paper's experiments use a fixed pod pending time (13 s in the
/// scalability study). Planning is exact for a deterministic pending time
/// (see [`crate::exact`]); the simulator's own pending-time distribution
/// may still be random.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PendingTimeModel {
    /// Deterministic pending time of the given length (seconds).
    Deterministic(f64),
}

impl PendingTimeModel {
    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), ScalingError> {
        let PendingTimeModel::Deterministic(v) = self;
        if !(*v >= 0.0) || !v.is_finite() {
            return Err(ScalingError::InvalidParameter(
                "deterministic pending time must be finite and >= 0",
            ));
        }
        Ok(())
    }

    /// Expected pending time `µ_τ`.
    pub fn mean(&self) -> f64 {
        let PendingTimeModel::Deterministic(v) = self;
        *v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_time_covers_all_three_cases() {
        // Instance ready before arrival: RT = s.
        assert_eq!(response_time(100.0, 80.0, 10.0, 5.0), 5.0);
        // Instance pending on arrival: RT = x + τ − ξ + s.
        assert_eq!(response_time(100.0, 95.0, 10.0, 5.0), 10.0);
        // Instance created at arrival (reactive): RT = τ + s.
        assert_eq!(response_time(100.0, 100.0, 13.0, 5.0), 18.0);
    }

    #[test]
    fn hit_requires_ready_instance() {
        assert!(hit(100.0, 80.0, 10.0));
        assert!(!hit(100.0, 95.0, 10.0));
        assert!(!hit(100.0, 100.0, 0.1));
        // Boundary: arrival exactly at readiness is not a hit (strict >).
        assert!(!hit(100.0, 90.0, 10.0));
    }

    #[test]
    fn cost_adds_idle_time_to_the_fixed_part() {
        // Ready 10 s early: idle 10 s + pending 10 + processing 5.
        assert_eq!(cost(100.0, 80.0, 10.0, 5.0), 25.0);
        // Created at arrival: no idle time.
        assert_eq!(cost(100.0, 100.0, 10.0, 5.0), 15.0);
        // Pending when the query arrives: no idle time either.
        assert_eq!(cost(100.0, 95.0, 10.0, 5.0), 15.0);
    }

    #[test]
    fn outcome_is_consistent_across_fields() {
        let o = QosOutcome::evaluate(100.0, 70.0, 10.0, 5.0);
        assert!(o.hit);
        assert_eq!(o.response_time, 5.0);
        assert_eq!(o.idle_time, 20.0);
        assert_eq!(o.waiting_time, 0.0);
        assert_eq!(o.cost, 35.0);

        let o2 = QosOutcome::evaluate(100.0, 96.0, 10.0, 5.0);
        assert!(!o2.hit);
        assert_eq!(o2.waiting_time, 6.0);
        assert_eq!(o2.response_time, 11.0);
        assert_eq!(o2.idle_time, 0.0);
        // The identity RT = s + waiting always holds.
        assert_eq!(o2.response_time, 5.0 + o2.waiting_time);
    }

    #[test]
    fn pending_model_validates() {
        assert!(PendingTimeModel::Deterministic(-1.0).validate().is_err());
        assert!(PendingTimeModel::Deterministic(f64::NAN)
            .validate()
            .is_err());
        let det = PendingTimeModel::Deterministic(13.0);
        det.validate().unwrap();
        assert_eq!(det.mean(), 13.0);
    }
}
