//! Scaling decision optimization for RobustScaler (paper Section VI).
//!
//! Given the predicted arrival intensity, the paper derives per-query
//! instance creation times from stochastically constrained optimization:
//!
//! * the **HP-constrained** rule (eqs. 2–3): the α-quantile of `ξ_i − τ_i`,
//! * the **RT-constrained** rule (eqs. 4–5): the root of
//!   `E[(τ − (ξ − x)⁺)⁺] = d − µ_s`,
//! * the **cost-constrained** rule (eqs. 6–7): the root of
//!   `E[(ξ − τ − x)⁺] = B − µ_τ − µ_s`,
//!
//! plus the κ threshold (eq. 8) and the sequential planning scheme
//! (Algorithm 4) that carries the provable hitting-probability guarantees of
//! Propositions 1 and 2.
//!
//! The paper solves each rule by Monte Carlo over R sampled arrival paths
//! (Algorithm 3). Under its NHPP, `Λ(now, ξ_i) ~ Gamma(i, 1)`, so with a
//! deterministic pending time each rule also has an exact solution, and
//! this crate implements only that: [`decisions`] defines the rules and the
//! decision they produce, [`exact`] computes the three decisions without
//! sampling, and [`planner`] walks them round by round. [`qos`] defines the
//! metrics and [`kappa`] the threshold. The Monte Carlo engine lives in the
//! experiment harness (`robustscaler_bench::montecarlo`), which runs the
//! paper's accuracy and scalability experiments and serves as the exact
//! engine's test oracle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decisions;
pub mod error;
pub mod exact;
pub mod kappa;
pub mod planner;
pub mod qos;

pub use decisions::{DecisionRule, ScalingDecision};
pub use error::ScalingError;
pub use exact::{decide_exact, ArrivalLaw};
pub use kappa::kappa_deterministic_pending;
pub use planner::{PlannerConfig, PlannerState, PlanningRound, SequentialPlanner};
pub use qos::{cost, hit, response_time, PendingTimeModel, QosOutcome};
