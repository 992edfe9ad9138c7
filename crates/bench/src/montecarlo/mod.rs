//! The paper's Monte Carlo decision engine (Algorithm 3).
//!
//! The paper solves each decision rule over R sampled arrival paths.
//! Serving uses the exact time-change solution of
//! [`robustscaler_scaling::exact`] and draws no sample, so this engine lives
//! with the experiments that still need it: Table I's accuracy columns,
//! Fig. 8's Monte Carlo runtime curve, the `*_vs_samples` criterion groups
//! and the oracle proptests that check the exact engine.
//!
//! [`arrivals`] samples the i-th upcoming arrival time from a forecast
//! intensity, [`decisions`] implements the three rules on those samples and
//! [`sort_search`] implements Algorithm 3's root finding.

pub mod arrivals;
pub mod decisions;
pub mod sort_search;

pub use arrivals::ArrivalSampler;
pub use decisions::{decide, decide_batch, decide_with, DecisionConfig, DecisionScratch};
pub use sort_search::{solve_idle_cost_root, solve_waiting_root};
