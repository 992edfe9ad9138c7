//! RobustScaler — the end-to-end proactive autoscaling pipeline
//! (paper Section IV, Fig. 2).
//!
//! The pipeline wires the four modules together:
//!
//! 1. **Periodicity detection** (`robustscaler-timeseries`) on the
//!    aggregated QPS series of the training trace,
//! 2. **Historical query arrival modeling** (`robustscaler-nhpp`): the
//!    periodicity-regularized NHPP fitted with ADMM,
//! 3. **Query arrival prediction**: periodic extrapolation of the fitted
//!    intensity, and
//! 4. **Scaling plan** (`robustscaler-scaling`): HP/RT/cost-constrained
//!    decisions executed by the sequential planner.
//!
//! The result is an [`Autoscaler`](robustscaler_simulator::Autoscaler)
//! implementation ([`policy::RobustScalerPolicy`]) that can be replayed
//! against any trace by the simulator, plus evaluation helpers used by the
//! experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod evaluation;
pub mod pipeline;
pub mod policy;
pub mod variants;

pub use config::RobustScalerConfig;
pub use error::CoreError;
pub use evaluation::{evaluate_policy, relative_cost, EvaluationResult};
pub use pipeline::{RobustScalerPipeline, TrainedModel, TrainingInput};
pub use policy::RobustScalerPolicy;
pub use variants::{cost_target_idle, hp_alpha, rt_target_waiting, rule_kind, RobustScalerVariant};
