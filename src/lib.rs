//! # RobustScaler (reproduction)
//!
//! A from-scratch Rust reproduction of **"RobustScaler: QoS-Aware
//! Autoscaling for Complex Workloads"** (Qian et al., ICDE 2022,
//! arXiv:2204.07197) — a proactive autoscaler for the *scaling-per-query*
//! scenario built on non-homogeneous Poisson process (NHPP) modeling and
//! stochastically constrained optimization.
//!
//! This facade crate re-exports the individual subsystem crates:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`stats`] | distributions, quantiles, special functions |
//! | [`linalg`] | banded matrices, banded Cholesky, conjugate gradient, difference operators |
//! | [`timeseries`] | QPS series, robust filtering, periodicity detection |
//! | [`nhpp`] | the regularized NHPP model, ADMM trainer, forecasting, exact samplers |
//! | [`parallel`] | std-only scoped-thread chunked parallel map (no crates.io, so no rayon) |
//! | [`scaling`] | exact HP/RT/cost-constrained decisions, κ threshold, sequential planner |
//! | [`simulator`] | scaling-per-query event simulator, Backup Pool / AdapBP baselines, metrics |
//! | [`traces`] | synthetic CRS/Google/Alibaba-like traces and perturbation injectors |
//! | [`core`] | the end-to-end pipeline and the RobustScaler-HP/-RT/-cost policies |
//! | [`online`] | online serving: incremental ingestion, drift-triggered refits, multi-tenant fleet, closed-loop harness |
//!
//! ## Quickstart
//!
//! ```no_run
//! use robustscaler::core::{RobustScalerConfig, RobustScalerPipeline, RobustScalerVariant};
//! use robustscaler::core::evaluate_policy;
//! use robustscaler::simulator::SimulationConfig;
//! use robustscaler::traces::{google_like, TraceConfig};
//!
//! // 1. Generate (or load) a workload trace and split it into train / test.
//! let trace = google_like(&TraceConfig::google_default());
//! let (train, test) = trace.split_at(trace.start() + 0.75 * trace.duration()).unwrap();
//!
//! // 2. Train the NHPP pipeline and build the HP-constrained policy.
//! let config = RobustScalerConfig::for_variant(
//!     RobustScalerVariant::HittingProbability { target: 0.9 },
//! );
//! let pipeline = RobustScalerPipeline::new(config).unwrap();
//! let mut policy = pipeline.build_policy(&train).unwrap();
//!
//! // 3. Replay the test trace and inspect QoS/cost.
//! let (result, _metrics) =
//!     evaluate_policy(&test, &mut policy, SimulationConfig::default()).unwrap();
//! println!("hit rate {:.3}, relative cost {:.2}", result.hit_rate, result.relative_cost);
//! ```

#![warn(missing_docs)]

pub use robustscaler_core as core;
pub use robustscaler_linalg as linalg;
pub use robustscaler_nhpp as nhpp;
pub use robustscaler_online as online;
pub use robustscaler_parallel as parallel;
pub use robustscaler_scaling as scaling;
pub use robustscaler_simulator as simulator;
pub use robustscaler_stats as stats;
pub use robustscaler_timeseries as timeseries;
pub use robustscaler_traces as traces;
