//! Time-series substrate for the RobustScaler reproduction.
//!
//! RobustScaler's first module (paper Fig. 2) aggregates the raw query
//! arrival log into a QPS series, applies robust filtering, and detects
//! periodic patterns even under noise, missing data and anomalies. This
//! crate provides:
//!
//! * [`series::TimeSeries`] — a regularly spaced series with explicit
//!   missing-value support, plus aggregation from raw arrival timestamps,
//! * [`ring::CountRing`] — bounded, incremental count aggregation for the
//!   online serving layer (`robustscaler-online`),
//! * [`filters`] — Hampel filtering, missing-value interpolation and linear
//!   detrending, and
//! * [`periodicity`] — a robust autocorrelation-based period detector in the
//!   spirit of RobustPeriod (the paper's reference \[18\]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod filters;
pub mod periodicity;
pub mod ring;
pub mod series;

pub use error::TimeSeriesError;
pub use periodicity::{
    detect_period, detect_periods, refine_period, PeriodicityConfig, PeriodicityResult,
};
pub use ring::{CountRing, RingSnapshot, RING_SNAPSHOT_VERSION};
pub use series::TimeSeries;
