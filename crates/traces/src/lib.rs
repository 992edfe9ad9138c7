//! Synthetic workload traces for the RobustScaler reproduction.
//!
//! The paper evaluates on three real-world traces (the proprietary CRS
//! container-registry trace, the Google cluster trace 2019 and the Alibaba
//! cluster trace 2018) that cannot be redistributed. Following the
//! substitution note of the README's paper → code index (above its "Paper
//! artifact" table), this crate generates synthetic traces that reproduce
//! the statistical characteristics the paper's algorithms actually depend
//! on — traffic level, periodic structure, noise, spikes, bursts and
//! heavy-tailed processing times — using the NHPP samplers of
//! `robustscaler-nhpp`:
//!
//! * [`generators::crs_like`] — 4 weeks, weekly+daily pattern, very low and
//!   noisy traffic, long processing times (container image builds),
//! * [`generators::google_like`] — 24 hours, diurnal pattern with recurrent
//!   spikes, moderate traffic,
//! * [`generators::alibaba_like`] — 5 days, strong daily pattern with
//!   recurrent spikes and one anomalous burst on day 4,
//! * [`generators::simulated_high_qps`] — the paper's closed-form intensity
//!   peaking at 10⁴ QPS (scalability study, Fig. 8 / Table I),
//! * [`generators::periodic_ground_truth`] — the closed-form daily intensity
//!   of the periodicity-regularization study (Table III).
//!
//! [`perturb`] implements the perturbations of §VII-B1/B3 (periodic
//! delete/add windows, whole-day removal, burst erasure).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generators;
pub mod perturb;

pub use generators::{
    alibaba_like, crs_like, google_like, periodic_ground_truth, simulated_high_qps,
    ProcessingTimeModel, TraceConfig,
};
pub use perturb::{amplify_windows, delete_windows, erase_burst, remove_day};
