//! Experiment harness reproducing the paper's tables and figures.
//!
//! Each table/figure has a dedicated binary in `src/bin/` (indexed by the
//! README's "Paper artifact" table); this library provides the shared
//! pieces: scaled-down versions of the three evaluation workloads, Pareto
//! sweep helpers, plain-text table printing, and the paper's Monte Carlo
//! decision engine ([`montecarlo`], Algorithm 3) that Table I, Fig. 8 and
//! the exact engine's oracle tests run. The synthetic workloads are smaller
//! than the originals (see the substitution note above that table) so
//! that every experiment runs in minutes on a laptop, while preserving the
//! qualitative structure — periodicity, noise, spikes and bursts — that the
//! paper's comparisons rely on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod montecarlo;
pub mod sweep;
pub mod workloads;

pub use sweep::{print_table, run_policy_spec, ParetoPoint, PolicySpec};
pub use workloads::{alibaba_workload, crs_workload, google_workload, Workload};
