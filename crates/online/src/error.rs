//! Error type of the online serving layer.

use robustscaler_core::CoreError;
use robustscaler_scaling::ScalingError;
use robustscaler_simulator::SimulatorError;
use robustscaler_timeseries::TimeSeriesError;
use std::fmt;

/// Errors produced by the online serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// A configuration value was invalid.
    InvalidConfig(&'static str),
    /// A planning round was requested before the scaler accumulated enough
    /// complete buckets for its first model fit.
    NotTrained,
    /// The offline pipeline (training/forecasting) failed.
    Core(CoreError),
    /// The time-series layer failed.
    TimeSeries(TimeSeriesError),
    /// The scaling decision layer failed.
    Scaling(ScalingError),
    /// The simulator failed (closed-loop harness runs).
    Simulator(SimulatorError),
    /// A snapshot carries a format version this build does not understand.
    UnsupportedSnapshotVersion {
        /// Version found in the snapshot.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// A checkpoint store operation failed. `shard` names the offending
    /// shard file when the failure is shard-local (a corrupt or truncated
    /// shard must be reported per shard, never silently zeroing a tenant).
    Checkpoint {
        /// The shard file the failure is scoped to, if any.
        shard: Option<String>,
        /// What went wrong.
        message: String,
    },
    /// A tenant's round worker panicked. The panic is caught at the tenant
    /// boundary (`catch_unwind` in the fleet's round worker) and converted
    /// into this per-tenant error so one panicking tenant never takes down
    /// the round for the hundreds sharing the process.
    TenantPanicked {
        /// The tenant whose round panicked.
        tenant: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The tenant is hibernated (cold, possibly paged out to its
    /// checkpoint shard); planning is skipped until an arrival or its
    /// scheduled wake time brings it back.
    Hibernated {
        /// The hibernated tenant.
        tenant: u64,
    },
    /// The tenant is quarantined after repeated consecutive failures;
    /// planning is suspended until its next scheduled probe round.
    Quarantined {
        /// The quarantined tenant.
        tenant: u64,
        /// The fleet round at which the next recovery probe runs.
        until_round: u64,
    },
    /// A deterministically injected planning fault (chaos testing via
    /// [`crate::faults::FaultPlan`]).
    Injected {
        /// The fleet round the fault fired in.
        round: u64,
        /// The tenant the fault targeted.
        tenant: u64,
    },
    /// The whole planning round died: a worker thread panicked outside any
    /// tenant boundary (injected worker faults, pool bugs). Tenant state
    /// may be partially advanced; the caller should checkpoint/restore or
    /// retry the round.
    RoundPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A session trace could not be recorded or parsed. `line` names the
    /// offending 1-based trace line when the failure is line-local (a
    /// corrupt or truncated record must be reported by position, never as
    /// a bare parse error).
    Trace {
        /// The trace line the failure is scoped to, if any.
        line: Option<usize>,
        /// What went wrong.
        message: String,
    },
    /// Strict replay of a recorded trace regenerated a different value
    /// than the recording: the pointed diff names exactly where.
    ReplayDivergence {
        /// The planning round the divergence occurred in.
        round: u64,
        /// The tenant whose stream diverged.
        tenant: u64,
        /// The diverging field (e.g. `decisions[3].creation_time`).
        field: String,
        /// The recorded value.
        expected: String,
        /// The regenerated value.
        got: String,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            OnlineError::NotTrained => {
                write!(f, "scaler has not accumulated enough history for a model")
            }
            OnlineError::Core(e) => write!(f, "pipeline error: {e}"),
            OnlineError::TimeSeries(e) => write!(f, "time-series error: {e}"),
            OnlineError::Scaling(e) => write!(f, "scaling error: {e}"),
            OnlineError::Simulator(e) => write!(f, "simulator error: {e}"),
            OnlineError::UnsupportedSnapshotVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads only {supported})"
            ),
            OnlineError::Checkpoint { shard, message } => match shard {
                Some(shard) => write!(f, "checkpoint shard `{shard}`: {message}"),
                None => write!(f, "checkpoint: {message}"),
            },
            OnlineError::TenantPanicked { tenant, message } => {
                write!(f, "tenant {tenant} panicked during its round: {message}")
            }
            OnlineError::Hibernated { tenant } => {
                write!(f, "tenant {tenant} is hibernated (cold)")
            }
            OnlineError::Quarantined {
                tenant,
                until_round,
            } => write!(
                f,
                "tenant {tenant} is quarantined until round {until_round}"
            ),
            OnlineError::Injected { round, tenant } => {
                write!(
                    f,
                    "injected planning fault (round {round}, tenant {tenant})"
                )
            }
            OnlineError::RoundPanicked { message } => {
                write!(f, "planning round panicked: {message}")
            }
            OnlineError::Trace { line, message } => match line {
                Some(line) => write!(f, "trace line {line}: {message}"),
                None => write!(f, "trace: {message}"),
            },
            OnlineError::ReplayDivergence {
                round,
                tenant,
                field,
                expected,
                got,
            } => write!(
                f,
                "replay diverged at round {round}, tenant {tenant}, field `{field}`: \
                 expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<CoreError> for OnlineError {
    fn from(e: CoreError) -> Self {
        OnlineError::Core(e)
    }
}

impl From<TimeSeriesError> for OnlineError {
    fn from(e: TimeSeriesError) -> Self {
        OnlineError::TimeSeries(e)
    }
}

impl From<ScalingError> for OnlineError {
    fn from(e: ScalingError) -> Self {
        OnlineError::Scaling(e)
    }
}

impl From<SimulatorError> for OnlineError {
    fn from(e: SimulatorError) -> Self {
        OnlineError::Simulator(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: OnlineError = CoreError::InvalidConfig("x").into();
        assert!(e.to_string().contains("pipeline"));
        let e: OnlineError = TimeSeriesError::AllMissing.into();
        assert!(e.to_string().contains("time-series"));
        let e: OnlineError = ScalingError::InvalidParameter("x").into();
        assert!(e.to_string().contains("scaling"));
        let e: OnlineError = SimulatorError::EmptyMetrics.into();
        assert!(e.to_string().contains("simulator"));
        assert!(OnlineError::NotTrained.to_string().contains("history"));
        assert!(OnlineError::InvalidConfig("w").to_string().contains("w"));
        let e = OnlineError::Trace {
            line: Some(12),
            message: "bad record".to_string(),
        };
        assert!(e.to_string().contains("line 12"));
        let e = OnlineError::Trace {
            line: None,
            message: "io failure".to_string(),
        };
        assert!(e.to_string().contains("trace: io failure"));
        let e = OnlineError::TenantPanicked {
            tenant: 4,
            message: "boom".to_string(),
        };
        assert!(e.to_string().contains("tenant 4") && e.to_string().contains("boom"));
        let e = OnlineError::Hibernated { tenant: 7 };
        assert!(e.to_string().contains("tenant 7") && e.to_string().contains("hibernated"));
        let e = OnlineError::Quarantined {
            tenant: 2,
            until_round: 9,
        };
        assert!(e.to_string().contains("tenant 2") && e.to_string().contains("round 9"));
        let e = OnlineError::Injected {
            round: 5,
            tenant: 1,
        };
        assert!(e.to_string().contains("round 5") && e.to_string().contains("tenant 1"));
        let e = OnlineError::RoundPanicked {
            message: "worker died".to_string(),
        };
        assert!(e.to_string().contains("worker died"));
        let e = OnlineError::ReplayDivergence {
            round: 3,
            tenant: 1,
            field: "decisions[0].creation_time".to_string(),
            expected: "410.5".to_string(),
            got: "411.0".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("round 3"));
        assert!(text.contains("tenant 1"));
        assert!(text.contains("decisions[0].creation_time"));
        assert!(text.contains("410.5") && text.contains("411.0"));
    }
}
