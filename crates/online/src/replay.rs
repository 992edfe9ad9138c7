//! Recorded-trace replay: versioned JSONL session traces, deterministic
//! re-execution, and strict/lenient validation.
//!
//! Golden *scalars* (hit rate 0.9053, `rt_avg` 20.96 s) pin the end of a
//! run but not its path: a refactor can reshuffle per-round plans, refit
//! timing or queue behavior while the aggregates stay inside their bands.
//! This module records the *whole session* — every arrival batch, every
//! plan, every refit, every queue drain — as one JSONL trace, and replays
//! it by re-executing the session from the header (same seeds, same bus
//! drain boundaries) and comparing the regenerated stream field by field
//! against the recorded one.
//!
//! ## Trace format (v1)
//!
//! One [`TraceRecord`] per line. Line 1 is always [`TraceRecord::Header`]
//! (format version, session kind, seed, tenant count, ring origin, the
//! full [`OnlineConfig`] and — when an arrival bus was attached — its
//! [`BusConfig`]). After it, in session order:
//!
//! * [`TraceRecord::Install`] — an externally fitted model installed into
//!   a tenant (warm starts). Replay *executes* it.
//! * [`TraceRecord::Arrivals`] — one tenant's arrivals visible to a round:
//!   `direct: true` batches were ingested synchronously (replay ingests
//!   them), `direct: false` batches were drained from the arrival bus at
//!   the round boundary (replay enqueues them and lets the round drain).
//! * [`TraceRecord::Round`] — a planning round boundary (round index,
//!   wall-clock `now`, per-tenant `covered` counts). Replay runs the round.
//! * [`TraceRecord::Refit`] — a refit that ran. [`RefitTrigger::Explicit`]
//!   refits (driver-initiated, outside a round) are *executed* by replay;
//!   `First`/`Scheduled`/`Drift`/`Probe` refits fire inside rounds and are
//!   *validated* against the refits the replayed round regenerates.
//! * [`TraceRecord::Plan`] — one tenant's planning outcome for a round.
//!   Validated bit-for-bit (every decision field compared as f64 bits).
//! * [`TraceRecord::Queue`] — aggregate queue stats after a round.
//!   `drained`/`drains` are validated; the producer-side counters
//!   (`enqueued`, `dropped_full`, `queued_peak`) are recorded for audit
//!   but not re-derivable (replay enqueues only the *accepted* arrivals),
//!   so they are not compared.
//! * [`TraceRecord::Qos`] — final serving counters and (harness sessions)
//!   the QoS headline metrics. Counters are validated; the QoS scalars
//!   are checked against [`PolicyBands`].
//!
//! ## Strict vs lenient
//!
//! [`ReplayMode::Strict`] fails on the first divergence with a pointed
//! diff — [`OnlineError::ReplayDivergence`] names the round, tenant,
//! field, expected and got. [`ReplayMode::Lenient`] collects every
//! divergence into the [`ReplayReport`] and reports band violations
//! instead of failing, for auditing sessions recorded by *older* builds
//! whose bit-level behavior has intentionally changed.
//!
//! ## Recording order caveat
//!
//! Within one round gap, the recorder serializes scaler events (installs,
//! explicit refits) *before* directly ingested arrivals. Drivers that
//! interleave `ingest` with `refit_now` between two rounds and depend on
//! that order should route arrivals through the bus (bus batches are
//! drained at the boundary, after all between-round events, exactly as
//! recorded).

use crate::error::OnlineError;
use crate::fleet::TenantFleet;
use crate::ingest::{ArrivalBus, BusConfig, QueueStats};
use crate::scaler::{OnlineConfig, OnlineScaler, OnlineStats};
use robustscaler_nhpp::NhppModel;
use robustscaler_scaling::{PlanningRound, ScalingDecision};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Trace format version written by [`TraceRecorder`]; bump on any record
/// layout change and keep [`RecordedTrace::parse`] reading every version
/// still present in checked-in golden corpora.
///
/// v2 added the optional `faults` / `supervisor` header fields (chaos
/// sessions replay their injected faults and quarantine decisions); v1
/// traces parse as fault-free sessions under the default supervisor.
///
/// v3 added the optional `residency` header field and the
/// [`TraceRecord::Residency`] record (hibernate/wake transitions of
/// activity-tiered fleets replay and validate bit-for-bit); v1/v2 traces
/// parse as always-hot sessions.
///
/// v4 added the optional `sharing` header field: the cross-tenant
/// sharing / plan-reuse policy ([`crate::sharing::SharingConfig`]) the
/// session ran under, re-applied by replay so shared-sampling and
/// plan-cache universes reproduce bit-for-bit. Pre-v4 traces parse as
/// sharing-off sessions (which they were — the setting did not exist).
/// Older v4 headers also carry a retired `decision_dedup` key; it is
/// ignored, since dedup never changed a plan bit. Their `supervisor` may
/// also carry the retired `recovery` and `snapshot_every` keys, which are
/// ignored too: a session recorded with `"recovery":"RestoreSnapshot"`
/// replays with forced-refit probes, the only recovery there is. (No
/// golden carries one; `sharing.jsonl` recorded `ForceRefit`.)
pub const TRACE_FORMAT_VERSION: u32 = 4;

/// What kind of session a trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionKind {
    /// A multi-tenant [`TenantFleet`] session.
    Fleet,
    /// A single-scaler session (the closed-loop harness's `OnlinePolicy`).
    Single,
}

/// Why a refit ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefitTrigger {
    /// The first fit, once enough complete buckets accumulated.
    First,
    /// A scheduled rolling refit (`refit_interval` elapsed).
    Scheduled,
    /// An early refit forced by the drift detector.
    Drift,
    /// A driver-initiated refit ([`OnlineScaler::refit_now`]) outside a
    /// planning round; replay re-executes these rather than validating.
    Explicit,
    /// A supervised probe's forced recovery refit. Runs *inside* a fleet
    /// round, so replay regenerates and validates it like `Scheduled`.
    Probe,
}

/// One scaler-side event captured while tracing is enabled (refits with
/// their trigger, model installs) — harvested by the recorder at round
/// boundaries via [`OnlineScaler::take_trace_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScalerEvent {
    /// A refit ran at `at`.
    Refit {
        /// When the refit ran.
        at: f64,
        /// What triggered it.
        trigger: RefitTrigger,
        /// Fingerprint of the freshly fitted model.
        fingerprint: String,
    },
    /// An externally fitted model was installed at `at`.
    Install {
        /// The `now` passed to [`OnlineScaler::install_model`].
        at: f64,
        /// Fingerprint of the installed model.
        fingerprint: String,
        /// The installed model itself (replay re-installs it verbatim).
        model: NhppModel,
    },
}

/// Why a hibernated tenant woke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WakeReason {
    /// Arrivals landed on its queue.
    Arrival,
    /// Its scheduled wake time (from the quiescence forecast) passed.
    Due,
    /// The driver touched it directly (`tenant_mut` / `ingest`).
    Access,
}

/// One residency transition of an activity-tiered fleet (see
/// [`crate::fleet::ResidencyConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResidencyEvent {
    /// The tenant went cold: planning skipped until a wake trigger.
    Hibernate,
    /// The tenant came back hot.
    Wake {
        /// What woke it.
        reason: WakeReason,
    },
}

/// Trace line 1: everything replay needs to rebuild the session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Trace format version ([`TRACE_FORMAT_VERSION`]).
    pub version: u32,
    /// Fleet or single-scaler session.
    pub session: SessionKind,
    /// The base seed: the fleet seed per-tenant seeds are derived from,
    /// or the single scaler's pipeline seed.
    pub seed: u64,
    /// Number of tenants (always 1 for [`SessionKind::Single`]).
    pub tenants: usize,
    /// The bucket-grid origin every ring was anchored at.
    pub origin: f64,
    /// The full serving configuration.
    pub online: OnlineConfig,
    /// The arrival-bus configuration, when a bus was attached.
    pub bus: Option<BusConfig>,
    /// The fault plan active while recording, when chaos was enabled —
    /// replay re-applies it so every injected fault (and therefore every
    /// quarantine and probe) reproduces. Absent in v1 traces and fault-free
    /// sessions.
    pub faults: Option<crate::faults::FaultPlan>,
    /// The fleet supervision policy the session ran under; absent in v1
    /// traces and single-scaler sessions (replay then uses the default).
    pub supervisor: Option<crate::fleet::SupervisorConfig>,
    /// The residency policy, when activity tiering was enabled — replay
    /// re-enables it (paging off: a resident-cold tenant is
    /// bit-equivalent to a paged one) so hibernation and wake decisions
    /// reproduce. Absent in pre-v3 traces and always-hot sessions.
    pub residency: Option<crate::fleet::ResidencyConfig>,
    /// The cross-tenant sharing / plan-reuse policy the session ran under
    /// — replay re-applies it so the shared-sampling and plan-cache
    /// universes reproduce bit-for-bit. Absent in pre-v4 traces
    /// (sharing-off sessions by construction).
    pub sharing: Option<crate::sharing::SharingConfig>,
}

/// One tenant's planning outcome for one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Round index.
    pub round: u64,
    /// Tenant index.
    pub tenant: u64,
    /// The error display string when the tenant's round errored (not
    /// trained yet, ...); `None` for successful plans.
    pub error: Option<String>,
    /// [`PlanningRound::expected_arrivals_in_window`] (compared as bits).
    pub expected_arrivals_in_window: f64,
    /// [`PlanningRound::decisions`] (every field compared, f64s as bits).
    pub decisions: Vec<ScalingDecision>,
}

/// A refit event: executed on replay when `trigger` is
/// [`RefitTrigger::Explicit`], validated against the regenerated refit
/// stream otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefitRecord {
    /// Round index the event was recorded under.
    pub round: u64,
    /// Tenant index.
    pub tenant: u64,
    /// When the refit ran.
    pub at: f64,
    /// What triggered it.
    pub trigger: RefitTrigger,
    /// Fingerprint of the resulting model (FNV-1a 64 over its JSON).
    pub fingerprint: String,
}

/// Final QoS and serving counters; last record of a complete trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosRecord {
    /// Aggregate serving counters (validated field by field on replay).
    pub stats: OnlineStats,
    /// Aggregate queue stats (`drained`/`drains` validated).
    pub queue: Option<QueueStats>,
    /// Harness sessions: fraction of queries that hit a ready instance.
    pub hit_rate: Option<f64>,
    /// Harness sessions: average response time (seconds).
    pub rt_avg: Option<f64>,
    /// Harness sessions: cost relative to the reactive baseline.
    pub relative_cost: Option<f64>,
    /// Harness sessions: number of replayed queries.
    pub queries: Option<u64>,
}

/// One line of a session trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // one Header per trace; boxing it would noise up every parse site
pub enum TraceRecord {
    /// Line 1: session identity and configuration.
    Header(TraceHeader),
    /// An externally fitted model installed into a tenant (executed on
    /// replay).
    Install {
        /// Round index the install was recorded under.
        round: u64,
        /// Tenant index.
        tenant: u64,
        /// The `now` passed to [`OnlineScaler::install_model`].
        at: f64,
        /// Fingerprint of `model` (consistency check).
        fingerprint: String,
        /// The installed model, verbatim.
        model: NhppModel,
    },
    /// One tenant's arrivals visible to round `round`.
    Arrivals {
        /// Round index the arrivals were recorded under.
        round: u64,
        /// Tenant index.
        tenant: u64,
        /// `true`: ingested synchronously (replay ingests directly);
        /// `false`: drained from the bus at the round boundary (replay
        /// enqueues, the round drains).
        direct: bool,
        /// The timestamps, in ingestion order (bus batches are stored in
        /// drain order, i.e. sorted by `f64::total_cmp`).
        times: Vec<f64>,
    },
    /// A planning round boundary (replay runs the round).
    Round {
        /// Round index (consecutive from 0).
        round: u64,
        /// The round's wall-clock `now`.
        now: f64,
        /// Per-tenant covered counts passed to the planner.
        covered: Vec<usize>,
    },
    /// A refit event (see [`RefitRecord`]).
    Refit(RefitRecord),
    /// One tenant's planning outcome (see [`PlanRecord`]).
    Plan(PlanRecord),
    /// One residency transition (hibernate or wake) observed by round
    /// `round` — validated against the regenerated transition stream on
    /// replay. Only present in v3+ traces of residency-enabled sessions.
    Residency {
        /// Round index the transition was recorded under.
        round: u64,
        /// Tenant id (equal to its index at fleet construction).
        tenant: u64,
        /// The transition.
        event: ResidencyEvent,
    },
    /// Aggregate queue stats after round `round`.
    Queue {
        /// Round index.
        round: u64,
        /// Aggregate queue stats at the end of the round.
        stats: QueueStats,
    },
    /// Final QoS metrics and counters (see [`QosRecord`]).
    Qos(QosRecord),
}

impl TraceRecord {
    /// The tenant index a record is scoped to, if any (bounds-checked
    /// against the header at parse time).
    fn tenant(&self) -> Option<u64> {
        match self {
            TraceRecord::Install { tenant, .. }
            | TraceRecord::Arrivals { tenant, .. }
            | TraceRecord::Residency { tenant, .. } => Some(*tenant),
            TraceRecord::Refit(r) => Some(r.tenant),
            TraceRecord::Plan(p) => Some(p.tenant),
            _ => None,
        }
    }
}

/// Fingerprint of a model: FNV-1a 64 over its JSON serialization,
/// lowercase hex — cheap, stable, and sensitive to any parameter change.
pub fn model_fingerprint(model: &NhppModel) -> String {
    let json = serde_json::to_string(model).expect("an NhppModel always serializes");
    format!("{:016x}", crate::checkpoint::fnv1a64(json.as_bytes()))
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Destination for serialized trace lines. Implementations append lines in
/// order; [`TraceSink::flush`] must make everything written so far durable.
pub trait TraceSink: Send {
    /// Append one serialized record (no trailing newline).
    fn write_line(&mut self, line: &str) -> Result<(), OnlineError>;
    /// Flush buffered lines.
    fn flush(&mut self) -> Result<(), OnlineError>;
}

/// [`TraceSink`] writing JSONL to a buffered file.
#[derive(Debug)]
pub struct FileSink {
    writer: std::io::BufWriter<fs::File>,
    path: String,
}

impl FileSink {
    /// Create (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, OnlineError> {
        let path = path.as_ref();
        let file = fs::File::create(path).map_err(|e| OnlineError::Trace {
            line: None,
            message: format!("create {}: {e}", path.display()),
        })?;
        Ok(Self {
            writer: std::io::BufWriter::new(file),
            path: path.display().to_string(),
        })
    }
}

impl TraceSink for FileSink {
    fn write_line(&mut self, line: &str) -> Result<(), OnlineError> {
        writeln!(self.writer, "{line}").map_err(|e| OnlineError::Trace {
            line: None,
            message: format!("write {}: {e}", self.path),
        })
    }

    fn flush(&mut self) -> Result<(), OnlineError> {
        self.writer.flush().map_err(|e| OnlineError::Trace {
            line: None,
            message: format!("flush {}: {e}", self.path),
        })
    }
}

/// In-memory [`TraceSink`] for tests: lines land in a shared buffer that
/// stays readable after the recorder is finished.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the recorded lines (clone before handing the sink to a
    /// recorder).
    pub fn lines(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl TraceSink for MemorySink {
    fn write_line(&mut self, line: &str) -> Result<(), OnlineError> {
        self.lines
            .lock()
            .expect("memory sink lock poisoned")
            .push(line.to_string());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), OnlineError> {
        Ok(())
    }
}

/// Summary of a finished recording, for bench/CI reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Where the trace was written (`"<memory>"` for non-file sinks).
    pub path: String,
    /// Records written after the header.
    pub records: u64,
    /// Rounds recorded.
    pub rounds: u64,
}

/// Serializes session events into a [`TraceSink`], one JSONL line per
/// record, with the round counter and per-tenant direct-arrival buffers
/// the fleet/harness hooks need.
///
/// A recorder is detachable: [`TenantFleet::take_recorder`] hands it back
/// (e.g. across a kill + restore) and [`TenantFleet::start_recording`]
/// re-attaches it, continuing the same trace — warm-start installs are
/// only emitted for a recorder that has recorded nothing yet.
pub struct TraceRecorder {
    sink: Box<dyn TraceSink>,
    path: String,
    tenant_count: usize,
    round: u64,
    records: u64,
    pending_direct: Vec<Vec<f64>>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("path", &self.path)
            .field("round", &self.round)
            .field("records", &self.records)
            .finish()
    }
}

impl TraceRecorder {
    /// Start a recording into `sink`: writes the header line immediately.
    pub fn new(mut sink: Box<dyn TraceSink>, header: &TraceHeader) -> Result<Self, OnlineError> {
        Self::write_record(&mut *sink, &TraceRecord::Header(header.clone()))?;
        Ok(Self {
            sink,
            path: "<memory>".to_string(),
            tenant_count: header.tenants,
            round: 0,
            records: 0,
            pending_direct: vec![Vec::new(); header.tenants],
        })
    }

    /// Start a recording into a fresh file at `path`.
    pub fn to_file(path: impl AsRef<Path>, header: &TraceHeader) -> Result<Self, OnlineError> {
        let display = path.as_ref().display().to_string();
        let mut recorder = Self::new(Box::new(FileSink::create(path)?), header)?;
        recorder.path = display;
        Ok(recorder)
    }

    /// Records written so far (header excluded).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The round index the next recorded round will carry.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Where this recording goes.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn write_record(sink: &mut dyn TraceSink, record: &TraceRecord) -> Result<(), OnlineError> {
        let line = serde_json::to_string(record).map_err(|e| OnlineError::Trace {
            line: None,
            message: format!("record serialize failure: {e}"),
        })?;
        sink.write_line(&line)
    }

    /// Append one record.
    pub fn record(&mut self, record: &TraceRecord) -> Result<(), OnlineError> {
        Self::write_record(&mut *self.sink, record)?;
        self.records += 1;
        Ok(())
    }

    /// Buffer one directly ingested arrival; flushed as an
    /// [`TraceRecord::Arrivals`] batch at the next round (or on finish).
    pub(crate) fn pend_direct(&mut self, tenant: usize, arrival: f64) {
        self.pending_direct[tenant].push(arrival);
    }

    fn record_scaler_event(&mut self, tenant: u64, event: ScalerEvent) -> Result<(), OnlineError> {
        let round = self.round;
        match event {
            ScalerEvent::Refit {
                at,
                trigger,
                fingerprint,
            } => self.record(&TraceRecord::Refit(RefitRecord {
                round,
                tenant,
                at,
                trigger,
                fingerprint,
            })),
            ScalerEvent::Install {
                at,
                fingerprint,
                model,
            } => self.record(&TraceRecord::Install {
                round,
                tenant,
                at,
                fingerprint,
                model,
            }),
        }
    }

    /// Flush buffered direct arrivals and harvested between-round scaler
    /// events without running a round (detach, finish).
    pub(crate) fn flush_pending(
        &mut self,
        pre_events: Vec<Vec<ScalerEvent>>,
    ) -> Result<(), OnlineError> {
        for (tenant, events) in pre_events.into_iter().enumerate() {
            for event in events {
                self.record_scaler_event(tenant as u64, event)?;
            }
        }
        let pending = std::mem::take(&mut self.pending_direct);
        self.pending_direct = vec![Vec::new(); self.tenant_count];
        for (tenant, times) in pending.into_iter().enumerate() {
            if !times.is_empty() {
                self.record(&TraceRecord::Arrivals {
                    round: self.round,
                    tenant: tenant as u64,
                    direct: true,
                    times,
                })?;
            }
        }
        Ok(())
    }

    /// Record one completed round: between-round scaler events and direct
    /// arrivals first, then the bus batches the round drained, the round
    /// stamp itself, the round's residency transitions, the refits the
    /// round triggered, every tenant's plan, and the aggregate queue
    /// stats.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_round(
        &mut self,
        now: f64,
        covered: &[usize],
        pre_events: Vec<Vec<ScalerEvent>>,
        bus_arrivals: Option<Vec<Vec<f64>>>,
        results: &[Result<PlanningRound, OnlineError>],
        post_events: Vec<Vec<ScalerEvent>>,
        residency_events: &[(u64, ResidencyEvent)],
        queue: Option<QueueStats>,
    ) -> Result<(), OnlineError> {
        self.flush_pending(pre_events)?;
        let round = self.round;
        if let Some(per_tenant) = bus_arrivals {
            for (tenant, times) in per_tenant.into_iter().enumerate() {
                if !times.is_empty() {
                    self.record(&TraceRecord::Arrivals {
                        round,
                        tenant: tenant as u64,
                        direct: false,
                        times,
                    })?;
                }
            }
        }
        // Access wakes are driver-initiated and happened *before* this
        // round ran (they are why a cold tenant planned this round), so
        // they go before the Round record; the replayer re-applies them
        // like direct arrivals. Arrival/Due wakes and hibernations are
        // round outcomes and follow the Round record for validation.
        for &(tenant, event) in residency_events {
            if let ResidencyEvent::Wake {
                reason: WakeReason::Access,
            } = event
            {
                self.record(&TraceRecord::Residency {
                    round,
                    tenant,
                    event,
                })?;
            }
        }
        self.record(&TraceRecord::Round {
            round,
            now,
            covered: covered.to_vec(),
        })?;
        for &(tenant, event) in residency_events {
            if let ResidencyEvent::Wake {
                reason: WakeReason::Access,
            } = event
            {
                continue;
            }
            self.record(&TraceRecord::Residency {
                round,
                tenant,
                event,
            })?;
        }
        for (tenant, events) in post_events.into_iter().enumerate() {
            for event in events {
                self.record_scaler_event(tenant as u64, event)?;
            }
        }
        for (tenant, result) in results.iter().enumerate() {
            let plan = match result {
                Ok(round_plan) => PlanRecord {
                    round,
                    tenant: tenant as u64,
                    error: None,
                    expected_arrivals_in_window: round_plan.expected_arrivals_in_window,
                    decisions: round_plan.decisions.clone(),
                },
                Err(e) => PlanRecord {
                    round,
                    tenant: tenant as u64,
                    error: Some(e.to_string()),
                    expected_arrivals_in_window: 0.0,
                    decisions: Vec::new(),
                },
            };
            self.record(&TraceRecord::Plan(plan))?;
        }
        if let Some(stats) = queue {
            self.record(&TraceRecord::Queue { round, stats })?;
        }
        self.round += 1;
        Ok(())
    }

    /// Write the final [`TraceRecord::Qos`], flush the sink, and return
    /// the summary.
    pub fn finish(mut self, qos: QosRecord) -> Result<TraceSummary, OnlineError> {
        self.record(&TraceRecord::Qos(qos))?;
        self.sink.flush()?;
        Ok(TraceSummary {
            path: self.path,
            records: self.records,
            rounds: self.round,
        })
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A parsed trace: the header plus every following record, each tagged
/// with its 1-based line number for pointed error reporting.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    /// The session header (line 1).
    pub header: TraceHeader,
    /// Every record after the header, with its line number.
    pub records: Vec<(usize, TraceRecord)>,
}

fn trace_err(line: usize, message: impl Into<String>) -> OnlineError {
    OnlineError::Trace {
        line: Some(line),
        message: message.into(),
    }
}

impl RecordedTrace {
    /// Read and validate a trace file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, OnlineError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| OnlineError::Trace {
            line: None,
            message: format!("read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Parse and validate trace text: line 1 must be a supported-version
    /// header, every record must parse, and tenant indices must be in
    /// range. Every failure names the offending line.
    pub fn parse(text: &str) -> Result<Self, OnlineError> {
        let mut lines = text.lines().enumerate();
        let Some((_, first)) = lines.next() else {
            return Err(trace_err(1, "empty trace (missing header)"));
        };
        let header = match serde_json::from_str::<TraceRecord>(first) {
            Ok(TraceRecord::Header(header)) => header,
            Ok(_) => return Err(trace_err(1, "first record is not a header")),
            Err(e) => return Err(trace_err(1, format!("header parse failure: {e}"))),
        };
        if header.version == 0 || header.version > TRACE_FORMAT_VERSION {
            return Err(trace_err(
                1,
                format!(
                    "unsupported trace format version {} (this build reads <= {})",
                    header.version, TRACE_FORMAT_VERSION
                ),
            ));
        }
        if header.tenants == 0 {
            return Err(trace_err(1, "header declares zero tenants"));
        }
        if header.session == SessionKind::Single && header.tenants != 1 {
            return Err(trace_err(
                1,
                format!(
                    "a Single session must have exactly one tenant, header declares {}",
                    header.tenants
                ),
            ));
        }
        let mut records = Vec::new();
        for (index, text_line) in lines {
            let line = index + 1;
            let record: TraceRecord = serde_json::from_str(text_line)
                .map_err(|e| trace_err(line, format!("record parse failure: {e}")))?;
            if matches!(record, TraceRecord::Header(_)) {
                return Err(trace_err(line, "unexpected second header"));
            }
            if let Some(tenant) = record.tenant() {
                if tenant >= header.tenants as u64 {
                    return Err(trace_err(
                        line,
                        format!(
                            "tenant {tenant} out of range (header declares {} tenants)",
                            header.tenants
                        ),
                    ));
                }
            }
            if let TraceRecord::Arrivals { direct: false, .. } = &record {
                if header.bus.is_none() {
                    return Err(trace_err(
                        line,
                        "bus arrivals recorded but the header declares no bus",
                    ));
                }
            }
            if matches!(record, TraceRecord::Residency { .. }) && header.residency.is_none() {
                return Err(trace_err(
                    line,
                    "residency transition recorded but the header declares no residency policy",
                ));
            }
            if let TraceRecord::Round { covered, .. } = &record {
                if covered.len() != header.tenants {
                    return Err(trace_err(
                        line,
                        format!(
                            "round covers {} tenants, header declares {}",
                            covered.len(),
                            header.tenants
                        ),
                    ));
                }
            }
            records.push((line, record));
        }
        Ok(Self { header, records })
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// How a replay validates the recorded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Bit-identical: fail on the first divergence with a pointed diff.
    Strict,
    /// Collect divergences, validate the recorded QoS against
    /// [`PolicyBands`], and report — never fail on a divergence.
    Lenient,
}

/// Acceptance bands for a recorded session's QoS metrics (`None` = not
/// checked). Violations land in [`ReplayReport::band_violations`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicyBands {
    /// Minimum acceptable hit rate.
    pub min_hit_rate: Option<f64>,
    /// Maximum acceptable average response time (seconds).
    pub max_rt_avg: Option<f64>,
    /// Maximum acceptable cost relative to the reactive baseline.
    pub max_relative_cost: Option<f64>,
}

/// Outcome of a replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The validation mode that ran.
    pub mode: ReplayMode,
    /// Fleet or single-scaler session.
    pub session: SessionKind,
    /// Tenants in the session.
    pub tenants: usize,
    /// Rounds re-executed.
    pub rounds: u64,
    /// Records processed (header excluded).
    pub records: u64,
    /// Plan records validated.
    pub plans_checked: u64,
    /// Refit records validated or re-executed.
    pub refits_checked: u64,
    /// Divergences found (lenient mode; strict mode fails on the first).
    pub divergences: Vec<String>,
    /// QoS values outside the [`PolicyBands`].
    pub band_violations: Vec<String>,
    /// The recorded final QoS, when the trace carries one.
    pub qos: Option<QosRecord>,
}

impl ReplayReport {
    /// Whether the replay found no divergences and no band violations.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.band_violations.is_empty()
    }
}

#[allow(clippy::large_enum_variant)] // exactly one session per replay
enum ReplaySession {
    Fleet(TenantFleet),
    Single {
        scaler: Box<OnlineScaler>,
        bus: ArrivalBus,
        buf: Vec<f64>,
        faults: Option<crate::faults::FaultInjector>,
    },
}

struct Replayer {
    mode: ReplayMode,
    bands: PolicyBands,
    session: ReplaySession,
    report: ReplayReport,
    /// Regenerated plans of the last executed round, consumed by `Plan`
    /// records (one per tenant per round).
    pending_plans: Vec<Option<Result<PlanningRound, OnlineError>>>,
    /// Regenerated in-round refit events, consumed by `Refit` records.
    pending_events: Vec<std::collections::VecDeque<ScalerEvent>>,
    /// Regenerated aggregate queue stats after the last executed round.
    pending_queue: Option<QueueStats>,
    /// Regenerated residency transitions of the last executed round, in
    /// emission order, consumed by `Residency` records.
    pending_residency: std::collections::VecDeque<(u64, ResidencyEvent)>,
    next_round: u64,
    saw_qos: bool,
}

/// Format an f64 for a divergence diff: value plus exact bits, so
/// "looks equal, differs in the last ulp" cases stay diagnosable.
fn show_f64(v: f64) -> String {
    format!("{v} (bits {:#018x})", v.to_bits())
}

impl Replayer {
    fn new(
        header: &TraceHeader,
        mode: ReplayMode,
        bands: PolicyBands,
    ) -> Result<Self, OnlineError> {
        let session = match header.session {
            SessionKind::Fleet => {
                let mut fleet =
                    TenantFleet::new(&header.online, header.origin, header.tenants, header.seed)?;
                if let Some(bus) = header.bus {
                    fleet.attach_bus(bus)?;
                }
                // Chaos sessions: replay under the recorded fault plan and
                // supervision policy, so injected faults, quarantines and
                // probe refits all reproduce bit-for-bit.
                if let Some(supervisor) = header.supervisor {
                    fleet.set_supervisor(supervisor);
                }
                if let Some(faults) = header.faults {
                    fleet.set_faults(faults);
                }
                // Residency sessions: re-enable tiering with the recorded
                // policy (including a recorded cold start) but *without*
                // paging — a resident-cold tenant plans bit-identically
                // to a paged one, so replay needs no page store.
                if let Some(residency) = header.residency {
                    fleet.enable_residency(residency)?;
                }
                // Sharing / plan-reuse sessions (v4+): re-apply the recorded
                // policy so shared sampling and plan-cache hits reproduce
                // bit-for-bit.
                if let Some(sharing) = header.sharing {
                    fleet.set_sharing(sharing)?;
                }
                fleet.set_tracing(true);
                ReplaySession::Fleet(fleet)
            }
            SessionKind::Single => {
                let mut scaler =
                    OnlineScaler::with_seed(header.online, header.origin, header.seed)?;
                // A single-scaler session has no cross-tenant clustering;
                // the recorded sharing policy matters only for its plan
                // cache.
                if let Some(sharing) = header.sharing {
                    if sharing.plan_cache {
                        scaler.enable_plan_reuse(sharing.quantization)?;
                    }
                }
                scaler.set_tracing(true);
                let bus = ArrivalBus::new(1, header.bus.unwrap_or_default())?;
                ReplaySession::Single {
                    scaler: Box::new(scaler),
                    bus,
                    buf: Vec::new(),
                    faults: header
                        .faults
                        .filter(crate::faults::FaultPlan::enabled)
                        .map(crate::faults::FaultInjector::new),
                }
            }
        };
        Ok(Self {
            mode,
            bands,
            session,
            report: ReplayReport {
                mode,
                session: header.session,
                tenants: header.tenants,
                rounds: 0,
                records: 0,
                plans_checked: 0,
                refits_checked: 0,
                divergences: Vec::new(),
                band_violations: Vec::new(),
                qos: None,
            },
            pending_plans: (0..header.tenants).map(|_| None).collect(),
            pending_events: vec![std::collections::VecDeque::new(); header.tenants],
            pending_queue: None,
            pending_residency: std::collections::VecDeque::new(),
            next_round: 0,
            saw_qos: false,
        })
    }

    fn diverge(
        &mut self,
        round: u64,
        tenant: u64,
        field: &str,
        expected: String,
        got: String,
    ) -> Result<(), OnlineError> {
        match self.mode {
            ReplayMode::Strict => Err(OnlineError::ReplayDivergence {
                round,
                tenant,
                field: field.to_string(),
                expected,
                got,
            }),
            ReplayMode::Lenient => {
                self.report.divergences.push(format!(
                    "round {round} tenant {tenant} `{field}`: expected {expected}, got {got}"
                ));
                Ok(())
            }
        }
    }

    fn check_f64(
        &mut self,
        round: u64,
        tenant: u64,
        field: &str,
        expected: f64,
        got: f64,
    ) -> Result<(), OnlineError> {
        if expected.to_bits() != got.to_bits() {
            self.diverge(round, tenant, field, show_f64(expected), show_f64(got))?;
        }
        Ok(())
    }

    fn check_u64(
        &mut self,
        round: u64,
        tenant: u64,
        field: &str,
        expected: u64,
        got: u64,
    ) -> Result<(), OnlineError> {
        if expected != got {
            self.diverge(round, tenant, field, expected.to_string(), got.to_string())?;
        }
        Ok(())
    }

    fn scaler_mut(&mut self, tenant: u64) -> &mut OnlineScaler {
        match &mut self.session {
            ReplaySession::Fleet(fleet) => {
                &mut fleet
                    .tenant_mut(tenant as usize)
                    .expect("tenant indices are validated at parse time")
                    .scaler
            }
            ReplaySession::Single { scaler, .. } => scaler,
        }
    }

    /// Leftover regenerated state that recorded records never consumed —
    /// the replayed session produced plans/refits the recording did not
    /// contain. Checked at every round boundary and at the final QoS.
    fn settle_round(&mut self, upcoming: u64) -> Result<(), OnlineError> {
        let round = self.next_round.saturating_sub(1);
        for tenant in 0..self.pending_events.len() {
            while let Some(event) = self.pending_events[tenant].pop_front() {
                let got = match event {
                    ScalerEvent::Refit { trigger, .. } => format!("refit ({trigger:?})"),
                    ScalerEvent::Install { .. } => "install".to_string(),
                };
                self.diverge(
                    round,
                    tenant as u64,
                    "refit.unrecorded",
                    "no refit".to_string(),
                    got,
                )?;
            }
            if let Some(plan) = self.pending_plans[tenant].take() {
                let got = match plan {
                    Ok(_) => "a plan".to_string(),
                    Err(e) => format!("a failed plan ({e})"),
                };
                self.diverge(
                    round,
                    tenant as u64,
                    "plan.unrecorded",
                    format!("a Plan record for round {round} before round {upcoming}"),
                    got,
                )?;
            }
        }
        while let Some((tenant, event)) = self.pending_residency.pop_front() {
            self.diverge(
                round,
                tenant,
                "residency.unrecorded",
                "no residency transition".to_string(),
                format!("{event:?}"),
            )?;
        }
        self.pending_queue = None;
        Ok(())
    }

    fn execute_round(
        &mut self,
        line: usize,
        round: u64,
        now: f64,
        covered: &[usize],
    ) -> Result<(), OnlineError> {
        if round != self.next_round {
            return Err(trace_err(
                line,
                format!("round {round} out of order (expected {})", self.next_round),
            ));
        }
        self.settle_round(round)?;
        let (results, events, queue, residency) = match &mut self.session {
            ReplaySession::Fleet(fleet) => {
                let results = fleet.run_round(now, covered)?;
                // Harvest without `tenant_mut`: the marking accessor
                // would register direct driver activity (blocking cold
                // entry) and wake cold tenants — perturbing the very
                // residency stream we are validating.
                let events = fleet.harvest_trace_events();
                let queue = fleet.queue_stats();
                let residency = fleet.take_residency_events();
                (results, events, queue, residency)
            }
            ReplaySession::Single {
                scaler,
                bus,
                buf,
                faults,
            } => {
                let result = crate::harness::single_scaler_tick(
                    scaler,
                    bus,
                    buf,
                    faults.as_ref(),
                    round,
                    now,
                    covered[0],
                );
                (
                    vec![result],
                    vec![scaler.take_trace_events()],
                    Some(bus.stats()),
                    Vec::new(),
                )
            }
        };
        for (tenant, result) in results.into_iter().enumerate() {
            self.pending_plans[tenant] = Some(result);
        }
        for (tenant, tenant_events) in events.into_iter().enumerate() {
            self.pending_events[tenant].extend(tenant_events);
        }
        self.pending_queue = queue;
        self.pending_residency.extend(residency);
        self.next_round = round + 1;
        self.report.rounds += 1;
        Ok(())
    }

    fn check_refit(
        &mut self,
        record: &RefitRecord,
        executed: ScalerEvent,
    ) -> Result<(), OnlineError> {
        match executed {
            ScalerEvent::Refit {
                at,
                trigger,
                fingerprint,
            } => {
                if trigger != record.trigger {
                    self.diverge(
                        record.round,
                        record.tenant,
                        "refit.trigger",
                        format!("{:?}", record.trigger),
                        format!("{trigger:?}"),
                    )?;
                }
                self.check_f64(record.round, record.tenant, "refit.at", record.at, at)?;
                if fingerprint != record.fingerprint {
                    self.diverge(
                        record.round,
                        record.tenant,
                        "refit.fingerprint",
                        record.fingerprint.clone(),
                        fingerprint,
                    )?;
                }
            }
            ScalerEvent::Install { .. } => {
                self.diverge(
                    record.round,
                    record.tenant,
                    "refit.kind",
                    "a refit".to_string(),
                    "an install".to_string(),
                )?;
            }
        }
        self.report.refits_checked += 1;
        Ok(())
    }

    fn process(&mut self, line: usize, record: &TraceRecord) -> Result<(), OnlineError> {
        self.report.records += 1;
        match record {
            TraceRecord::Header(_) => unreachable!("parse rejects second headers"),
            TraceRecord::Install {
                round,
                tenant,
                at,
                fingerprint,
                model,
            } => {
                let computed = model_fingerprint(model);
                if &computed != fingerprint {
                    self.diverge(
                        *round,
                        *tenant,
                        "install.fingerprint",
                        fingerprint.clone(),
                        computed,
                    )?;
                }
                let scaler = self.scaler_mut(*tenant);
                scaler.install_model(model.clone(), *at)?;
                // Discard the event the install itself regenerated.
                let _ = scaler.take_trace_events();
            }
            TraceRecord::Arrivals {
                round,
                tenant,
                direct,
                times,
            } => {
                if *direct {
                    self.scaler_mut(*tenant).ingest_batch(times);
                } else {
                    let accepted = match &self.session {
                        ReplaySession::Fleet(fleet) => fleet
                            .bus()
                            .ok_or(trace_err(line, "bus arrivals but no bus in session"))?
                            .push_batch(*tenant as usize, times)?,
                        ReplaySession::Single { bus, .. } => {
                            bus.push_batch(*tenant as usize, times)?
                        }
                    };
                    self.check_u64(
                        *round,
                        *tenant,
                        "arrivals.accepted",
                        times.len() as u64,
                        accepted as u64,
                    )?;
                }
            }
            TraceRecord::Round {
                round,
                now,
                covered,
            } => self.execute_round(line, *round, *now, covered)?,
            TraceRecord::Refit(record) => {
                if record.trigger == RefitTrigger::Explicit {
                    // Driver-initiated: execute it now, then compare.
                    let scaler = self.scaler_mut(record.tenant);
                    scaler.refit_now(record.at)?;
                    let mut events = scaler.take_trace_events();
                    let executed = events.pop().ok_or_else(|| {
                        trace_err(line, "explicit refit regenerated no trace event")
                    })?;
                    self.check_refit(record, executed)?;
                } else {
                    let regenerated = self.pending_events[record.tenant as usize].pop_front();
                    match regenerated {
                        Some(event) => self.check_refit(record, event)?,
                        None => self.diverge(
                            record.round,
                            record.tenant,
                            "refit.missing",
                            format!("a {:?} refit at {}", record.trigger, record.at),
                            "no refit".to_string(),
                        )?,
                    }
                }
            }
            TraceRecord::Plan(plan) => {
                let regenerated = self.pending_plans[plan.tenant as usize].take();
                let Some(result) = regenerated else {
                    return self.diverge(
                        plan.round,
                        plan.tenant,
                        "plan.missing",
                        "a regenerated plan for this round".to_string(),
                        "none (Plan record without a preceding Round?)".to_string(),
                    );
                };
                self.check_plan(plan, &result)?;
                self.report.plans_checked += 1;
            }
            TraceRecord::Residency {
                round,
                tenant,
                event,
            } => {
                if let ResidencyEvent::Wake {
                    reason: WakeReason::Access,
                } = event
                {
                    // Driver-initiated, like a direct arrival: re-apply
                    // the access (waking the cold tenant), then validate
                    // the wake it regenerated below.
                    match &mut self.session {
                        ReplaySession::Fleet(fleet) => {
                            let _ = fleet.tenant_mut(*tenant as usize);
                            let woken = fleet.take_pending_wakes();
                            self.pending_residency.extend(woken);
                        }
                        ReplaySession::Single { .. } => {
                            return Err(trace_err(
                                line,
                                "residency record in a single-scaler session",
                            ));
                        }
                    }
                }
                match self.pending_residency.pop_front() {
                    Some((got_tenant, got_event)) => {
                        if (got_tenant, got_event) != (*tenant, *event) {
                            self.diverge(
                                *round,
                                *tenant,
                                "residency.event",
                                format!("tenant {tenant} {event:?}"),
                                format!("tenant {got_tenant} {got_event:?}"),
                            )?;
                        }
                    }
                    None => self.diverge(
                        *round,
                        *tenant,
                        "residency.missing",
                        format!("tenant {tenant} {event:?}"),
                        "no residency transition".to_string(),
                    )?,
                }
            }
            TraceRecord::Queue { round, stats } => {
                let Some(got) = self.pending_queue else {
                    return self.diverge(
                        *round,
                        0,
                        "queue.missing",
                        "regenerated queue stats".to_string(),
                        "none (Queue record without a bus round?)".to_string(),
                    );
                };
                self.check_u64(*round, 0, "queue.drained", stats.drained, got.drained)?;
                self.check_u64(*round, 0, "queue.drains", stats.drains, got.drains)?;
            }
            TraceRecord::Qos(qos) => {
                self.settle_round(self.next_round)?;
                self.check_qos(qos)?;
                self.report.qos = Some(qos.clone());
                self.saw_qos = true;
            }
        }
        Ok(())
    }

    fn check_plan(
        &mut self,
        plan: &PlanRecord,
        result: &Result<PlanningRound, OnlineError>,
    ) -> Result<(), OnlineError> {
        let (round, tenant) = (plan.round, plan.tenant);
        let got_error = result.as_ref().err().map(|e| e.to_string());
        if plan.error != got_error {
            let show = |e: &Option<String>| e.clone().unwrap_or_else(|| "ok".to_string());
            self.diverge(round, tenant, "error", show(&plan.error), show(&got_error))?;
        }
        let Ok(regenerated) = result else {
            return Ok(());
        };
        self.check_f64(
            round,
            tenant,
            "expected_arrivals_in_window",
            plan.expected_arrivals_in_window,
            regenerated.expected_arrivals_in_window,
        )?;
        self.check_u64(
            round,
            tenant,
            "decisions.len",
            plan.decisions.len() as u64,
            regenerated.decisions.len() as u64,
        )?;
        for (i, (want, got)) in plan
            .decisions
            .iter()
            .zip(regenerated.decisions.iter())
            .enumerate()
        {
            self.check_u64(
                round,
                tenant,
                &format!("decisions[{i}].arrival_index"),
                want.arrival_index as u64,
                got.arrival_index as u64,
            )?;
            self.check_f64(
                round,
                tenant,
                &format!("decisions[{i}].unconstrained_creation_time"),
                want.unconstrained_creation_time,
                got.unconstrained_creation_time,
            )?;
            self.check_f64(
                round,
                tenant,
                &format!("decisions[{i}].creation_time"),
                want.creation_time,
                got.creation_time,
            )?;
            if want.clamped != got.clamped {
                self.diverge(
                    round,
                    tenant,
                    &format!("decisions[{i}].clamped"),
                    want.clamped.to_string(),
                    got.clamped.to_string(),
                )?;
            }
        }
        Ok(())
    }

    fn check_qos(&mut self, qos: &QosRecord) -> Result<(), OnlineError> {
        let round = self.next_round.saturating_sub(1);
        let got = match &self.session {
            ReplaySession::Fleet(fleet) => fleet.aggregate_stats(),
            ReplaySession::Single { scaler, .. } => *scaler.stats(),
        };
        let want = qos.stats;
        for (field, w, g) in [
            (
                "qos.stats.arrivals_ingested",
                want.arrivals_ingested,
                got.arrivals_ingested,
            ),
            (
                "qos.stats.arrivals_dropped",
                want.arrivals_dropped,
                got.arrivals_dropped,
            ),
            ("qos.stats.refits", want.refits, got.refits),
            (
                "qos.stats.drift_refits",
                want.drift_refits,
                got.drift_refits,
            ),
            (
                "qos.stats.planning_rounds",
                want.planning_rounds,
                got.planning_rounds,
            ),
            (
                "qos.stats.skipped_rounds",
                want.skipped_rounds,
                got.skipped_rounds,
            ),
            (
                "qos.stats.failed_rounds",
                want.failed_rounds,
                got.failed_rounds,
            ),
        ] {
            self.check_u64(round, 0, field, w, g)?;
        }
        if let Some(want_queue) = qos.queue {
            let got_queue = match &self.session {
                ReplaySession::Fleet(fleet) => fleet.queue_stats(),
                ReplaySession::Single { bus, .. } => Some(bus.stats()),
            };
            if let Some(got_queue) = got_queue {
                self.check_u64(
                    round,
                    0,
                    "qos.queue.drained",
                    want_queue.drained,
                    got_queue.drained,
                )?;
                self.check_u64(
                    round,
                    0,
                    "qos.queue.drains",
                    want_queue.drains,
                    got_queue.drains,
                )?;
            }
        }
        // Policy bands judge the *recorded* QoS scalars (harness sessions).
        if let (Some(min), Some(hit)) = (self.bands.min_hit_rate, qos.hit_rate) {
            if hit < min {
                self.report
                    .band_violations
                    .push(format!("hit_rate {hit} below the {min} band"));
            }
        }
        if let (Some(max), Some(rt)) = (self.bands.max_rt_avg, qos.rt_avg) {
            if rt > max {
                self.report
                    .band_violations
                    .push(format!("rt_avg {rt} above the {max} band"));
            }
        }
        if let (Some(max), Some(cost)) = (self.bands.max_relative_cost, qos.relative_cost) {
            if cost > max {
                self.report
                    .band_violations
                    .push(format!("relative_cost {cost} above the {max} band"));
            }
        }
        Ok(())
    }
}

/// Replay a parsed trace: rebuild the session from the header, re-execute
/// every record in order, and validate per [`ReplayMode`].
pub fn replay_trace(
    trace: &RecordedTrace,
    mode: ReplayMode,
    bands: &PolicyBands,
) -> Result<ReplayReport, OnlineError> {
    let mut replayer = Replayer::new(&trace.header, mode, *bands)?;
    for (line, record) in &trace.records {
        replayer.process(*line, record)?;
    }
    if !replayer.saw_qos {
        return Err(OnlineError::Trace {
            line: None,
            message: format!(
                "trace ends without a final QoS record after {} records (truncated?)",
                trace.records.len()
            ),
        });
    }
    Ok(replayer.report)
}

/// [`RecordedTrace::load`] + [`replay_trace`] in one call.
pub fn replay_path(
    path: impl AsRef<Path>,
    mode: ReplayMode,
    bands: &PolicyBands,
) -> Result<ReplayReport, OnlineError> {
    let trace = RecordedTrace::load(path)?;
    replay_trace(&trace, mode, bands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::tests::fast_config;

    fn fleet_with_bus(seed: u64) -> (TenantFleet, TraceHeader) {
        let config = fast_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 3, seed).unwrap();
        let bus = BusConfig {
            capacity_per_tenant: 4_096,
            tenants_per_group: 2,
        };
        fleet.attach_bus(bus).unwrap();
        let header = fleet.trace_header(seed);
        (fleet, header)
    }

    fn drive(fleet: &mut TenantFleet, rounds: std::ops::Range<usize>) {
        for round in rounds {
            for index in 0..fleet.len() {
                let gap = 4.0 + index as f64;
                let (lo, hi) = if round == 0 {
                    (0.0, 400.0)
                } else {
                    (
                        400.0 + 20.0 * (round as f64 - 1.0),
                        400.0 + 20.0 * round as f64,
                    )
                };
                let first = (lo / gap).ceil() as usize;
                for k in first.. {
                    let t = k as f64 * gap;
                    if t >= hi {
                        break;
                    }
                    assert!(fleet.enqueue(index, t).unwrap());
                }
            }
            let now = 400.0 + 20.0 * round as f64;
            fleet.run_round_uniform(now, round).unwrap();
        }
    }

    fn record_session(seed: u64, rounds: usize) -> String {
        let (mut fleet, header) = fleet_with_bus(seed);
        let sink = MemorySink::new();
        let lines = sink.lines();
        let recorder = TraceRecorder::new(Box::new(sink), &header).unwrap();
        fleet.start_recording(recorder).unwrap();
        drive(&mut fleet, 0..rounds);
        let summary = fleet.finish_recording().unwrap().unwrap();
        assert!(summary.records > 0);
        assert_eq!(summary.rounds, rounds as u64);
        let lines = lines.lock().unwrap();
        lines.join("\n")
    }

    #[test]
    fn fresh_recordings_replay_strictly() {
        let text = record_session(17, 3);
        let trace = RecordedTrace::parse(&text).unwrap();
        assert_eq!(trace.header.version, TRACE_FORMAT_VERSION);
        assert_eq!(trace.header.session, SessionKind::Fleet);
        let report = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.rounds, 3);
        assert!(report.plans_checked >= 9);
    }

    #[test]
    fn recording_is_identical_across_worker_counts() {
        let run = |workers: usize| {
            let (mut fleet, header) = fleet_with_bus(23);
            fleet.set_workers(workers);
            let sink = MemorySink::new();
            let lines = sink.lines();
            let recorder = TraceRecorder::new(Box::new(sink), &header).unwrap();
            fleet.start_recording(recorder).unwrap();
            drive(&mut fleet, 0..2);
            fleet.finish_recording().unwrap();
            let lines = lines.lock().unwrap();
            lines.join("\n")
        };
        let serial = run(1);
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn direct_ingestion_and_installs_record_and_replay() {
        let config = fast_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 2, 5).unwrap();
        let model = NhppModel::from_log_rates(0.0, 10.0, vec![(0.4_f64).ln(); 60], None).unwrap();
        fleet
            .tenant_mut(0)
            .unwrap()
            .scaler
            .install_model(model, 0.0)
            .unwrap();
        let header = fleet.trace_header(5);
        let sink = MemorySink::new();
        let lines = sink.lines();
        let recorder = TraceRecorder::new(Box::new(sink), &header).unwrap();
        // Warm-start install is emitted at attach time.
        fleet.start_recording(recorder).unwrap();
        for index in 0..2 {
            for k in 0..120 {
                fleet
                    .ingest(index, k as f64 * (3.0 + index as f64))
                    .unwrap();
            }
        }
        fleet.run_round_uniform(400.0, 0).unwrap();
        fleet.finish_recording().unwrap();
        let text = lines.lock().unwrap().join("\n");
        assert!(text.contains("\"Install\""));
        let trace = RecordedTrace::parse(&text).unwrap();
        let report = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
        assert!(report.passed());
    }

    #[test]
    fn lenient_mode_collects_divergences_and_checks_bands() {
        let text = record_session(31, 2);
        // Flip one plan's expected_arrivals_in_window.
        let mutated: Vec<String> = text
            .lines()
            .map(|line| {
                if line.contains("\"Plan\"") && line.contains("\"error\":null") {
                    line.replacen(
                        "\"expected_arrivals_in_window\":",
                        "\"expected_arrivals_in_window\":9999.0,\"was\":",
                        1,
                    )
                } else {
                    line.to_string()
                }
            })
            .collect();
        let trace = RecordedTrace::parse(&mutated.join("\n")).unwrap();
        let err = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap_err();
        match &err {
            OnlineError::ReplayDivergence { field, .. } => {
                assert_eq!(field, "expected_arrivals_in_window");
            }
            other => panic!("expected a divergence, got {other:?}"),
        }
        let report = replay_trace(&trace, ReplayMode::Lenient, &PolicyBands::default()).unwrap();
        assert!(!report.passed());
        assert!(!report.divergences.is_empty());
    }

    #[test]
    fn parse_errors_name_the_line() {
        let text = record_session(7, 2);
        // Corrupt a middle line.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let victim = lines.len() / 2;
        lines[victim] = "{ garbage".to_string();
        let err = RecordedTrace::parse(&lines.join("\n")).unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {}", victim + 1)),
            "{err}"
        );
    }

    #[test]
    fn unknown_versions_and_missing_headers_are_rejected() {
        assert!(matches!(
            RecordedTrace::parse(""),
            Err(OnlineError::Trace { line: Some(1), .. })
        ));
        let text = record_session(3, 1);
        let current = format!("\"version\":{TRACE_FORMAT_VERSION}");
        assert!(
            text.contains(&current),
            "header no longer carries {current}"
        );
        let bumped = text.replacen(&current, "\"version\":99", 1);
        let err = RecordedTrace::parse(&bumped).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn take_recorder_and_reattach_continue_one_trace() {
        let (mut fleet, header) = fleet_with_bus(41);
        let sink = MemorySink::new();
        let lines = sink.lines();
        let recorder = TraceRecorder::new(Box::new(sink), &header).unwrap();
        fleet.start_recording(recorder).unwrap();
        drive(&mut fleet, 0..2);
        let recorder = fleet.take_recorder().unwrap().unwrap();
        // Simulated handoff (kill + restore keeps the recorder alive).
        let mut resumed = fleet.clone();
        resumed.start_recording(recorder).unwrap();
        drive(&mut resumed, 2..3);
        resumed.finish_recording().unwrap();
        let text = lines.lock().unwrap().join("\n");
        let trace = RecordedTrace::parse(&text).unwrap();
        let report = replay_trace(&trace, ReplayMode::Strict, &PolicyBands::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.rounds, 3);
    }
}
