//! Online multi-tenant serving layer for the RobustScaler reproduction.
//!
//! The offline pipeline (train → forecast → exact scaling plan) runs
//! once over a frozen trace. A production autoscaler instead runs a
//! *serving loop*: arrivals stream in continuously, the model goes stale
//! and must be refitted, and one process plans for many tenants at once.
//! This crate closes that gap in three layers:
//!
//! * [`ingest::ArrivalBus`] — the event-driven ingestion runtime: one
//!   bounded arrival queue per tenant (lock-sharded by tenant group, with
//!   back-pressure accounting), filled by producers on any thread and
//!   drained at round boundaries in timestamp order;
//! * [`scaler::OnlineScaler`] — one tenant's loop: batched ingestion
//!   into a bounded [`CountRing`](robustscaler_timeseries::ring::CountRing)
//!   (`ingest_batch` → the ring's bulk append, bit-identical to the
//!   per-arrival path), drift detection against the live forecast,
//!   rolling NHPP refits through `RobustScalerPipeline::train_on_counts`,
//!   and per-round plans from the exact planner (`plan_window`);
//! * [`fleet::TenantFleet`] — hundreds of independent tenants split into
//!   fixed-size blocks that the threads of a persistent
//!   `robustscaler_parallel::WorkerPool` pull as they free up; a block
//!   drains, plans, supervises and pages its tenants in one parallel
//!   pass; planning draws no random numbers and blocks do not depend on
//!   the thread count, so fleet output is identical for any worker count; every
//!   round that is not skipped plans exactly against the tenant's own
//!   forecast, with no plan reuse across rounds or tenants;
//! * [`harness`] — the closed-loop validation harness: replay a trace
//!   through the bus → `OnlineScaler` → `Simulator` end to end and report
//!   the paper's metrics (hit rate, `rt_avg`, total/relative cost) plus
//!   queue health, including a kill-and-restore replay mode that proves
//!   checkpoint equivalence;
//! * [`checkpoint`] — durable fleet state: versioned scaler snapshots —
//!   including each tenant's *undrained arrival queue* — persisted as
//!   sharded, checksummed, atomically swapped checkpoint files in the
//!   binary payload format of [`codec`], so a
//!   fleet process can restart mid-burst without losing any tenant's
//!   training window or queued arrivals — and resume planning
//!   bit-identically;
//! * [`replay`] — recorded-trace replay: sessions serialize every
//!   arrival, plan, refit and queue drain to a versioned JSONL trace,
//!   and a replay engine re-executes the session from the header and
//!   validates the regenerated stream bit-for-bit (strict) or against
//!   QoS policy bands (lenient) — the regression substrate CI gates
//!   perf refactors on.
//!
//! ## Determinism guarantees
//!
//! Given a fixed configuration and a fixed queue state at every round
//! boundary, every plan is bit-identical across runs, worker counts and
//! tenant-shard layouts by construction: planning is exact and draws no
//! random numbers, so a round's plan is a pure function of the tenant's
//! installed model, its covered count and the planning instant, and
//! tenants own all of that state. Only fault injection is seeded (the [`FaultPlan`] seed).
//! Bus-fed ingestion (enqueue + round-boundary drain) is bit-identical to
//! a standalone scaler ingesting every arrival synchronously
//! ([`OnlineScaler::ingest`]); producers that
//! quiesce at round boundaries therefore keep the whole pipeline
//! deterministic while overlapping enqueue with planning.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod faults;
pub mod fleet;
pub mod harness;
pub mod ingest;
pub mod replay;
pub mod scaler;

pub use checkpoint::{
    CheckpointIoStats, CheckpointStorage, CheckpointStore, FleetWiring, HibernationStore, Manifest,
    OsStorage, PageReceipt, QuarantineState, ResidencySnapshot, ShardEntry, SupervisionSnapshot,
    TenantSnapshot, WriteOptions, CHECKPOINT_FORMAT_VERSION, DEFAULT_TENANTS_PER_SHARD,
};
pub use error::OnlineError;
pub use faults::{FaultInjector, FaultPlan, FaultyStorage, IoOp, PlanFault};
pub use fleet::{
    FleetRound, ResidencyConfig, ResidencyStats, RestoreOptions, SharingConfig, SupervisionStats,
    SupervisorConfig, Tenant, TenantFleet, TenantHealth, TenantOutcome,
};
pub use harness::{
    run_closed_loop, run_closed_loop_recorded, run_closed_loop_with_restart, HarnessConfig,
    HarnessReport, OnlinePolicy,
};
pub use ingest::{
    ArrivalBus, BusConfig, QueueStats, DEFAULT_QUEUE_CAPACITY, DEFAULT_TENANTS_PER_GROUP,
};
pub use replay::{
    model_fingerprint, replay_path, replay_trace, FileSink, MemorySink, PlanRecord, PolicyBands,
    QosRecord, RecordedTrace, RefitRecord, RefitTrigger, ReplayMode, ReplayReport, ResidencyEvent,
    ScalerEvent, SessionKind, TraceHeader, TraceRecord, TraceRecorder, TraceSink, TraceSummary,
    WakeReason, TRACE_FORMAT_VERSION,
};
pub use scaler::{
    OnlineConfig, OnlineScaler, OnlineStats, ScalerSnapshot, SCALER_SNAPSHOT_VERSION,
};
