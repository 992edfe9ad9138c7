//! Multi-tenant fleet planning: hundreds of independent [`OnlineScaler`]s
//! sharded across a persistent worker pool, fed by an event-driven
//! arrival bus.
//!
//! Each tenant owns its scaler — ring buffer, model and planner — so
//! tenants never share mutable state. Planning is exact and draws no random
//! numbers, so a round's output is a pure function of (ingestion history,
//! round sequence) per tenant. The fleet shards the tenant vector into
//! contiguous chunks on a [`WorkerPool`] whose threads park between rounds
//! (no spawn/join on the round's critical path); because chunking depends
//! only on the worker budget and chunk outputs are collected in chunk
//! order, the result is **identical for any worker count** by
//! construction, which the online proptests pin.
//!
//! ## Ingestion runtime
//!
//! Every fleet owns an [`ArrivalBus`] (reshaped with
//! [`TenantFleet::attach_bus`]): producers enqueue arrivals from any
//! thread — including while a round is planning — and each round worker
//! *drains its tenants' queues first, then plans*, making drain + plan one
//! parallel pass over the shard. Arrivals enqueued during round `N` are
//! picked up by round `N + 1`'s drain: the round boundary is the only
//! synchronization point, so a producer that finishes enqueueing window
//! `N + 1` before round `N + 1` starts gets bit-identical plans to
//! standalone scalers ingesting every arrival synchronously (pinned in
//! `tests/online_props.rs`).
//!
//! ## Supervision
//!
//! Tenants misbehave at fleet scale, so the fleet supervises them. A
//! tenant whose round panics is caught at the tenant boundary
//! (`catch_unwind` inside the round worker) and reported as a per-tenant
//! [`TenantPanicked`](OnlineError::TenantPanicked) error — one bad tenant
//! never takes down the round. [`SupervisorConfig::quarantine_after`]
//! consecutive failures quarantine the tenant: planning is suspended (its
//! slot reports [`Quarantined`](OnlineError::Quarantined), though its
//! arrival queue keeps draining so no data is lost), and the fleet probes
//! it on an exponential-backoff schedule: a probe round refits the model
//! from the tenant's own ring before it plans (a warm-started tenant whose
//! ring cannot train a model yet plans from its installed one). Failing or
//! quarantined tenants can serve a *degraded plan-stickiness fallback*: the
//! last good plan, flagged `sticky` in [`FleetRound`], so QoS degrades
//! gracefully instead of going unplanned. Cold tenants still warming up
//! ([`NotTrained`](OnlineError::NotTrained)) are never counted as
//! failures, so healthy fleets behave bit-identically with supervision
//! on (the default) or off.
//!
//! Deterministic chaos — injected planning errors/panics, arrival
//! corruption, checkpoint I/O faults — plugs in via
//! [`TenantFleet::set_faults`]; every fault decision and every probe is
//! a pure function of the [`FaultPlan`] seed and the round
//! coordinates, pinned by `tests/chaos.rs`. The one exception is
//! worker-thread panics, which key on chunk offsets and are therefore
//! worker-count-dependent by construction; they abort the whole round
//! ([`RoundPanicked`](OnlineError::RoundPanicked)) and must not be
//! combined with trace recording.

use crate::checkpoint::{
    CheckpointIoStats, CheckpointStorage, CheckpointStore, FleetWiring, HibernationStore, Manifest,
    PageReceipt, QuarantineState, ResidencySnapshot, SupervisionSnapshot, TenantSnapshot,
    WriteOptions, DEFAULT_TENANTS_PER_SHARD,
};
use crate::error::OnlineError;
use crate::faults::{FaultInjector, FaultPlan, PlanFault};
use crate::ingest::{ArrivalBus, BusConfig, QueueStats};
use crate::replay::{
    model_fingerprint, QosRecord, ResidencyEvent, ScalerEvent, SessionKind, TraceHeader,
    TraceRecord, TraceRecorder, TraceSummary, WakeReason, TRACE_FORMAT_VERSION,
};
use crate::scaler::{OnlineConfig, OnlineScaler, OnlineStats, ScalerSnapshot};
use robustscaler_parallel::{available_threads, map_chunks_mut, WorkerPool};
use robustscaler_scaling::PlanningRound;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// SplitMix64 — the same stateless mixer the Monte Carlo sampler uses to
/// derive per-path streams. The crate's one seed mixer: it derives fault
/// rolls from the fault plan's seed.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One tenant: a stable identifier plus its serving scaler.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Stable tenant identifier (index at fleet construction).
    pub id: u64,
    /// The tenant's serving scaler.
    pub scaler: OnlineScaler,
}

/// Residency policy: when a quiescent tenant leaves the hot tier.
///
/// With residency enabled ([`TenantFleet::enable_residency`]), a tenant
/// that spends [`cold_after`](ResidencyConfig::cold_after) consecutive
/// rounds idle — no arrivals drained or ingested, nothing to plan — and
/// whose forecast expects no work goes **cold**: planning is skipped
/// (its slot reports [`Hibernated`](OnlineError::Hibernated)) until an
/// arrival lands on its queue, its scheduled wake time passes, or the
/// driver touches it directly. With a hibernation directory attached
/// ([`TenantFleet::set_hibernation_dir`]), cold tenants are additionally
/// **paged out** — serialized to a per-tenant page file and dropped from
/// memory — which is what bounds fleet memory by *active* tenants rather
/// than registered ones. Paging is transparent: a paged tenant woken by
/// an arrival plans bit-identically to one that stayed resident.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResidencyConfig {
    /// Consecutive idle rounds after which a tenant may go cold (≥ 1).
    pub cold_after: u64,
    /// Expected-arrival threshold below which a forecast window counts
    /// as quiet (see [`crate::scaler::OnlineScaler::quiescence_horizon`]).
    pub idle_epsilon: f64,
    /// Start every tenant cold (set by [`TenantFleet::new_cold`]; a
    /// replayed cold-start session must reproduce it).
    pub start_cold: bool,
}

impl ResidencyConfig {
    /// Validate the policy: `cold_after` ≥ 1 and a finite, non-negative
    /// `idle_epsilon`.
    pub fn validate(&self) -> Result<(), OnlineError> {
        if self.cold_after == 0 {
            return Err(OnlineError::InvalidConfig(
                "residency cold_after must be at least 1",
            ));
        }
        if !self.idle_epsilon.is_finite() || self.idle_epsilon < 0.0 {
            return Err(OnlineError::InvalidConfig(
                "residency idle_epsilon must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

impl Default for ResidencyConfig {
    fn default() -> Self {
        Self {
            cold_after: 3,
            idle_epsilon: 1e-9,
            start_cold: false,
        }
    }
}

/// A tenant slot: resident (scaler in memory) or paged out.
#[derive(Debug, Clone)]
enum TenantSlot {
    /// The tenant's scaler is in memory.
    Resident(Box<Tenant>),
    /// The tenant is cold and its scaler is *not* in memory — it either
    /// never existed (virgin) or lives in the hibernation store.
    Paged(PagedTenant),
}

impl TenantSlot {
    fn id(&self) -> u64 {
        match self {
            TenantSlot::Resident(tenant) => tenant.id,
            TenantSlot::Paged(paged) => paged.id,
        }
    }
}

/// Everything the fleet remembers about a paged-out tenant: enough to
/// rebuild it bit-identically, nothing more.
#[derive(Debug, Clone)]
struct PagedTenant {
    id: u64,
    kind: PageKind,
    /// Serving counters frozen at page-out ([`TenantFleet::aggregate_stats`]
    /// reads them without paging the tenant back in).
    stats: OnlineStats,
}

/// Where a paged tenant's state lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PageKind {
    /// Never materialized: rebuilt from `(config, origin)` alone.
    Virgin,
    /// Paged out to the hibernation store; `checksum` is the page
    /// receipt that verifies the read back.
    OnDisk {
        /// FNV-1a 64 checksum of the page file (see [`PageReceipt`]).
        checksum: u64,
    },
}

/// Per-tenant residency state. Orthogonal to paging: a cold tenant may
/// stay resident (no hibernation store, a failed page-out, or a fresh
/// restore); a paged tenant is always cold.
#[derive(Debug, Clone, Copy)]
enum Residency {
    /// Planning every round; `idle_streak` counts consecutive idle rounds.
    Hot { idle_streak: u64 },
    /// Hibernated since round `since_round`; due for a scheduled wake at
    /// `wake_at` (`INFINITY` = wake on arrival or access only).
    Cold { wake_at: f64, since_round: u64 },
}

/// Residency tier counters ([`TenantFleet::residency_stats`]): current
/// tier occupancy plus lifetime transition totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencyStats {
    /// Tenants currently hot (planning every round).
    pub hot: usize,
    /// Tenants currently cold (hibernated, resident or paged).
    pub cold: usize,
    /// Tenants currently paged out of memory.
    pub paged: usize,
    /// Hibernation transitions since construction.
    pub hibernated_total: u64,
    /// Wake transitions since construction.
    pub woken_total: u64,
    /// Successful page-outs.
    pub page_outs: u64,
    /// Successful page-ins.
    pub page_ins: u64,
    /// Failed page-outs (the tenant stayed resident; retried).
    pub page_out_failures: u64,
    /// Failed page-ins (the tenant stayed paged; retried).
    pub page_in_failures: u64,
}

/// Supervision policy for a [`TenantFleet`]. The default is active but
/// conservative: it only ever reacts to *real* failures (panics, injected
/// faults, refit errors), never to cold-start
/// [`NotTrained`](OnlineError::NotTrained) rounds, so fleets that never
/// fail behave bit-identically with or without it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Consecutive failures after which a tenant is quarantined.
    pub quarantine_after: u32,
    /// Rounds to wait before the first recovery probe (doubles after
    /// every failed probe; minimum 1).
    pub probe_backoff: u64,
    /// Upper bound on the probe backoff.
    pub max_backoff: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            quarantine_after: 3,
            probe_backoff: 2,
            max_backoff: 32,
        }
    }
}

/// A tenant's health as of the last planning round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantHealth {
    /// Planning normally (cold-start rounds included).
    #[default]
    Healthy,
    /// Failed at least one recent round, not yet quarantined.
    Failing,
    /// Quarantined: planning suspended until the next probe round.
    Quarantined,
    /// A recovery probe ran this round and failed; backoff doubled.
    Probing,
    /// A recovery probe ran this round and succeeded.
    Recovered,
    /// Hibernated: cold (possibly paged out); planning skipped until an
    /// arrival, its scheduled wake time, or direct access wakes it. Not
    /// a failure state — a hibernated tenant is healthy by definition.
    Hibernated,
}

/// One tenant's slot in a supervised round report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant.
    pub tenant: u64,
    /// The plan served this round: a fresh plan on success, the last good
    /// plan when degraded (`sticky`), `None` when nothing can be served.
    pub plan: Option<PlanningRound>,
    /// True when `plan` is the degraded plan-stickiness fallback.
    pub sticky: bool,
    /// The failure behind a degraded or empty slot, if any.
    pub error: Option<OnlineError>,
    /// The tenant's health after this round.
    pub health: TenantHealth,
}

/// A supervised round report: [`TenantFleet::run_round_supervised`]'s
/// view of one round, with degraded-mode fallbacks applied.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRound {
    /// The fleet round this report describes.
    pub round: u64,
    /// Per-tenant outcomes, ordered by tenant index.
    pub outcomes: Vec<TenantOutcome>,
    /// Tenants served the sticky fallback this round.
    pub degraded: usize,
    /// Tenants currently quarantined (probing ones included).
    pub quarantined: usize,
    /// Tenants recovered by a probe this round.
    pub recovered: usize,
    /// Tenants hibernated this round (planning skipped, not failures).
    pub hibernated: usize,
}

/// Fleet-wide supervision counters (sums over tenants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionStats {
    /// Failed tenant-rounds (panics included; cold-start rounds are not
    /// failures).
    pub failures: u64,
    /// Tenant-rounds that failed by panicking.
    pub panics: u64,
    /// Recovery probes attempted.
    pub probes: u64,
    /// Probes that succeeded.
    pub recoveries: u64,
    /// Tenant-rounds served the degraded sticky fallback.
    pub degraded_rounds: u64,
    /// Tenants quarantined right now.
    pub quarantined_now: usize,
}

/// Per-tenant supervision state ([`SupervisionSnapshot`] plus the health
/// it implies and transient per-round flags).
#[derive(Debug, Clone, Default)]
struct Supervision {
    consecutive_failures: u32,
    quarantine: Option<QuarantineState>,
    health: TenantHealth,
    failures: u64,
    panics: u64,
    probes: u64,
    recoveries: u64,
    degraded_rounds: u64,
    last_good_plan: Option<PlanningRound>,
    /// The last round served the sticky fallback (transient).
    served_sticky: bool,
}

/// What the supervisor decided for one tenant *before* the parallel
/// section — decisions are taken serially so they are deterministic and
/// identical for any worker count.
enum TenantAction {
    /// Plan normally.
    Normal,
    /// Quarantined and not yet due for a probe: drain, don't plan.
    Skip { until_round: u64 },
    /// Probe round: refit the model from the ring, then plan.
    Probe,
    /// Hibernated and nothing to do: skip the tenant entirely.
    Dormant,
    /// Hibernated but triggered: wake (page in if needed), then plan.
    Wake { reason: WakeReason },
}

/// Render a caught panic payload for error reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One tenant's share of a planning round, executed inside the round
/// worker's per-tenant `catch_unwind` boundary.
///
/// Order matters for determinism and data retention: a probe's forced
/// refit runs *first*, on the ring as the previous round left it; then
/// the queue is drained — even for quarantined tenants and failed probes,
/// so no arrival is ever lost to a suspension and the record/replay
/// invariant (every round drains the bus) holds; injected corruption
/// applies to the drained batch *after* the recorder captured the queue,
/// so a replayed drain re-derives the identical corruption; only then is
/// a failed probe reported, and the tenant planned through
/// [`OnlineScaler::plan_round`] (refit, forecast refresh, sufficiency
/// check, exact plan against its own forecast) or
/// refused, for quarantined tenants.
#[allow(clippy::too_many_arguments)]
fn tenant_round(
    tenant: &mut Tenant,
    index: usize,
    round: u64,
    now: f64,
    covered: usize,
    bus: &ArrivalBus,
    faults: Option<&FaultInjector>,
    action: &TenantAction,
    buf: &mut Vec<f64>,
) -> Result<PlanningRound, OnlineError> {
    let id = tenant.id;
    let probe = match action {
        TenantAction::Probe => tenant.scaler.probe_refit(now),
        _ => Ok(()),
    };
    if bus.drain_into(index, buf)? > 0 {
        if let Some(injector) = faults {
            injector.corrupt_arrivals(round, id, buf);
        }
        tenant.scaler.ingest_batch(buf);
    }
    probe?;
    if let TenantAction::Skip { until_round } = action {
        return Err(OnlineError::Quarantined {
            tenant: id,
            until_round: *until_round,
        });
    }
    if let Some(injector) = faults {
        match injector.plan_fault(round, id) {
            Some(PlanFault::Error) => return Err(OnlineError::Injected { round, tenant: id }),
            Some(PlanFault::Panic) => panic!("injected tenant panic (round {round}, tenant {id})"),
            None => {}
        }
    }
    tenant.scaler.plan_round(now, covered)
}

/// The deployment settings of a restore (see [`TenantFleet::restore_with`]):
/// where the restored process keeps its files. Everything the checkpointed
/// session ran *with* — bus, residency, supervisor, fault plan — comes
/// back from the manifest instead. The default (both `None`) is
/// [`TenantFleet::restore`].
#[derive(Debug, Clone, Default)]
pub struct RestoreOptions {
    /// Storage backend for the restore *and* subsequent checkpoints.
    pub storage: Option<Arc<dyn CheckpointStorage>>,
    /// Hibernation directory to re-attach (requires the checkpoint to
    /// carry residency state).
    pub hibernation_dir: Option<std::path::PathBuf>,
}

/// A fleet of independent tenants planned concurrently.
#[derive(Debug)]
pub struct TenantFleet {
    /// The shared serving configuration (every tenant uses it).
    config: OnlineConfig,
    /// The shared ring origin (every tenant's ring is anchored at it).
    origin: f64,
    tenants: Vec<TenantSlot>,
    workers: usize,
    /// Persistent round workers, parked between rounds.
    pool: Arc<WorkerPool>,
    /// The ingestion runtime: one arrival queue per tenant.
    bus: Arc<ArrivalBus>,
    /// The session recorder, while a trace recording is active.
    recorder: Option<TraceRecorder>,
    /// Round sequence number: increments once per planning round
    /// (aborted rounds included). Fault schedules and quarantine probes
    /// key on it, and checkpoints persist it.
    round_counter: u64,
    /// The supervision policy.
    supervisor: SupervisorConfig,
    /// The active fault injector, when chaos is enabled.
    faults: Option<FaultInjector>,
    /// Per-tenant supervision state.
    supervision: Vec<Supervision>,
    /// Checkpoint I/O counters accumulated across this fleet's checkpoint
    /// and page writes and its restore (retries, generation fallbacks).
    checkpoint_io: CheckpointIoStats,
    /// Storage backend for checkpoints (the real filesystem unless a
    /// chaos test injects a faulty one).
    checkpoint_storage: Option<Arc<dyn CheckpointStorage>>,
    /// The residency policy, when activity tiering is enabled.
    residency: Option<ResidencyConfig>,
    /// Per-tenant residency state (all hot while residency is disabled).
    residency_state: Vec<Residency>,
    /// The per-tenant page store, when paging is enabled.
    hibernation: Option<HibernationStore>,
    /// Lifetime residency transition counters.
    residency_counters: ResidencyStats,
    /// Whether trace-event capture is on (applied to tenants as they
    /// materialize, so a paged tenant woken mid-recording traces too).
    tracing: bool,
    /// Per-tenant: touched through `tenant_mut` since the last round
    /// (direct driver activity blocks cold entry that round).
    saw_direct: Vec<bool>,
    /// Access-wake events accumulated between rounds, emitted (and
    /// recorded) with the next round's residency events.
    pending_wakes: Vec<(u64, ResidencyEvent)>,
    /// Residency events of completed rounds, until taken with
    /// [`TenantFleet::take_residency_events`].
    residency_events: Vec<(u64, ResidencyEvent)>,
}

/// Unused; kept only because `perfbench/` calls it; removed by the next
/// benchmark change (ROADMAP item 2). The plan cache it configured is
/// gone: every tenant plans exactly each round, and
/// [`TenantFleet::set_sharing`] ignores this value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingConfig {}

impl SharingConfig {
    /// Unused; kept only because `perfbench/` calls it; removed by the
    /// next benchmark change (ROADMAP item 2).
    pub fn on() -> Self {
        Self {}
    }
}

/// Read an on-disk tenant's page back from the hibernation store, verified
/// against its receipt checksum.
fn read_page(
    hibernation: Option<&HibernationStore>,
    id: u64,
    checksum: u64,
) -> Result<ScalerSnapshot, OnlineError> {
    hibernation
        .ok_or_else(|| OnlineError::Checkpoint {
            shard: None,
            message: format!("tenant {id} is paged out but no hibernation store is attached"),
        })?
        .page_in(id, PageReceipt { checksum })
}

/// Turn a paged tenant back into a serving scaler: a virgin tenant is
/// built from `(config, origin)`, an on-disk one is paged in and
/// restored. Tracing is armed per the fleet's setting, as everywhere a
/// scaler becomes resident.
fn page_in_scaler(
    paged: &PagedTenant,
    config: OnlineConfig,
    origin: f64,
    hibernation: Option<&HibernationStore>,
    tracing: bool,
) -> Result<OnlineScaler, OnlineError> {
    let mut scaler = match paged.kind {
        PageKind::Virgin => OnlineScaler::new(config, origin)?,
        PageKind::OnDisk { checksum } => {
            OnlineScaler::restore(read_page(hibernation, paged.id, checksum)?, config)?
        }
    };
    scaler.set_tracing(tracing);
    Ok(scaler)
}

impl Clone for TenantFleet {
    /// Deep clone: tenants copy; the worker pool is shared (it holds no
    /// per-fleet state); the bus is rebuilt with identical queue contents
    /// and stats, so the clone drains the same arrivals but has its own
    /// producer endpoint. A recording is *not* cloned — a trace has
    /// exactly one writer — so the clone starts with tracing off.
    fn clone(&self) -> Self {
        let tenant_count = self.tenants.len();
        let bus =
            ArrivalBus::new(tenant_count, self.bus.config()).expect("existing bus config is valid");
        for (tenant, cp) in self.bus.checkpoint_queues().into_iter().enumerate() {
            bus.restore_tenant(tenant, cp.queued, cp.stats)
                .expect("existing queue fits its own capacity");
        }
        let mut tenants = self.tenants.clone();
        for slot in &mut tenants {
            if let TenantSlot::Resident(tenant) = slot {
                tenant.scaler.set_tracing(false);
                let _ = tenant.scaler.take_trace_events();
            }
        }
        Self {
            config: self.config,
            origin: self.origin,
            tenants,
            workers: self.workers,
            pool: Arc::clone(&self.pool),
            bus: Arc::new(bus),
            recorder: None,
            round_counter: self.round_counter,
            supervisor: self.supervisor,
            faults: self.faults,
            supervision: self.supervision.clone(),
            checkpoint_io: self.checkpoint_io,
            checkpoint_storage: self.checkpoint_storage.clone(),
            residency: self.residency,
            // The clone shares the hibernation store: its paged tenants'
            // page files live there. Clones that will diverge should be
            // re-pointed with `set_hibernation_dir` after `wake_all`.
            residency_state: self.residency_state.clone(),
            hibernation: self.hibernation.clone(),
            residency_counters: self.residency_counters,
            tracing: false,
            saw_direct: vec![false; tenant_count],
            pending_wakes: Vec::new(),
            residency_events: Vec::new(),
        }
    }
}

impl TenantFleet {
    /// Build a fleet of `tenant_count` tenants sharing one configuration.
    ///
    /// Every tenant gets its own ring anchored at `origin` and its own
    /// queue on an arrival bus of [`BusConfig::default`] shape. The worker
    /// budget defaults to the machine's available parallelism.
    pub fn new(
        config: &OnlineConfig,
        origin: f64,
        tenant_count: usize,
    ) -> Result<Self, OnlineError> {
        if tenant_count == 0 {
            return Err(OnlineError::InvalidConfig(
                "a fleet needs at least one tenant",
            ));
        }
        let tenants = (0..tenant_count as u64)
            .map(|id| {
                Ok(TenantSlot::Resident(Box::new(Tenant {
                    id,
                    scaler: OnlineScaler::new(*config, origin)?,
                })))
            })
            .collect::<Result<Vec<_>, OnlineError>>()?;
        Self::assemble(
            *config,
            origin,
            tenants,
            available_threads(),
            BusConfig::default(),
        )
    }

    /// Build a fleet of `tenant_count` tenants with **no scaler in
    /// memory**: every slot starts cold and virgin, materialized on first
    /// arrival (or direct access) from `(config, origin)` alone.
    ///
    /// This is the memory-bounded registration path: a fleet can register
    /// 100k+ tenants and pay memory only for the ones that actually see
    /// traffic. Residency is enabled with `residency` (its `start_cold`
    /// is forced on, so a recorded session's header reproduces the cold
    /// start); attach a page store with
    /// [`TenantFleet::set_hibernation_dir`] to let woken-then-quiet
    /// tenants leave memory again.
    ///
    /// A cold-started fleet plans bit-identically to a [`TenantFleet::new`]
    /// fleet under the same driving: a virgin tenant materializes to exactly
    /// the scaler `new` would have built.
    ///
    /// The seed argument is unused: planning draws no random numbers. It
    /// stays only because `perfbench/` passes it; it goes with the next
    /// benchmark change (ROADMAP item 2).
    pub fn new_cold(
        config: &OnlineConfig,
        origin: f64,
        tenant_count: usize,
        _base_seed: u64,
        residency: ResidencyConfig,
    ) -> Result<Self, OnlineError> {
        if tenant_count == 0 {
            return Err(OnlineError::InvalidConfig(
                "a fleet needs at least one tenant",
            ));
        }
        // Validate the shared configuration once, up front: every tenant
        // uses it, so one constructed-and-discarded scaler proves all
        // `tenant_count` of them constructible — without materializing
        // them (the whole point of a cold start).
        drop(OnlineScaler::new(*config, origin)?);
        let tenants = (0..tenant_count as u64)
            .map(|id| {
                TenantSlot::Paged(PagedTenant {
                    id,
                    kind: PageKind::Virgin,
                    stats: OnlineStats::default(),
                })
            })
            .collect();
        let mut fleet = Self::assemble(
            *config,
            origin,
            tenants,
            available_threads(),
            BusConfig::default(),
        )?;
        fleet.enable_residency(ResidencyConfig {
            start_cold: true,
            ..residency
        })?;
        Ok(fleet)
    }

    /// Wire up the non-tenant state around a tenant-slot vector, with an
    /// empty arrival bus of shape `bus`.
    fn assemble(
        config: OnlineConfig,
        origin: f64,
        tenants: Vec<TenantSlot>,
        workers: usize,
        bus: BusConfig,
    ) -> Result<Self, OnlineError> {
        let tenant_count = tenants.len();
        Ok(Self {
            config,
            origin,
            tenants,
            workers,
            pool: Arc::new(WorkerPool::new(workers)),
            bus: Arc::new(ArrivalBus::new(tenant_count, bus)?),
            recorder: None,
            round_counter: 0,
            supervisor: SupervisorConfig::default(),
            faults: None,
            supervision: (0..tenant_count).map(|_| Supervision::default()).collect(),
            checkpoint_io: CheckpointIoStats::default(),
            checkpoint_storage: None,
            residency: None,
            residency_state: vec![Residency::Hot { idle_streak: 0 }; tenant_count],
            hibernation: None,
            residency_counters: ResidencyStats::default(),
            tracing: false,
            saw_direct: vec![false; tenant_count],
            pending_wakes: Vec::new(),
            residency_events: Vec::new(),
        })
    }

    /// Enable activity tiering: tenants idle for
    /// [`cold_after`](ResidencyConfig::cold_after) consecutive rounds
    /// whose forecast expects no work hibernate (planning skipped) until
    /// an arrival, their scheduled wake time, or direct access wakes
    /// them. Enabling residency on a busy fleet changes nothing until a
    /// tenant actually goes quiet; hibernate→wake is bit-equivalent to
    /// never hibernating.
    pub fn enable_residency(&mut self, config: ResidencyConfig) -> Result<(), OnlineError> {
        config.validate()?;
        self.residency = Some(config);
        if config.start_cold {
            for state in &mut self.residency_state {
                *state = Residency::Cold {
                    wake_at: f64::INFINITY,
                    since_round: 0,
                };
            }
        }
        Ok(())
    }

    /// The active residency policy, if tiering is enabled.
    pub fn residency(&self) -> Option<ResidencyConfig> {
        self.residency
    }

    /// Attach a per-tenant page store rooted at `dir`: cold tenants are
    /// serialized there and dropped from memory, bounding fleet memory by
    /// *active* tenants. Requires residency
    /// ([`TenantFleet::enable_residency`] or [`TenantFleet::new_cold`]).
    /// Page I/O goes through the fleet's checkpoint storage backend, so
    /// chaos tests inject page faults the same way as checkpoint faults.
    pub fn set_hibernation_dir(&mut self, dir: impl AsRef<Path>) -> Result<(), OnlineError> {
        if self.residency.is_none() {
            return Err(OnlineError::InvalidConfig(
                "enable residency before attaching a hibernation store",
            ));
        }
        let dir = dir.as_ref();
        self.hibernation = Some(match &self.checkpoint_storage {
            Some(storage) => HibernationStore::with_storage(dir, Arc::clone(storage)),
            None => HibernationStore::new(dir),
        });
        Ok(())
    }

    /// The attached page store's directory, if paging is enabled.
    pub fn hibernation_dir(&self) -> Option<&Path> {
        self.hibernation.as_ref().map(|store| store.dir())
    }

    /// Ensure slot `index` is resident, materializing it if paged: a
    /// virgin tenant is built from `(config, origin)`, an on-disk
    /// one is paged in and verified against its receipt.
    fn materialize(&mut self, index: usize) -> Result<(), OnlineError> {
        let TenantSlot::Paged(paged) = &self.tenants[index] else {
            return Ok(());
        };
        let id = paged.id;
        let scaler = page_in_scaler(
            paged,
            self.config,
            self.origin,
            self.hibernation.as_ref(),
            self.tracing,
        );
        match scaler {
            Ok(scaler) => {
                self.tenants[index] = TenantSlot::Resident(Box::new(Tenant { id, scaler }));
                self.residency_counters.page_ins += 1;
                Ok(())
            }
            Err(e) => {
                self.residency_counters.page_in_failures += 1;
                Err(e)
            }
        }
    }

    /// Wake a cold tenant because the driver touched it directly. The
    /// wake is buffered ([`pending_wakes`](Self::pending_wakes)) and
    /// emitted with the next round's residency events.
    fn wake_for_access(&mut self, index: usize) -> Result<(), OnlineError> {
        if self.residency.is_none() || matches!(self.residency_state[index], Residency::Hot { .. })
        {
            return Ok(());
        }
        self.materialize(index)?;
        self.residency_state[index] = Residency::Hot { idle_streak: 0 };
        self.residency_counters.woken_total += 1;
        self.pending_wakes.push((
            self.tenants[index].id(),
            ResidencyEvent::Wake {
                reason: WakeReason::Access,
            },
        ));
        Ok(())
    }

    /// Materialize every paged tenant and mark the whole fleet hot — the
    /// administrative bulk-wake (before migrating the hibernation
    /// directory, or before [`TenantFleet::start_recording`] on a fleet
    /// with paged tenants). Emits **no** wake events: this is operator
    /// action, not serving activity, and must not perturb a trace.
    pub fn wake_all(&mut self) -> Result<(), OnlineError> {
        for index in 0..self.tenants.len() {
            self.materialize(index)?;
            self.residency_state[index] = Residency::Hot { idle_streak: 0 };
        }
        Ok(())
    }

    /// Residency tier occupancy and lifetime transition counters.
    pub fn residency_stats(&self) -> ResidencyStats {
        let mut stats = self.residency_counters;
        for (slot, state) in self.tenants.iter().zip(&self.residency_state) {
            match state {
                Residency::Hot { .. } => stats.hot += 1,
                Residency::Cold { .. } => stats.cold += 1,
            }
            if matches!(slot, TenantSlot::Paged(_)) {
                stats.paged += 1;
            }
        }
        stats
    }

    /// Drain the residency events (hibernates and wakes, in emission
    /// order) of the rounds run since the last take.
    pub fn take_residency_events(&mut self) -> Vec<(u64, ResidencyEvent)> {
        std::mem::take(&mut self.residency_events)
    }

    /// Drain the access wakes buffered since the last round boundary —
    /// the replayer's hook for consuming the wake it just re-applied so
    /// the next round does not re-emit it.
    pub(crate) fn take_pending_wakes(&mut self) -> Vec<(u64, ResidencyEvent)> {
        std::mem::take(&mut self.pending_wakes)
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The current worker-thread budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Set the worker-thread budget (≥ 1). Plans do not depend on it: it
    /// only controls how the tenant vector is chunked and how many pool
    /// threads may execute the chunks.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
        self.pool.ensure_threads(self.workers);
    }

    /// Unused; kept only because `perfbench/` calls it; removed by the
    /// next benchmark change (ROADMAP item 2). Always `Ok(())`, and
    /// changes nothing (see [`SharingConfig`]).
    pub fn set_sharing(&mut self, _sharing: SharingConfig) -> Result<(), OnlineError> {
        Ok(())
    }

    /// Always 0: cluster decision dedup was removed (planning every
    /// member gave bit-identical plans). Kept only until a benchmark change
    /// updates `perfbench/`, which still reads it.
    pub fn deduped_plan_rounds(&self) -> u64 {
        0
    }

    /// Reshape the fleet's arrival bus: replace it with a fresh, empty bus
    /// of shape `config` (queue bound and lock sharding), whose counters
    /// start at zero.
    ///
    /// Returns the new producer endpoint — a cheaply clonable handle that
    /// any thread can [`ArrivalBus::push`] into, concurrently with
    /// planning; endpoints of the replaced bus are no longer drained.
    /// Fails with [`OnlineError::InvalidConfig`], leaving the current bus
    /// intact, while any arrival is queued (replacing it would discard
    /// them) or a recording is active (its header names the current
    /// shape).
    pub fn attach_bus(&mut self, config: BusConfig) -> Result<Arc<ArrivalBus>, OnlineError> {
        if !self.bus.is_empty() {
            return Err(OnlineError::InvalidConfig(
                "cannot replace an arrival bus with arrivals queued",
            ));
        }
        if self.recorder.is_some() {
            return Err(OnlineError::InvalidConfig(
                "cannot replace the arrival bus while recording",
            ));
        }
        self.bus = Arc::new(ArrivalBus::new(self.tenants.len(), config)?);
        Ok(Arc::clone(&self.bus))
    }

    /// The fleet's arrival bus. Always `Some`: the `Option` stays only
    /// because `perfbench/` unwraps it, and goes with the next benchmark
    /// change (ROADMAP item 2.1).
    pub fn bus(&self) -> Option<&Arc<ArrivalBus>> {
        Some(&self.bus)
    }

    /// Enqueue one arrival for tenant `index` (the next round-boundary
    /// drain will ingest it). Returns whether it was queued (`false` =
    /// shed by back-pressure).
    pub fn enqueue(&self, index: usize, arrival: f64) -> Result<bool, OnlineError> {
        self.bus.push(index, arrival)
    }

    /// Aggregate queue health across the fleet's tenants.
    pub fn queue_stats(&self) -> QueueStats {
        self.bus.stats()
    }

    /// Borrow a tenant by index. `None` for out-of-range indices *and*
    /// for paged-out tenants (reading cannot page one in — use
    /// [`TenantFleet::tenant_mut`] to wake it first).
    pub fn tenant(&self, index: usize) -> Option<&Tenant> {
        match self.tenants.get(index)? {
            TenantSlot::Resident(tenant) => Some(tenant),
            TenantSlot::Paged(_) => None,
        }
    }

    /// Mutably borrow a tenant by index (warm-starting models, explicit
    /// refits, ...). A cold tenant is woken (paged in if needed) first —
    /// `None` if that page-in fails.
    pub fn tenant_mut(&mut self, index: usize) -> Option<&mut Tenant> {
        if index >= self.tenants.len() || self.wake_for_access(index).is_err() {
            return None;
        }
        self.saw_direct[index] = true;
        match &mut self.tenants[index] {
            TenantSlot::Resident(tenant) => Some(tenant),
            TenantSlot::Paged(_) => None,
        }
    }

    /// Run one planning round for every tenant at time `now`, on the
    /// persistent worker pool.
    ///
    /// Each worker first drains its tenants' arrival queues (batched, in
    /// timestamp order, through the ring's bulk append) and then plans —
    /// drain + plan is one parallel pass, so ingestion work is off the
    /// caller's thread and amortized across the round workers.
    ///
    /// `covered[i]` is tenant `i`'s count of upcoming arrivals already
    /// covered by scheduled/pending/ready instances. The output vector is
    /// ordered by tenant index and is identical for any worker count.
    ///
    /// Tenant failures are isolated: a tenant whose round errors (still
    /// warming up, failed refit, ...) yields `Err` *in its own slot* while
    /// every other tenant's plan is returned normally — one bad tenant must
    /// never take down a round for the hundreds sharing the process. The
    /// outer `Err` is reserved for caller mistakes (wrong `covered` length).
    #[allow(clippy::type_complexity)]
    pub fn run_round(
        &mut self,
        now: f64,
        covered: &[usize],
    ) -> Result<Vec<Result<PlanningRound, OnlineError>>, OnlineError> {
        if covered.len() != self.tenants.len() {
            return Err(OnlineError::InvalidConfig(
                "covered must have one entry per tenant",
            ));
        }
        let round = self.round_counter;
        let residency_on = self.residency.is_some();
        // Supervision and residency decisions are taken serially, before
        // the parallel section, so they are a pure function of (round,
        // per-tenant state) — identical for any worker count. A cold
        // tenant wakes on a queued arrival or a passed wake time and is
        // otherwise dormant: invariantly healthy and unquarantined, so
        // the supervision match below never applies to it.
        let actions: Vec<TenantAction> = (0..self.tenants.len())
            .map(|i| {
                if residency_on {
                    if let Residency::Cold { wake_at, .. } = self.residency_state[i] {
                        let arrival = self.bus.pending_hint(i).unwrap_or(true)
                            && self.bus.queued(i).map(|n| n > 0).unwrap_or(true);
                        return if arrival {
                            TenantAction::Wake {
                                reason: WakeReason::Arrival,
                            }
                        } else if now >= wake_at {
                            TenantAction::Wake {
                                reason: WakeReason::Due,
                            }
                        } else {
                            TenantAction::Dormant
                        };
                    }
                }
                match &self.supervision[i].quarantine {
                    Some(q) if round < q.next_probe => TenantAction::Skip {
                        until_round: q.next_probe,
                    },
                    Some(_) => TenantAction::Probe,
                    None => TenantAction::Normal,
                }
            })
            .collect();
        // Residency bookkeeping inputs, captured before the round mutates
        // anything: each tenant's ingested-arrivals counter (the idle
        // test is "the round ingested nothing") and which wakes must page
        // in (to attribute page-in successes/failures afterwards).
        let (pre_ingested, wake_from_page): (Vec<u64>, Vec<usize>) = if residency_on {
            let pre = self
                .tenants
                .iter()
                .map(|slot| match slot {
                    TenantSlot::Resident(tenant) => tenant.scaler.stats().arrivals_ingested,
                    TenantSlot::Paged(paged) => paged.stats.arrivals_ingested,
                })
                .collect();
            let wakes = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(i, slot)| {
                    matches!(actions[*i], TenantAction::Wake { .. })
                        && matches!(slot, TenantSlot::Paged(_))
                })
                .map(|(i, _)| i)
                .collect();
            (pre, wakes)
        } else {
            (Vec::new(), Vec::new())
        };
        // Recording: capture everything a replay needs *before* the round
        // mutates it — the between-round scaler events (installs, explicit
        // refits) and the queued arrivals the round is about to drain
        // (stored in drain order so the replayed drain sees them
        // identically). Recording a round assumes producers have quiesced
        // at the round boundary, per the ingestion contract.
        let (pre_events, bus_arrivals) = if self.recorder.is_some() {
            let pre = self.harvest_trace_events();
            let arrivals = self
                .bus
                .checkpoint_queues()
                .into_iter()
                .map(|cp| {
                    let mut queued = cp.queued;
                    queued.sort_by(|a, b| a.total_cmp(b));
                    queued
                })
                .collect();
            (pre, arrivals)
        } else {
            (Vec::new(), Vec::new())
        };
        let workers = self.workers;
        let bus: &ArrivalBus = &self.bus;
        let faults = self.faults;
        let actions_ref = &actions;
        let config = self.config;
        let origin = self.origin;
        let tracing = self.tracing;
        let hibernation = self.hibernation.as_ref();
        // One parallel pass: each worker takes its tenants one by one
        // through probe refit → drain → ingest → refit → sufficiency
        // check → exact plan.
        let round_work = |start: usize, chunk: &mut [TenantSlot]| {
            // Injected worker-thread death: fires at the chunk boundary,
            // outside any tenant, so the whole round aborts (see the
            // module docs — this fault class is worker-count-dependent).
            if let Some(injector) = &faults {
                if injector.worker_panics(round, start) {
                    panic!("injected worker panic (round {round}, chunk {start})");
                }
            }
            // One drain buffer per worker chunk, reused across its tenants.
            let mut buf = Vec::new();
            chunk
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let index = start + i;
                    let id = slot.id();
                    match &actions_ref[index] {
                        // Dormant tenants are not touched at all — that
                        // is the whole round-latency win.
                        TenantAction::Dormant => {
                            return Err(OnlineError::Hibernated { tenant: id });
                        }
                        TenantAction::Wake { .. } => {
                            if let TenantSlot::Paged(paged) = slot {
                                match page_in_scaler(paged, config, origin, hibernation, tracing) {
                                    Ok(scaler) => {
                                        *slot =
                                            TenantSlot::Resident(Box::new(Tenant { id, scaler }));
                                    }
                                    // A failed page-in leaves the tenant
                                    // paged; the wake trigger persists,
                                    // so next round retries.
                                    Err(e) => return Err(e),
                                }
                            }
                        }
                        _ => {}
                    }
                    let TenantSlot::Resident(tenant) = slot else {
                        return Err(OnlineError::Hibernated { tenant: id });
                    };
                    // The tenant boundary: a panicking tenant (injected or
                    // real) poisons only its own slot.
                    catch_unwind(AssertUnwindSafe(|| {
                        tenant_round(
                            tenant,
                            index,
                            round,
                            now,
                            covered[index],
                            bus,
                            faults.as_ref(),
                            &actions_ref[index],
                            &mut buf,
                        )
                    }))
                    .unwrap_or_else(|payload| {
                        Err(OnlineError::TenantPanicked {
                            tenant: id,
                            message: panic_message(payload),
                        })
                    })
                })
                .collect::<Vec<Result<PlanningRound, OnlineError>>>()
        };
        let round_outcome = catch_unwind(AssertUnwindSafe(|| {
            self.pool
                .map_chunks_mut(&mut self.tenants, workers, round_work)
        }));
        let results: Vec<Result<PlanningRound, OnlineError>> = match round_outcome {
            Ok(per_chunk) => per_chunk.into_iter().flatten().collect(),
            Err(payload) => {
                // A panic escaped the tenant boundary (injected worker
                // fault or pool bug): the round is aborted whole. Tenant
                // state may be partially advanced — skip residency
                // bookkeeping and let the caller checkpoint/restore or
                // retry; the round counter still advances so fault
                // schedules and probes stay on time.
                self.round_counter += 1;
                return Err(OnlineError::RoundPanicked {
                    message: panic_message(payload),
                });
            }
        };
        // Attribute the page-ins the parallel section performed: a wake
        // whose slot is resident now paged in successfully; one still
        // paged failed (and will retry next round).
        for &i in &wake_from_page {
            match &self.tenants[i] {
                TenantSlot::Resident(_) => self.residency_counters.page_ins += 1,
                TenantSlot::Paged(_) => self.residency_counters.page_in_failures += 1,
            }
        }
        self.update_supervision(round, &actions, &results);
        let residency_events = self.update_residency(round, now, &actions, &results, &pre_ingested);
        self.saw_direct.fill(false);
        self.round_counter += 1;
        // Detach the recorder while harvesting (the harvest borrows the
        // tenants mutably), then re-attach before propagating any error.
        if let Some(mut recorder) = self.recorder.take() {
            let post_events = self.harvest_trace_events();
            let queue = self.bus.stats();
            let outcome = recorder.record_round(
                now,
                covered,
                pre_events,
                bus_arrivals,
                &results,
                post_events,
                &residency_events,
                queue,
            );
            self.recorder = Some(recorder);
            outcome?;
        }
        self.residency_events.extend(residency_events);
        Ok(results)
    }

    /// Fold one round's actions and results into the residency state:
    /// wake bookkeeping, idle-streak counting, cold entry (gated on the
    /// forecast via [`OnlineScaler::quiescence_horizon`]) and the
    /// page-out sweep. Serial and deterministic; returns the round's
    /// residency events in emission order (buffered access wakes first,
    /// then wakes and hibernations in tenant order).
    fn update_residency(
        &mut self,
        round: u64,
        now: f64,
        actions: &[TenantAction],
        results: &[Result<PlanningRound, OnlineError>],
        pre_ingested: &[u64],
    ) -> Vec<(u64, ResidencyEvent)> {
        let Some(rc) = self.residency else {
            return Vec::new();
        };
        let mut events = std::mem::take(&mut self.pending_wakes);
        // Wake bookkeeping: a wake action whose slot is resident now woke
        // this round; one still paged failed its page-in and stays cold
        // (the trigger persists, so next round retries).
        for (i, action) in actions.iter().enumerate() {
            if let TenantAction::Wake { reason } = action {
                if matches!(self.tenants[i], TenantSlot::Resident(_)) {
                    self.residency_state[i] = Residency::Hot { idle_streak: 0 };
                    self.residency_counters.woken_total += 1;
                    events.push((
                        self.tenants[i].id(),
                        ResidencyEvent::Wake { reason: *reason },
                    ));
                }
            }
        }
        // Cold entry: a healthy resident tenant that did nothing this
        // round — ingested no arrivals, was not touched directly, and had
        // nothing to plan — extends its idle streak; a long enough streak
        // plus a forecast that expects no work hibernates it. The wake
        // time comes from the forecast (next active window or refit
        // deadline), so a hibernated tenant can never sleep through work
        // its own model predicted.
        for (i, slot) in self.tenants.iter().enumerate() {
            let TenantSlot::Resident(tenant) = slot else {
                continue;
            };
            let Residency::Hot { idle_streak } = self.residency_state[i] else {
                continue;
            };
            let idle = self.supervision[i].health == TenantHealth::Healthy
                && matches!(actions[i], TenantAction::Normal)
                && tenant.scaler.stats().arrivals_ingested == pre_ingested[i]
                && !self.saw_direct[i]
                && match &results[i] {
                    Ok(plan) => plan.decisions.is_empty(),
                    Err(OnlineError::NotTrained) => true,
                    Err(_) => false,
                };
            let streak = if idle { idle_streak + 1 } else { 0 };
            self.residency_state[i] = Residency::Hot {
                idle_streak: streak,
            };
            if idle && streak >= rc.cold_after {
                if let Some(wake_at) = tenant.scaler.quiescence_horizon(now, rc.idle_epsilon) {
                    self.residency_state[i] = Residency::Cold {
                        wake_at,
                        since_round: round,
                    };
                    self.residency_counters.hibernated_total += 1;
                    events.push((tenant.id, ResidencyEvent::Hibernate));
                }
            }
        }
        // Page-out sweep: every cold resident (fresh hibernations,
        // restored-cold tenants, previous page-out failures) leaves
        // memory. A failed page-out keeps the tenant resident — cold but
        // safe — and retries here next round. Page write retries count
        // with the checkpoint writes' in the fleet's I/O stats.
        // (Cloned out of `self` so the loop below can mutate tenant
        // slots; the store is a path + shared storage handle.)
        if let Some(store) = self.hibernation.clone() {
            for i in 0..self.tenants.len() {
                if !matches!(self.residency_state[i], Residency::Cold { .. }) {
                    continue;
                }
                let TenantSlot::Resident(tenant) = &self.tenants[i] else {
                    continue;
                };
                let id = tenant.id;
                let stats = *tenant.scaler.stats();
                match store.page_out(id, tenant.scaler.snapshot()) {
                    Ok(receipt) => {
                        self.tenants[i] = TenantSlot::Paged(PagedTenant {
                            id,
                            kind: PageKind::OnDisk {
                                checksum: receipt.checksum,
                            },
                            stats,
                        });
                        self.residency_counters.page_outs += 1;
                    }
                    Err(_) => self.residency_counters.page_out_failures += 1,
                }
            }
            self.checkpoint_io.retries += store.take_retries();
        }
        events
    }

    /// Take every resident tenant's buffered trace events (paged tenants
    /// have none, structurally) *without* waking anyone — the replayer's
    /// harvest path, which must not perturb residency.
    pub(crate) fn harvest_trace_events(&mut self) -> Vec<Vec<ScalerEvent>> {
        self.tenants
            .iter_mut()
            .map(|slot| match slot {
                TenantSlot::Resident(tenant) => tenant.scaler.take_trace_events(),
                TenantSlot::Paged(_) => Vec::new(),
            })
            .collect()
    }

    /// Fold one round's results into the per-tenant supervision state:
    /// failure counting, quarantine entry/exit, probe backoff doubling,
    /// last-good plan capture. Serial and deterministic.
    fn update_supervision(
        &mut self,
        round: u64,
        actions: &[TenantAction],
        results: &[Result<PlanningRound, OnlineError>],
    ) {
        let config = self.supervisor;
        for (i, result) in results.iter().enumerate() {
            let probing = matches!(actions[i], TenantAction::Probe);
            let skipped = matches!(actions[i], TenantAction::Skip { .. });
            let sup = &mut self.supervision[i];
            sup.served_sticky = false;
            if probing {
                sup.probes += 1;
            }
            match result {
                Ok(plan) => {
                    sup.consecutive_failures = 0;
                    if probing {
                        sup.quarantine = None;
                        sup.recoveries += 1;
                        sup.health = TenantHealth::Recovered;
                    } else {
                        sup.health = TenantHealth::Healthy;
                    }
                    sup.last_good_plan = Some(plan.clone());
                }
                // Cold start is not a failure: a tenant still accumulating
                // its first training window must never be quarantined for
                // it (and a healthy fleet must behave identically with
                // supervision on or off).
                Err(OnlineError::NotTrained) => {
                    sup.health = if probing {
                        TenantHealth::Probing
                    } else {
                        TenantHealth::Healthy
                    };
                }
                // Hibernation is not a failure: a dormant tenant skipped
                // its round *because it is healthy and idle* — counting
                // it toward quarantine would punish quiescence.
                Err(OnlineError::Hibernated { .. }) => {
                    sup.health = TenantHealth::Hibernated;
                }
                // A page-in I/O failure under a wake action is
                // infrastructure trouble, not the tenant's: it stays
                // hibernated (and paged), the wake trigger persists, and
                // next round retries without burning failure budget.
                Err(OnlineError::Checkpoint { .. })
                    if matches!(actions[i], TenantAction::Wake { .. }) =>
                {
                    sup.health = TenantHealth::Hibernated;
                }
                Err(OnlineError::Quarantined { .. }) if skipped => {
                    sup.health = TenantHealth::Quarantined;
                    if sup.last_good_plan.is_some() {
                        sup.degraded_rounds += 1;
                        sup.served_sticky = true;
                    }
                }
                Err(e) => {
                    sup.failures += 1;
                    if matches!(e, OnlineError::TenantPanicked { .. }) {
                        sup.panics += 1;
                    }
                    sup.consecutive_failures += 1;
                    if let Some(mut q) = sup.quarantine {
                        // A failed probe doubles the backoff, capped.
                        q.backoff = q.backoff.saturating_mul(2).min(config.max_backoff.max(1));
                        q.next_probe = round + q.backoff;
                        sup.quarantine = Some(q);
                        sup.health = TenantHealth::Probing;
                    } else if sup.consecutive_failures >= config.quarantine_after.max(1) {
                        let backoff = config.probe_backoff.clamp(1, config.max_backoff.max(1));
                        sup.quarantine = Some(QuarantineState {
                            since_round: round,
                            backoff,
                            next_probe: round + backoff,
                        });
                        sup.health = TenantHealth::Quarantined;
                    } else {
                        sup.health = TenantHealth::Failing;
                    }
                    if sup.last_good_plan.is_some() {
                        sup.degraded_rounds += 1;
                        sup.served_sticky = true;
                    }
                }
            }
        }
    }

    /// One supervised planning round: [`TenantFleet::run_round`] plus the
    /// degraded-mode view — failing/quarantined tenants are served their
    /// last good plan (flagged `sticky`) instead of nothing, and the
    /// report carries per-tenant health and fleet-level degradation
    /// counts. The underlying plans, errors and supervision transitions
    /// are identical to calling `run_round` directly.
    pub fn run_round_supervised(
        &mut self,
        now: f64,
        covered: &[usize],
    ) -> Result<FleetRound, OnlineError> {
        let round = self.round_counter;
        let results = self.run_round(now, covered)?;
        let mut outcomes = Vec::with_capacity(results.len());
        let mut degraded = 0;
        let mut quarantined = 0;
        let mut recovered = 0;
        let mut hibernated = 0;
        for (i, result) in results.into_iter().enumerate() {
            let sup = &self.supervision[i];
            match sup.health {
                TenantHealth::Quarantined | TenantHealth::Probing => quarantined += 1,
                TenantHealth::Recovered => recovered += 1,
                TenantHealth::Hibernated => hibernated += 1,
                TenantHealth::Healthy | TenantHealth::Failing => {}
            }
            let (plan, sticky, error) = match result {
                Ok(plan) => (Some(plan), false, None),
                Err(e) if sup.served_sticky => {
                    degraded += 1;
                    (sup.last_good_plan.clone(), true, Some(e))
                }
                Err(e) => (None, false, Some(e)),
            };
            outcomes.push(TenantOutcome {
                tenant: self.tenants[i].id(),
                plan,
                sticky,
                error,
                health: sup.health,
            });
        }
        Ok(FleetRound {
            round,
            outcomes,
            degraded,
            quarantined,
            recovered,
            hibernated,
        })
    }

    /// Enable deterministic fault injection for planning and ingestion
    /// seams (checkpoint I/O faults are injected separately, via
    /// [`TenantFleet::set_checkpoint_storage`] with a
    /// [`crate::faults::FaultyStorage`]). A plan with every probability
    /// at zero disables injection.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.enabled() {
            Some(FaultInjector::new(plan))
        } else {
            None
        };
    }

    /// The active fault plan, if chaos is enabled.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.map(|injector| *injector.plan())
    }

    /// Replace the supervision policy (applies from the next round).
    pub fn set_supervisor(&mut self, config: SupervisorConfig) {
        self.supervisor = config;
    }

    /// The active supervision policy.
    pub fn supervisor(&self) -> SupervisorConfig {
        self.supervisor
    }

    /// The next round's sequence number (rounds run so far).
    pub fn round(&self) -> u64 {
        self.round_counter
    }

    /// A tenant's health as of the last round.
    pub fn tenant_health(&self, index: usize) -> Option<TenantHealth> {
        self.supervision.get(index).map(|sup| sup.health)
    }

    /// Fleet-wide supervision counters.
    pub fn supervision_stats(&self) -> SupervisionStats {
        let mut total = SupervisionStats::default();
        for sup in &self.supervision {
            total.failures += sup.failures;
            total.panics += sup.panics;
            total.probes += sup.probes;
            total.recoveries += sup.recoveries;
            total.degraded_rounds += sup.degraded_rounds;
            if sup.quarantine.is_some() {
                total.quarantined_now += 1;
            }
        }
        total
    }

    /// Use `storage` for subsequent checkpoints (chaos tests inject a
    /// [`crate::faults::FaultyStorage`] here; production uses the default
    /// filesystem backend).
    pub fn set_checkpoint_storage(&mut self, storage: Arc<dyn CheckpointStorage>) {
        self.checkpoint_storage = Some(storage);
    }

    /// Checkpoint I/O counters accumulated across this fleet's writes
    /// (checkpoints and pages) and restore: retries, generation
    /// fallbacks.
    pub fn checkpoint_io_stats(&self) -> CheckpointIoStats {
        self.checkpoint_io
    }

    /// One planning round with the same `covered` count for every tenant.
    #[allow(clippy::type_complexity)]
    pub fn run_round_uniform(
        &mut self,
        now: f64,
        covered: usize,
    ) -> Result<Vec<Result<PlanningRound, OnlineError>>, OnlineError> {
        let covered = vec![covered; self.tenants.len()];
        self.run_round(now, &covered)
    }

    /// Drain every tenant's arrival queue into its ring *without*
    /// planning — a parallel ingestion-only pass (flushing before a
    /// checkpoint, and the `ingest_throughput` bench). Returns the total
    /// arrivals drained.
    pub fn drain_bus(&mut self) -> Result<u64, OnlineError> {
        let bus: &ArrivalBus = &self.bus;
        let workers = self.workers;
        let residency_on = self.residency.is_some();
        let residency_state: &[Residency] = &self.residency_state;
        let per_chunk: Vec<Result<Vec<u64>, OnlineError>> =
            self.pool
                .map_chunks_mut(&mut self.tenants, workers, |start, chunk| {
                    let mut buf = Vec::new();
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(i, slot)| {
                            let index = start + i;
                            // Cold tenants keep their arrivals queued: the
                            // queue *is* their wake trigger, and draining it
                            // here would need a paged-out scaler anyway. A
                            // checkpoint still captures queued arrivals, so
                            // nothing is lost.
                            if residency_on
                                && matches!(residency_state[index], Residency::Cold { .. })
                            {
                                return Ok(0u64);
                            }
                            let TenantSlot::Resident(tenant) = slot else {
                                return Ok(0u64);
                            };
                            let n = bus.drain_into(index, &mut buf)?;
                            if n > 0 {
                                tenant.scaler.ingest_batch(&buf);
                            }
                            Ok(n as u64)
                        })
                        .collect()
                });
        Ok(per_chunk
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .sum())
    }

    /// Checkpoint the whole fleet to `dir` with the default shard size
    /// ([`DEFAULT_TENANTS_PER_SHARD`] tenants per shard file). See
    /// [`TenantFleet::checkpoint_sharded`].
    pub fn checkpoint(&mut self, dir: impl AsRef<Path>) -> Result<Manifest, OnlineError> {
        self.checkpoint_sharded(dir, DEFAULT_TENANTS_PER_SHARD)
    }

    /// Checkpoint the whole fleet to `dir`, sharded into groups of
    /// `tenants_per_shard` consecutive tenants per file.
    ///
    /// Tenant snapshots are taken and serialized in parallel on the
    /// fleet's worker pool; the write is crash-safe (a new generation
    /// becomes current only at the final atomic manifest rename, so a crash
    /// mid-checkpoint leaves the previous checkpoint intact). The snapshot
    /// captures per-tenant rings, models, serving counters,
    /// refit deadlines **and each tenant's undrained arrival queue**, so a
    /// fleet restored from the checkpoint — even one taken mid-burst, with
    /// arrivals still queued — plans bit-identically to one that never
    /// stopped.
    ///
    /// Every checkpoint serializes every shard: a generation depends on no
    /// earlier one, so it restores the same whoever else wrote to `dir`
    /// before it, and whatever shard size they used.
    pub fn checkpoint_sharded(
        &mut self,
        dir: impl AsRef<Path>,
        tenants_per_shard: usize,
    ) -> Result<Manifest, OnlineError> {
        let dir = dir.as_ref();
        // Capture queue contents first: scaler state cannot change under
        // us (`&mut self`), so the checkpoint is a consistent cut at the
        // capture instant — arrivals pushed after it belong to the next
        // generation and stay live on the bus.
        let queues = self.bus.checkpoint_queues();
        let indexed: Vec<(usize, &TenantSlot)> = self.tenants.iter().enumerate().collect();
        let supervision = &self.supervision;
        let residency_on = self.residency.is_some();
        let residency_state: &[Residency] = &self.residency_state;
        let config = self.config;
        let origin = self.origin;
        let hibernation = self.hibernation.as_ref();
        let snapshots: Vec<TenantSnapshot> = self
            .pool
            .parallel_map(&indexed, self.workers, |&(index, slot)| {
                // A paged tenant's snapshot comes from its page (or, for a
                // virgin one, from materializing a fresh scaler): the
                // checkpoint stays self-contained — restorable without the
                // hibernation directory.
                let scaler_snapshot = match slot {
                    TenantSlot::Resident(tenant) => tenant.scaler.snapshot(),
                    TenantSlot::Paged(paged) => match paged.kind {
                        PageKind::Virgin => OnlineScaler::new(config, origin)?.snapshot(),
                        PageKind::OnDisk { checksum } => {
                            read_page(hibernation, paged.id, checksum)?
                        }
                    },
                };
                let mut snapshot = TenantSnapshot::new(slot.id(), scaler_snapshot);
                snapshot.queued = queues[index].queued.clone();
                snapshot.queue = queues[index].stats;
                let sup = &supervision[index];
                snapshot.supervision = Some(SupervisionSnapshot {
                    consecutive_failures: sup.consecutive_failures,
                    quarantine: sup.quarantine,
                    failures: sup.failures,
                    panics: sup.panics,
                    probes: sup.probes,
                    recoveries: sup.recoveries,
                    degraded_rounds: sup.degraded_rounds,
                    last_good_plan: sup.last_good_plan.clone(),
                });
                if residency_on {
                    snapshot.residency = Some(match residency_state[index] {
                        Residency::Hot { idle_streak } => ResidencySnapshot {
                            cold: false,
                            idle_streak,
                            wake_at: None,
                            since_round: 0,
                        },
                        Residency::Cold {
                            wake_at,
                            since_round,
                        } => ResidencySnapshot {
                            cold: true,
                            idle_streak: 0,
                            // `None` encodes the unreachable INFINITY wake
                            // (JSON has no infinities).
                            wake_at: wake_at.is_finite().then_some(wake_at),
                            since_round,
                        },
                    });
                }
                Ok(snapshot)
            })
            .into_iter()
            .collect::<Result<Vec<_>, OnlineError>>()?;
        let store = self.open_store(dir);
        let written = store.write_with(
            &snapshots,
            &WriteOptions {
                tenants_per_shard,
                workers: self.workers,
                pool: Some(&self.pool),
                fleet: FleetWiring {
                    bus: self.bus.config(),
                    round: self.round_counter,
                    residency: self.residency,
                    supervisor: self.supervisor,
                    faults: self.fault_plan(),
                },
            },
        );
        // Accumulate I/O counters whether or not the write landed: retries
        // on a failed write are exactly what the warnings surface.
        self.absorb_io(store.io_stats());
        written
    }

    /// Build a checkpoint store on this fleet's storage backend.
    fn open_store(&self, dir: &Path) -> CheckpointStore {
        match &self.checkpoint_storage {
            Some(storage) => CheckpointStore::with_storage(dir, Arc::clone(storage)),
            None => CheckpointStore::new(dir),
        }
    }

    /// Fold one store's I/O counters into the fleet's running totals.
    fn absorb_io(&mut self, io: CheckpointIoStats) {
        self.checkpoint_io.retries += io.retries;
        self.checkpoint_io.generation_fallbacks += io.generation_fallbacks;
    }

    /// Restore a fleet from the checkpoint in `dir` with the default
    /// deployment settings: [`TenantFleet::restore_with`] with
    /// [`RestoreOptions::default`], the fallback notes dropped.
    pub fn restore(dir: impl AsRef<Path>, config: &OnlineConfig) -> Result<Self, OnlineError> {
        Self::restore_with(dir, config, RestoreOptions::default()).map(|(fleet, _)| fleet)
    }

    /// Restore a fleet from the checkpoint in `dir`, loading and
    /// deserializing shards in parallel, and re-arm it exactly as it was
    /// checkpointed.
    ///
    /// `config` is the shared serving configuration. Shards are checksum-verified before parsing; a corrupt shard fails
    /// the restore with an error naming that shard unless an older
    /// retained generation still loads, in which case the returned notes
    /// name the generation that was skipped and why.
    ///
    /// Tenant state travels in the shards: rings, models, supervision and
    /// residency state, and every tenant's undrained arrival queue, so a
    /// restore mid-burst continues bit-identically.
    /// The manifest carries the fleet's round counter and its wiring: the
    /// arrival bus, residency policy, supervisor policy and fault plan.
    /// Each is validated the way its setter validates it
    /// (an invalid hand-edited value fails with
    /// [`OnlineError::InvalidConfig`]) and re-applied, so the restored
    /// fleet plans under the policy it was checkpointed with. Only
    /// checkpoints of the current [`crate::CHECKPOINT_FORMAT_VERSION`]
    /// restore; any other version fails with
    /// [`OnlineError::UnsupportedSnapshotVersion`].
    ///
    /// `options` holds what belongs to the restoring process rather than
    /// to the checkpoint: the storage backend and the page directory. The
    /// restored fleet's worker budget defaults to the machine's available
    /// parallelism, and — as with a fresh fleet — its plans do not depend
    /// on it.
    pub fn restore_with(
        dir: impl AsRef<Path>,
        config: &OnlineConfig,
        options: RestoreOptions,
    ) -> Result<(Self, Vec<String>), OnlineError> {
        let store = match &options.storage {
            Some(storage) => CheckpointStore::with_storage(dir.as_ref(), Arc::clone(storage)),
            None => CheckpointStore::new(dir.as_ref()),
        };
        let workers = available_threads();
        let (manifest, per_shard) = store.load_shards(workers)?;
        let mut snapshots = Vec::with_capacity(manifest.tenant_count);
        for result in per_shard {
            snapshots.extend(result?);
        }
        snapshots.sort_by_key(|s| s.id);
        if snapshots.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(OnlineError::Checkpoint {
                shard: None,
                message: "duplicate tenant id across shards".to_string(),
            });
        }
        if snapshots.is_empty() {
            return Err(OnlineError::InvalidConfig(
                "a fleet needs at least one tenant",
            ));
        }
        // Queue, supervision and residency state travel with the tenants:
        // pull them out before the snapshots are consumed by the scaler
        // rebuild below.
        let queues: Vec<(Vec<f64>, QueueStats)> = snapshots
            .iter_mut()
            .map(|snapshot| (std::mem::take(&mut snapshot.queued), snapshot.queue))
            .collect();
        let supervision: Vec<Option<SupervisionSnapshot>> = snapshots
            .iter_mut()
            .map(|snapshot| snapshot.supervision.take())
            .collect();
        let residency_snapshots: Vec<Option<ResidencySnapshot>> = snapshots
            .iter_mut()
            .map(|snapshot| snapshot.residency.take())
            .collect();
        // Rebuild scalers in parallel *by value*: each worker takes its
        // snapshots out of the slots instead of cloning them — a snapshot
        // carries the full ring and model, and doubling peak memory on the
        // restore path would be real money at fleet scale.
        let mut slots: Vec<Option<TenantSnapshot>> = snapshots.into_iter().map(Some).collect();
        let tenants = map_chunks_mut(&mut slots, workers, |_, chunk| {
            chunk
                .iter_mut()
                .map(|slot| {
                    let snapshot = slot.take().expect("each slot is visited exactly once");
                    Ok(TenantSlot::Resident(Box::new(Tenant {
                        id: snapshot.id,
                        scaler: OnlineScaler::restore(snapshot.scaler, *config)?,
                    })))
                })
                .collect::<Vec<Result<TenantSlot, OnlineError>>>()
        })
        .into_iter()
        .flatten()
        .collect::<Result<Vec<_>, OnlineError>>()?;
        let origin = match &tenants[0] {
            TenantSlot::Resident(tenant) => tenant.scaler.ring().origin(),
            TenantSlot::Paged(_) => unreachable!("restore materializes every tenant"),
        };
        let mut fleet = Self::assemble(*config, origin, tenants, workers, manifest.bus)?;
        for (index, (queued, stats)) in queues.into_iter().enumerate() {
            fleet.bus.restore_tenant(index, queued, stats)?;
        }
        fleet.round_counter = manifest.round;
        for (i, snapshot) in supervision.into_iter().enumerate() {
            let Some(snapshot) = snapshot else { continue };
            fleet.supervision[i] = Supervision {
                consecutive_failures: snapshot.consecutive_failures,
                quarantine: snapshot.quarantine,
                health: if snapshot.quarantine.is_some() {
                    TenantHealth::Quarantined
                } else {
                    TenantHealth::Healthy
                },
                failures: snapshot.failures,
                panics: snapshot.panics,
                probes: snapshot.probes,
                recoveries: snapshot.recoveries,
                degraded_rounds: snapshot.degraded_rounds,
                last_good_plan: snapshot.last_good_plan,
                served_sticky: false,
            };
        }
        // Residency state restores resident-cold: cold tenants come back
        // in memory (the restore just built them) but stay hibernated —
        // they re-page lazily on the first round if a hibernation store
        // is attached, and plan nothing until their wake trigger fires.
        if let Some(residency) = manifest.residency {
            residency.validate()?;
            fleet.residency = Some(residency);
            for (i, snapshot) in residency_snapshots.into_iter().enumerate() {
                let Some(snapshot) = snapshot else { continue };
                fleet.residency_state[i] = if snapshot.cold {
                    Residency::Cold {
                        wake_at: snapshot.wake_at.unwrap_or(f64::INFINITY),
                        since_round: snapshot.since_round,
                    }
                } else {
                    Residency::Hot {
                        idle_streak: snapshot.idle_streak,
                    }
                };
            }
        }
        fleet.set_supervisor(manifest.supervisor);
        if let Some(faults) = manifest.faults {
            fleet.set_faults(faults);
        }
        fleet.checkpoint_storage = options.storage;
        if let Some(hibernation_dir) = options.hibernation_dir {
            fleet.set_hibernation_dir(hibernation_dir)?;
        }
        fleet.absorb_io(store.io_stats());
        Ok((fleet, store.take_notes()))
    }

    /// Enable or disable trace-event capture on every tenant's scaler.
    /// The setting sticks: a paged tenant materialized later inherits it.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for slot in &mut self.tenants {
            if let TenantSlot::Resident(tenant) = slot {
                tenant.scaler.set_tracing(on);
            }
        }
    }

    /// The [`TraceHeader`] describing this fleet session: everything a
    /// replay needs to rebuild it.
    pub fn trace_header(&self) -> TraceHeader {
        TraceHeader {
            version: TRACE_FORMAT_VERSION,
            session: SessionKind::Fleet,
            tenants: self.tenants.len(),
            origin: self.origin,
            online: self.config,
            bus: self.bus.config(),
            faults: self.fault_plan(),
            supervisor: Some(self.supervisor),
            residency: self.residency,
        }
    }

    /// Attach a [`TraceRecorder`] and start (or resume) recording this
    /// session: every subsequent round (with the arrivals it drains),
    /// refit and install is serialized to the trace.
    ///
    /// A recorder that has recorded nothing yet gets warm-start
    /// [`TraceRecord::Install`] records for every tenant that already has
    /// a model, so replay can rebuild pre-recording state; a resumed
    /// recorder (from [`TenantFleet::take_recorder`], e.g. across a kill +
    /// restore) continues its trace as-is.
    pub fn start_recording(&mut self, mut recorder: TraceRecorder) -> Result<(), OnlineError> {
        if self.recorder.is_some() {
            return Err(OnlineError::InvalidConfig(
                "a trace recording is already active on this fleet",
            ));
        }
        if recorder.records() == 0 {
            // Warm-start records need every trained model in hand; a
            // paged-out tenant's lives on disk. (A tenant that pages out
            // *during* the recording is fine — residency events capture
            // the transition and replay reproduces it.)
            if self.tenants.iter().any(|slot| {
                matches!(
                    slot,
                    TenantSlot::Paged(PagedTenant {
                        kind: PageKind::OnDisk { .. },
                        ..
                    })
                )
            }) {
                return Err(OnlineError::InvalidConfig(
                    "cannot start recording with paged-out tenants; wake the fleet first (wake_all)",
                ));
            }
            for (index, slot) in self.tenants.iter().enumerate() {
                let TenantSlot::Resident(tenant) = slot else {
                    continue;
                };
                if let Some(model) = tenant.scaler.model() {
                    recorder.record(&TraceRecord::Install {
                        round: recorder.round(),
                        tenant: index as u64,
                        at: tenant.scaler.last_refit_at().unwrap_or(0.0),
                        fingerprint: model_fingerprint(model),
                        model: model.clone(),
                    })?;
                }
            }
        }
        self.set_tracing(true);
        self.recorder = Some(recorder);
        Ok(())
    }

    /// Detach the active recorder without finalizing the trace: buffered
    /// scaler events are flushed, tracing is disabled, and
    /// the recorder is returned so a successor fleet (a restore of this
    /// one) can [`TenantFleet::start_recording`] it and continue the same
    /// trace. `None` when no recording is active.
    pub fn take_recorder(&mut self) -> Result<Option<TraceRecorder>, OnlineError> {
        let Some(mut recorder) = self.recorder.take() else {
            return Ok(None);
        };
        let pre = self.harvest_trace_events();
        recorder.flush_pending(pre)?;
        self.set_tracing(false);
        Ok(Some(recorder))
    }

    /// Finalize the active recording: flush buffered state, write the
    /// final QoS record (the fleet's aggregate serving and queue
    /// counters), and return the trace summary. `None` when no recording
    /// is active.
    pub fn finish_recording(&mut self) -> Result<Option<TraceSummary>, OnlineError> {
        let Some(recorder) = self.take_recorder()? else {
            return Ok(None);
        };
        let qos = QosRecord {
            stats: self.aggregate_stats(),
            queue: self.queue_stats(),
            hit_rate: None,
            rt_avg: None,
            relative_cost: None,
            queries: None,
        };
        Ok(Some(recorder.finish(qos)?))
    }

    /// Sum of all tenants' serving counters. Paged tenants contribute
    /// their counters as frozen at page-out — no page-in needed.
    pub fn aggregate_stats(&self) -> OnlineStats {
        let mut total = OnlineStats::default();
        for slot in &self.tenants {
            total.merge(match slot {
                TenantSlot::Resident(tenant) => tenant.scaler.stats(),
                TenantSlot::Paged(paged) => &paged.stats,
            });
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};

    fn fleet_config() -> OnlineConfig {
        let mut pipeline =
            RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
                target: 0.9,
            });
        pipeline.bucket_width = 10.0;
        pipeline.periodicity_aggregation = 2;
        pipeline.admm.max_iterations = 30;
        pipeline.planning_interval = 20.0;
        pipeline.mean_processing = 5.0;
        pipeline.forecast_horizon = 600.0;
        let mut config = OnlineConfig::new(pipeline);
        config.window_buckets = 120;
        config.min_training_buckets = 30;
        config
    }

    fn small_bus_config() -> BusConfig {
        BusConfig {
            capacity_per_tenant: 4_096,
            tenants_per_group: 2,
        }
    }

    /// Tenant `i`'s traffic: one arrival every `4 + i` seconds.
    fn uniform_arrivals(index: usize, duration: f64) -> impl Iterator<Item = f64> {
        let gap = 4.0 + index as f64;
        (0..(duration / gap) as usize).map(move |k| k as f64 * gap)
    }

    /// Enqueue every tenant's uniform traffic on the fleet's bus.
    fn enqueue_uniform(fleet: &TenantFleet, duration: f64) {
        for index in 0..fleet.len() {
            for t in uniform_arrivals(index, duration) {
                assert!(fleet.enqueue(index, t).unwrap());
            }
        }
    }

    #[test]
    fn rejects_empty_fleets_and_bad_indices() {
        assert!(TenantFleet::new(&fleet_config(), 0.0, 0).is_err());
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 2).unwrap();
        assert!(fleet.enqueue(2, 1.0).is_err());
        assert!(fleet.run_round(400.0, &[0]).is_err());
    }

    #[test]
    fn every_fleet_owns_its_bus() {
        let dir =
            std::env::temp_dir().join(format!("robustscaler-fleet-own-bus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config();
        // No attach_bus: the fleet's own bus takes arrivals.
        let mut fleet = TenantFleet::new(&config, 0.0, 3).unwrap();
        assert_eq!(fleet.bus().unwrap().config(), BusConfig::default());
        enqueue_uniform(&fleet, 400.0);
        fleet.run_round_uniform(400.0, 0).unwrap();
        // Checkpoint with arrivals still queued; the restore plans the
        // same from there on.
        for index in 0..3 {
            fleet.enqueue(index, 405.0 + index as f64).unwrap();
        }
        fleet.checkpoint_sharded(&dir, 2).unwrap();
        let mut restored = TenantFleet::restore(&dir, &config).unwrap();
        assert_eq!(restored.queue_stats(), fleet.queue_stats());
        for round in 1..4 {
            let now = 400.0 + 20.0 * round as f64;
            assert_eq!(
                fleet.run_round_uniform(now, round).unwrap(),
                restored.run_round_uniform(now, round).unwrap()
            );
        }
        assert_eq!(fleet.aggregate_stats(), restored.aggregate_stats());
        let _ = std::fs::remove_dir_all(&dir);

        // Reshaping an empty bus succeeds; with an arrival queued it is
        // refused and the arrival still drains at the next round.
        let mut fleet = TenantFleet::new(&config, 0.0, 2).unwrap();
        let bus = fleet.attach_bus(small_bus_config()).unwrap();
        assert_eq!(bus.config(), small_bus_config());
        assert!(bus.push(1, 3.0).unwrap());
        assert!(matches!(
            fleet.attach_bus(BusConfig::default()),
            Err(OnlineError::InvalidConfig(_))
        ));
        assert_eq!(fleet.bus().unwrap().config(), small_bus_config());
        fleet.run_round_uniform(20.0, 0).unwrap();
        assert_eq!(fleet.tenant(1).unwrap().scaler.stats().arrivals_ingested, 1);
        assert_eq!(fleet.queue_stats().drained, 1);
    }

    #[test]
    fn tenants_plan_independently() {
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 3).unwrap();
        enqueue_uniform(&fleet, 400.0);
        let rounds: Vec<_> = fleet
            .run_round_uniform(400.0, 0)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(rounds.len(), 3);
        // Different traffic levels → different expected arrivals per window.
        assert!(rounds[0].expected_arrivals_in_window > rounds[2].expected_arrivals_in_window);
        assert_eq!(fleet.aggregate_stats().refits, 3);
        assert!(fleet.tenant(0).unwrap().scaler.has_model());
    }

    #[test]
    fn one_failing_tenant_does_not_poison_the_round() {
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 3).unwrap();
        // Tenants 0 and 2 get traffic; tenant 1 stays empty and cannot
        // train — its slot errors, the others still plan.
        for index in [0usize, 2] {
            for k in 0..100 {
                fleet.enqueue(index, k as f64 * 4.0).unwrap();
            }
        }
        let rounds = fleet.run_round_uniform(400.0, 0).unwrap();
        assert!(rounds[0].is_ok());
        assert!(matches!(rounds[1], Err(OnlineError::NotTrained)));
        assert!(rounds[2].is_ok());
        assert!(!rounds[0].as_ref().unwrap().decisions.is_empty());
    }

    #[test]
    fn bus_fed_rounds_match_direct_ingestion() {
        let config = fleet_config();
        // Reference: one standalone scaler per tenant, fed per arrival.
        let mut direct_rounds = Vec::new();
        let mut direct_stats = OnlineStats::default();
        for index in 0..4 {
            let mut scaler = OnlineScaler::new(config, 0.0).unwrap();
            for t in uniform_arrivals(index, 400.0) {
                scaler.ingest(t);
            }
            direct_rounds.push(scaler.plan_round(400.0, 0));
            direct_stats.merge(scaler.stats());
        }

        let mut bused = TenantFleet::new(&config, 0.0, 4).unwrap();
        bused.attach_bus(small_bus_config()).unwrap();
        enqueue_uniform(&bused, 400.0);
        // With arrivals queued the bus can no longer be replaced.
        assert!(matches!(
            bused.attach_bus(small_bus_config()),
            Err(OnlineError::InvalidConfig(_))
        ));
        // Queued, not yet ingested.
        assert_eq!(bused.aggregate_stats().arrivals_ingested, 0);
        let bused_rounds = bused.run_round_uniform(400.0, 0).unwrap();
        assert_eq!(direct_rounds, bused_rounds);
        assert_eq!(direct_stats, bused.aggregate_stats());
        let queue = bused.queue_stats();
        assert_eq!(queue.drained, queue.enqueued);
        assert_eq!(queue.dropped_full, 0);
        assert!(queue.queued_peak > 0);
    }

    #[test]
    fn drain_bus_flushes_queues_without_planning() {
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 3).unwrap();
        assert_eq!(fleet.drain_bus().unwrap(), 0); // nothing queued: no-op
        fleet.attach_bus(small_bus_config()).unwrap();
        enqueue_uniform(&fleet, 200.0);
        let queued = fleet.queue_stats().enqueued;
        assert_eq!(fleet.drain_bus().unwrap(), queued);
        let stats = fleet.aggregate_stats();
        assert_eq!(stats.arrivals_ingested, queued);
        assert_eq!(stats.planning_rounds, 0);
        assert_eq!(fleet.drain_bus().unwrap(), 0);
    }

    #[test]
    fn checkpoint_restore_round_trips_and_resumes_identically() {
        let dir =
            std::env::temp_dir().join(format!("robustscaler-fleet-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 5).unwrap();
        enqueue_uniform(&fleet, 400.0);
        fleet.run_round_uniform(400.0, 0).unwrap();
        let manifest = fleet.checkpoint_sharded(&dir, 2).unwrap();
        assert_eq!(manifest.tenant_count, 5);
        assert_eq!(manifest.shards.len(), 3);
        let mut restored = TenantFleet::restore(&dir, &config).unwrap();
        assert_eq!(restored.len(), fleet.len());
        assert_eq!(restored.aggregate_stats(), fleet.aggregate_stats());
        // Both fleets continue identically.
        for round in 1..4 {
            let now = 400.0 + 20.0 * round as f64;
            assert_eq!(
                fleet.run_round_uniform(now, round).unwrap(),
                restored.run_round_uniform(now, round).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_restores_undrained_queues_mid_burst() {
        let dir = std::env::temp_dir().join(format!(
            "robustscaler-fleet-ckpt-burst-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 3).unwrap();
        fleet.attach_bus(small_bus_config()).unwrap();
        enqueue_uniform(&fleet, 400.0);
        fleet.run_round_uniform(400.0, 0).unwrap();
        // Mid-burst: new arrivals queued but NOT drained yet.
        for index in 0..3 {
            for k in 0..15 {
                fleet.enqueue(index, 402.0 + k as f64 * 1.5).unwrap();
            }
        }
        let manifest = fleet.checkpoint_sharded(&dir, 2).unwrap();
        assert_eq!(manifest.bus, small_bus_config());
        let mut restored = TenantFleet::restore(&dir, &config).unwrap();
        assert_eq!(restored.queue_stats(), fleet.queue_stats());
        // Both drain the same queued arrivals at the next round and stay
        // bit-identical through further enqueue + round cycles.
        for round in 1..4 {
            let now = 400.0 + 20.0 * round as f64;
            for index in 0..3 {
                let t = now - 5.0 + index as f64;
                fleet.enqueue(index, t).unwrap();
                restored.enqueue(index, t).unwrap();
            }
            assert_eq!(
                fleet.run_round_uniform(now, round).unwrap(),
                restored.run_round_uniform(now, round).unwrap()
            );
        }
        assert_eq!(fleet.aggregate_stats(), restored.aggregate_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_over_a_foreign_generation_restores_our_state() {
        let dir = std::env::temp_dir().join(format!(
            "robustscaler-fleet-ckpt-foreign-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 4).unwrap();
        enqueue_uniform(&fleet, 400.0);
        fleet.run_round_uniform(400.0, 0).unwrap();
        fleet.checkpoint_sharded(&dir, 2).unwrap();

        // A *different* fleet writes the next generation into the same
        // directory.
        let mut foreign = TenantFleet::new(&config, 0.0, 4).unwrap();
        enqueue_uniform(&foreign, 200.0);
        foreign.checkpoint_sharded(&dir, 2).unwrap();

        // Our next checkpoint restores OUR state, not the foreign one.
        fleet.checkpoint_sharded(&dir, 2).unwrap();
        let restored = TenantFleet::restore(&dir, &config).unwrap();
        assert_eq!(restored.aggregate_stats(), fleet.aggregate_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cloned_fleets_have_independent_buses_with_equal_contents() {
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 2).unwrap();
        fleet.attach_bus(small_bus_config()).unwrap();
        fleet.enqueue(0, 1.0).unwrap();
        let clone = fleet.clone();
        assert_eq!(clone.queue_stats(), fleet.queue_stats());
        // Pushes to the clone do not show up in the original.
        clone.enqueue(0, 2.0).unwrap();
        assert_eq!(fleet.queue_stats().enqueued, 1);
        assert_eq!(clone.queue_stats().enqueued, 2);
    }

    /// Silence the default panic hook's stderr spew for *injected*
    /// panics (the `catch_unwind` boundaries still see the payload).
    /// Installed once; everything else forwards to the previous hook.
    fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|m| (*m).to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if !message.contains("injected") {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn injected_tenant_panic_poisons_only_its_slot() {
        silence_injected_panics();
        let config = fleet_config();
        let mut clean = TenantFleet::new(&config, 0.0, 3).unwrap();
        enqueue_uniform(&clean, 400.0);
        let clean_rounds = clean.run_round_uniform(400.0, 0).unwrap();

        let mut faulted = TenantFleet::new(&config, 0.0, 3).unwrap();
        faulted.set_faults(FaultPlan {
            seed: 1,
            plan_panic: 1.0,
            target_tenant: Some(1),
            ..FaultPlan::default()
        });
        enqueue_uniform(&faulted, 400.0);
        let rounds = faulted.run_round_uniform(400.0, 0).unwrap();
        match &rounds[1] {
            Err(OnlineError::TenantPanicked { tenant: 1, message }) => {
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected a caught tenant panic, got {other:?}"),
        }
        // The neighbors' plans are bit-identical to the clean run.
        assert_eq!(rounds[0], clean_rounds[0]);
        assert_eq!(rounds[2], clean_rounds[2]);
        let stats = faulted.supervision_stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.panics, 1);
        assert_eq!(faulted.tenant_health(1), Some(TenantHealth::Failing));
    }

    #[test]
    fn injected_worker_panic_aborts_the_round_but_not_the_fleet() {
        silence_injected_panics();
        let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 3).unwrap();
        enqueue_uniform(&fleet, 400.0);
        fleet.set_faults(FaultPlan {
            seed: 4,
            worker_panic: 1.0,
            ..FaultPlan::default()
        });
        let err = fleet.run_round_uniform(400.0, 0).unwrap_err();
        assert!(matches!(err, OnlineError::RoundPanicked { .. }), "{err:?}");
        // The aborted round still counts, so fault schedules and probe
        // deadlines stay on time.
        assert_eq!(fleet.round(), 1);
        // Clearing the fault lets the next round proceed normally.
        fleet.set_faults(FaultPlan::default());
        let rounds = fleet.run_round_uniform(420.0, 0).unwrap();
        assert!(rounds.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn quarantine_lifecycle_backs_off_and_recovers() {
        let config = fleet_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 2).unwrap();
        fleet.set_supervisor(SupervisorConfig {
            quarantine_after: 2,
            probe_backoff: 2,
            max_backoff: 8,
        });
        enqueue_uniform(&fleet, 400.0);
        // Round 0: clean — captures tenant 0's last good plan.
        let round0 = fleet.run_round_supervised(400.0, &[0, 0]).unwrap();
        assert!(round0
            .outcomes
            .iter()
            .all(|o| o.health == TenantHealth::Healthy && !o.sticky));
        let last_good = round0.outcomes[0].plan.clone().unwrap();

        // Rounds 1-2: tenant 0 errors every round → quarantined after 2,
        // served the sticky fallback throughout.
        fleet.set_faults(FaultPlan {
            seed: 2,
            plan_error: 1.0,
            target_tenant: Some(0),
            ..FaultPlan::default()
        });
        let r1 = fleet.run_round_supervised(420.0, &[0, 0]).unwrap();
        assert_eq!(r1.outcomes[0].health, TenantHealth::Failing);
        assert!(r1.outcomes[0].sticky);
        assert_eq!(r1.outcomes[0].plan.as_ref(), Some(&last_good));
        assert_eq!(r1.degraded, 1);
        let r2 = fleet.run_round_supervised(440.0, &[0, 0]).unwrap();
        assert_eq!(r2.outcomes[0].health, TenantHealth::Quarantined);
        assert_eq!(fleet.supervision_stats().quarantined_now, 1);

        // Round 3: suspended (probe due at round 2 + backoff 2 = 4).
        let r3 = fleet.run_round_supervised(460.0, &[0, 0]).unwrap();
        assert!(matches!(
            r3.outcomes[0].error,
            Some(OnlineError::Quarantined {
                tenant: 0,
                until_round: 4
            })
        ));
        assert!(r3.outcomes[0].sticky);
        assert_eq!(r3.quarantined, 1);

        // Round 4: the probe runs, still faulted → backoff doubles to 4.
        let r4 = fleet.run_round_supervised(480.0, &[0, 0]).unwrap();
        assert_eq!(r4.outcomes[0].health, TenantHealth::Probing);
        assert_eq!(fleet.supervision_stats().probes, 1);
        assert_eq!(fleet.supervision_stats().recoveries, 0);

        // Rounds 5-7: suspended again (next probe at 4 + 4 = 8).
        for round in 5..8u64 {
            let now = 400.0 + 20.0 * round as f64;
            let r = fleet.run_round_supervised(now, &[0, 0]).unwrap();
            assert_eq!(
                r.outcomes[0].health,
                TenantHealth::Quarantined,
                "round {round}"
            );
        }

        // Faults cleared: round 8's probe succeeds and the tenant
        // recovers with a fresh (non-sticky) plan.
        fleet.set_faults(FaultPlan::default());
        let r8 = fleet.run_round_supervised(560.0, &[0, 0]).unwrap();
        assert_eq!(r8.outcomes[0].health, TenantHealth::Recovered);
        assert!(!r8.outcomes[0].sticky);
        assert!(r8.outcomes[0].plan.is_some());
        assert_eq!(r8.recovered, 1);
        let stats = fleet.supervision_stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.probes, 2);
        assert_eq!(stats.quarantined_now, 0);
        assert_eq!(stats.failures, 3); // rounds 1, 2 and the failed probe
        let r9 = fleet.run_round_supervised(580.0, &[0, 0]).unwrap();
        assert_eq!(r9.outcomes[0].health, TenantHealth::Healthy);
        // Tenant 1 was never disturbed.
        assert_eq!(fleet.tenant_health(1), Some(TenantHealth::Healthy));
    }

    #[test]
    fn supervision_state_survives_checkpoint_restore() {
        let dir = std::env::temp_dir().join(format!(
            "robustscaler-fleet-sup-ckpt-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = fleet_config();
        let mut fleet = TenantFleet::new(&config, 0.0, 3).unwrap();
        fleet.set_supervisor(SupervisorConfig {
            quarantine_after: 1,
            probe_backoff: 4,
            ..SupervisorConfig::default()
        });
        enqueue_uniform(&fleet, 400.0);
        fleet.run_round_uniform(400.0, 0).unwrap();
        fleet.set_faults(FaultPlan {
            seed: 3,
            plan_error: 1.0,
            target_tenant: Some(2),
            ..FaultPlan::default()
        });
        fleet.run_round_uniform(420.0, 0).unwrap();
        fleet.set_faults(FaultPlan::default());
        assert_eq!(fleet.tenant_health(2), Some(TenantHealth::Quarantined));

        fleet.checkpoint_sharded(&dir, 2).unwrap();
        let mut restored = TenantFleet::restore(&dir, &config).unwrap();
        // The manifest carries the policy: no re-arming by hand.
        assert_eq!(restored.supervisor(), fleet.supervisor());
        assert_eq!(restored.round(), fleet.round());
        assert_eq!(restored.supervision_stats(), fleet.supervision_stats());
        assert_eq!(restored.tenant_health(2), Some(TenantHealth::Quarantined));

        // Both continue identically: the quarantined tenant probes on the
        // same round (1 + 4 = 5) and recovers by refit.
        let refits_before = fleet.tenant(2).unwrap().scaler.stats().refits;
        for round in 2..8u64 {
            let now = 400.0 + 20.0 * round as f64;
            let ours = fleet.run_round_supervised(now, &[0, 0, 0]).unwrap();
            let theirs = restored.run_round_supervised(now, &[0, 0, 0]).unwrap();
            assert_eq!(ours, theirs, "round {round}");
            let expected = if round == 5 {
                TenantHealth::Recovered
            } else if round < 5 {
                TenantHealth::Quarantined
            } else {
                TenantHealth::Healthy
            };
            assert_eq!(ours.outcomes[2].health, expected, "round {round}");
        }
        assert!(restored.tenant(2).unwrap().scaler.stats().refits > refits_before);
        assert_eq!(fleet.supervision_stats(), restored.supervision_stats());
        assert_eq!(fleet.supervision_stats().quarantined_now, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_does_not_change_the_plans() {
        let run = |workers: usize| {
            let mut fleet = TenantFleet::new(&fleet_config(), 0.0, 8).unwrap();
            fleet.set_workers(workers);
            enqueue_uniform(&fleet, 400.0);
            let mut all = Vec::new();
            for round in 0..3 {
                let now = 400.0 + 20.0 * round as f64;
                all.push(fleet.run_round_uniform(now, round).unwrap());
            }
            all
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(5));
    }
}
