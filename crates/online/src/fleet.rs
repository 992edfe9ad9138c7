//! Multi-tenant fleet planning: hundreds of independent [`OnlineScaler`]s
//! planned in one parallel pass per round on a persistent worker pool,
//! fed by an event-driven arrival bus.
//!
//! Each tenant owns its scaler — ring buffer, model and planner — so
//! tenants never share mutable state. Planning is exact and draws no random
//! numbers, so a round's output is a pure function of (ingestion history,
//! round sequence) per tenant.
//!
//! ## The round pass
//!
//! Everything the fleet keeps about a tenant — its slot (resident scaler
//! or page receipt), supervision state, residency tier and direct-access
//! flag — lives in one per-tenant entry. A round splits the entries into
//! fixed blocks of `BLOCK_TENANTS` tenants, and the threads of a
//! [`WorkerPool`] (parked between rounds, so no spawn/join on the
//! critical path) pull blocks from the pool's queue as they free up, so
//! one slow block does not leave the other threads idle. A block takes
//! each of its tenants, in order, through the whole round: the supervision
//! or wake action, drain and ingest, the plan, the supervision update,
//! and the residency update — idle test, cold entry and the page-out of
//! a cold resident. Each tenant's result is written in place into the
//! round's output vector; the calling thread only merges the blocks'
//! residency counters and events in tenant order. What a block holds is
//! fixed by the tenant count alone and every decision reads only the
//! tenant's own state, so the result — plans, supervision, residency
//! events and pages — is **identical for any worker count** by
//! construction, which the online proptests pin. `drain_bus` uses the
//! same blocks.
//!
//! ## The refit pass
//!
//! A tenant whose refit fires stops in the block pass after the refit
//! decision and its periodicity detection, and waits for a second pool
//! pass. That pass groups the waiting tenants in tenant order, up to
//! [`MAX_LANES`] per group, each joining the first open group whose fits
//! share its period and are within an eighth of its length (fits off the
//! banded path, periods over 96 buckets, get a group of their own), and
//! fits each group's models together in the ADMM lane kernel
//! ([`robustscaler_nhpp::AdmmSolver::fit_lanes`]).
//! Then it finishes each tenant's round in its usual order: model install,
//! forecast refresh and plan inside the tenant boundary, then supervision
//! and residency. Every lane is bit-identical to a lone fit, so the
//! grouping — which spreads the refits over at least as many groups as
//! there are workers — changes no result, only how many fits share a
//! latency chain. `OnlineScaler::plan_round` outside a fleet refits
//! alone, through `AdmmSolver::fit`.
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
//! corruption, checkpoint I/O faults, worker-thread panics — plugs in via
//! [`TenantFleet::set_faults`]; every fault decision and every probe is
//! a pure function of the [`FaultPlan`] seed and the round
//! coordinates, pinned by `tests/chaos.rs`. A worker panic keys on the
//! start of a block and fires before the block touches a tenant; it
//! aborts the round ([`RoundPanicked`](OnlineError::RoundPanicked)) while
//! every other block completes, and must not be combined with trace
//! recording.

use crate::checkpoint::{
    CheckpointIoStats, CheckpointStorage, CheckpointStore, FleetWiring, HibernationStore, Manifest,
    PageReceipt, QuarantineState, ResidencySnapshot, SupervisionSnapshot, TenantSnapshot,
    WriteOptions, DEFAULT_TENANTS_PER_SHARD,
};
use crate::error::OnlineError;
use crate::faults::{FaultInjector, FaultPlan, PlanFault};
use crate::ingest::{ArrivalBus, BusConfig, QueueStats};
use crate::replay::{
    model_fingerprint, QosRecord, RefitTrigger, ResidencyEvent, ScalerEvent, SessionKind,
    TraceHeader, TraceRecord, TraceRecorder, TraceSummary, WakeReason, TRACE_FORMAT_VERSION,
};
use crate::scaler::{OnlineConfig, OnlineScaler, OnlineStats, ScalerSnapshot};
use robustscaler_core::{TrainedModel, TrainingInput};
use robustscaler_nhpp::admm::MAX_LANES;
use robustscaler_parallel::{available_threads, map_chunks_mut, WorkerPool};
use robustscaler_scaling::PlanningRound;
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;
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

    /// Serving counters: live for a resident tenant, frozen at page-out
    /// for a paged one.
    fn stats(&self) -> &OnlineStats {
        match self {
            TenantSlot::Resident(tenant) => tenant.scaler.stats(),
            TenantSlot::Paged(paged) => &paged.stats,
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

impl ResidencyStats {
    /// Add `other`'s transition counters (not its occupancy) to these.
    fn add_transitions(&mut self, other: &ResidencyStats) {
        self.hibernated_total += other.hibernated_total;
        self.woken_total += other.woken_total;
        self.page_outs += other.page_outs;
        self.page_ins += other.page_ins;
        self.page_out_failures += other.page_out_failures;
        self.page_in_failures += other.page_in_failures;
    }
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

/// What the supervisor or the residency tier decided for one tenant at
/// the start of its round, from the tenant's own state and the round
/// coordinates only — so the decision is the same for any worker count.
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

/// Tenants per block of the round pass. Blocks are what the pool's
/// threads pull from its queue: small enough that a slow block (a burst
/// of refits) leaves no thread idle for long and that a 250-tenant fleet
/// still spans two blocks, large enough that queueing one costs nothing
/// next to running it (a 20k-tenant round queues 157). A constant, so what
/// a block holds never depends on the worker count.
const BLOCK_TENANTS: usize = 128;

/// One tenant's fleet state, kept together so a round block owns it
/// outright.
#[derive(Debug, Clone)]
struct TenantEntry {
    /// The scaler, resident or paged out.
    slot: TenantSlot,
    /// Supervision state.
    supervision: Supervision,
    /// Residency tier (always hot while residency is disabled; only ever
    /// cold with residency enabled).
    residency: Residency,
    /// Touched through `tenant_mut` since the last round (direct access
    /// blocks cold entry that round).
    saw_direct: bool,
}

/// What every block of one round reads: the round's coordinates and the
/// fleet's settings.
struct RoundContext<'a> {
    round: u64,
    now: f64,
    covered: &'a [usize],
    bus: &'a ArrivalBus,
    faults: Option<FaultInjector>,
    supervisor: SupervisorConfig,
    residency: Option<ResidencyConfig>,
    hibernation: Option<&'a HibernationStore>,
    config: OnlineConfig,
    origin: f64,
    tracing: bool,
}

/// What one block of a round, or one group of its refit pass, reports to
/// the caller, which merges them in tenant order.
#[derive(Default)]
struct BlockOutcome {
    /// Residency transition counters (the occupancy fields stay 0).
    counters: ResidencyStats,
    /// Wakes, with their tenant index, in tenant order.
    wakes: Vec<(usize, u64, ResidencyEvent)>,
    /// Hibernations, with their tenant index, in tenant order.
    hibernations: Vec<(usize, u64, ResidencyEvent)>,
    /// Tenants whose round waits on a refit, in tenant order (block pass).
    deferred: Vec<DeferredRefit>,
    /// Finished rounds of refitted tenants, by tenant index (refit pass).
    refitted: Vec<(usize, Result<PlanningRound, OnlineError>)>,
    /// Set once every tenant of the block has its result written (a
    /// worker panic leaves it unset).
    done: bool,
}

/// How far a tenant's round got in the block pass.
enum Step {
    /// The round planned.
    Planned(PlanningRound),
    /// A refit is due; the round resumes in the refit pass.
    Refit {
        trigger: RefitTrigger,
        input: TrainingInput,
    },
}

/// A round the block pass stopped at its refit: the refit's trigger and
/// training input, plus what finishing the round needs.
struct DeferredRefit {
    index: usize,
    action: TenantAction,
    pre_ingested: u64,
    trigger: RefitTrigger,
    input: TrainingInput,
}

/// One block of a round: its tenants one by one, in order, each through
/// [`tenant_step`], each result written to its slot of the round's output.
/// An injected worker panic fires here, before any tenant is touched.
fn run_block(
    ctx: &RoundContext<'_>,
    start: usize,
    entries: &mut [TenantEntry],
    results: &mut [MaybeUninit<Result<PlanningRound, OnlineError>>],
    outcome: &mut BlockOutcome,
) {
    if let Some(injector) = &ctx.faults {
        if injector.worker_panics(ctx.round, start) {
            panic!("injected worker panic (round {}, block {start})", ctx.round);
        }
    }
    // One drain buffer per block, reused across its tenants.
    let mut buf = Vec::new();
    for (i, (entry, result)) in entries.iter_mut().zip(results).enumerate() {
        result.write(tenant_step(ctx, start + i, entry, &mut buf, outcome));
    }
    outcome.done = true;
}

/// One tenant's round in the block pass: pick its action, run its round
/// (page-in, drain, plan), then close it ([`TenantEntry::finish_round`]).
/// A round that reaches a due refit is deferred to the refit pass instead,
/// with a placeholder result.
fn tenant_step(
    ctx: &RoundContext<'_>,
    index: usize,
    entry: &mut TenantEntry,
    buf: &mut Vec<f64>,
    outcome: &mut BlockOutcome,
) -> Result<PlanningRound, OnlineError> {
    let action = entry.action(ctx, index);
    // The idle test is "the round ingested nothing": capture the counter
    // before the round moves it.
    let pre_ingested = entry.slot.stats().arrivals_ingested;
    let paged_wake =
        matches!(action, TenantAction::Wake { .. }) && matches!(entry.slot, TenantSlot::Paged(_));
    let step = entry.run(ctx, index, &action, buf);
    if paged_wake {
        // A wake whose slot is resident now paged in; one still paged
        // failed (and retries next round).
        match entry.slot {
            TenantSlot::Resident(_) => outcome.counters.page_ins += 1,
            TenantSlot::Paged(_) => outcome.counters.page_in_failures += 1,
        }
    }
    let result = match step {
        Ok(Step::Planned(plan)) => Ok(plan),
        Ok(Step::Refit { trigger, input }) => {
            outcome.deferred.push(DeferredRefit {
                index,
                action,
                pre_ingested,
                trigger,
                input,
            });
            // A placeholder: the refit pass writes the round's result.
            return Err(OnlineError::NotTrained);
        }
        Err(e) => Err(e),
    };
    entry.finish_round(ctx, index, &action, &result, pre_ingested, outcome);
    result
}

/// Refits the refit pass runs in one lockstep group: up to
/// [`MAX_LANES`], but spread over at least as many groups as there are
/// workers when there are refits enough.
fn lanes_per_group(refits: usize, workers: usize) -> usize {
    let groups = refits.div_ceil(MAX_LANES).max(workers.min(refits)).max(1);
    refits.div_ceil(groups).clamp(1, MAX_LANES)
}

/// The refit pass: fit the deferred tenants' models in lockstep groups on
/// the pool, then finish each tenant's round. Groups take tenants in
/// tenant order, each joining the first open group whose first fit's
/// shape shares lanes with its own
/// ([`robustscaler_nhpp::AdmmConfig::shares_lanes`]: same
/// period, lengths within an eighth; a fit off the banded path gets a
/// group of its own). Each lane is bit-identical to a lone fit, so neither
/// the grouping nor the worker count changes any result.
fn refit_pass(
    ctx: &RoundContext<'_>,
    pool: &WorkerPool,
    workers: usize,
    tenants: &mut [TenantEntry],
    deferred: Vec<DeferredRefit>,
) -> Vec<BlockOutcome> {
    let lanes = lanes_per_group(deferred.len(), workers);
    let admm = ctx.config.pipeline.admm;
    // Each group with its first member's fit shape (length, period).
    type Group<'e> = (
        (usize, Option<usize>),
        Vec<(&'e mut TenantEntry, DeferredRefit)>,
    );
    let mut groups: Vec<Group<'_>> = Vec::new();
    let mut rest = tenants;
    let mut offset = 0;
    for refit in deferred {
        let (entry, tail) = std::mem::take(&mut rest)[refit.index - offset..]
            .split_first_mut()
            .expect("deferred tenants are in range, in order");
        rest = tail;
        offset = refit.index + 1;
        let shape = (refit.input.len(), refit.input.usable_period());
        match groups
            .iter_mut()
            .find(|(first, g)| g.len() < lanes && admm.shares_lanes(*first, shape))
        {
            Some((_, group)) => group.push((entry, refit)),
            None => groups.push((shape, vec![(entry, refit)])),
        }
    }
    let mut outcomes: Vec<BlockOutcome> = groups.iter().map(|_| BlockOutcome::default()).collect();
    pool.for_each(
        groups.into_iter().zip(outcomes.iter_mut()),
        |_, ((_, group), outcome)| refit_group(ctx, group, outcome),
    );
    outcomes
}

/// One group of the refit pass: fit the group's models together, then
/// finish each tenant's round in tenant order — install, forecast
/// refresh and plan inside the tenant boundary, then supervision and
/// residency. A panic in the group fit fails every tenant of the group.
fn refit_group(
    ctx: &RoundContext<'_>,
    group: Vec<(&mut TenantEntry, DeferredRefit)>,
    outcome: &mut BlockOutcome,
) {
    let (members, inputs): (Vec<_>, Vec<_>) = group
        .into_iter()
        .map(|(entry, refit)| {
            (
                (
                    entry,
                    refit.index,
                    refit.action,
                    refit.pre_ingested,
                    refit.trigger,
                ),
                refit.input,
            )
        })
        .unzip();
    let pipeline = match &members[0].0.slot {
        TenantSlot::Resident(tenant) => tenant.scaler.pipeline(),
        TenantSlot::Paged(_) => unreachable!("a deferred tenant is resident"),
    };
    let fitted = catch_unwind(AssertUnwindSafe(|| pipeline.fit_lanes(inputs)));
    let fitted: Vec<Result<TrainedModel, OnlineError>> = match fitted {
        Ok(models) => models
            .into_iter()
            .map(|m| m.map_err(OnlineError::from))
            .collect(),
        Err(payload) => {
            let message = panic_message(payload);
            members
                .iter()
                .map(|(entry, ..)| {
                    Err(OnlineError::TenantPanicked {
                        tenant: entry.slot.id(),
                        message: message.clone(),
                    })
                })
                .collect()
        }
    };
    for ((entry, index, action, pre_ingested, trigger), trained) in members.into_iter().zip(fitted)
    {
        let TenantSlot::Resident(tenant) = &mut entry.slot else {
            unreachable!("a deferred tenant is resident");
        };
        let id = tenant.id;
        let result = catch_unwind(AssertUnwindSafe(|| {
            tenant.scaler.install_refit(ctx.now, trigger, trained?)?;
            tenant.scaler.plan_fitted(ctx.now, ctx.covered[index])
        }))
        .unwrap_or_else(|payload| {
            Err(OnlineError::TenantPanicked {
                tenant: id,
                message: panic_message(payload),
            })
        });
        entry.finish_round(ctx, index, &action, &result, pre_ingested, outcome);
        outcome.refitted.push((index, result));
    }
}

impl TenantEntry {
    fn new(slot: TenantSlot) -> Self {
        Self {
            slot,
            supervision: Supervision::default(),
            residency: Residency::Hot { idle_streak: 0 },
            saw_direct: false,
        }
    }

    /// The supervision or wake action for this round. A cold tenant wakes
    /// on a queued arrival or a passed wake time and is otherwise dormant:
    /// invariantly healthy and unquarantined, so the supervision match
    /// never applies to it.
    fn action(&self, ctx: &RoundContext<'_>, index: usize) -> TenantAction {
        if let Residency::Cold { wake_at, .. } = self.residency {
            let arrival = ctx.bus.pending_hint(index).unwrap_or(true)
                && ctx.bus.queued(index).map(|n| n > 0).unwrap_or(true);
            return if arrival {
                TenantAction::Wake {
                    reason: WakeReason::Arrival,
                }
            } else if ctx.now >= wake_at {
                TenantAction::Wake {
                    reason: WakeReason::Due,
                }
            } else {
                TenantAction::Dormant
            };
        }
        match &self.supervision.quarantine {
            Some(q) if ctx.round < q.next_probe => TenantAction::Skip {
                until_round: q.next_probe,
            },
            Some(_) => TenantAction::Probe,
            None => TenantAction::Normal,
        }
    }

    /// Run the tenant's round under `action`: dormant tenants are not
    /// touched at all, a waking paged tenant is paged in first, and the
    /// rest goes through [`tenant_round`] inside the tenant boundary.
    fn run(
        &mut self,
        ctx: &RoundContext<'_>,
        index: usize,
        action: &TenantAction,
        buf: &mut Vec<f64>,
    ) -> Result<Step, OnlineError> {
        let id = self.slot.id();
        match action {
            TenantAction::Dormant => return Err(OnlineError::Hibernated { tenant: id }),
            TenantAction::Wake { .. } => {
                if let TenantSlot::Paged(paged) = &self.slot {
                    // A failed page-in leaves the tenant paged; the wake
                    // trigger persists, so next round retries.
                    let scaler = page_in_scaler(
                        paged,
                        ctx.config,
                        ctx.origin,
                        ctx.hibernation,
                        ctx.tracing,
                    )?;
                    self.slot = TenantSlot::Resident(Box::new(Tenant { id, scaler }));
                }
            }
            _ => {}
        }
        let TenantSlot::Resident(tenant) = &mut self.slot else {
            return Err(OnlineError::Hibernated { tenant: id });
        };
        // The tenant boundary: a panicking tenant (injected or real)
        // poisons only its own slot.
        catch_unwind(AssertUnwindSafe(|| {
            tenant_round(
                tenant,
                index,
                ctx.round,
                ctx.now,
                ctx.covered[index],
                ctx.bus,
                ctx.faults.as_ref(),
                action,
                buf,
            )
        }))
        .unwrap_or_else(|payload| {
            Err(OnlineError::TenantPanicked {
                tenant: id,
                message: panic_message(payload),
            })
        })
    }

    /// Close the tenant's round: fold the result into its supervision
    /// state and, with residency on, its residency state — supervision
    /// first, because the idle test reads the health it sets.
    fn finish_round(
        &mut self,
        ctx: &RoundContext<'_>,
        index: usize,
        action: &TenantAction,
        result: &Result<PlanningRound, OnlineError>,
        pre_ingested: u64,
        outcome: &mut BlockOutcome,
    ) {
        self.supervise(ctx.round, ctx.supervisor, action, result);
        if let Some(rc) = ctx.residency {
            self.update_residency(ctx, index, rc, action, result, pre_ingested, outcome);
        }
        self.saw_direct = false;
    }

    /// Fold the round's result into the supervision state: failure
    /// counting, quarantine entry/exit, probe backoff doubling, last-good
    /// plan capture.
    fn supervise(
        &mut self,
        round: u64,
        config: SupervisorConfig,
        action: &TenantAction,
        result: &Result<PlanningRound, OnlineError>,
    ) {
        let probing = matches!(action, TenantAction::Probe);
        let skipped = matches!(action, TenantAction::Skip { .. });
        let sup = &mut self.supervision;
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
            Err(OnlineError::Checkpoint { .. }) if matches!(action, TenantAction::Wake { .. }) => {
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

    /// Fold the round into the residency state: wake bookkeeping,
    /// idle-streak counting, cold entry (gated on the forecast via
    /// [`OnlineScaler::quiescence_horizon`]) and the page-out of a cold
    /// resident.
    #[allow(clippy::too_many_arguments)]
    fn update_residency(
        &mut self,
        ctx: &RoundContext<'_>,
        index: usize,
        rc: ResidencyConfig,
        action: &TenantAction,
        result: &Result<PlanningRound, OnlineError>,
        pre_ingested: u64,
        outcome: &mut BlockOutcome,
    ) {
        let id = self.slot.id();
        // A wake action whose slot is resident now woke this round; one
        // still paged failed its page-in and stays cold (the trigger
        // persists, so next round retries).
        if let TenantAction::Wake { reason } = action {
            if matches!(self.slot, TenantSlot::Resident(_)) {
                self.residency = Residency::Hot { idle_streak: 0 };
                outcome.counters.woken_total += 1;
                outcome
                    .wakes
                    .push((index, id, ResidencyEvent::Wake { reason: *reason }));
            }
        }
        // Cold entry: a healthy resident tenant that did nothing this
        // round — ingested no arrivals, was not touched directly, and had
        // nothing to plan — extends its idle streak; a long enough streak
        // plus a forecast that expects no work hibernates it. The wake
        // time comes from the forecast (next active window or refit
        // deadline), so a hibernated tenant can never sleep through work
        // its own model predicted.
        if let (TenantSlot::Resident(tenant), Residency::Hot { idle_streak }) =
            (&self.slot, self.residency)
        {
            let idle = self.supervision.health == TenantHealth::Healthy
                && matches!(action, TenantAction::Normal)
                && tenant.scaler.stats().arrivals_ingested == pre_ingested
                && !self.saw_direct
                && match result {
                    Ok(plan) => plan.decisions.is_empty(),
                    Err(OnlineError::NotTrained) => true,
                    Err(_) => false,
                };
            let streak = if idle { idle_streak + 1 } else { 0 };
            self.residency = Residency::Hot {
                idle_streak: streak,
            };
            if idle && streak >= rc.cold_after {
                if let Some(wake_at) = tenant.scaler.quiescence_horizon(ctx.now, rc.idle_epsilon) {
                    self.residency = Residency::Cold {
                        wake_at,
                        since_round: ctx.round,
                    };
                    outcome.counters.hibernated_total += 1;
                    outcome
                        .hibernations
                        .push((index, id, ResidencyEvent::Hibernate));
                }
            }
        }
        // Page-out: a cold resident (fresh hibernation, restored cold, or
        // a previous page-out failure) leaves memory. A failed page-out
        // keeps the tenant resident — cold but safe — and retries next
        // round.
        let Some(store) = ctx.hibernation else {
            return;
        };
        let (TenantSlot::Resident(tenant), Residency::Cold { .. }) = (&self.slot, self.residency)
        else {
            return;
        };
        let stats = *tenant.scaler.stats();
        match store.page_out(id, tenant.scaler.snapshot()) {
            Ok(receipt) => {
                self.slot = TenantSlot::Paged(PagedTenant {
                    id,
                    kind: PageKind::OnDisk {
                        checksum: receipt.checksum,
                    },
                    stats,
                });
                outcome.counters.page_outs += 1;
            }
            Err(_) => outcome.counters.page_out_failures += 1,
        }
    }
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
/// [`OnlineScaler::plan_round`]'s steps (refit, forecast refresh,
/// sufficiency check, exact plan against its own forecast) or refused,
/// for quarantined tenants. A due refit stops the round after its
/// periodicity detection: the refit pass fits the model and finishes the
/// round.
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
) -> Result<Step, OnlineError> {
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
    match tenant.scaler.refit_due(now) {
        Some(trigger) => Ok(Step::Refit {
            trigger,
            input: tenant.scaler.refit_input(now)?,
        }),
        None => tenant.scaler.plan_fitted(now, covered).map(Step::Planned),
    }
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
    /// Per-tenant state, indexed by tenant.
    tenants: Vec<TenantEntry>,
    workers: usize,
    /// Persistent round workers, parked between rounds; as many threads
    /// as the worker budget.
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
    /// Checkpoint I/O counters accumulated across this fleet's checkpoint
    /// and page writes and its restore (retries, generation fallbacks).
    checkpoint_io: CheckpointIoStats,
    /// Storage backend for checkpoints (the real filesystem unless a
    /// chaos test injects a faulty one).
    checkpoint_storage: Option<Arc<dyn CheckpointStorage>>,
    /// The residency policy, when activity tiering is enabled.
    residency: Option<ResidencyConfig>,
    /// The per-tenant page store, when paging is enabled.
    hibernation: Option<HibernationStore>,
    /// Lifetime residency transition counters.
    residency_counters: ResidencyStats,
    /// Whether trace-event capture is on (applied to tenants as they
    /// materialize, so a paged tenant woken mid-recording traces too).
    tracing: bool,
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
        for entry in &mut tenants {
            entry.saw_direct = false;
            if let TenantSlot::Resident(tenant) = &mut entry.slot {
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
            checkpoint_io: self.checkpoint_io,
            checkpoint_storage: self.checkpoint_storage.clone(),
            residency: self.residency,
            // The clone shares the hibernation store: its paged tenants'
            // page files live there. Clones that will diverge should be
            // re-pointed with `set_hibernation_dir` after `wake_all`.
            hibernation: self.hibernation.clone(),
            residency_counters: self.residency_counters,
            tracing: false,
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
            tenants: tenants.into_iter().map(TenantEntry::new).collect(),
            workers,
            pool: Arc::new(WorkerPool::new(workers)),
            bus: Arc::new(ArrivalBus::new(tenant_count, bus)?),
            recorder: None,
            round_counter: 0,
            supervisor: SupervisorConfig::default(),
            faults: None,
            checkpoint_io: CheckpointIoStats::default(),
            checkpoint_storage: None,
            residency: None,
            hibernation: None,
            residency_counters: ResidencyStats::default(),
            tracing: false,
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
            for entry in &mut self.tenants {
                entry.residency = Residency::Cold {
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
        let TenantSlot::Paged(paged) = &self.tenants[index].slot else {
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
                self.tenants[index].slot = TenantSlot::Resident(Box::new(Tenant { id, scaler }));
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
        if matches!(self.tenants[index].residency, Residency::Hot { .. }) {
            return Ok(());
        }
        self.materialize(index)?;
        self.tenants[index].residency = Residency::Hot { idle_streak: 0 };
        self.residency_counters.woken_total += 1;
        self.pending_wakes.push((
            self.tenants[index].slot.id(),
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
            self.tenants[index].residency = Residency::Hot { idle_streak: 0 };
        }
        Ok(())
    }

    /// Residency tier occupancy and lifetime transition counters.
    pub fn residency_stats(&self) -> ResidencyStats {
        let mut stats = self.residency_counters;
        for entry in &self.tenants {
            match entry.residency {
                Residency::Hot { .. } => stats.hot += 1,
                Residency::Cold { .. } => stats.cold += 1,
            }
            if matches!(entry.slot, TenantSlot::Paged(_)) {
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

    /// Set the worker-thread budget (≥ 1): how many pool threads run a
    /// round's blocks (and a checkpoint's shards). Plans do not depend on
    /// it. A budget the pool does not have gets a pool of its own size.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
        if self.pool.threads() != self.workers {
            self.pool = Arc::new(WorkerPool::new(self.workers));
        }
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
        match &self.tenants.get(index)?.slot {
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
        let entry = &mut self.tenants[index];
        entry.saw_direct = true;
        match &mut entry.slot {
            TenantSlot::Resident(tenant) => Some(tenant),
            TenantSlot::Paged(_) => None,
        }
    }

    /// Run one planning round for every tenant at time `now`, on the
    /// persistent worker pool.
    ///
    /// One parallel pass over fixed tenant blocks (see the module docs):
    /// each tenant is drained (batched, in timestamp order, through the
    /// ring's bulk append), planned, supervised and — when residency is on
    /// — tiered and paged, all off the caller's thread.
    ///
    /// `covered[i]` is tenant `i`'s count of upcoming arrivals already
    /// covered by scheduled/pending/ready instances. The output vector is
    /// ordered by tenant index and is identical for any worker count.
    ///
    /// Tenant failures are isolated: a tenant whose round errors (still
    /// warming up, failed refit, ...) yields `Err` *in its own slot* while
    /// every other tenant's plan is returned normally — one bad tenant must
    /// never take down a round for the hundreds sharing the process. The
    /// outer `Err` is reserved for caller mistakes (wrong `covered` length)
    /// and aborted rounds ([`OnlineError::RoundPanicked`]).
    #[allow(clippy::type_complexity)]
    pub fn run_round(
        &mut self,
        now: f64,
        covered: &[usize],
    ) -> Result<Vec<Result<PlanningRound, OnlineError>>, OnlineError> {
        let n = self.tenants.len();
        if covered.len() != n {
            return Err(OnlineError::InvalidConfig(
                "covered must have one entry per tenant",
            ));
        }
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
        let ctx = RoundContext {
            round: self.round_counter,
            now,
            covered,
            bus: &self.bus,
            faults: self.faults,
            supervisor: self.supervisor,
            residency: self.residency,
            hibernation: self.hibernation.as_ref(),
            config: self.config,
            origin: self.origin,
            tracing: self.tracing,
        };
        let mut results = Vec::with_capacity(n);
        let mut blocks: Vec<BlockOutcome> = (0..n.div_ceil(BLOCK_TENANTS))
            .map(|_| BlockOutcome::default())
            .collect();
        // Results are written in place, block by block, into the output's
        // uninitialized capacity.
        let mut pass = catch_unwind(AssertUnwindSafe(|| {
            self.pool.for_each(
                self.tenants
                    .chunks_mut(BLOCK_TENANTS)
                    .zip(results.spare_capacity_mut()[..n].chunks_mut(BLOCK_TENANTS))
                    .zip(blocks.iter_mut()),
                |block, ((entries, slots), outcome)| {
                    run_block(&ctx, block * BLOCK_TENANTS, entries, slots, outcome)
                },
            )
        }));
        self.round_counter += 1;
        // The refit pass, also after an aborted block pass: the deferred
        // tenants' state advances as if their blocks had finished them. A
        // panic escaping it aborts the round like one escaping a block.
        let deferred: Vec<DeferredRefit> = blocks
            .iter_mut()
            .flat_map(|block| std::mem::take(&mut block.deferred))
            .collect();
        if !deferred.is_empty() {
            let refits = catch_unwind(AssertUnwindSafe(|| {
                refit_pass(&ctx, &self.pool, self.workers, &mut self.tenants, deferred)
            }));
            match refits {
                Ok(groups) => blocks.extend(groups),
                Err(payload) => pass = pass.and(Err(payload)),
            }
        }
        // Merge blocks and refit groups in tenant order: buffered access
        // wakes first, then the round's wakes, then its hibernations.
        let mut wakes = Vec::new();
        let mut hibernations = Vec::new();
        for block in &mut blocks {
            self.residency_counters.add_transitions(&block.counters);
            wakes.append(&mut block.wakes);
            hibernations.append(&mut block.hibernations);
        }
        wakes.sort_by_key(|&(index, ..)| index);
        hibernations.sort_by_key(|&(index, ..)| index);
        let mut residency_events = std::mem::take(&mut self.pending_wakes);
        residency_events.extend(
            wakes
                .into_iter()
                .chain(hibernations)
                .map(|(_, id, event)| (id, event)),
        );
        // Page write retries count with the checkpoint writes' in the
        // fleet's I/O stats.
        if let Some(store) = &self.hibernation {
            self.checkpoint_io.retries += store.take_retries();
        }
        if let Err(payload) = pass {
            // A panic escaped the tenant boundary (injected worker fault
            // or pool bug): the round is aborted. Every other block ran
            // to completion and its tenants' state advanced — their
            // residency transitions are kept above — but the round
            // returns no results; the round counter still advanced so
            // fault schedules and probes stay on time.
            for (slots, block) in results.spare_capacity_mut()[..n]
                .chunks_mut(BLOCK_TENANTS)
                .zip(&blocks)
            {
                if block.done {
                    for slot in slots {
                        // SAFETY: `done` is set only after the block wrote
                        // every one of its slots.
                        unsafe { slot.assume_init_drop() };
                    }
                }
            }
            self.residency_events.extend(residency_events);
            return Err(OnlineError::RoundPanicked {
                message: panic_message(payload),
            });
        }
        // SAFETY: `results` has capacity `n`, and no block panicked, so
        // every block ran to completion and wrote each of its slots; the
        // blocks cover `0..n`.
        unsafe { results.set_len(n) };
        for block in &mut blocks {
            for (index, result) in block.refitted.drain(..) {
                results[index] = result;
            }
        }
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

    /// Take every resident tenant's buffered trace events (paged tenants
    /// have none, structurally) *without* waking anyone — the replayer's
    /// harvest path, which must not perturb residency.
    pub(crate) fn harvest_trace_events(&mut self) -> Vec<Vec<ScalerEvent>> {
        self.tenants
            .iter_mut()
            .map(|entry| match &mut entry.slot {
                TenantSlot::Resident(tenant) => tenant.scaler.take_trace_events(),
                TenantSlot::Paged(_) => Vec::new(),
            })
            .collect()
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
        for (entry, result) in self.tenants.iter().zip(results) {
            let sup = &entry.supervision;
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
                tenant: entry.slot.id(),
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
        self.tenants
            .get(index)
            .map(|entry| entry.supervision.health)
    }

    /// Fleet-wide supervision counters.
    pub fn supervision_stats(&self) -> SupervisionStats {
        let mut total = SupervisionStats::default();
        for sup in self.tenants.iter().map(|entry| &entry.supervision) {
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
    /// planning — a parallel ingestion-only pass over the round's tenant
    /// blocks (flushing before a checkpoint, and the `ingest_throughput`
    /// bench). Returns the total arrivals drained.
    pub fn drain_bus(&mut self) -> Result<u64, OnlineError> {
        let bus: &ArrivalBus = &self.bus;
        let mut drained: Vec<Result<u64, OnlineError>> =
            (0..self.tenants.len().div_ceil(BLOCK_TENANTS))
                .map(|_| Ok(0))
                .collect();
        self.pool.for_each(
            self.tenants
                .chunks_mut(BLOCK_TENANTS)
                .zip(drained.iter_mut()),
            |block, (entries, total)| {
                let mut buf = Vec::new();
                *total = entries
                    .iter_mut()
                    .enumerate()
                    .try_fold(0, |sum, (i, entry)| {
                        // Cold tenants keep their arrivals queued: the
                        // queue *is* their wake trigger, and draining it
                        // here would need a paged-out scaler anyway. A
                        // checkpoint still captures queued arrivals, so
                        // nothing is lost.
                        let (TenantSlot::Resident(tenant), Residency::Hot { .. }) =
                            (&mut entry.slot, entry.residency)
                        else {
                            return Ok(sum);
                        };
                        let n = bus.drain_into(block * BLOCK_TENANTS + i, &mut buf)?;
                        if n > 0 {
                            tenant.scaler.ingest_batch(&buf);
                        }
                        Ok(sum + n as u64)
                    });
            },
        );
        drained.into_iter().sum()
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
        let indexed: Vec<(usize, &TenantEntry)> = self.tenants.iter().enumerate().collect();
        let residency_on = self.residency.is_some();
        let config = self.config;
        let origin = self.origin;
        let hibernation = self.hibernation.as_ref();
        let snapshots: Vec<TenantSnapshot> = self
            .pool
            .parallel_map(&indexed, self.workers, |&(index, entry)| {
                // A paged tenant's snapshot comes from its page (or, for a
                // virgin one, from materializing a fresh scaler): the
                // checkpoint stays self-contained — restorable without the
                // hibernation directory.
                let scaler_snapshot = match &entry.slot {
                    TenantSlot::Resident(tenant) => tenant.scaler.snapshot(),
                    TenantSlot::Paged(paged) => match paged.kind {
                        PageKind::Virgin => OnlineScaler::new(config, origin)?.snapshot(),
                        PageKind::OnDisk { checksum } => {
                            read_page(hibernation, paged.id, checksum)?
                        }
                    },
                };
                let mut snapshot = TenantSnapshot::new(entry.slot.id(), scaler_snapshot);
                snapshot.queued = queues[index].queued.clone();
                snapshot.queue = queues[index].stats;
                let sup = &entry.supervision;
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
                    snapshot.residency = Some(match entry.residency {
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
                            // `None` encodes the unreachable INFINITY wake.
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
            fleet.tenants[i].supervision = Supervision {
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
                fleet.tenants[i].residency = if snapshot.cold {
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
        for entry in &mut self.tenants {
            if let TenantSlot::Resident(tenant) = &mut entry.slot {
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
            if self.tenants.iter().any(|entry| {
                matches!(
                    entry.slot,
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
            for (index, entry) in self.tenants.iter().enumerate() {
                let TenantSlot::Resident(tenant) = &entry.slot else {
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
        for entry in &self.tenants {
            total.merge(entry.slot.stats());
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
