//! `fleet_paging`: a FaaS-style tenant fleet driven round by round.
//!
//! 20 000 tenants are registered cold (`TenantFleet::new_cold`); 2 000 of
//! them are warm-started (model installed, ring pre-filled with six hours
//! of history, refit deadlines staggered) and then receive traffic from
//! per-tenant activity templates: smooth diurnal ones and on/off bursty
//! ones, each with its own level and phase. Quiet tenants go cold and are
//! paged out to the page store; traffic and refit deadlines page them back
//! in. Sharing (`SharingConfig::on`) is on, the fleet runs on two workers,
//! and an incremental checkpoint is written every `CHECKPOINT_EVERY`
//! rounds.
//!
//! `TRACKED` of the warm tenants are scored: each replays its own trace
//! through its own `Simulator` on its own thread, and the simulators'
//! planning ticks (aligned by construction) meet at a barrier where one
//! of them runs the fleet round (`run_round`) for everybody. Their
//! instances are created from the fleet's plans, which closes the loop for
//! tenants served through the full fleet path, so `hit_rate` and
//! `relative_cost` score the fleet as well. Every other tenant's arrivals
//! are generated up front and enqueued synchronously before each round.
//!
//! Checkpoints are written to the working directory through the program's
//! own `OsStorage`; tenant pages go to an in-process [`MemStorage`], so
//! round latency measures the page codec rather than the disk. Each
//! repetition ends with a full checkpoint, repeated restores of it, and a
//! check that the restored fleet's next rounds match the live fleet's.

use crate::mix;
use crate::report::{median, ns_to_ms, percentile, supported_tail, Outcome};
use crate::spans::Tracer;
use crate::storage::MemStorage;
use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_nhpp::NhppModel;
use robustscaler_online::{
    ArrivalBus, BusConfig, CheckpointStorage, OnlineConfig, OnlineError, OnlineStats, OsStorage,
    ResidencyConfig, ResidencyStats, RestoreOptions, SharingConfig, TenantFleet,
};
use robustscaler_scaling::PlanningRound;
use robustscaler_simulator::{
    Autoscaler, PendingTimeDistribution, Query, Reactive, ScalingCommand, SimulationConfig,
    SimulationMetrics, Simulator, SystemState, Trace,
};
use robustscaler_traces::{google_like, ProcessingTimeModel, TraceConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 20_000;
/// Warm-started tenants, spread evenly over the id space the way a random
/// subset would be (so every worker chunk and checkpoint shard holds some);
/// the rest are only registered.
const WARM: usize = 2_000;
/// The first `TRACKED` warm tenants are driven by simulators.
const TRACKED: usize = 16;
const WORKERS: usize = 2;
const INTERVAL: f64 = 10.0;
/// History before the live phase (tracked tenants' warm-up, other
/// tenants' pre-filled rings).
const WARMUP: f64 = 6.0 * 3_600.0;
/// Live phase length (simulated seconds): `LIVE / INTERVAL` rounds.
const LIVE: f64 = 3_000.0;
const CHECKPOINT_EVERY: usize = 50;
const RESTORES: usize = 3;
/// Rounds compared between the live and the restored fleet.
const VERIFY_ROUNDS: usize = 3;
/// Set-ups per run beyond the ones the repetitions need (for `setup_s`).
const EXTRA_SETUPS: usize = 2;

/// Small deterministic generator for the synthetic tenant traffic.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn poisson(&mut self, mean: f64) -> usize {
        // Knuth's product method; means here stay well below 30.
        let limit = (-mean).exp();
        let mut k = 0;
        let mut p = self.unit();
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// A warm tenant's activity template.
#[derive(Debug, Clone, Copy)]
enum Template {
    /// `level · (1 + 0.6 sin(2πt/day + phase))`.
    Diurnal { level: f64, phase: f64 },
    /// `3 · level` for the first third of every `period`, silent after.
    Bursty {
        level: f64,
        period: f64,
        offset: f64,
    },
}

impl Template {
    fn draw(rng: &mut Rng, bursty: bool) -> Self {
        let level = (0.01f64.ln() + rng.unit() * (0.2f64.ln() - 0.01f64.ln())).exp();
        if bursty {
            let period = [1_800.0, 2_700.0, 3_600.0][(rng.next_u64() % 3) as usize];
            Template::Bursty {
                level,
                period,
                offset: rng.unit() * period,
            }
        } else {
            Template::Diurnal {
                level,
                phase: rng.unit() * std::f64::consts::TAU,
            }
        }
    }

    fn rate(&self, t: f64) -> f64 {
        match *self {
            Template::Diurnal { level, phase } => {
                level * (1.0 + 0.6 * (t / 86_400.0 * std::f64::consts::TAU + phase).sin())
            }
            Template::Bursty {
                level,
                period,
                offset,
            } => {
                if (t + offset).rem_euclid(period) < period / 4.0 {
                    4.0 * level
                } else {
                    0.0
                }
            }
        }
    }

    /// The template as a one-day periodic model (60 s buckets).
    fn model(&self) -> NhppModel {
        let log_rates = (0..1_440)
            .map(|b| self.rate(b as f64 * 60.0 + 30.0).max(1e-6).ln())
            .collect();
        NhppModel::from_log_rates(0.0, 60.0, log_rates, Some(1_440)).expect("valid template model")
    }

    /// Arrivals in `[from, to)`, with the rate held constant over each
    /// step of at most `INTERVAL` seconds (at the step's midpoint).
    fn sample(&self, rng: &mut Rng, from: f64, to: f64, out: &mut Vec<f64>) {
        let steps = ((to - from) / INTERVAL).ceil().max(1.0) as usize;
        let width = (to - from) / steps as f64;
        for step in 0..steps {
            let lo = from + step as f64 * width;
            let n = rng.poisson(self.rate(lo + 0.5 * width) * width);
            let first = out.len();
            out.extend((0..n).map(|_| lo + rng.unit() * width));
            out[first..].sort_by(f64::total_cmp);
        }
    }
}

/// Pre-generated arrivals: per round, `(tenant, range into arrivals)`.
#[derive(Default)]
struct Windows {
    rounds: Vec<Vec<(usize, std::ops::Range<usize>)>>,
    arrivals: Vec<f64>,
}

impl Windows {
    fn generate(templates: &[(usize, Template, Rng)], bounds: &[f64]) -> Self {
        let mut windows = Windows::default();
        let mut rngs: Vec<Rng> = templates.iter().map(|(_, _, r)| Rng(r.0)).collect();
        for pair in bounds.windows(2) {
            let mut round = Vec::new();
            for ((tenant, template, _), rng) in templates.iter().zip(&mut rngs) {
                let start = windows.arrivals.len();
                template.sample(rng, pair[0], pair[1], &mut windows.arrivals);
                if windows.arrivals.len() > start {
                    round.push((*tenant, start..windows.arrivals.len()));
                }
            }
            windows.rounds.push(round);
        }
        windows
    }

    /// Enqueue round `r`'s arrivals; returns (accepted, offered).
    fn enqueue(&self, bus: &ArrivalBus, r: usize) -> (u64, u64) {
        let mut accepted = 0;
        let mut offered = 0;
        for (tenant, range) in &self.rounds[r] {
            accepted += bus
                .push_batch(*tenant, &self.arrivals[range.clone()])
                .expect("tenant index in range") as u64;
            offered += range.len() as u64;
        }
        (accepted, offered)
    }
}

/// Index of the `k`-th warm tenant.
fn warm(k: usize) -> usize {
    k * (TENANTS / WARM)
}

fn online_config(seed: u64) -> OnlineConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = INTERVAL;
    pipeline.monte_carlo_samples = 100;
    pipeline.mean_processing = 20.0;
    pipeline.admm.max_iterations = 40;
    pipeline.seed = mix(seed, 11);
    let mut config = OnlineConfig::new(pipeline);
    config.window_buckets = 360;
    config.min_training_buckets = 60;
    config
}

fn sim_config(seed: u64, tracked: usize) -> SimulationConfig {
    SimulationConfig {
        pending: PendingTimeDistribution::Deterministic(13.0),
        seed: mix(seed, 12 + tracked as u64),
        recent_history_window: 600.0,
    }
}

/// Tracked tenant `k`'s traffic: a `google_like` trace, plus one query at
/// the warm-up boundary and one at the end of the live phase. Those two
/// pin every tracked simulator's planning ticks to `WARMUP + i·Δ`, so all
/// simulators tick together.
fn tracked_trace(seed: u64, k: usize) -> Trace {
    let trace = google_like(&TraceConfig {
        duration: WARMUP + LIVE,
        traffic_scale: 1.0,
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed: mix(seed, 100 + k as u64),
    });
    let mut queries: Vec<Query> = trace
        .queries()
        .iter()
        .copied()
        .filter(|q| q.arrival < WARMUP + LIVE && q.arrival != WARMUP)
        .collect();
    for arrival in [WARMUP, WARMUP + LIVE] {
        queries.push(Query {
            arrival,
            processing: 20.0,
        });
    }
    Trace::new(format!("tracked-{k}"), queries).expect("finite queries")
}

/// Everything a repetition needs, built from the seed.
struct Setup {
    fleet: TenantFleet,
    bus: Arc<ArrivalBus>,
    pages: Arc<MemStorage>,
    /// Tracked tenants' live traces and reactive-baseline costs.
    live: Vec<Trace>,
    reactive_cost: Vec<f64>,
    windows: Windows,
    ticks: Vec<f64>,
    /// Extra rounds after the live phase, for the restore check.
    verify_windows: Windows,
    verify_ticks: Vec<f64>,
    duration: Duration,
}

fn setup(seed: u64, work: &Path, tracer: &mut Tracer) -> Setup {
    let started = Instant::now();
    let span = tracer.begin("setup");
    let config = online_config(seed);
    let pages = Arc::new(MemStorage::default());
    let mut fleet = TenantFleet::new_cold(
        &config,
        0.0,
        TENANTS,
        mix(seed, 13),
        ResidencyConfig {
            cold_after: 3,
            idle_epsilon: 0.1,
            start_cold: true,
        },
    )
    .expect("valid fleet");
    fleet.set_workers(WORKERS);
    // The page store takes the storage set when it is attached; later
    // checkpoints use the one set last.
    fleet.set_checkpoint_storage(pages.clone() as Arc<dyn CheckpointStorage>);
    fleet
        .set_hibernation_dir(work.join("pages"))
        .expect("residency is on");
    fleet.set_checkpoint_storage(Arc::new(OsStorage));
    fleet
        .set_sharing(SharingConfig::on())
        .expect("valid sharing");
    let bus = fleet
        .attach_bus(BusConfig {
            capacity_per_tenant: 4_096,
            ..BusConfig::default()
        })
        .expect("fresh bus");

    // Tracked tenants: warm window enqueued on the bus and drained, then
    // the boundary fit; the reactive baseline replays each live window.
    let mut live = Vec::with_capacity(TRACKED);
    let mut reactive_cost = Vec::with_capacity(TRACKED);
    for k in 0..TRACKED {
        let gen = tracer.begin("traces.generate");
        let trace = tracked_trace(seed, k);
        tracer.end(gen);
        let (history, live_k) = trace.split_at(WARMUP).expect("boundary inside the trace");
        // Direct access wakes the cold-registered tenant, so the drain
        // below reaches it.
        fleet.tenant_mut(warm(k)).expect("tracked tenant in range");
        let push = tracer.begin("ingest.push_batch");
        bus.push_batch(warm(k), &history.arrival_times())
            .expect("tenant in range");
        tracer.end(push);
        let reactive = tracer.begin("simulator.run.reactive");
        reactive_cost.push(
            Simulator::new(sim_config(seed, k))
                .expect("valid simulation config")
                .run(&live_k, &mut Reactive::new())
                .expect("reactive replay")
                .total_cost(),
        );
        tracer.end(reactive);
        live.push(live_k);
    }
    fleet.drain_bus().expect("drain");
    for k in 0..TRACKED {
        let fit = tracer.begin("scaler.first_fit");
        fleet
            .tenant_mut(warm(k))
            .expect("tracked tenant in range")
            .scaler
            .refit_now(WARMUP)
            .expect("tracked tenant trains");
        tracer.end(fit);
    }

    // The other warm tenants: template model, pre-filled ring, staggered
    // refit deadline. Two in three are bursty.
    let warm_span = tracer.begin("setup.warm_tenants");
    let mut templates = Vec::with_capacity(WARM - TRACKED);
    let mut history = Vec::new();
    for tenant in (TRACKED..WARM).map(warm) {
        let mut rng = Rng(mix(seed, 1_000 + tenant as u64));
        let template = Template::draw(&mut rng, tenant % 3 != 0);
        history.clear();
        template.sample(&mut rng, 0.0, WARMUP, &mut history);
        let scaler = &mut fleet.tenant_mut(tenant).expect("in range").scaler;
        scaler.ingest_batch(&history);
        scaler
            .install_model(template.model(), WARMUP - (tenant % 180) as f64 * INTERVAL)
            .expect("install");
        templates.push((tenant, template, Rng(rng.next_u64())));
    }
    tracer.end(warm_span);

    let gen = tracer.begin("setup.arrivals");
    let ticks: Vec<f64> = (1..=(LIVE / INTERVAL) as usize)
        .map(|i| WARMUP + i as f64 * INTERVAL)
        .collect();
    let mut bounds = vec![WARMUP];
    bounds.extend_from_slice(&ticks);
    let windows = Windows::generate(&templates, &bounds);
    let verify_ticks: Vec<f64> = (1..=VERIFY_ROUNDS)
        .map(|j| WARMUP + LIVE + j as f64 * INTERVAL)
        .collect();
    let mut verify_bounds = vec![WARMUP + LIVE];
    verify_bounds.extend_from_slice(&verify_ticks);
    let later: Vec<_> = templates
        .iter()
        .map(|(t, tpl, r)| (*t, *tpl, Rng(mix(r.0, 99))))
        .collect();
    let verify_windows = Windows::generate(&later, &verify_bounds);
    tracer.end(gen);
    tracer.end(span);
    Setup {
        fleet,
        bus,
        pages,
        live,
        reactive_cost,
        windows,
        ticks,
        verify_windows,
        verify_ticks,
        duration: started.elapsed(),
    }
}

/// Order-sensitive FNV-1a digest of a round's plans and error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn round(&mut self, results: &[Result<PlanningRound, OnlineError>]) {
        for (tenant, result) in results.iter().enumerate() {
            match result {
                Ok(plan) => {
                    self.add(tenant as u64);
                    self.add(plan.expected_arrivals_in_window.to_bits());
                    for d in &plan.decisions {
                        self.add(d.creation_time.to_bits());
                    }
                }
                Err(OnlineError::Hibernated { .. }) => {}
                Err(e) => {
                    self.add(tenant as u64);
                    for byte in e.to_string().bytes() {
                        self.add(u64::from(byte));
                    }
                }
            }
        }
    }
}

/// Tenant-round outcomes of one or more rounds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    served: u64,
    hibernated: u64,
    not_trained: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, results: &[Result<PlanningRound, OnlineError>]) {
        for result in results {
            match result {
                Ok(_) => self.served += 1,
                Err(OnlineError::Hibernated { .. }) => self.hibernated += 1,
                Err(OnlineError::NotTrained) => self.not_trained += 1,
                Err(_) => self.failed += 1,
            }
        }
    }
}

/// The fleet side of the live phase: one round per aligned tick.
struct Rounds<'s, 't> {
    setup: &'s mut Setup,
    ckpt_dir: PathBuf,
    tracer: &'t mut Tracer,
    covered: Vec<usize>,
    /// Tracked tenants' plans from the latest round.
    plans: Vec<Vec<ScalingCommand>>,
    round: usize,
    digest: Digest,
    tally: Tally,
    round_ns: Vec<u64>,
    round_cpu_s: f64,
    offered: u64,
    accepted: u64,
    hot: Vec<usize>,
    checkpoint_ns: Vec<u64>,
    shards: u64,
    reused_shards: u64,
    /// Bytes of the shard files written (not reused), per the manifests.
    checkpoint_bytes: u64,
    checkpoint_failures: u64,
}

impl Rounds<'_, '_> {
    /// Enqueue this round's window, run the round, checkpoint every
    /// `CHECKPOINT_EVERY` rounds.
    fn run(&mut self, now: f64) {
        let r = self.round;
        self.round += 1;
        assert_eq!(now, self.setup.ticks[r], "tracked simulators tick together");
        let span = self.tracer.begin("ingest.enqueue");
        let (accepted, offered) = self.setup.windows.enqueue(&self.setup.bus, r);
        self.tracer.end(span);
        self.accepted += accepted;
        self.offered += offered;

        let cpu = crate::cpu_seconds();
        let span = self.tracer.begin("fleet.run_round");
        let started = Instant::now();
        let results = self
            .setup
            .fleet
            .run_round(now, &self.covered)
            .expect("covered has one slot per tenant");
        self.round_ns.push(started.elapsed().as_nanos() as u64);
        self.tracer.end(span);
        self.round_cpu_s += crate::cpu_seconds() - cpu;
        self.digest.round(&results);
        self.tally.add(&results);
        self.hot.push(self.setup.fleet.residency_stats().hot);
        for (k, plans) in self.plans.iter_mut().enumerate() {
            *plans = match &results[warm(k)] {
                Ok(plan) => plan
                    .decisions
                    .iter()
                    .map(|d| ScalingCommand::CreateAt(d.creation_time))
                    .collect(),
                Err(_) => Vec::new(),
            };
        }

        if (r + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let span = self.tracer.begin("checkpoint.incremental");
            let started = Instant::now();
            let written = self.setup.fleet.checkpoint(&self.ckpt_dir);
            self.checkpoint_ns.push(started.elapsed().as_nanos() as u64);
            self.tracer.end(span);
            match written {
                Ok(manifest) => {
                    for shard in &manifest.shards {
                        self.shards += 1;
                        match shard.reused_from {
                            Some(_) => self.reused_shards += 1,
                            None => self.checkpoint_bytes += shard.bytes,
                        }
                    }
                }
                Err(_) => self.checkpoint_failures += 1,
            }
        }
    }
}

/// Where the tracked simulators meet each tick.
struct Meeting<'s, 't> {
    rounds: Mutex<Rounds<'s, 't>>,
    barrier: Barrier,
    bus: Arc<ArrivalBus>,
}

impl<'s, 't> Meeting<'s, 't> {
    fn rounds(&self) -> std::sync::MutexGuard<'_, Rounds<'s, 't>> {
        // Poisoned only if another tracked simulator thread panicked.
        self.rounds
            .lock()
            .expect("a tracked simulator thread panicked")
    }
}

/// One tracked tenant's policy: arrivals go onto its bus queue; at each
/// tick it reports its covered count, waits for every tracked simulator,
/// and creates what the fleet round planned for it.
struct TrackedPolicy<'m, 's, 't> {
    k: usize,
    meeting: &'m Meeting<'s, 't>,
    timed: bool,
    /// Time inside callbacks (ticks include waiting for the others).
    callback_ns: u64,
    push_ns: u64,
    pushes: u64,
    dropped: u64,
}

impl Autoscaler for TrackedPolicy<'_, '_, '_> {
    fn name(&self) -> &str {
        "fleet-tracked"
    }

    fn planning_interval(&self) -> Option<f64> {
        Some(INTERVAL)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let started = Instant::now();
        self.meeting.rounds().covered[warm(self.k)] = state.covered();
        if self.meeting.barrier.wait().is_leader() {
            self.meeting.rounds().run(state.now);
        }
        self.meeting.barrier.wait();
        let commands = self.meeting.rounds().plans[self.k].clone();
        self.callback_ns += started.elapsed().as_nanos() as u64;
        commands
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let started = Instant::now();
        if !matches!(self.meeting.bus.push(warm(self.k), state.now), Ok(true)) {
            self.dropped += 1;
        }
        let ns = started.elapsed().as_nanos() as u64;
        self.callback_ns += ns;
        if self.timed {
            self.push_ns += ns;
            self.pushes += 1;
        }
        Vec::new()
    }

    fn cancel_scheduled_on_cold_start(&self) -> bool {
        true
    }
}

/// What a tracked simulator thread reports back.
struct Tracked {
    /// Simulator time outside the policy callbacks.
    self_s: f64,
    push_ns: u64,
    pushes: u64,
    dropped: u64,
}

/// One repetition's measurements.
struct Repetition {
    setup_s: f64,
    /// Pooled over the tracked tenants.
    hit_rate: f64,
    relative_cost: f64,
    queries: usize,
    live_wall: Duration,
    rounds: usize,
    round_ns: Vec<u64>,
    round_cpu_s: f64,
    hot: Vec<usize>,
    digest: Digest,
    tally: Tally,
    offered: u64,
    accepted: u64,
    tracked_dropped: u64,
    /// Simulator time outside policy callbacks, summed over the tracked
    /// simulators, and the mean bus push time of their arrivals.
    simulator_self_s: f64,
    push_ns_per_arrival: f64,
    stats: OnlineStats,
    residency: ResidencyStats,
    deduped: u64,
    checkpoint_ns: Vec<u64>,
    shards: u64,
    reused_shards: u64,
    checkpoint_failures: u64,
    checkpoint_retries: u64,
    /// Shard bytes written by incremental checkpoints; page bytes written
    /// by page-outs.
    checkpoint_bytes: u64,
    page_bytes: u64,
    end: Option<EndOfRun>,
}

/// Full checkpoint, restores and the restored-fleet check.
struct EndOfRun {
    full_ns: u64,
    restore_s: Vec<f64>,
    identical: bool,
}

fn diff_stats(after: OnlineStats, before: OnlineStats) -> OnlineStats {
    OnlineStats {
        arrivals_ingested: after.arrivals_ingested - before.arrivals_ingested,
        arrivals_dropped: after.arrivals_dropped - before.arrivals_dropped,
        refits: after.refits - before.refits,
        drift_refits: after.drift_refits - before.drift_refits,
        planning_rounds: after.planning_rounds - before.planning_rounds,
        skipped_rounds: after.skipped_rounds - before.skipped_rounds,
        failed_rounds: after.failed_rounds - before.failed_rounds,
        shared_planning_rounds: after.shared_planning_rounds - before.shared_planning_rounds,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
    }
}

fn repetition(
    seed: u64,
    rep: usize,
    work: &Path,
    tracer: &mut Tracer,
    end_of_run: bool,
) -> Repetition {
    let work = work.join(format!("rep{rep}"));
    let timed = tracer.enabled();
    let mut setup = setup(seed, &work, tracer);
    let config = online_config(seed);
    let stats0 = setup.fleet.aggregate_stats();
    let residency0 = setup.fleet.residency_stats();
    let deduped0 = setup.fleet.deduped_plan_rounds();
    let pages0 = setup.pages.written();
    let rounds = setup.ticks.len();
    let live = std::mem::take(&mut setup.live);
    let bus = Arc::clone(&setup.bus);

    let live_started = Instant::now();
    let span = tracer.begin("simulator.run");
    let meeting = Meeting {
        rounds: Mutex::new(Rounds {
            setup: &mut setup,
            ckpt_dir: work.join("ckpt"),
            tracer,
            covered: vec![0; TENANTS],
            plans: vec![Vec::new(); TRACKED],
            round: 0,
            digest: Digest::new(),
            tally: Tally::default(),
            round_ns: Vec::with_capacity(rounds),
            round_cpu_s: 0.0,
            offered: 0,
            accepted: 0,
            hot: Vec::with_capacity(rounds),
            checkpoint_ns: Vec::new(),
            shards: 0,
            reused_shards: 0,
            checkpoint_bytes: 0,
            checkpoint_failures: 0,
        }),
        barrier: Barrier::new(TRACKED),
        bus,
    };
    let simulated: Vec<(SimulationMetrics, Tracked)> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .iter()
            .enumerate()
            .map(|(k, trace)| {
                let meeting = &meeting;
                scope.spawn(move || {
                    let mut policy = TrackedPolicy {
                        k,
                        meeting,
                        timed,
                        callback_ns: 0,
                        push_ns: 0,
                        pushes: 0,
                        dropped: 0,
                    };
                    let started = Instant::now();
                    let metrics = Simulator::new(sim_config(seed, k))
                        .expect("valid simulation config")
                        .run(trace, &mut policy)
                        .expect("live replay");
                    let tracked = Tracked {
                        self_s: started.elapsed().as_secs_f64() - policy.callback_ns as f64 / 1e9,
                        push_ns: policy.push_ns,
                        pushes: policy.pushes,
                        dropped: policy.dropped,
                    };
                    (metrics, tracked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tracked simulator thread panicked"))
            .collect()
    });
    let Rounds {
        tracer,
        round,
        digest,
        tally,
        round_ns,
        round_cpu_s,
        offered,
        accepted,
        hot,
        checkpoint_ns,
        shards,
        reused_shards,
        checkpoint_bytes,
        checkpoint_failures,
        ..
    } = meeting
        .rounds
        .into_inner()
        .expect("no tracked simulator panicked");
    tracer.end(span);
    let live_wall = live_started.elapsed();
    assert_eq!(round, rounds, "one fleet round per aligned tick");

    let queries: usize = simulated.iter().map(|(m, _)| m.query_count()).sum();
    let hits: usize = simulated
        .iter()
        .map(|(m, _)| m.queries.iter().filter(|q| q.hit).count())
        .sum();
    let total_cost: f64 = simulated.iter().map(|(m, _)| m.total_cost()).sum();
    let reactive_cost: f64 = setup.reactive_cost.iter().sum();
    let simulator_self_s = simulated.iter().map(|(_, t)| t.self_s).sum();
    let pushes: u64 = simulated.iter().map(|(_, t)| t.pushes).sum();
    let push_ns: u64 = simulated.iter().map(|(_, t)| t.push_ns).sum();
    let tracked_dropped = simulated.iter().map(|(_, t)| t.dropped).sum();

    let page_bytes = setup.pages.written() - pages0;
    let stats = diff_stats(setup.fleet.aggregate_stats(), stats0);
    let mut residency = setup.fleet.residency_stats();
    residency.page_ins -= residency0.page_ins;
    residency.page_outs -= residency0.page_outs;
    residency.page_in_failures -= residency0.page_in_failures;
    residency.page_out_failures -= residency0.page_out_failures;
    let deduped = setup.fleet.deduped_plan_rounds() - deduped0;
    let checkpoint_retries = setup.fleet.checkpoint_io_stats().retries;

    let end = end_of_run.then(|| end_checks(&mut setup, &config, &work, tracer));
    // Checkpoints are the only files a repetition leaves behind.
    let _ = std::fs::remove_dir_all(&work);
    Repetition {
        setup_s: setup.duration.as_secs_f64(),
        hit_rate: hits as f64 / queries as f64,
        relative_cost: total_cost / reactive_cost,
        queries,
        live_wall,
        rounds,
        round_ns,
        round_cpu_s,
        hot,
        digest,
        tally,
        offered,
        accepted,
        tracked_dropped,
        simulator_self_s,
        push_ns_per_arrival: push_ns as f64 / pushes.max(1) as f64,
        stats,
        residency,
        deduped,
        checkpoint_ns,
        shards,
        reused_shards,
        checkpoint_failures,
        checkpoint_retries,
        checkpoint_bytes,
        page_bytes,
        end,
    }
}

/// Timed full checkpoint into a fresh directory, `RESTORES` timed
/// restores of it, then `VERIFY_ROUNDS` rounds on the live and the
/// restored fleet with identical arrivals: their plans must match.
fn end_checks(
    setup: &mut Setup,
    config: &OnlineConfig,
    work: &Path,
    tracer: &mut Tracer,
) -> EndOfRun {
    let dir = work.join("ckpt-full");
    let span = tracer.begin("checkpoint.full");
    let started = Instant::now();
    setup.fleet.checkpoint(&dir).expect("full checkpoint");
    let full_ns = started.elapsed().as_nanos() as u64;
    tracer.end(span);

    let mut restore_s = Vec::new();
    let mut restored = None;
    for _ in 0..RESTORES {
        // Drop the previous copy before building the next.
        drop(restored.take());
        let span = tracer.begin("checkpoint.restore");
        let started = Instant::now();
        let (fleet, _) =
            TenantFleet::restore_with(&dir, config, RestoreOptions::default()).expect("restore");
        restore_s.push(started.elapsed().as_secs_f64());
        tracer.end(span);
        restored = Some(fleet);
    }
    let mut restored = restored.expect("at least one restore");
    // Re-attach a page store the way setup does: in memory.
    restored.set_checkpoint_storage(setup.pages.clone() as Arc<dyn CheckpointStorage>);
    restored
        .set_hibernation_dir(work.join("pages-restored"))
        .expect("the checkpoint carries residency");
    restored.set_workers(WORKERS);
    restored
        .set_sharing(SharingConfig::on())
        .expect("valid sharing");
    let restored_bus = Arc::clone(restored.bus().expect("the checkpoint carries the bus"));

    let zeros = vec![0usize; TENANTS];
    let mut identical = true;
    for (r, &now) in setup.verify_ticks.iter().enumerate() {
        setup.verify_windows.enqueue(&setup.bus, r);
        setup.verify_windows.enqueue(&restored_bus, r);
        let live = setup.fleet.run_round(now, &zeros).expect("live round");
        let back = restored.run_round(now, &zeros).expect("restored round");
        identical &= live == back;
    }
    EndOfRun {
        full_ns,
        restore_s,
        identical,
    }
}

fn account(out: &mut Outcome, rep: &Repetition) {
    let t = &rep.tally;
    let io = rep.residency.page_ins
        + rep.residency.page_outs
        + rep.residency.page_in_failures
        + rep.residency.page_out_failures;
    out.attempted += t.served
        + t.not_trained
        + t.failed
        + rep.offered
        + rep.queries as u64
        + io
        + rep.checkpoint_ns.len() as u64;
    out.failed += t.failed
        + (rep.offered - rep.accepted)
        + rep.tracked_dropped
        + rep.residency.page_in_failures
        + rep.residency.page_out_failures
        + rep.checkpoint_failures
        + rep.checkpoint_retries;
}

/// Values that must repeat exactly at one seed.
fn fingerprint(rep: &Repetition) -> (u64, u64, u64, u64, Tally, OnlineStats, [u64; 4]) {
    (
        rep.digest.0,
        rep.hit_rate.to_bits(),
        rep.relative_cost.to_bits(),
        rep.deduped,
        rep.tally,
        rep.stats,
        [
            rep.residency.page_ins,
            rep.residency.page_outs,
            rep.checkpoint_bytes,
            rep.page_bytes,
        ],
    )
}

fn describe(out: &mut Outcome, rep: &Repetition) {
    let rounds = rep.rounds as f64;
    out.note(format!(
        "fleet: {TENANTS} registered, {WARM} warm, {WORKERS} workers (available parallelism {}), sharing on; {} rounds",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rep.rounds
    ));
    out.note(format!(
        "per round: {:.0} hot, {:.1} served ({:.1} planned, {:.1} cache hits), {:.2} refits, {:.2} page-ins, {:.2} page-outs",
        rep.hot.iter().sum::<usize>() as f64 / rounds,
        rep.tally.served as f64 / rounds,
        rep.stats.planning_rounds as f64 / rounds,
        rep.stats.plan_cache_hits as f64 / rounds,
        rep.stats.refits as f64 / rounds,
        rep.residency.page_ins as f64 / rounds,
        rep.residency.page_outs as f64 / rounds,
    ));
    out.note(format!(
        "tracked tenants ({TRACKED}, pooled): {} queries, hit_rate {:.4}, relative_cost {:.4}; not-trained tenant-rounds {}",
        rep.queries, rep.hit_rate, rep.relative_cost, rep.tally.not_trained
    ));
    out.note(format!(
        "storage: checkpoints on the working directory's file system ({}), pages in memory",
        crate::fs_type(Path::new("."))
    ));
}

fn round_ms(rep: &Repetition) -> Vec<f64> {
    rep.round_ns.iter().map(|ns| ns_to_ms(*ns)).collect()
}

fn busy_s(rep: &Repetition) -> f64 {
    rep.round_ns.iter().sum::<u64>() as f64 / 1e9
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path, spans_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let work = &work.join("fleet");
    let _ = std::fs::remove_dir_all(work);
    let started = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let mut off = Tracer::new(false);
        setups.push(
            setup(seed, &work.join("setup"), &mut off)
                .duration
                .as_secs_f64(),
        );
    }
    if traced {
        return run_traced(seed, work, spans_path, out);
    }
    let mut reps: Vec<Repetition> = Vec::new();
    loop {
        let mut off = Tracer::new(false);
        let rep = repetition(seed, reps.len(), work, &mut off, true);
        setups.push(rep.setup_s);
        reps.push(rep);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / (reps.len() as f64 + 0.5) > seconds {
            break;
        }
    }
    let first = fingerprint(&reps[0]);
    for (i, rep) in reps.iter().enumerate() {
        account(&mut out, rep);
        out.check(
            fingerprint(rep) == first,
            format!("repetition {i}: QoS, plan digest or counts differ at the same seed"),
        );
        let end = rep
            .end
            .as_ref()
            .expect("untraced repetitions run the end checks");
        out.check(
            end.identical,
            format!("repetition {i}: restored fleet's rounds differ from the live fleet's"),
        );
    }
    let rep = &reps[0];
    let all_ms: Vec<f64> = reps.iter().flat_map(round_ms).collect();
    let served: u64 = reps.iter().map(|r| r.tally.served).sum();
    let busy: f64 = reps.iter().map(busy_s).sum();
    // Serving time only: incremental checkpoints hit the disk and are
    // reported on their own.
    let hours: Vec<f64> = reps
        .iter()
        .map(|r| {
            let ckpt_s = r.checkpoint_ns.iter().sum::<u64>() as f64 / 1e9;
            LIVE / 3_600.0 / (r.live_wall.as_secs_f64() - ckpt_s)
        })
        .collect();
    out.e2e("hit_rate", rep.hit_rate, "fraction");
    out.e2e("relative_cost", rep.relative_cost, "ratio");
    out.e2e("sim_hours_per_s", median(&hours), "h/s");
    out.e2e("round_p50_ms", median(&all_ms), "ms");
    out.e2e("tenant_rounds_per_s", served as f64 / busy, "1/s");
    out.e2e("setup_s", median(&setups), "s");
    describe(&mut out, rep);
    let ckpt: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.checkpoint_ns.iter().map(|ns| ns_to_ms(*ns)))
        .collect();
    let restores: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.end
                .as_ref()
                .map(|e| e.restore_s.clone())
                .unwrap_or_default()
        })
        .collect();
    if let Some((q, label)) = supported_tail(all_ms.len()) {
        out.note(format!(
            "round {label}: {:.3} ms over {} rounds",
            percentile(&all_ms, q),
            all_ms.len()
        ));
    }
    out.note(format!(
        "checkpoint_ms (median incremental, {} samples): {:.3} ms; restore_s (median of {}): {:.4} s",
        ckpt.len(),
        median(&ckpt),
        restores.len(),
        median(&restores)
    ));
    out.note(format!("repetitions: {}", reps.len()));
    out
}

fn run_traced(seed: u64, work: &Path, spans_path: &Path, mut out: Outcome) -> Outcome {
    // Untraced first (the baseline for the overhead ratio), then traced.
    let mut off = Tracer::new(false);
    let plain = repetition(seed, 0, work, &mut off, false);
    let mut tracer = Tracer::new(true);
    let rep = repetition(seed, 1, work, &mut tracer, true);
    account(&mut out, &rep);
    out.check(
        fingerprint(&plain) == fingerprint(&rep),
        "traced and untraced fleet runs differ (plan digest, QoS or counts)",
    );
    let end = rep
        .end
        .as_ref()
        .expect("traced repetition runs the end checks");
    out.check(
        end.identical,
        "restored fleet's rounds differ from the live fleet's",
    );

    let rounds = rep.rounds as f64;
    let served = rep.tally.served as f64;
    let planned = rep.stats.planning_rounds as f64;
    let all_ms = round_ms(&rep);
    out.layer("scaler.plan_ticks", planned, "count");
    out.layer("scaler.refit_ticks", rep.stats.refits as f64, "count");
    out.layer(
        "scaler.drift_refits",
        rep.stats.drift_refits as f64,
        "count",
    );
    out.layer("simulator.self_s", rep.simulator_self_s, "s");
    out.layer("ingest.push_ns_per_arrival", rep.push_ns_per_arrival, "ns");
    out.layer(
        "ingest.enqueue_ms_per_round",
        ns_to_ms(tracer.total("ingest.enqueue")) / rounds,
        "ms",
    );
    out.layer(
        "sharing.cache_hit_ratio",
        rep.stats.plan_cache_hits as f64 / served,
        "fraction",
    );
    out.layer(
        "sharing.shared_ratio",
        rep.stats.shared_planning_rounds as f64 / planned.max(1.0),
        "fraction",
    );
    out.layer(
        "sharing.dedup_ratio",
        rep.deduped as f64 / planned.max(1.0),
        "fraction",
    );
    out.layer("fleet.planned_per_round", planned / rounds, "count");
    out.layer(
        "fleet.refits_per_round",
        rep.stats.refits as f64 / rounds,
        "count",
    );
    out.layer(
        "fleet.page_ins_per_round",
        rep.residency.page_ins as f64 / rounds,
        "count",
    );
    out.layer(
        "fleet.page_outs_per_round",
        rep.residency.page_outs as f64 / rounds,
        "count",
    );
    out.layer(
        "fleet.hot_tenants_avg",
        rep.hot.iter().sum::<usize>() as f64 / rounds,
        "count",
    );
    let (q, label) = supported_tail(all_ms.len()).unwrap_or((0.5, "p50"));
    out.layer("fleet.round_p95_ms", percentile(&all_ms, q), "ms");
    if label != "p95" {
        out.note(format!(
            "fleet.round_p95_ms reports {label}: too few rounds for p95"
        ));
    }
    let ckpt: Vec<f64> = tracer
        .durations("checkpoint.incremental")
        .iter()
        .map(|ns| ns_to_ms(*ns))
        .collect();
    out.layer("checkpoint.incremental_ms", median(&ckpt), "ms");
    out.layer("checkpoint.full_ms", ns_to_ms(end.full_ns), "ms");
    out.layer("checkpoint.restore_s", median(&end.restore_s), "s");
    out.layer(
        "checkpoint.bytes_written",
        rep.checkpoint_bytes as f64,
        "bytes",
    );
    out.layer(
        "checkpoint.reused_shard_ratio",
        rep.reused_shards as f64 / rep.shards.max(1) as f64,
        "fraction",
    );
    out.layer("checkpoint.page_bytes", rep.page_bytes as f64, "bytes");
    out.layer(
        "parallel.cpu_per_wall",
        rep.round_cpu_s / busy_s(&rep),
        "ratio",
    );
    out.layer(
        "trace.overhead_ratio",
        rep.live_wall.as_secs_f64() / plain.live_wall.as_secs_f64(),
        "ratio",
    );
    describe(&mut out, &rep);
    out.note(format!(
        "time (ms): simulators' self {:.1}, rounds {:.1}, enqueue {:.1}, incremental checkpoints {:.1}",
        rep.simulator_self_s * 1e3,
        ns_to_ms(tracer.total("fleet.run_round")),
        ns_to_ms(tracer.total("ingest.enqueue")),
        ns_to_ms(tracer.total("checkpoint.incremental")),
    ));
    match tracer.write_jsonl(spans_path) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans_path.display()
        )),
        Err(e) => out.check(false, format!("writing spans failed: {e}")),
    }
    out
}
