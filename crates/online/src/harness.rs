//! Closed-loop simulation harness: replay a trace through an
//! [`OnlineScaler`] driving the discrete-event [`Simulator`], end to end.
//!
//! This validates the serving layer the way the paper validates the
//! offline pipeline (Section III, Algorithm 1): arrivals flow into the
//! scaler's *arrival queue* as they are simulated, planning ticks run the
//! full serving round (drain the queue in timestamp order → drift check →
//! optional refit → plan window), the planned creations feed back into
//! the simulated cluster, and the run is scored with the paper's metrics
//! — hit rate, `rt_avg`, total and relative cost — plus the queue's
//! back-pressure health.
//!
//! Routing arrivals through the [`ArrivalBus`] instead of per-arrival
//! `ingest` calls mirrors production (ingestion is decoupled from the
//! planning thread and batched at round boundaries) and is
//! **bit-identical** to the synchronous path: a tick drains exactly the
//! arrivals simulated before it, in timestamp order, into the ring's bulk
//! append.

use crate::checkpoint::{CheckpointStore, TenantSnapshot};
use crate::error::OnlineError;
use crate::faults::{FaultInjector, FaultPlan};
use crate::ingest::{ArrivalBus, BusConfig, QueueStats};
use crate::replay::{
    QosRecord, SessionKind, TraceHeader, TraceRecord, TraceRecorder, TraceSummary,
    TRACE_FORMAT_VERSION,
};
use crate::scaler::{OnlineConfig, OnlineScaler, OnlineStats};
use robustscaler_core::relative_cost;
use robustscaler_scaling::PlanningRound;
use robustscaler_simulator::{
    Autoscaler, Reactive, ScalingCommand, SimulationConfig, SimulationMetrics, Simulator,
    SystemState, Trace,
};
use serde::{Deserialize, Serialize};

/// [`Autoscaler`] adapter that feeds the simulator's arrivals into an
/// [`OnlineScaler`]'s arrival queue — drained at each planning tick — and
/// turns the scaler's planning rounds into scaling commands.
pub struct OnlinePolicy {
    scaler: OnlineScaler,
    /// Single-tenant arrival queue between the simulated request path and
    /// the planning ticks.
    bus: ArrivalBus,
    /// Drain buffer reused across ticks.
    drain_buf: Vec<f64>,
    name: String,
    /// The session recorder, while a trace recording is active.
    recorder: Option<TraceRecorder>,
    /// First recording failure. `on_planning_tick` cannot propagate
    /// errors, so the driver checks this after the simulation run — a
    /// recording that silently stopped mid-session must fail the run.
    record_error: Option<OnlineError>,
    /// Deterministic fault injector, when chaos is enabled for the run.
    faults: Option<FaultInjector>,
    /// Planning-tick counter; matches the recorder's round index so
    /// injected faults replay on the same rounds.
    round: u64,
}

impl OnlinePolicy {
    /// Wrap a scaler for use with the simulator, with the default arrival
    /// queue bound.
    pub fn new(scaler: OnlineScaler) -> Self {
        Self::with_queue_capacity(scaler, crate::ingest::DEFAULT_QUEUE_CAPACITY)
    }

    /// [`OnlinePolicy::new`] with an explicit arrival-queue bound (smaller
    /// bounds exercise back-pressure shedding in tests).
    pub fn with_queue_capacity(scaler: OnlineScaler, capacity: usize) -> Self {
        let name = format!("online-{}", scaler.config().pipeline.variant.name());
        let bus = ArrivalBus::new(
            1,
            BusConfig {
                capacity_per_tenant: capacity.max(1),
                tenants_per_group: 1,
            },
        )
        .expect("a 1-tenant bus with capacity >= 1 is always valid");
        Self {
            scaler,
            bus,
            drain_buf: Vec::new(),
            name,
            recorder: None,
            record_error: None,
            faults: None,
            round: 0,
        }
    }

    /// Enable deterministic fault injection (arrival corruption, injected
    /// planning failures) on this policy's ticks. A disabled plan clears
    /// the injector.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan.enabled().then(|| FaultInjector::new(plan));
    }

    /// Borrow the wrapped scaler (stats, model inspection).
    pub fn scaler(&self) -> &OnlineScaler {
        &self.scaler
    }

    /// The arrival queue's back-pressure accounting.
    pub fn queue_stats(&self) -> QueueStats {
        self.bus.stats()
    }
}

/// One single-scaler planning tick, shared by [`OnlinePolicy`] and strict
/// replay of a single-scaler trace so the two match bit for bit: drain
/// the tenant's queue into `buf`, batch-ingest it (corrupted first when
/// chaos is on), then plan, unless the fault plan injects a planning
/// failure this round. A failed round is counted
/// ([`OnlineScaler::record_failed_round`]) and returned.
///
/// `buf` keeps the drain as it arrived, uncorrupted: that is what a trace
/// records, because replay re-applies the header's fault plan.
pub(crate) fn single_scaler_tick(
    scaler: &mut OnlineScaler,
    bus: &ArrivalBus,
    buf: &mut Vec<f64>,
    faults: Option<&FaultInjector>,
    round: u64,
    now: f64,
    covered: usize,
) -> Result<PlanningRound, OnlineError> {
    if bus.drain_into(0, buf)? > 0 {
        match faults {
            Some(injector) => {
                let mut corrupted = buf.clone();
                injector.corrupt_arrivals(round, 0, &mut corrupted);
                scaler.ingest_batch(&corrupted);
            }
            None => scaler.ingest_batch(buf),
        }
    }
    let result = if faults.and_then(|f| f.plan_fault(round, 0)).is_some() {
        // Both flavours of injected plan fault (error and panic) surface
        // here as a planning error: a single scaler has no supervisor, so
        // there is no catch boundary to distinguish them.
        Err(OnlineError::Injected { round, tenant: 0 })
    } else {
        scaler.plan_round(now, covered)
    };
    if result.is_err() {
        scaler.record_failed_round();
    }
    result
}

impl Autoscaler for OnlinePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn planning_interval(&self) -> Option<f64> {
        Some(self.scaler.config().pipeline.planning_interval)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        // Round boundary: drain everything that arrived since the last
        // tick (one batched, timestamp-ordered append), then plan.
        let pre_events = if self.recorder.is_some() {
            vec![self.scaler.take_trace_events()]
        } else {
            Vec::new()
        };
        let mut buf = std::mem::take(&mut self.drain_buf);
        let result = single_scaler_tick(
            &mut self.scaler,
            &self.bus,
            &mut buf,
            self.faults.as_ref(),
            self.round,
            state.now,
            state.covered(),
        );
        let commands = match &result {
            Ok(round) => round
                .decisions
                .iter()
                .map(|d| ScalingCommand::CreateAt(d.creation_time))
                .collect(),
            // Not trained yet (cold start) or a transient planning failure:
            // emit nothing and let reactive cold starts carry the tenant —
            // a serving process must not abort on one bad round. The
            // failure is counted so persistent breakage stays visible in
            // `OnlineStats::failed_rounds` / the harness report.
            Err(_) => Vec::new(),
        };
        if let Some(recorder) = &mut self.recorder {
            let post_events = vec![self.scaler.take_trace_events()];
            let outcome = recorder.record_round(
                state.now,
                &[state.covered()],
                pre_events,
                vec![buf.clone()],
                std::slice::from_ref(&result),
                post_events,
                &[],
                self.bus.stats(),
            );
            if let Err(e) = outcome {
                self.record_error.get_or_insert(e);
            }
        }
        self.round += 1;
        self.drain_buf = buf;
        commands
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        // `state.now` is the arrival instant of the query just dispatched.
        // Enqueue only — the ring work happens batched at the next tick. A
        // full queue sheds the arrival (counted in `dropped_full`).
        let _ = self.bus.push(0, state.now);
        Vec::new()
    }

    fn cancel_scheduled_on_cold_start(&self) -> bool {
        true
    }
}

/// Configuration of a closed-loop harness run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HarnessConfig {
    /// The serving-layer configuration.
    pub online: OnlineConfig,
    /// The simulated cluster (pending-time distribution, seed).
    pub sim: SimulationConfig,
    /// Seconds of the trace's head ingested for warm-up (initial history +
    /// first fit) before the simulated replay starts on the remainder.
    pub warmup: f64,
    /// Deterministic fault injection for the live replay (`None` or a
    /// disabled plan runs clean). Warm-up ingestion and the boundary refit
    /// are never faulted — chaos starts with the first live planning tick.
    pub faults: Option<FaultPlan>,
    /// Unused; kept only because `perfbench/` sets it; removed by the
    /// next benchmark change (ROADMAP item 2). The plan cache it armed is
    /// gone, so it must be `None`: [`run_closed_loop`] rejects `Some(_)`
    /// with [`OnlineError::InvalidConfig`] rather than ignore it.
    pub plan_reuse: Option<f64>,
}

/// Metrics of one closed-loop run (the paper's headline numbers plus the
/// serving-loop counters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarnessReport {
    /// Policy name (`online-robustscaler-hp`, ...).
    pub policy: String,
    /// Fraction of replayed queries that found a ready instance.
    pub hit_rate: f64,
    /// Average response time in seconds.
    pub rt_avg: f64,
    /// Total cost (sum of instance lifecycle lengths, seconds).
    pub total_cost: f64,
    /// Cost of the purely reactive strategy on the same replay and seed.
    pub reactive_cost: f64,
    /// `total_cost / reactive_cost`.
    pub relative_cost: f64,
    /// Number of replayed queries.
    pub queries: usize,
    /// Serving-loop counters accumulated across warm-up and replay.
    pub stats: OnlineStats,
    /// Arrival-queue health over the live replay: enqueued / dropped-full
    /// / high-water mark / drained totals. Always `Some`: the `Option`
    /// stays only because `perfbench/` builds this struct as a literal,
    /// and goes with the next benchmark change (ROADMAP item 2.1).
    pub queue: Option<QueueStats>,
    /// Average arrivals drained per planning tick over the live replay.
    /// Always `Some`, for the same reason as [`HarnessReport::queue`].
    pub drained_per_round: Option<f64>,
}

/// Replay `trace` through the full online loop and score it.
///
/// The first `config.warmup` seconds are ingested into the scaler and the
/// initial model is fitted at the warm-up boundary; the remainder of the
/// trace is then replayed through the simulator with the scaler planning
/// live (ingesting each simulated arrival, refitting on schedule/drift).
/// Returns the report plus the raw simulator metrics.
pub fn run_closed_loop(
    trace: &Trace,
    config: &HarnessConfig,
) -> Result<(HarnessReport, SimulationMetrics), OnlineError> {
    let (report, metrics, _) = run_closed_loop_inner(trace, config, None, None)?;
    Ok((report, metrics))
}

/// [`run_closed_loop`] with the whole session — warm-up arrivals, the
/// boundary refit, every live round's drained arrivals, plans and refits,
/// and the final QoS metrics — recorded as a replayable JSONL trace at
/// `record_path` (see [`crate::replay`]).
pub fn run_closed_loop_recorded(
    trace: &Trace,
    config: &HarnessConfig,
    record_path: impl AsRef<std::path::Path>,
) -> Result<(HarnessReport, SimulationMetrics, TraceSummary), OnlineError> {
    let (report, metrics, summary) =
        run_closed_loop_inner(trace, config, None, Some(record_path.as_ref()))?;
    Ok((
        report,
        metrics,
        summary.expect("a recorded run always produces a summary"),
    ))
}

/// Kill-and-restore replay: [`run_closed_loop`], except the serving process
/// "dies" at the warm-up boundary — the freshly trained scaler is
/// checkpointed to `checkpoint_dir`, dropped, and a new scaler is restored
/// from disk to serve the live replay.
///
/// Because a [`crate::scaler::ScalerSnapshot`] captures every piece of
/// hidden mutable state (ring, model, counters, refit deadline,
/// forecast-cache anchor), the report and metrics are
/// **bit-identical** to the uninterrupted [`run_closed_loop`] on the same
/// trace and configuration — the equivalence the golden harness test pins.
pub fn run_closed_loop_with_restart(
    trace: &Trace,
    config: &HarnessConfig,
    checkpoint_dir: impl AsRef<std::path::Path>,
) -> Result<(HarnessReport, SimulationMetrics), OnlineError> {
    let (report, metrics, _) =
        run_closed_loop_inner(trace, config, Some(checkpoint_dir.as_ref()), None)?;
    Ok((report, metrics))
}

fn run_closed_loop_inner(
    trace: &Trace,
    config: &HarnessConfig,
    restart_via: Option<&std::path::Path>,
    record: Option<&std::path::Path>,
) -> Result<(HarnessReport, SimulationMetrics, Option<TraceSummary>), OnlineError> {
    config.online.validate()?;
    if config.plan_reuse.is_some() {
        return Err(OnlineError::InvalidConfig(
            "plan_reuse must be None: the plan cache was removed",
        ));
    }
    if !(config.warmup > 0.0) || config.warmup >= trace.duration() {
        return Err(OnlineError::InvalidConfig(
            "warmup must lie strictly inside the trace duration",
        ));
    }
    let boundary = trace.start() + config.warmup;
    let (warm, live) = trace.split_at(boundary)?;

    let simulator = Simulator::new(config.sim)?;
    let mut scaler = OnlineScaler::new(config.online, trace.start())?;
    let mut recorder = match record {
        Some(path) => {
            scaler.set_tracing(true);
            Some(TraceRecorder::to_file(
                path,
                &TraceHeader {
                    version: TRACE_FORMAT_VERSION,
                    session: SessionKind::Single,
                    tenants: 1,
                    origin: trace.start(),
                    online: config.online,
                    bus: BusConfig {
                        capacity_per_tenant: crate::ingest::DEFAULT_QUEUE_CAPACITY,
                        tenants_per_group: 1,
                    },
                    faults: config.faults.filter(FaultPlan::enabled),
                    supervisor: None,
                    residency: None,
                },
            )?)
        }
        None => None,
    };

    // Warm-up flows through an arrival bus, enqueued by a producer thread
    // *while* the reactive baseline replays on this thread — the two touch
    // disjoint state, so the overlap changes no result, only wall clock.
    // The drain at the warm-up boundary then feeds the scaler one batched,
    // timestamp-ordered append (bit-identical to per-arrival ingestion).
    let warm_times = warm.arrival_times();
    let warm_bus = ArrivalBus::new(
        1,
        BusConfig {
            capacity_per_tenant: warm_times.len().max(1),
            tenants_per_group: 1,
        },
    )?;
    let mut reactive = Reactive::new();
    let (reactive_metrics, enqueued) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| warm_bus.push_batch(0, &warm_times));
        let metrics = simulator.run(&live, &mut reactive);
        let enqueued = producer.join().expect("warm-up producer thread panicked");
        (metrics, enqueued)
    });
    let reactive_metrics = reactive_metrics?;
    if enqueued? != warm_times.len() {
        return Err(OnlineError::InvalidConfig(
            "warm-up bus sized to the warm window cannot shed arrivals",
        ));
    }
    let mut warm_buf = Vec::new();
    warm_bus.drain_into(0, &mut warm_buf)?;
    scaler.ingest_batch(&warm_buf);
    scaler.refit_now(boundary)?;
    if let Some(recorder) = &mut recorder {
        // The warm window is one direct batched ingestion followed by the
        // boundary refit; recording both lets replay rebuild the training
        // window before validating any live round.
        recorder.record(&TraceRecord::Arrivals {
            round: 0,
            tenant: 0,
            direct: true,
            times: warm_buf.clone(),
        })?;
        recorder.flush_pending(vec![scaler.take_trace_events()])?;
    }

    if let Some(dir) = restart_via {
        // Simulated process death: persist, drop, restore from disk.
        let store = CheckpointStore::new(dir);
        store.write(&[TenantSnapshot::new(0, scaler.snapshot())], 1, 1)?;
        drop(scaler);
        let snapshots = store.load(1)?;
        let snapshot = snapshots
            .into_iter()
            .next()
            .ok_or(OnlineError::Checkpoint {
                shard: None,
                message: "harness checkpoint holds no tenant".to_string(),
            })?;
        scaler = OnlineScaler::restore(snapshot.scaler, config.online)?;
        // Tracing is runtime wiring, not scaler state, so it is deliberately
        // absent from snapshots — re-arm it on the restored instance.
        if recorder.is_some() {
            scaler.set_tracing(true);
        }
    }

    let mut policy = OnlinePolicy::new(scaler);
    policy.recorder = recorder;
    if let Some(plan) = config.faults {
        policy.set_faults(plan);
    }
    let metrics = simulator.run(&live, &mut policy)?;
    if let Some(e) = policy.record_error.take() {
        return Err(e);
    }

    let queue = policy.queue_stats();
    let report = HarnessReport {
        policy: policy.name().to_string(),
        hit_rate: metrics.hit_rate(),
        rt_avg: metrics.rt_avg(),
        total_cost: metrics.total_cost(),
        reactive_cost: reactive_metrics.total_cost(),
        relative_cost: relative_cost(metrics.total_cost(), reactive_metrics.total_cost()),
        queries: metrics.query_count(),
        stats: *policy.scaler().stats(),
        queue: Some(queue),
        drained_per_round: Some(queue.drained_per_drain()),
    };
    let summary = match policy.recorder.take() {
        Some(recorder) => Some(recorder.finish(QosRecord {
            stats: report.stats,
            queue,
            hit_rate: Some(report.hit_rate),
            rt_avg: Some(report.rt_avg),
            relative_cost: Some(report.relative_cost),
            queries: Some(report.queries as u64),
        })?),
        None => None,
    };
    Ok((report, metrics, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
    use robustscaler_simulator::{PendingTimeDistribution, Query};

    fn uniform_trace(duration: f64, gap: f64, processing: f64) -> Trace {
        let n = (duration / gap) as usize;
        Trace::new(
            "uniform",
            (0..n)
                .map(|i| Query {
                    arrival: i as f64 * gap,
                    processing,
                })
                .collect(),
        )
        .unwrap()
    }

    fn harness_config() -> HarnessConfig {
        let mut pipeline =
            RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability {
                target: 0.9,
            });
        pipeline.bucket_width = 30.0;
        pipeline.periodicity_aggregation = 2;
        pipeline.admm.max_iterations = 40;
        pipeline.planning_interval = 20.0;
        pipeline.mean_processing = 5.0;
        let mut online = OnlineConfig::new(pipeline);
        online.window_buckets = 480;
        online.min_training_buckets = 60;
        online.refit_interval = 1_800.0;
        HarnessConfig {
            online,
            sim: SimulationConfig {
                pending: PendingTimeDistribution::Deterministic(13.0),
                seed: 5,
                recent_history_window: 600.0,
            },
            warmup: 2.0 * 3_600.0,
            faults: None,
            plan_reuse: None,
        }
    }

    #[test]
    fn rejects_out_of_range_warmup() {
        let trace = uniform_trace(3_600.0, 30.0, 5.0);
        let mut config = harness_config();
        config.warmup = 0.0;
        assert!(run_closed_loop(&trace, &config).is_err());
        config.warmup = 2.0 * 3_600.0;
        assert!(run_closed_loop(&trace, &config).is_err());
    }

    #[test]
    fn rejects_plan_reuse() {
        let trace = uniform_trace(3.0 * 3_600.0, 45.0, 5.0);
        let mut config = harness_config();
        config.warmup = 1.5 * 3_600.0;
        config.plan_reuse = Some(0.05);
        assert!(matches!(
            run_closed_loop(&trace, &config),
            Err(OnlineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn closed_loop_on_steady_traffic_reaches_a_high_hit_rate() {
        // 4 h of steady traffic: 2 h warm-up, 2 h live replay.
        let trace = uniform_trace(4.0 * 3_600.0, 30.0, 5.0);
        let (report, metrics) = run_closed_loop(&trace, &harness_config()).unwrap();
        assert_eq!(report.queries, metrics.query_count());
        assert!(report.hit_rate > 0.8, "hit rate {}", report.hit_rate);
        assert!(report.rt_avg < 10.0, "rt_avg {}", report.rt_avg);
        assert!(report.relative_cost.is_finite());
        assert!(report.stats.refits >= 1);
        assert!(report.stats.planning_rounds > 0);
        // Live arrivals were ingested during the replay (on top of warm-up).
        assert!(report.stats.arrivals_ingested as usize > report.queries);
        // Every live arrival flowed through the queue; none were shed and
        // the round drains kept the backlog bounded.
        let queue = report.queue.expect("bus-fed harness reports queue health");
        assert_eq!(queue.enqueued as usize, report.queries);
        assert_eq!(queue.dropped_full, 0);
        assert!(queue.queued_peak >= 1);
        assert!(report.drained_per_round.unwrap() > 0.0);
    }

    /// The bus-fed serving loop must be bit-identical to per-arrival
    /// synchronous ingestion: drive the same scaler state through both
    /// paths and compare the planning outcomes.
    #[test]
    fn queued_ticks_match_synchronous_ingestion() {
        let config = harness_config();
        let arrivals: Vec<f64> = (0..500).map(|i| i as f64 * 17.0).collect();
        let ticks: Vec<f64> = (1..20).map(|k| 7_300.0 + 20.0 * k as f64).collect();

        // Synchronous reference: ingest each arrival the moment it happens.
        let mut sync = OnlineScaler::new(config.online, 0.0).unwrap();
        // Bus path: arrivals enqueue, ticks drain.
        let mut policy = OnlinePolicy::new(OnlineScaler::new(config.online, 0.0).unwrap());

        let mut next_arrival = 0usize;
        for (round, &tick) in ticks.iter().enumerate() {
            while next_arrival < arrivals.len() && arrivals[next_arrival] < tick {
                let t = arrivals[next_arrival];
                sync.ingest(t);
                assert!(policy.bus.push(0, t).unwrap());
                next_arrival += 1;
            }
            let expected = sync.plan_round(tick, round);
            let mut buf = Vec::new();
            if policy.bus.drain_into(0, &mut buf).unwrap() > 0 {
                policy.scaler.ingest_batch(&buf);
            }
            let got = policy.scaler.plan_round(tick, round);
            assert_eq!(expected, got, "diverged at tick {tick}");
        }
        assert_eq!(sync.stats(), policy.scaler().stats());
    }

    #[test]
    fn tiny_queue_sheds_load_but_keeps_serving() {
        let config = harness_config();
        let policy =
            OnlinePolicy::with_queue_capacity(OnlineScaler::new(config.online, 0.0).unwrap(), 2);
        for k in 0..10 {
            let _ = policy.bus.push(0, k as f64);
        }
        let stats = policy.queue_stats();
        assert_eq!(stats.enqueued, 2);
        assert_eq!(stats.dropped_full, 8);
        let mut buf = Vec::new();
        assert_eq!(policy.bus.drain_into(0, &mut buf).unwrap(), 2);
    }

    #[test]
    fn closed_loop_runs_are_deterministic_for_a_fixed_seed() {
        let trace = uniform_trace(3.0 * 3_600.0, 45.0, 5.0);
        let mut config = harness_config();
        config.warmup = 1.5 * 3_600.0;
        let (a, _) = run_closed_loop(&trace, &config).unwrap();
        let (b, _) = run_closed_loop(&trace, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_closed_loop_replays_strictly_and_matches_the_plain_run() {
        use crate::replay::{replay_path, PolicyBands, ReplayMode};
        let path = std::env::temp_dir().join(format!(
            "robustscaler-harness-trace-{}.jsonl",
            std::process::id()
        ));
        let trace = uniform_trace(3.0 * 3_600.0, 45.0, 5.0);
        let mut config = harness_config();
        config.warmup = 1.5 * 3_600.0;
        let (plain, plain_metrics) = run_closed_loop(&trace, &config).unwrap();
        let (report, metrics, summary) = run_closed_loop_recorded(&trace, &config, &path).unwrap();
        // Recording is observation only: the reported session is unchanged.
        assert_eq!(plain, report);
        assert_eq!(plain_metrics, metrics);
        assert_eq!(summary.path, path.display().to_string());
        assert!(summary.records > 0);
        assert!(summary.rounds > 0);

        let replay = replay_path(&path, ReplayMode::Strict, &PolicyBands::default()).unwrap();
        assert!(replay.passed(), "divergences: {:?}", replay.divergences);
        assert_eq!(replay.rounds, summary.rounds);
        assert!(replay.plans_checked > 0);
        assert!(replay.refits_checked >= 1, "boundary refit must be checked");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_and_restore_replay_is_bit_identical_to_uninterrupted() {
        let dir =
            std::env::temp_dir().join(format!("robustscaler-harness-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = uniform_trace(3.0 * 3_600.0, 45.0, 5.0);
        let mut config = harness_config();
        config.warmup = 1.5 * 3_600.0;
        let (continuous, continuous_metrics) = run_closed_loop(&trace, &config).unwrap();
        let (restarted, restarted_metrics) =
            run_closed_loop_with_restart(&trace, &config, &dir).unwrap();
        assert_eq!(continuous, restarted);
        assert_eq!(continuous_metrics, restarted_metrics);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
