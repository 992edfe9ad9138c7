//! Closed-loop workloads: one trace replayed through the serving loop
//! (`ArrivalBus` → `OnlineScaler` → `Simulator`), scored against the
//! reactive baseline on the same replay.
//!
//! A repetition rebuilds everything from the seed: the warm-up phase
//! (trace generation, warm-window ingestion through an `ArrivalBus`, the
//! boundary fit and the reactive baseline) is timed as set-up, the live
//! replay as the measured phase. Every repetition must produce the same
//! `HarnessReport`, bit for bit.

use crate::mix;
use crate::report::{median, ns_to_ms, Outcome};
use crate::spans::Tracer;
use robustscaler_core::{relative_cost, RobustScalerConfig, RobustScalerVariant};
use robustscaler_online::{
    run_closed_loop, ArrivalBus, BusConfig, HarnessConfig, HarnessReport, OnlineConfig,
    OnlinePolicy, OnlineScaler, OnlineStats,
};
use robustscaler_simulator::{
    Autoscaler, PendingTimeDistribution, Reactive, ScalingCommand, SimulationConfig, Simulator,
    SystemState, Trace,
};
use robustscaler_traces::generators::HOUR;
use robustscaler_traces::{alibaba_like, google_like, ProcessingTimeModel, TraceConfig};
use std::time::{Duration, Instant};

/// A closed-loop workload: which generator, how long, how much warm-up.
pub struct LoopSpec {
    pub generator: fn(&TraceConfig) -> Trace,
    pub hours: f64,
    pub warmup_hours: f64,
    pub traffic_scale: f64,
}

/// `loop_diurnal`: `google_like` (diurnal with 2-hourly spikes), the
/// paper's periodic case. Monte Carlo plan ticks dominate.
pub const DIURNAL: LoopSpec = LoopSpec {
    generator: google_like,
    hours: 36.0,
    warmup_hours: 12.0,
    traffic_scale: 2.0,
};

/// `loop_bursty`: `alibaba_like` (two daily peaks, hourly spikes, block
/// noise) with the warm-up boundary after 36 h of history, the paper's
/// outlier/noise case. Drift-triggered refits dominate: a refit storm.
/// Runnable, but not one of `BENCHMARK.json`'s workloads: under the storm
/// its `hit_rate` moves by a third from seed to seed, more than any bound
/// the benchmark may set (see `perfbench/README.md`).
pub const BURSTY: LoopSpec = LoopSpec {
    generator: alibaba_like,
    hours: 40.0,
    warmup_hours: 36.0,
    traffic_scale: 1.0,
};

/// HP target 0.9, Δ = 10 s, R = 300.
pub fn harness_config(spec: &LoopSpec, seed: u64) -> HarnessConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.mean_processing = 20.0;
    pipeline.monte_carlo_samples = 300;
    pipeline.planning_interval = 10.0;
    pipeline.admm.max_iterations = 80;
    pipeline.seed = mix(seed, 1);
    HarnessConfig {
        online: OnlineConfig::new(pipeline),
        sim: SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: mix(seed, 2),
            recent_history_window: 600.0,
        },
        warmup: spec.warmup_hours * HOUR,
        faults: None,
        plan_reuse: None,
    }
}

pub fn generate(spec: &LoopSpec, seed: u64) -> Trace {
    (spec.generator)(&TraceConfig {
        duration: spec.hours * HOUR,
        traffic_scale: spec.traffic_scale,
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed: mix(seed, 3),
    })
}

/// What a planning tick did, from the scaler's counters around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    Refit,
    Plan,
    Skip,
    Fail,
}

impl TickKind {
    pub fn classify(before: &OnlineStats, after: &OnlineStats) -> Self {
        if after.failed_rounds > before.failed_rounds {
            TickKind::Fail
        } else if after.refits > before.refits {
            TickKind::Refit
        } else if after.planning_rounds > before.planning_rounds {
            TickKind::Plan
        } else {
            TickKind::Skip
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            TickKind::Refit => "tick.refit",
            TickKind::Plan => "tick.plan",
            TickKind::Skip => "tick.skip",
            TickKind::Fail => "tick.fail",
        }
    }
}

/// `OnlinePolicy` with every tick timed and classified; with tracing on,
/// ticks and arrivals also become spans.
struct MeasuredPolicy<'t> {
    inner: OnlinePolicy,
    tracer: &'t mut Tracer,
    ticks: Vec<(TickKind, u64)>,
}

impl Autoscaler for MeasuredPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn planning_interval(&self) -> Option<f64> {
        self.inner.planning_interval()
    }

    fn on_start(&mut self, now: f64) -> Vec<ScalingCommand> {
        self.inner.on_start(now)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let before = *self.inner.scaler().stats();
        let span = self.tracer.begin("tick");
        let started = Instant::now();
        let commands = self.inner.on_planning_tick(state);
        let ns = started.elapsed().as_nanos() as u64;
        let kind = TickKind::classify(&before, self.inner.scaler().stats());
        self.tracer.end_as(span, Some(kind.span_name()));
        self.ticks.push((kind, ns));
        commands
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let span = self.tracer.begin("arrival");
        let commands = self.inner.on_query_arrival(state);
        self.tracer.end(span);
        commands
    }

    fn cancel_scheduled_on_cold_start(&self) -> bool {
        self.inner.cancel_scheduled_on_cold_start()
    }
}

/// One repetition: set-up (warm-up phase) then the live replay.
pub struct Repetition {
    pub report: HarnessReport,
    pub setup: Duration,
    pub live: Duration,
    pub live_hours: f64,
    pub ticks: Vec<(TickKind, u64)>,
    /// Serving counters at the warm-up boundary (the live phase's delta
    /// is `report.stats` minus these).
    pub warm_stats: OnlineStats,
}

/// Run one repetition. The set-up mirrors `run_closed_loop`'s warm-up,
/// with the warm window enqueued synchronously (no producer thread).
pub fn repetition(spec: &LoopSpec, seed: u64, tracer: &mut Tracer) -> Repetition {
    let config = harness_config(spec, seed);
    let setup_started = Instant::now();
    let setup_span = tracer.begin("setup");
    let span = tracer.begin("traces.generate");
    let trace = generate(spec, seed);
    tracer.end(span);
    let boundary = trace.start() + config.warmup;
    let (warm, live) = trace.split_at(boundary).expect("boundary inside the trace");
    let simulator = Simulator::new(config.sim).expect("valid simulation config");
    let mut scaler = OnlineScaler::new(config.online, trace.start()).expect("valid online config");

    let warm_times = warm.arrival_times();
    let bus = ArrivalBus::new(
        1,
        BusConfig {
            capacity_per_tenant: warm_times.len().max(1),
            tenants_per_group: 1,
            ..BusConfig::default()
        },
    )
    .expect("valid bus config");
    let span = tracer.begin("ingest.push_batch");
    let enqueued = bus.push_batch(0, &warm_times).expect("tenant 0 exists");
    tracer.end(span);
    assert_eq!(enqueued, warm_times.len(), "warm-up bus sized to fit");
    let span = tracer.begin("ingest.drain");
    let mut warm_buf = Vec::new();
    bus.drain_into(0, &mut warm_buf).expect("tenant 0 exists");
    scaler.ingest_batch(&warm_buf);
    tracer.end(span);
    let span = tracer.begin("scaler.first_fit");
    scaler.refit_now(boundary).expect("warm window trains");
    tracer.end(span);

    let span = tracer.begin("simulator.run.reactive");
    let reactive = simulator
        .run(&live, &mut Reactive::new())
        .expect("reactive replay");
    tracer.end(span);
    tracer.end(setup_span);
    let setup = setup_started.elapsed();
    let warm_stats = *scaler.stats();

    let live_started = Instant::now();
    let span = tracer.begin("simulator.run");
    let mut policy = MeasuredPolicy {
        inner: OnlinePolicy::new(scaler),
        tracer,
        ticks: Vec::new(),
    };
    let metrics = simulator.run(&live, &mut policy).expect("live replay");
    let MeasuredPolicy {
        inner,
        ticks,
        tracer,
    } = policy;
    tracer.end(span);
    let live_wall = live_started.elapsed();

    let queue = inner.queue_stats();
    let report = HarnessReport {
        policy: inner.name().to_string(),
        hit_rate: metrics.hit_rate(),
        rt_avg: metrics.rt_avg(),
        total_cost: metrics.total_cost(),
        reactive_cost: reactive.total_cost(),
        relative_cost: relative_cost(metrics.total_cost(), reactive.total_cost()),
        queries: metrics.query_count(),
        stats: *inner.scaler().stats(),
        queue: Some(queue),
        drained_per_round: Some(queue.drained_per_drain()),
    };
    Repetition {
        report,
        setup,
        live: live_wall,
        live_hours: (spec.hours - spec.warmup_hours),
        ticks,
        warm_stats,
    }
}

fn served(ticks: &[(TickKind, u64)]) -> usize {
    ticks.iter().filter(|(k, _)| *k != TickKind::Fail).count()
}

fn account(out: &mut Outcome, rep: &Repetition) {
    let queue = rep.report.queue.expect("bus-fed replay reports its queue");
    out.attempted += rep.ticks.len() as u64 + queue.enqueued + queue.dropped_full;
    out.failed += (rep.ticks.len() - served(&rep.ticks)) as u64 + queue.dropped_full;
}

/// The untraced run: repetitions until `seconds` of measurement (at
/// least two), end-to-end metrics as medians over repetitions.
pub fn run_untraced(spec: &LoopSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut reps: Vec<Repetition> = Vec::new();
    loop {
        reps.push(repetition(spec, seed, &mut tracer));
        let elapsed = started.elapsed().as_secs_f64();
        if reps.len() >= 2 && elapsed + elapsed / reps.len() as f64 > seconds {
            break;
        }
    }
    let first = &reps[0].report;
    for (i, rep) in reps.iter().enumerate() {
        account(&mut out, rep);
        out.check(
            rep.report == *first,
            format!("repetition {i} report differs from repetition 0 at the same seed"),
        );
    }

    let tick_ms: Vec<f64> = reps
        .iter()
        .map(|r| {
            let all: Vec<f64> = r.ticks.iter().map(|(_, ns)| ns_to_ms(*ns)).collect();
            median(&all)
        })
        .collect();
    let rounds_per_s: Vec<f64> = reps
        .iter()
        .map(|r| {
            let busy: u64 = r.ticks.iter().map(|(_, ns)| ns).sum();
            served(&r.ticks) as f64 / (busy as f64 / 1e9)
        })
        .collect();
    let hours_per_s: Vec<f64> = reps
        .iter()
        .map(|r| r.live_hours / r.live.as_secs_f64())
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();

    out.e2e("hit_rate", first.hit_rate, "fraction");
    out.e2e("relative_cost", first.relative_cost, "ratio");
    out.e2e("sim_hours_per_s", median(&hours_per_s), "h/s");
    out.e2e("round_p50_ms", median(&tick_ms), "ms");
    out.e2e("tenant_rounds_per_s", median(&rounds_per_s), "1/s");
    out.e2e("setup_s", median(&setups), "s");
    out.note(format!(
        "repetitions: {} (medians over them); ticks per repetition: {}",
        reps.len(),
        reps[0].ticks.len()
    ));
    describe(&mut out, &reps[0]);
    out
}

fn describe(out: &mut Outcome, rep: &Repetition) {
    let s = &rep.report.stats;
    let w = &rep.warm_stats;
    let count = |k: TickKind| rep.ticks.iter().filter(|(kind, _)| *kind == k).count();
    out.note(format!(
        "live phase: {:.0} h, {} queries, {} ticks = {} plan + {} refit + {} skip + {} failed",
        rep.live_hours,
        rep.report.queries,
        rep.ticks.len(),
        count(TickKind::Plan),
        count(TickKind::Refit),
        count(TickKind::Skip),
        count(TickKind::Fail)
    ));
    out.note(format!(
        "live refits: {} ({} triggered by drift); hit_rate {:.4}, relative_cost {:.4}",
        s.refits - w.refits,
        s.drift_refits - w.drift_refits,
        rep.report.hit_rate,
        rep.report.relative_cost
    ));
}

/// The traced run: the library's own `run_closed_loop` (untraced, timed)
/// and one traced repetition on the same seed. Their reports must agree
/// bit for bit; per-layer metrics come from the traced repetition's spans.
pub fn run_traced(spec: &LoopSpec, seed: u64, spans_path: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let trace = generate(spec, seed);
    let started = Instant::now();
    let (reference, _) =
        run_closed_loop(&trace, &harness_config(spec, seed)).expect("closed loop runs");
    let untraced = started.elapsed();
    let mut tracer = Tracer::new(true);
    let rep = repetition(spec, seed, &mut tracer);
    account(&mut out, &rep);
    out.check(
        rep.report == reference,
        "traced repetition differs from run_closed_loop's HarnessReport",
    );
    // Both sides without trace generation, which run_closed_loop is not given.
    let traced = rep.setup + rep.live - Duration::from_nanos(tracer.total("traces.generate"));

    let live_ns = tracer.total("simulator.run") as f64;
    let plan = tracer.durations("tick.plan");
    let refit = tracer.durations("tick.refit");
    let ms = |v: &[u64]| median(&v.iter().map(|ns| ns_to_ms(*ns)).collect::<Vec<_>>());
    let share = |v: &[u64]| v.iter().sum::<u64>() as f64 / live_ns;
    let arrivals = tracer.durations("arrival");

    out.layer("scaler.plan_tick_p50_ms", ms(&plan), "ms");
    out.layer("scaler.plan_ticks", plan.len() as f64, "count");
    out.layer("scaler.plan_share", share(&plan), "fraction");
    out.layer("scaler.refit_tick_p50_ms", ms(&refit), "ms");
    out.layer("scaler.refit_ticks", refit.len() as f64, "count");
    out.layer(
        "scaler.drift_refits",
        (rep.report.stats.drift_refits - rep.warm_stats.drift_refits) as f64,
        "count",
    );
    out.layer("scaler.refit_share", share(&refit), "fraction");
    out.layer(
        "simulator.self_s",
        tracer.self_time("simulator.run") as f64 / 1e9,
        "s",
    );
    out.layer(
        "ingest.push_ns_per_arrival",
        arrivals.iter().sum::<u64>() as f64 / arrivals.len().max(1) as f64,
        "ns",
    );
    out.layer(
        "trace.overhead_ratio",
        traced.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    );
    describe(&mut out, &rep);
    out.note(format!(
        "setup spans (ms): generate {:.1}, warm push_batch {:.2}, drain+ingest {:.2}, first fit {:.1}, reactive replay {:.1}",
        ns_to_ms(tracer.total("traces.generate")),
        ns_to_ms(tracer.total("ingest.push_batch")),
        ns_to_ms(tracer.total("ingest.drain")),
        ns_to_ms(tracer.total("scaler.first_fit")),
        ns_to_ms(tracer.total("simulator.run.reactive")),
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
