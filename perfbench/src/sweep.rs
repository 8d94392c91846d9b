//! `sweep`: the Fig. 16 comparison as a batch job. Five series (SRAA,
//! SARAA, CLTA, the static baseline and the no-rejuvenation control)
//! over `LOAD_GRID`, every `(series, load, replication)` cell one
//! `Runner::replication_metrics` call on an `Executor` with one worker
//! per available core. A run repeats the same sweep pass until its time
//! is up; every pass must reproduce a 1-worker run of the same cells.

use crate::common::{
    available_parallelism, durations, median, peak_rss_mib, quantile, setup_times, spread,
    write_spans, Outcome, Settings, Span, Yardstick, YARD_SAMPLES,
};
use rejuv_bench::LOAD_GRID;
use rejuv_core::{
    Clta, CltaConfig, Decision, RejuvenationDetector, Saraa, SaraaConfig, Sraa, SraaConfig,
    StaticRejuvenation,
};
use rejuv_ecommerce::{RunMetrics, Runner, SystemConfig};
use rejuv_sim::Executor;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERIES: [&str; 5] = ["SRAA", "SARAA", "CLTA", "Static", "none"];
/// The reproduction's quick protocol, `figures --quick`: 2 replications
/// of 20 000 transactions per cell.
const REPLICATIONS: usize = 2;
const TRANSACTIONS: u64 = 20_000;
/// Loads at or below this many CPUs count as low load, at or above
/// `HIGH_LOAD` as high load.
const LOW_LOAD: f64 = 5.0;
const HIGH_LOAD: f64 = 9.0;

/// The Fig. 16 detectors, as `rejuv_bench::fig16_comparison` builds
/// them; `None` is the no-rejuvenation control.
fn detector(series: usize) -> Option<Box<dyn RejuvenationDetector>> {
    let d: Box<dyn RejuvenationDetector> = match SERIES[series] {
        "SRAA" => Box::new(Sraa::new(
            SraaConfig::builder(5.0, 5.0)
                .sample_size(2)
                .buckets(5)
                .depth(3)
                .build()
                .expect("paper configuration"),
        )),
        "SARAA" => Box::new(Saraa::new(
            SaraaConfig::builder(5.0, 5.0)
                .initial_sample_size(2)
                .buckets(5)
                .depth(3)
                .build()
                .expect("paper configuration"),
        )),
        "CLTA" => Box::new(Clta::new(
            CltaConfig::builder(5.0, 5.0)
                .sample_size(30)
                .quantile_factor(1.96)
                .build()
                .expect("paper configuration"),
        )),
        "Static" => Box::new(StaticRejuvenation::new(5.0, 5.0, 5, 3).expect("valid baseline")),
        _ => return None,
    };
    Some(d)
}

/// The sweep's cells and how to run them.
struct Plan {
    executor: Executor,
    runner: Runner,
    configs: Vec<SystemConfig>,
}

impl Plan {
    /// The set-up `setup_s` times. `workers` is read once per process:
    /// `available_parallelism` reads cgroup files, whose cost differed
    /// by half between processes on the README's machine.
    fn build(seed: u64, workers: usize) -> Result<Plan, String> {
        let base = SystemConfig::paper_at_load(1.0).map_err(|e| e.to_string())?;
        let configs = LOAD_GRID
            .iter()
            .map(|&load| base.with_arrival_rate(load * base.service_rate()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Plan {
            executor: Executor::new(workers),
            runner: Runner::new(REPLICATIONS, TRANSACTIONS, seed),
            configs,
        })
    }

    fn cells(&self) -> usize {
        SERIES.len() * self.configs.len() * REPLICATIONS
    }

    /// `(series, load index, replication)` of a cell index.
    fn coordinates(&self, cell: usize) -> (usize, usize, usize) {
        let per_series = self.configs.len() * REPLICATIONS;
        let rest = cell % per_series;
        (cell / per_series, rest / REPLICATIONS, rest % REPLICATIONS)
    }

    /// Runs every cell on `executor`, timing each cell from `origin`;
    /// traced runs also time every detector call.
    fn run(&self, executor: &Executor, origin: Instant, traced: bool) -> Vec<Cell> {
        executor.run(self.cells(), |cell| {
            let (series, point, replication) = self.coordinates(cell);
            let clock = Arc::new(DetectorClock::default());
            let factory = || {
                let inner = detector(series)?;
                Some(if traced {
                    Box::new(Timed {
                        inner,
                        clock: Arc::clone(&clock),
                    }) as Box<dyn RejuvenationDetector>
                } else {
                    inner
                })
            };
            let start = Instant::now();
            let metrics =
                self.runner
                    .replication_metrics(self.configs[point], replication, &factory, false);
            let end = Instant::now();
            let span = Span::between(origin, start, end, clock.ns.load(Relaxed));
            Cell {
                metrics,
                span,
                observe_calls: clock.calls.load(Relaxed),
            }
        })
    }
}

struct Cell {
    metrics: RunMetrics,
    /// The cell's wall time; its child part is detector time.
    span: Span,
    observe_calls: u64,
}

/// Detector-call time of one cell, summed (a per-call span would cost
/// more memory than the cell itself).
#[derive(Default)]
struct DetectorClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// A detector with a stopwatch around every `observe`.
struct Timed {
    inner: Box<dyn RejuvenationDetector>,
    clock: Arc<DetectorClock>,
}

impl Timed {
    fn time(&mut self, call: impl FnOnce(&mut dyn RejuvenationDetector) -> Decision) -> Decision {
        let start = Instant::now();
        let decision = call(&mut *self.inner);
        self.clock
            .ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.clock.calls.fetch_add(1, Relaxed);
        decision
    }
}

impl RejuvenationDetector for Timed {
    fn observe(&mut self, value: f64) -> Decision {
        self.time(|d| d.observe(value))
    }

    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        self.time(|d| d.observe_at(at_secs, value))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rejuvenation_count(&self) -> u64 {
        self.inner.rejuvenation_count()
    }
}

/// Bit-exact identity of a cell's result.
fn fingerprint(metrics: &RunMetrics) -> String {
    serde_json::to_string(metrics).expect("metrics serialize")
}

/// The reference every pass must reproduce: the same cells on one
/// worker, computed before the timed region.
fn reference(plan: &Plan) -> Vec<String> {
    plan.run(&Executor::serial(), Instant::now(), false)
        .iter()
        .map(|c| fingerprint(&c.metrics))
        .collect()
}

/// What a pass keeps of each cell once its result has been checked.
struct CellTrace {
    span: Span,
    observe_calls: u64,
}

struct Segment {
    passes: usize,
    wall: Duration,
    txn_rates: Vec<f64>,
    /// Wall time of every pass, in nanoseconds.
    pass_ns: Vec<f64>,
    txns: u64,
    /// Detector decisions inside the cells.
    decisions: u64,
    /// Every cell of every pass, pass by pass in cell order.
    cells: Vec<CellTrace>,
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
}

fn run_segment(
    settings: &Settings,
    plan: &Plan,
    reference: &[String],
    traced: bool,
    yard: &mut Yardstick,
) -> Result<Segment, String> {
    let run_for = settings.run_for();
    let mut txn_rates = Vec::new();
    let mut decisions = 0u64;
    let mut pass_ns = Vec::new();
    let (mut traces, mut txns, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut timed_for = Duration::ZERO;
    yard.sample(1);
    let start = Instant::now();
    while traces.is_empty() || timed_for < run_for {
        let pass_start = Instant::now();
        let cells = plan.run(&plan.executor, start, traced);
        let pass = pass_start.elapsed();
        timed_for += pass;
        let secs = pass.as_secs_f64();
        // The executor is idle between passes.
        yard.sample(1);

        // Between passes, outside the pass's own clock: check every
        // cell against the reference and keep only its timings.
        let pass_txns = cells.len() as u64 * TRANSACTIONS;
        // Every completed transaction of a guarded cell is one decision.
        decisions += cells
            .iter()
            .enumerate()
            .filter(|(i, _)| detector(plan.coordinates(*i).0).is_some())
            .map(|(_, c)| c.metrics.completed)
            .sum::<u64>();
        txn_rates.push(pass_txns as f64 / secs);
        txns += pass_txns;
        failed += cells
            .iter()
            .zip(reference)
            .filter(|(cell, want)| fingerprint(&cell.metrics) != **want)
            .count() as u64;
        pass_ns.push(secs * 1e9);
        traces.extend(cells.into_iter().map(|c| CellTrace {
            span: c.span,
            observe_calls: c.observe_calls,
        }));
    }
    let wall = timed_for;
    let peak_rss_mib = peak_rss_mib()? - Yardstick::mib();
    let attempted = traces.len() as u64;
    Ok(Segment {
        passes: traces.len() / plan.cells(),
        wall,
        txn_rates,
        decisions,
        pass_ns,
        txns,
        cells: traces,
        peak_rss_mib,
        attempted,
        failed,
    })
}

fn conditions(out: &mut Outcome, plan: &Plan, seg: &Segment) -> Result<(), String> {
    out.threads = plan.executor.workers();
    out.condition("thread_roles", "executor workers");
    out.condition("series", SERIES.join(","));
    out.condition("loads", LOAD_GRID.len());
    out.condition("replications", REPLICATIONS);
    out.condition("transactions_per_cell", TRANSACTIONS);
    out.condition("cells_per_pass", plan.cells());
    out.condition("passes", seg.passes);
    out.condition("rate_spread", format!("{:.4}", spread(&seg.txn_rates)?));
    Ok(())
}

pub fn untraced(settings: &Settings) -> Result<Outcome, String> {
    let workers = available_parallelism();
    let setup = || setup_times(|| Plan::build(settings.seed, workers), |_| Ok(()));
    let mut yard = Yardstick::new();
    yard.sample(YARD_SAMPLES);
    let mut setup_s = setup()?;
    let plan = Plan::build(settings.seed, workers)?;
    let reference = reference(&plan);
    let seg = run_segment(settings, &plan, &reference, false, &mut yard)?;
    setup_s.extend(setup()?);
    yard.sample(YARD_SAMPLES);
    let mut out = Outcome::new();
    out.attempted = seg.attempted;
    out.failed = seg.failed;
    let slowdown = yard.report(&mut out)?;
    out.scaled("setup_s", median(&setup_s)?, "s", slowdown);
    let secs = seg.wall.as_secs_f64();
    out.scaled("txn_per_s", seg.txns as f64 / secs, "1/s", slowdown);
    out.scaled("obs_per_s", seg.decisions as f64 / secs, "1/s", slowdown);
    // A sweep's decision is its result, which is complete when the
    // pass's slowest cell is: latency from pass start to the last
    // `RunMetrics`, over the run's passes.
    let p50 = quantile(&seg.pass_ns, 0.5)?;
    out.scaled("decision_p50_ns", p50, "ns", slowdown);
    let p95 = quantile(&seg.pass_ns, 0.95)?;
    out.scaled("decision_p95_ns", p95, "ns", slowdown);
    out.metric("peak_rss_mb", seg.peak_rss_mib, "MiB");
    conditions(&mut out, &plan, &seg)?;
    out.condition("decision_samples", seg.pass_ns.len());
    out.condition("setup_reps", setup_s.len());
    Ok(out)
}

pub fn traced(settings: &Settings) -> Result<Outcome, String> {
    let plan = Plan::build(settings.seed, available_parallelism())?;
    let reference = reference(&plan);
    let mut yard = Yardstick::new();
    let before = run_segment(&settings.half(), &plan, &reference, false, &mut yard)?;
    let seg = run_segment(settings, &plan, &reference, true, &mut yard)?;
    let after = run_segment(&settings.half(), &plan, &reference, false, &mut yard)?;
    let spans: Vec<Span> = seg.cells.iter().map(|c| c.span).collect();
    write_spans(&settings.path("spans-sweep.tsv"), &[("cell", &spans)])?;

    let mut out = Outcome::new();
    out.attempted = before.attempted + seg.attempted + after.attempted;
    out.failed = before.failed + seg.failed + after.failed;
    let cell_total: f64 = spans.iter().map(|s| f64::from(s.dur_ns)).sum();
    let detector_total: f64 = spans.iter().map(|s| f64::from(s.child_ns)).sum();
    let calls: u64 = seg.cells.iter().map(|c| c.observe_calls).sum();
    out.metric(
        "sim.self_ns_per_txn",
        (cell_total - detector_total) / seg.txns as f64,
        "ns",
    );
    let per_txn = |low: bool| {
        let (ns, n) = spans
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let load = LOAD_GRID[plan.coordinates(i % plan.cells()).1];
                if low {
                    load <= LOW_LOAD
                } else {
                    load >= HIGH_LOAD
                }
            })
            .fold((0.0, 0u64), |(ns, n), (_, s)| {
                (ns + f64::from(s.dur_ns), n + 1)
            });
        ns / (n.max(1) * TRANSACTIONS) as f64
    };
    out.metric("model.cell_ns_per_txn.low_load", per_txn(true), "ns");
    out.metric("model.cell_ns_per_txn.high_load", per_txn(false), "ns");
    out.metric("exec.cells", spans.len() as f64, "count");
    let cell_ns = durations(&spans);
    out.metric("exec.cell_ms_p50", quantile(&cell_ns, 0.5)? / 1e6, "ms");
    out.metric(
        "exec.cell_ms_max",
        cell_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        "ms",
    );
    out.metric(
        "exec.busy_share",
        cell_total / (plan.executor.workers() as f64 * seg.wall.as_nanos() as f64),
        "ratio",
    );
    out.metric(
        "detector.sweep_ns_per_obs",
        detector_total / calls.max(1) as f64,
        "ns",
    );
    let plain_rate = (median(&before.txn_rates)? + median(&after.txn_rates)?) / 2.0;
    let traced_rate = median(&seg.txn_rates)?;
    out.metric(
        "trace.overhead_share",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    out.condition("untraced_txn_per_s", format!("{plain_rate:.0}"));
    out.condition("traced_txn_per_s", format!("{traced_rate:.0}"));
    conditions(&mut out, &plan, &seg)?;
    Ok(out)
}
