//! `live`: `monitord`'s durable configuration, assembled from the same
//! library calls `monitord` makes — a 4-host §3 cluster (load 8.0 CPUs
//! per host, least-active routing, 30 s downtime) with one SRAA per
//! host behind a `MonitorBridge`, a JSONL event log written to a file,
//! checkpoints every 10 000 observations and a `/metrics`-style scrape
//! every 50 000 observations. Closed loop: each simulated host waits
//! for its decision.

use crate::common::{
    durations, median, peak_rss_mib, probe, quantile, setup_times, spread, timed, total_ns,
    write_spans, Outcome, Settings, Span, WindowedLatencies, Yardstick, YARD_SAMPLES,
};
use rejuv_core::{Decision, RejuvenationDetector, Sraa, SraaConfig};
use rejuv_ecommerce::{ClusterSystem, RoutingPolicy, SystemConfig};
use rejuv_monitor::{
    expo, load_snapshot, replay_events_resumed, save_snapshot, ConsumerPool, EventLog,
    ExpoSnapshot, MonitorBridge, MonitorEvent, PoolStatsHandle, SharedSupervisor, Supervisor,
    SupervisorConfig,
};
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const HOSTS: usize = 4;
const LOAD_CPUS: f64 = 8.0;
const DOWNTIME_SECS: f64 = 30.0;
const CHECKPOINT_EVERY: u64 = 10_000;
const SCRAPE_EVERY: u64 = 50_000;
/// Transactions per `ClusterSystem::run` call; the clock is read
/// between calls.
const CHUNK_TXNS: u64 = 2_000;
/// Transactions of one pass. A run repeats passes, each a fresh rig
/// over the seed's first `PASS_TXNS` transactions, until its time is
/// up, so every run measures the same stretch of the model whatever the
/// machine's speed (see the README). 600 000 transactions take the
/// hosts through degradation and rejuvenation.
const PASS_TXNS: u64 = 600_000;
/// Transactions of one window of a pass; the yardstick runs between
/// windows.
const WINDOW_TXNS: u64 = 30_000;
const EVENT_LOG: &str = "live-events.jsonl";
/// Logged events replayed per chunk by the reference check.
const REPLAY_CHUNK: usize = 100_000;
/// Logged events the layer probes of a traced run re-use.
const PROBE_EVENTS: usize = 250_000;
const CHECKPOINT: &str = "live-checkpoint.json";

/// `monitord --detector sraa`: SRAA (n = 2, K = 5, D = 3) against the
/// paper's 5 s / 5 s SLA baseline.
fn sraa() -> Box<dyn RejuvenationDetector> {
    Box::new(Sraa::new(
        SraaConfig::builder(5.0, 5.0)
            .sample_size(2)
            .buckets(5)
            .depth(3)
            .build()
            .expect("valid SRAA config"),
    ))
}

/// The §3 cluster `monitord` runs by default: `HOSTS` hosts at
/// `LOAD_CPUS` CPUs each, least-active routing, `DOWNTIME_SECS` down
/// after a rejuvenation, no detectors attached yet.
pub fn cluster(seed: u64) -> Result<ClusterSystem, String> {
    let host = SystemConfig::paper_at_load(LOAD_CPUS).map_err(|e| e.to_string())?;
    Ok(ClusterSystem::new(
        host,
        HOSTS,
        host.arrival_rate() * HOSTS as f64,
        RoutingPolicy::LeastActive,
        DOWNTIME_SECS,
        seed,
    ))
}

/// Counters shared by the bridge taps, the event-log writer and the
/// checkpoint sink. The child-time counters only move in traced runs.
#[derive(Default)]
struct Tally {
    observations: AtomicU64,
    /// Windows the run loop has closed so far.
    windows: AtomicUsize,
    scrapes: AtomicU64,
    /// Writer plus checkpoint time: the children of a bridge call.
    child_ns: AtomicU64,
    write_ns: AtomicU64,
    checkpoints: Mutex<Vec<Span>>,
}

/// What the taps hand over when the cluster drops them.
#[derive(Default)]
struct Collected {
    /// Untraced runs: the wall time of every bridge call, by window.
    latencies: Option<WindowedLatencies>,
    bridge: Vec<Span>,
    scrapes: Vec<Span>,
    scrape_bytes: Vec<usize>,
}

impl Collected {
    fn absorb(&mut self, other: &mut Collected) {
        match (&mut self.latencies, other.latencies.take()) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine, theirs) => *mine = mine.take().or(theirs),
        }
        self.bridge.append(&mut other.bridge);
        self.scrapes.append(&mut other.scrapes);
        self.scrape_bytes.append(&mut other.scrape_bytes);
    }
}

/// The detector each simulated host sees: a `MonitorBridge` with a
/// stopwatch around every call, plus the count-driven scrape.
struct Tap {
    bridge: MonitorBridge,
    shared: SharedSupervisor,
    pool_stats: PoolStatsHandle,
    tally: Arc<Tally>,
    origin: Instant,
    traced: bool,
    local: Collected,
    sink: Arc<Mutex<Collected>>,
}

impl Tap {
    fn decide(&mut self, call: impl FnOnce(&mut MonitorBridge) -> Decision) -> Decision {
        let children = if self.traced {
            self.tally.child_ns.load(Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let decision = call(&mut self.bridge);
        let end = Instant::now();
        if self.traced {
            let child = self.tally.child_ns.load(Relaxed) - children;
            self.local
                .bridge
                .push(Span::between(self.origin, start, end, child));
        } else if let Some(latencies) = &mut self.local.latencies {
            latencies.roll_to(self.tally.windows.load(Relaxed));
            latencies
                .current
                .record(end.duration_since(start).as_nanos() as u64);
        }
        if (self.tally.observations.fetch_add(1, Relaxed) + 1).is_multiple_of(SCRAPE_EVERY) {
            self.scrape();
        }
        decision
    }

    /// One `/metrics` scrape as `MetricsServer` serves it: capture and
    /// render under the supervisor lock.
    fn scrape(&mut self) {
        let serial = self.tally.scrapes.fetch_add(1, Relaxed) + 1;
        let start = Instant::now();
        let stats = self.pool_stats.stats();
        let body = self.shared.with(|sup| {
            let mut snap = ExpoSnapshot::capture(sup).with_scrapes(serial);
            if let Some(stats) = &stats {
                snap = snap.with_drain(stats);
            }
            expo::render(&snap)
        });
        let end = Instant::now();
        if self.traced {
            self.local
                .scrapes
                .push(Span::between(self.origin, start, end, 0));
            self.local.scrape_bytes.push(body.len());
        }
        black_box(body);
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        // A pass ends on a window boundary; close that last window.
        if let Some(latencies) = &mut self.local.latencies {
            latencies.roll_to(self.tally.windows.load(Relaxed));
        }
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(&mut self.local);
        }
    }
}

impl RejuvenationDetector for Tap {
    fn observe(&mut self, value: f64) -> Decision {
        self.decide(|bridge| bridge.observe(value))
    }

    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        self.decide(|bridge| bridge.observe_at(at_secs, value))
    }

    fn reset(&mut self) {
        self.bridge.reset();
    }

    fn name(&self) -> &'static str {
        self.bridge.name()
    }

    fn rejuvenation_count(&self) -> u64 {
        self.bridge.rejuvenation_count()
    }
}

/// The event-log sink of a traced run: the writer `monitord` uses,
/// with every call into it timed.
struct TimedWriter<W> {
    inner: W,
    tally: Arc<Tally>,
}

impl<W> TimedWriter<W> {
    fn account(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.tally.write_ns.fetch_add(ns, Relaxed);
        self.tally.child_ns.fetch_add(ns, Relaxed);
    }
}

impl<W: Write> Write for TimedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let result = self.inner.write(buf);
        self.account(start);
        result
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write_all(buf);
        self.account(start);
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.account(start);
        result
    }
}

struct Rig {
    shared: SharedSupervisor,
    pool: ConsumerPool,
    cluster: ClusterSystem,
    collected: Arc<Mutex<Collected>>,
    tally: Arc<Tally>,
}

/// Everything `monitord --hosts 4 --trace F --checkpoint C` builds
/// before its first transaction: supervisor, checkpoint path, event
/// log file and header, consumer pool, cluster and bridges.
fn build(settings: &Settings, traced: bool, origin: Instant) -> Result<Rig, String> {
    let config = SupervisorConfig::default();
    let mut supervisor = Supervisor::with_shards(config, HOSTS, |_| sraa());
    let tally = Arc::new(Tally::default());

    let checkpoint = settings.path(CHECKPOINT);
    let sink: rejuv_monitor::CheckpointSink = if traced {
        let tally = Arc::clone(&tally);
        Box::new(move |snapshot| {
            let start = Instant::now();
            let result = save_snapshot(&checkpoint, snapshot);
            let end = Instant::now();
            let span = Span::between(origin, start, end, 0);
            tally.child_ns.fetch_add(u64::from(span.dur_ns), Relaxed);
            tally.checkpoints.lock().expect("span lock").push(span);
            result
        })
    } else {
        Box::new(move |snapshot| save_snapshot(&checkpoint, snapshot))
    };
    supervisor.set_checkpoint(CHECKPOINT_EVERY, sink);

    let path = settings.path(EVENT_LOG);
    let file = File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let writer: Box<dyn Write + Send> = if traced {
        Box::new(TimedWriter {
            inner: BufWriter::new(file),
            tally: Arc::clone(&tally),
        })
    } else {
        Box::new(BufWriter::new(file))
    };
    let mut log = EventLog::new(writer);
    log.record(&MonitorEvent::Start {
        shards: HOSTS as u32,
        detector: sraa().name().to_owned(),
        queue_capacity: config.queue_capacity as u64,
        drain_batch: config.drain_batch as u64,
        snapshot_every: config.snapshot_every,
    })
    .map_err(|e| format!("cannot write the event-log header: {e}"))?;
    supervisor.set_log(log);

    let shared = SharedSupervisor::new(supervisor);
    let pool = ConsumerPool::spawn_shared(&shared);
    let mut cluster = cluster(settings.seed)?;
    let collected = Arc::new(Mutex::new(Collected::default()));
    let pool_stats = pool.stats_handle();
    cluster.attach_detectors(|h| {
        Box::new(Tap {
            bridge: shared.bridge(h),
            shared: shared.clone(),
            pool_stats: pool_stats.clone(),
            tally: Arc::clone(&tally),
            origin,
            traced,
            local: Collected {
                latencies: (!traced).then(WindowedLatencies::new),
                ..Collected::default()
            },
            sink: Arc::clone(&collected),
        })
    });
    Ok(Rig {
        shared,
        pool,
        cluster,
        collected,
        tally,
    })
}

/// Shuts a rig down the way `monitord` ends a clean run: drop the
/// bridges, join the pool, write the final checkpoint, flush the log.
fn finish(rig: Rig) -> Result<(Supervisor, Collected, Arc<Tally>), String> {
    let Rig {
        shared,
        pool,
        cluster,
        collected,
        tally,
    } = rig;
    drop(cluster);
    pool.join()
        .map_err(|e| format!("consumer pool failed: {e}"))?;
    let mut supervisor = shared
        .try_into_inner()
        .map_err(|_| "a bridge outlived the cluster".to_owned())?;
    supervisor
        .checkpoint_now()
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    if let Some(mut log) = supervisor.take_log() {
        log.flush()
            .map_err(|e| format!("cannot flush the event log: {e}"))?;
    }
    let collected = std::mem::take(&mut *collected.lock().expect("tap lock"));
    Ok((supervisor, collected, tally))
}

/// One measured stretch of the closed loop.
struct Segment {
    wall: Duration,
    txns: u64,
    observations: u64,
    /// Transactions per second of each window.
    txn_rates: Vec<f64>,
    collected: Collected,
    tally: Arc<Tally>,
    /// Writer time and checkpoint saves inside the timed region (the
    /// final checkpoint at shutdown is not part of it).
    write_ns: u64,
    saves: usize,
    log_bytes: f64,
    peak_rss_mib: f64,
    failed: u64,
    events: Vec<MonitorEvent>,
}

/// One pass: a fresh rig runs the cluster for `PASS_TXNS` transactions
/// from the seed, then is shut down and checked. `yard` is sampled
/// between windows, while the simulation thread is off the clock.
fn run_pass(settings: &Settings, traced: bool, yard: &mut Yardstick) -> Result<Segment, String> {
    let origin = Instant::now();
    let mut rig = build(settings, traced, origin)?;
    let mut txn_rates = Vec::new();
    let mut txns = 0u64;
    let mut timed_for = Duration::ZERO;
    yard.sample(1);
    let mut window_start = Instant::now();
    while txns < PASS_TXNS {
        rig.cluster.run(CHUNK_TXNS);
        txns += CHUNK_TXNS;
        if txns.is_multiple_of(WINDOW_TXNS) {
            let elapsed = window_start.elapsed();
            txn_rates.push(WINDOW_TXNS as f64 / elapsed.as_secs_f64());
            rig.tally.windows.fetch_add(1, Relaxed);
            timed_for += elapsed;
            yard.sample(1);
            window_start = Instant::now();
        }
    }
    let wall = timed_for;
    let write_ns = rig.tally.write_ns.load(Relaxed);
    let saves = rig.tally.checkpoints.lock().expect("span lock").len();
    let (supervisor, collected, tally) = finish(rig)?;
    let peak_rss_mib = peak_rss_mib()? - Yardstick::mib();
    let observations = tally.observations.load(Relaxed);
    let keep = if traced { PROBE_EVENTS } else { 0 };
    let (failed, events) = check(settings, &supervisor, observations, keep)?;
    // The log has been replayed; at hundreds of MB it is not worth keeping.
    let log_bytes = file_len(&settings.path(EVENT_LOG));
    let _ = std::fs::remove_file(settings.path(EVENT_LOG));
    Ok(Segment {
        wall,
        txns,
        observations,
        txn_rates,
        collected,
        tally,
        write_ns,
        saves,
        log_bytes,
        peak_rss_mib,
        failed,
        events,
    })
}

/// Reference checks, outside the timed region: the live report must
/// equal a replay of the written log, and the final checkpoint must
/// load, equal the live state and restore into a fresh supervisor.
/// Returns the failed observations and the first `keep` logged events.
fn check(
    settings: &Settings,
    live: &Supervisor,
    observations: u64,
    keep: usize,
) -> Result<(u64, Vec<MonitorEvent>), String> {
    let report = live.report();
    let (replayed, events) = replay_log(&settings.path(EVENT_LOG), keep)?;
    let replayed = replayed.report();

    let mut failed = report.total_dropped + observations.abs_diff(report.total_processed);
    let mismatched: u64 = report
        .shards
        .iter()
        .zip(&replayed.shards)
        .filter(|(a, b)| a.digest != b.digest || a.processed != b.processed)
        .map(|(a, _)| a.processed)
        .sum();
    failed += mismatched;
    let same_report = serde_json::to_string(&report).ok() == serde_json::to_string(&replayed).ok();
    if !same_report && mismatched == 0 {
        eprintln!("live: replayed report differs from the live report");
        failed = observations;
    }

    let loaded = load_snapshot(&settings.path(CHECKPOINT))
        .map_err(|e| format!("cannot load the final checkpoint: {e}"))?;
    let mut fresh = Supervisor::with_shards(SupervisorConfig::default(), HOSTS, |_| sraa());
    let restored = fresh.restore(&loaded).is_ok();
    if !(restored && live.snapshot().as_ref() == Some(&loaded) && fresh.snapshot() == Some(loaded))
    {
        eprintln!("live: the final checkpoint does not restore the live state");
        failed = observations;
    }
    Ok((failed.min(observations), events))
}

/// Replays the event log `monitord --replay --resume` style, so the
/// whole log never sits in memory: `REPLAY_CHUNK` events at a time
/// through `replay_events_resumed`, each chunk resuming from the
/// previous chunk's snapshot (taken on a batch boundary, so the final
/// report equals one uninterrupted `replay_events`). Also returns the
/// first `keep` events.
fn replay_log(path: &Path, keep: usize) -> Result<(Supervisor, Vec<MonitorEvent>), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let (mut kept, mut chunk) = (Vec::new(), Vec::with_capacity(REPLAY_CHUNK));
    let mut replayed: Option<Supervisor> = None;
    let mut lines = BufReader::new(file).lines().peekable();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let event: MonitorEvent = serde_json::from_str(&line)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        if kept.len() < keep {
            kept.push(event.clone());
        }
        chunk.push(event);
        if chunk.len() == REPLAY_CHUNK || lines.peek().is_none() {
            let snapshot = match &replayed {
                Some(sup) => Some(sup.snapshot().ok_or("SRAA supports snapshots")?),
                None => None,
            };
            let sup = replay_events_resumed(
                &chunk,
                SupervisorConfig::default(),
                HOSTS,
                |_| sraa(),
                snapshot.as_ref(),
            )
            .map_err(|e| format!("replay failed: {e}"))?;
            replayed = Some(sup);
            chunk.clear();
        }
    }
    let supervisor = replayed.ok_or_else(|| format!("{} is empty", path.display()))?;
    Ok((supervisor, kept))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Passes until their timed wall time reaches the settings' run length.
fn run_passes(settings: &Settings, yard: &mut Yardstick) -> Result<Vec<Segment>, String> {
    let mut passes = Vec::new();
    let mut timed_for = Duration::ZERO;
    while timed_for < settings.run_for() {
        let pass = run_pass(settings, false, yard)?;
        timed_for += pass.wall;
        passes.push(pass);
    }
    Ok(passes)
}

fn common_conditions(out: &mut Outcome, segments: &[Segment]) -> Result<(), String> {
    let txn_rates: Vec<f64> = segments.iter().flat_map(|s| s.txn_rates.clone()).collect();
    out.condition("hosts", HOSTS);
    out.condition("load_cpus_per_host", LOAD_CPUS);
    out.threads = 2;
    out.condition("thread_roles", "1 simulation, 1 parked pool worker");
    out.condition("passes", segments.len());
    out.condition("windows", txn_rates.len());
    out.condition("rate_spread", format!("{:.4}", spread(&txn_rates)?));
    out.condition("transactions", segments.iter().map(|s| s.txns).sum::<u64>());
    Ok(())
}

pub fn untraced(settings: &Settings) -> Result<Outcome, String> {
    let setup = || {
        setup_times(
            || build(settings, false, Instant::now()),
            |rig| finish(rig).map(drop),
        )
    };
    let mut yard = Yardstick::new();
    yard.sample(YARD_SAMPLES);
    let mut setup_s = setup()?;
    let segments = run_passes(settings, &mut yard)?;
    setup_s.extend(setup()?);
    yard.sample(YARD_SAMPLES);
    let mut latencies = WindowedLatencies::new();
    for segment in &segments {
        let windows = segment
            .collected
            .latencies
            .as_ref()
            .ok_or("untraced taps record latencies")?;
        latencies.append(windows);
    }
    let total = |field: fn(&Segment) -> u64| segments.iter().map(field).sum::<u64>();
    let (txns, observations) = (total(|s| s.txns), total(|s| s.observations));
    let secs: f64 = segments.iter().map(|s| s.wall.as_secs_f64()).sum();

    let mut out = Outcome::new();
    out.attempted = observations;
    out.failed = total(|s| s.failed);
    let slowdown = yard.report(&mut out)?;
    out.scaled("setup_s", median(&setup_s)?, "s", slowdown);
    out.scaled("txn_per_s", txns as f64 / secs, "1/s", slowdown);
    out.scaled("obs_per_s", observations as f64 / secs, "1/s", slowdown);
    let p50 = latencies.pooled_quantile(0.5);
    out.scaled("decision_p50_ns", p50, "ns", slowdown);
    let p95 = latencies.pooled_quantile(0.95);
    out.scaled("decision_p95_ns", p95, "ns", slowdown);
    // Read before the first pass's checks; later passes' readings hold
    // the replay's peak.
    out.metric("peak_rss_mb", segments[0].peak_rss_mib, "MiB");
    common_conditions(&mut out, &segments)?;
    out.condition("observations", observations);
    out.condition("decision_samples", latencies.samples());
    out.condition("setup_reps", setup_s.len());
    Ok(out)
}

pub fn traced(settings: &Settings) -> Result<Outcome, String> {
    let mut yard = Yardstick::new();
    let before = run_passes(&settings.half(), &mut yard)?;
    let seg = run_pass(settings, true, &mut yard)?;
    let after = run_passes(&settings.half(), &mut yard)?;
    let untraced = || before.iter().chain(&after);
    let checkpoints = std::mem::take(&mut *seg.tally.checkpoints.lock().expect("span lock"));
    let c = &seg.collected;
    write_spans(
        &settings.path("spans-live.tsv"),
        &[
            ("bridge", &c.bridge),
            ("checkpoint", &checkpoints),
            ("scrape", &c.scrapes),
        ],
    )?;

    let wall_ns = seg.wall.as_nanos() as f64;
    let txns = seg.txns as f64;
    let calls = c.bridge.len().max(1) as f64;
    let bridge_ns = total_ns(&c.bridge) as f64;
    let bridge_self_ns: f64 = c.bridge.iter().map(|s| s.self_ns() as f64).sum();
    let scrape_ns = total_ns(&c.scrapes) as f64;
    let checkpoint_ns = total_ns(&checkpoints[..seg.saves]) as f64;
    let write_ns = seg.write_ns as f64;
    let sim_self_ns = wall_ns - bridge_ns - scrape_ns;
    let call_ns = durations(&c.bridge);

    // Layer probes over the start of the stream this run logged.
    let stream: Vec<(usize, f64, f64)> = seg
        .events
        .iter()
        .filter_map(|event| match event {
            MonitorEvent::TimedBatch {
                shard,
                values,
                times,
                ..
            } => Some(
                values
                    .iter()
                    .zip(times)
                    .map(move |(&v, &at)| (*shard as usize, v, at)),
            ),
            _ => None,
        })
        .flatten()
        .collect();
    let min = Duration::from_millis(300);
    let items = stream.len() as u64;
    let sync_ns = probe(min, 5, || {
        let mut sup = Supervisor::with_shards(SupervisorConfig::default(), HOSTS, |_| sraa());
        let busy = timed(|| {
            for &(shard, value, at) in &stream {
                black_box(
                    sup.process_sync_at(shard, value, at)
                        .expect("no log attached"),
                );
            }
        });
        (items, busy)
    })?;
    let encode_ns = probe(min, 5, || {
        let mut log = EventLog::new(Box::new(io::sink()));
        let busy = timed(|| {
            for event in &seg.events {
                log.record(event).expect("io::sink never fails");
            }
        });
        (seg.events.len() as u64, busy)
    })?;
    let scalar_ns = probe(min, 5, || {
        let mut detectors: Vec<_> = (0..HOSTS).map(|_| sraa()).collect();
        let busy = timed(|| {
            for &(shard, value, at) in &stream {
                black_box(detectors[shard].observe_at(at, value));
            }
        });
        (items, busy)
    })?;

    let mut out = Outcome::new();
    out.attempted = seg.observations + untraced().map(|s| s.observations).sum::<u64>();
    out.failed = seg.failed + untraced().map(|s| s.failed).sum::<u64>();
    let obs = seg.observations.max(1) as f64;
    out.metric("sim.self_ns_per_txn", sim_self_ns / txns, "ns");
    out.metric("bridge.calls", c.bridge.len() as f64, "count");
    out.metric("bridge.call_p99_ns", quantile(&call_ns, 0.99)?, "ns");
    out.metric(
        "bridge.call_max_ns",
        call_ns.iter().copied().fold(0.0, f64::max),
        "ns",
    );
    out.metric("bridge.self_ns_per_call", bridge_self_ns / calls, "ns");
    out.metric("supervisor.sync_ns_per_obs", sync_ns, "ns");
    out.metric("event.bytes_per_obs", seg.log_bytes / obs, "B");
    out.metric("event.write_ns_per_obs", write_ns / obs, "ns");
    out.metric("event.encode_ns_per_event", encode_ns, "ns");
    out.metric("checkpoint.saves", checkpoints.len() as f64, "count");
    out.metric(
        "checkpoint.bytes",
        file_len(&settings.path(CHECKPOINT)),
        "B",
    );
    let saves: Vec<f64> = checkpoints
        .iter()
        .map(|s| f64::from(s.dur_ns) / 1e6)
        .collect();
    out.metric(
        "checkpoint.save_ms_mean",
        saves.iter().sum::<f64>() / saves.len().max(1) as f64,
        "ms",
    );
    out.metric(
        "checkpoint.save_ms_max",
        saves.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.metric("expo.scrapes", c.scrapes.len() as f64, "count");
    out.metric(
        "expo.render_us_mean",
        scrape_ns / 1e3 / c.scrapes.len().max(1) as f64,
        "us",
    );
    out.metric(
        "expo.body_bytes",
        c.scrape_bytes.last().copied().unwrap_or(0) as f64,
        "B",
    );
    out.metric("detector.sraa.scalar_ns_per_obs", scalar_ns, "ns");
    let plain_rates: Vec<f64> = untraced().flat_map(|s| s.txn_rates.clone()).collect();
    let plain_rate = median(&plain_rates)?;
    let traced_rate = median(&seg.txn_rates)?;
    out.metric(
        "trace.overhead_share",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    out.condition("untraced_txn_per_s", format!("{plain_rate:.0}"));
    out.condition("traced_txn_per_s", format!("{traced_rate:.0}"));

    common_conditions(&mut out, std::slice::from_ref(&seg))?;
    out.condition("observations", seg.observations);
    let share = |ns: f64| format!("{:.4}", ns / wall_ns);
    out.condition("wall_share.sim_self", share(sim_self_ns));
    out.condition("wall_share.bridge_self", share(bridge_self_ns));
    out.condition("wall_share.event_write", share(write_ns));
    out.condition("wall_share.checkpoint", share(checkpoint_ns));
    out.condition("wall_share.scrape", share(scrape_ns));
    out.condition(
        "wall_share.sum",
        share(sim_self_ns + bridge_self_ns + write_ns + checkpoint_ns + scrape_ns),
    );
    out.condition(
        "bridge_self_share.sync_probe",
        format!("{:.4}", sync_ns / (bridge_self_ns / calls)),
    );
    out.condition(
        "bridge_self_share.encode_probe",
        format!(
            "{:.4}",
            encode_ns * seg.events.len() as f64
                / stream.len().max(1) as f64
                / (bridge_self_ns / calls)
        ),
    );
    Ok(out)
}
