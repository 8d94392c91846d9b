//! `ingest`: the decoupled ingestion plane at saturation. The 4-kind
//! fleet of `examples/fleet.toml` (SRAA, SARAA, CLTA, CUSUM); one
//! producer thread offers a seeded, pregenerated response-time stream
//! to every shard round-robin through `ShardSender::send_batch_blocking`
//! in 256-sample batches; one `ConsumerPool` worker drains. No event
//! log, no checkpoints. Closed loop through back-pressure: the producer
//! runs at most one queue ahead of the decisions.
//!
//! The stream is the §3 model's own traffic: the response times each
//! host of `monitord --fleet`'s cluster (the `live` cluster, one fleet
//! detector per host) hands its detector, recorded before the timed
//! region.

use crate::common::{
    durations, median, peak_rss_mib, probe, quantile, setup_times, spread, timed, total_ns,
    write_spans, Latencies, Outcome, Settings, Span, WindowedLatencies, Yardstick, YARD_SAMPLES,
};
use crate::live;
use rejuv_core::{Decision, DetectorSpec, RejuvenationDetector};
use rejuv_monitor::{
    ConsumerPool, FleetConfig, Histogram, MonitorReport, ObsQueue, PoolStats, ShardSender,
    Supervisor, SupervisorConfig,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLEET: &str = include_str!("../fleet.toml");
/// Producer batch size.
const BATCH: usize = 256;
/// Pregenerated samples per shard; the producer cycles through them,
/// shifting timestamps forward by one stream length per cycle.
const STREAM_LEN: usize = 1 << 17;
const WINDOWS: u32 = 20;
/// How long the producer waits for the worker to empty the queues at a
/// window's end before it gives the run up.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Transactions per `ClusterSystem::run` call while recording.
const RECORD_CHUNK: u64 = 10_000;
/// The supervisor's value-histogram bucket bounds.
const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

fn fleet() -> Result<FleetConfig, String> {
    FleetConfig::parse(FLEET).map_err(|e| format!("fleet.toml: {e}"))
}

/// One shard's pregenerated input: the first `STREAM_LEN` response
/// times its host handed its detector, and when.
struct ShardStream {
    values: Vec<f64>,
    times: Vec<f64>,
    /// Simulated seconds one pass over the stream covers.
    period: f64,
}

impl ShardStream {
    fn is_full(&self) -> bool {
        self.values.len() == STREAM_LEN
    }

    /// The `(value, at)` samples of the shard's `k`-th batch.
    fn batch(&self, k: u64) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        let first = k as usize * BATCH;
        let cycle = (first / STREAM_LEN) as f64;
        let offset = first % STREAM_LEN;
        let shift = cycle * self.period;
        self.values[offset..offset + BATCH]
            .iter()
            .zip(&self.times[offset..offset + BATCH])
            .map(move |(&v, &at)| (v, at + shift))
    }

    /// The first `n` samples the producer offered this shard.
    fn prefix(&self, n: u64) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..n / BATCH as u64).flat_map(move |k| self.batch(k))
    }
}

/// A host's fleet detector, recording every response time it is shown
/// until its stream is full. Its decisions steer the cluster, so the
/// stream carries the model's degradation and the rejuvenations that
/// end it, as `monitord --fleet` would see them.
struct Recorder {
    inner: Box<dyn RejuvenationDetector>,
    stream: Arc<Mutex<ShardStream>>,
}

impl Recorder {
    fn record(&self, at: f64, value: f64) {
        let mut stream = self.stream.lock().expect("stream lock");
        if !stream.is_full() {
            stream.values.push(value);
            stream.times.push(at);
        }
    }
}

impl RejuvenationDetector for Recorder {
    fn observe(&mut self, value: f64) -> Decision {
        self.inner.observe(value)
    }

    fn observe_at(&mut self, at_secs: f64, value: f64) -> Decision {
        self.record(at_secs, value);
        self.inner.observe_at(at_secs, value)
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

/// Runs the `live` cluster with host `h` guarded by fleet detector `h`
/// until every host has shown its detector `STREAM_LEN` response times.
fn generate(seed: u64, specs: &[DetectorSpec]) -> Result<Vec<ShardStream>, String> {
    let mut cluster = live::cluster(seed)?;
    if cluster.hosts() != specs.len() {
        return Err(format!(
            "the fleet has {} shards, the cluster {} hosts",
            specs.len(),
            cluster.hosts()
        ));
    }
    let streams: Vec<Arc<Mutex<ShardStream>>> = (0..specs.len())
        .map(|_| {
            Arc::new(Mutex::new(ShardStream {
                values: Vec::with_capacity(STREAM_LEN),
                times: Vec::with_capacity(STREAM_LEN),
                period: 0.0,
            }))
        })
        .collect();
    let mut inner = Vec::new();
    for spec in specs {
        inner.push(spec.build().map_err(|e| e.to_string())?);
    }
    let mut inner = inner.into_iter();
    cluster.attach_detectors(|h| {
        Box::new(Recorder {
            inner: inner.next().expect("one detector per host"),
            stream: Arc::clone(&streams[h]),
        })
    });
    while !streams
        .iter()
        .all(|s| s.lock().expect("stream lock").is_full())
    {
        cluster.run(RECORD_CHUNK);
    }
    drop(cluster);
    streams
        .into_iter()
        .map(|stream| {
            let mut stream = Arc::into_inner(stream)
                .ok_or("a recorder outlived the cluster")?
                .into_inner()
                .map_err(|e| e.to_string())?;
            let span = stream.times[STREAM_LEN - 1] - stream.times[0];
            // The next cycle starts one mean gap after this one ends.
            stream.period = span + span / (STREAM_LEN - 1) as f64;
            Ok(stream)
        })
        .collect()
}

/// Bytes of pregenerated input the process holds, so that
/// `peak_rss_mb` can report the program's memory without them.
fn input_mib(streams: &[ShardStream]) -> f64 {
    let bytes: usize = streams
        .iter()
        .map(|s| (s.values.capacity() + s.times.capacity()) * std::mem::size_of::<f64>())
        .sum();
    bytes as f64 / (1024.0 * 1024.0)
}

struct Rig {
    senders: Vec<ShardSender>,
    pool: ConsumerPool,
}

/// The supervisor for the fleet, its senders and the one-worker pool.
fn build(specs: &[DetectorSpec]) -> Result<Rig, String> {
    let supervisor =
        Supervisor::with_specs(SupervisorConfig::default(), specs).map_err(|e| e.to_string())?;
    let senders = (0..supervisor.shard_count())
        .map(|s| supervisor.sender(s))
        .collect();
    let pool = ConsumerPool::spawn(supervisor);
    Ok(Rig { senders, pool })
}

fn finish(rig: Rig) -> Result<(Supervisor, PoolStats), String> {
    let joined = rig
        .pool
        .join()
        .map_err(|e| format!("consumer pool failed: {e}"))?;
    let supervisor = joined
        .supervisor
        .ok_or_else(|| "the pool did not hand the supervisor back".to_owned())?;
    Ok((supervisor, joined.stats))
}

/// Batches offered but not yet seen decided, per shard: the sample
/// count that completes the batch and when it was offered.
struct Pending(Vec<VecDeque<(u64, Instant)>>);

impl Pending {
    /// Resolves every batch whose samples have all left the shard's
    /// queue (`sent - backlog`), recording its enqueue→decision latency.
    fn settle(&mut self, senders: &[ShardSender], sent: &[u64], now: Instant, out: &mut Latencies) {
        for (shard, queue) in self.0.iter_mut().enumerate() {
            let decided = sent[shard].saturating_sub(senders[shard].backlog() as u64);
            while let Some(&(end, at)) = queue.front() {
                if end > decided {
                    break;
                }
                out.record(now.duration_since(at).as_nanos() as u64);
                queue.pop_front();
            }
        }
    }
}

struct Segment {
    wall: Duration,
    offered: u64,
    rates: Vec<f64>,
    latencies: WindowedLatencies,
    sends: Vec<Span>,
    report: MonitorReport,
    stats: PoolStats,
    peak_rss_mib: f64,
    failed: u64,
}

/// Offers the streams for the settings' run length. At each window's
/// end the producer waits until the worker has drained every queue and
/// samples `yard` while the pool is idle, off the clock.
fn run_segment(
    settings: &Settings,
    specs: &[DetectorSpec],
    streams: &[ShardStream],
    traced: bool,
    yard: &mut Yardstick,
) -> Result<Segment, String> {
    let rig = build(specs)?;
    let shards = rig.senders.len();
    let run_for = settings.run_for();
    let window = run_for / WINDOWS;
    let mut sent = vec![0u64; shards];
    let mut pending = Pending(vec![VecDeque::new(); shards]);
    let (mut rates, mut sends) = (Vec::new(), Vec::new());
    let mut latencies = WindowedLatencies::new();
    let mut timed_for = Duration::ZERO;
    yard.sample(1);
    let start = Instant::now();
    let (mut window_start, mut window_offered) = (start, 0u64);
    let mut k = 0u64;
    let mut offered = 0u64;
    while timed_for < run_for {
        for shard in 0..shards {
            let t0 = traced.then(Instant::now);
            let accepted = rig.senders[shard].send_batch_blocking(streams[shard].batch(k));
            let t1 = Instant::now();
            if let Some(t0) = t0 {
                sends.push(Span::between(start, t0, t1, 0));
            }
            if accepted != BATCH {
                return Err(format!(
                    "shard {shard} accepted {accepted} of {BATCH} samples"
                ));
            }
            sent[shard] += BATCH as u64;
            pending.0[shard].push_back((sent[shard], t1));
            pending.settle(&rig.senders, &sent, t1, &mut latencies.current);
        }
        offered += (shards * BATCH) as u64;
        k += 1;
        if window_start.elapsed() >= window {
            let drained = Instant::now();
            while rig.senders.iter().any(|s| s.backlog() > 0) {
                if drained.elapsed() > DRAIN_LIMIT {
                    return Err(format!("the queues did not drain within {DRAIN_LIMIT:?}"));
                }
                std::thread::yield_now();
            }
            let now = Instant::now();
            pending.settle(&rig.senders, &sent, now, &mut latencies.current);
            let elapsed = now.duration_since(window_start);
            rates.push((offered - window_offered) as f64 / elapsed.as_secs_f64());
            latencies.next_window();
            timed_for += elapsed;
            yard.sample(1);
            (window_start, window_offered) = (Instant::now(), offered);
        }
    }
    let (supervisor, stats) = finish(rig)?;
    let wall = timed_for;
    let peak_rss_mib = peak_rss_mib()? - input_mib(streams) - Yardstick::mib();
    let report = supervisor.report();
    let failed = check(specs, streams, &sent, &report)?;
    Ok(Segment {
        wall,
        offered,
        rates,
        latencies,
        sends,
        report,
        stats,
        peak_rss_mib,
        failed,
    })
}

/// Reference checks, outside the timed region. Every shard's digest,
/// count and rejuvenations must equal a serial single-threaded pass
/// (queue then `poll_shard` until empty) over the samples the producer
/// offered it; and over one stream cycle per shard, that
/// serial drain must agree with `process_sync_at` one sample at a time.
/// A full `process_sync` pass costs about ten times the timed run, so
/// it covers the cycle rather than the whole run. Returns failed
/// observations.
fn check(
    specs: &[DetectorSpec],
    streams: &[ShardStream],
    sent: &[u64],
    report: &MonitorReport,
) -> Result<u64, String> {
    let expected = serial_drain(specs, streams, sent)?;
    let offered: u64 = sent.iter().sum();
    let mut failed = report.total_dropped + offered.abs_diff(report.total_processed);
    for (live, want) in report.shards.iter().zip(&expected.shards) {
        if live.digest != want.digest
            || live.processed != want.processed
            || live.rejuvenations != want.rejuvenations
        {
            eprintln!(
                "ingest: shard {} disagrees with the serial reference",
                live.shard
            );
            failed += want.processed;
        }
    }

    let cycle = vec![STREAM_LEN as u64; streams.len()];
    let drained = serial_drain(specs, streams, &cycle)?;
    let mut one_by_one =
        Supervisor::with_specs(SupervisorConfig::default(), specs).map_err(|e| e.to_string())?;
    for (shard, stream) in streams.iter().enumerate() {
        for (value, at) in stream.prefix(STREAM_LEN as u64) {
            one_by_one
                .process_sync_at(shard, value, at)
                .map_err(|e| e.to_string())?;
        }
    }
    // Batch-size histograms differ by design; every per-shard figure,
    // digest included, must not.
    if one_by_one.report().shards != drained.shards {
        eprintln!("ingest: batched drain disagrees with process_sync over one stream cycle");
        failed = offered;
    }
    Ok(failed.min(offered))
}

/// A fresh supervisor fed the first `counts[shard]` samples of each
/// shard's stream on this thread, in producer-sized batches, draining
/// whenever a queue is full.
fn serial_drain(
    specs: &[DetectorSpec],
    streams: &[ShardStream],
    counts: &[u64],
) -> Result<MonitorReport, String> {
    let mut sup =
        Supervisor::with_specs(SupervisorConfig::default(), specs).map_err(|e| e.to_string())?;
    let batches_per_queue = (sup.config().queue_capacity / BATCH) as u64;
    for (shard, stream) in streams.iter().enumerate() {
        let sender = sup.sender(shard);
        for k in 0..counts[shard] / BATCH as u64 {
            if k > 0 && k % batches_per_queue == 0 {
                while sup.poll_shard(shard).map_err(|e| e.to_string())? > 0 {}
            }
            sender.send_batch(stream.batch(k));
        }
        while sup.poll_shard(shard).map_err(|e| e.to_string())? > 0 {}
    }
    Ok(sup.report())
}

pub fn untraced(settings: &Settings) -> Result<Outcome, String> {
    let fleet = fleet()?;
    let streams = generate(settings.seed, fleet.specs())?;
    let setup = || setup_times(|| build(fleet.specs()), |rig| finish(rig).map(drop));
    let mut yard = Yardstick::new();
    yard.sample(YARD_SAMPLES);
    let mut setup_s = setup()?;
    let seg = run_segment(settings, fleet.specs(), &streams, false, &mut yard)?;
    setup_s.extend(setup()?);
    yard.sample(YARD_SAMPLES);
    let latencies = &seg.latencies;

    let mut out = Outcome::new();
    out.attempted = seg.offered;
    out.failed = seg.failed;
    let slowdown = yard.report(&mut out)?;
    let rate = seg.offered as f64 / seg.wall.as_secs_f64();
    out.scaled("setup_s", median(&setup_s)?, "s", slowdown);
    // Every sample is one transaction's response time.
    out.scaled("txn_per_s", rate, "1/s", slowdown);
    out.scaled("obs_per_s", rate, "1/s", slowdown);
    let p50 = latencies.median_quantile(0.5)?;
    out.scaled("decision_p50_ns", p50, "ns", slowdown);
    let p95 = latencies.median_quantile(0.95)?;
    out.scaled("decision_p95_ns", p95, "ns", slowdown);
    out.metric("peak_rss_mb", seg.peak_rss_mib, "MiB");
    conditions(&mut out, &fleet, &seg)?;
    out.condition("decision_samples", latencies.samples());
    out.condition("setup_reps", setup_s.len());
    out.condition("input_mib", format!("{:.2}", input_mib(&streams)));
    Ok(out)
}

fn conditions(out: &mut Outcome, fleet: &FleetConfig, seg: &Segment) -> Result<(), String> {
    out.condition("fleet", fleet.summary());
    out.threads = 2;
    out.condition("thread_roles", "1 producer, 1 pool worker");
    out.condition("producer_batch", BATCH);
    out.condition("passes", seg.rates.len());
    out.condition("rate_spread", format!("{:.4}", spread(&seg.rates)?));
    out.condition("observations", seg.offered);
    let fired: Vec<String> = seg
        .report
        .shards
        .iter()
        .map(|s| format!("{}={}", s.detector, s.rejuvenations))
        .collect();
    out.condition("rejuvenations", fired.join(" "));
    Ok(())
}

pub fn traced(settings: &Settings) -> Result<Outcome, String> {
    let fleet = fleet()?;
    let specs = fleet.specs();
    let streams = generate(settings.seed, specs)?;
    let mut yard = Yardstick::new();
    let before = run_segment(&settings.half(), specs, &streams, false, &mut yard)?;
    let seg = run_segment(settings, specs, &streams, true, &mut yard)?;
    let after = run_segment(&settings.half(), specs, &streams, false, &mut yard)?;
    write_spans(
        &settings.path("spans-ingest.tsv"),
        &[("send_batch", &seg.sends)],
    )?;

    // Layer probes over the same pregenerated stream.
    let min = Duration::from_millis(300);
    let samples: u64 = streams.iter().map(|s| s.values.len() as u64).sum();
    let drain_batch = SupervisorConfig::default().drain_batch;
    let queue_capacity = SupervisorConfig::default().queue_capacity;
    let roundtrip_ns = probe(min, 50, || {
        let queue = ObsQueue::bounded(queue_capacity);
        let mut out = Vec::with_capacity(BATCH);
        let busy = timed(|| {
            for stream in &streams {
                for k in 0..(STREAM_LEN / BATCH) as u64 {
                    queue.push_batch(stream.batch(k));
                    queue.drain_into(&mut out, BATCH);
                    black_box(&out);
                    out.clear();
                }
            }
        });
        (samples, busy)
    })?;
    let drain_ns = probe(min, 50, || {
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), specs)
            .expect("fleet specs were validated");
        let mut busy = Duration::ZERO;
        for (shard, stream) in streams.iter().enumerate() {
            for (values, times) in stream
                .values
                .chunks(queue_capacity)
                .zip(stream.times.chunks(queue_capacity))
            {
                for (&v, &at) in values.iter().zip(times) {
                    sup.ingest_at(shard, v, at);
                }
                busy += timed(|| while sup.poll_shard(shard).expect("no log attached") > 0 {});
            }
        }
        (samples, busy)
    })?;
    let mut detector_ns = Vec::new();
    let mut out = Outcome::new();
    for (spec, stream) in specs.iter().zip(&streams) {
        let ns = probe(min / 4, 50, || {
            let mut detector = spec.build().expect("fleet specs were validated");
            let mut fired = Vec::new();
            let busy = timed(|| {
                for (i, chunk) in stream.values.chunks(drain_batch).enumerate() {
                    detector.observe_batch(chunk, &mut fired, (i * drain_batch) as u64);
                    fired.clear();
                }
            });
            (stream.values.len() as u64, busy)
        })?;
        detector_ns.push(ns);
        out.metric(
            format!("detector.{}.batch_ns_per_obs", spec.kind.cli_name()),
            ns,
            "ns",
        );
    }
    let histogram_ns = probe(min, 50, || {
        let mut histogram = Histogram::new(&VALUE_BOUNDS);
        let busy = timed(|| {
            for stream in &streams {
                for chunk in stream.values.chunks(drain_batch) {
                    histogram.record_slice(chunk);
                }
            }
        });
        black_box(histogram.count());
        (samples, busy)
    })?;

    out.attempted = before.offered + seg.offered + after.offered;
    out.failed = before.failed + seg.failed + after.failed;
    let obs = seg.offered as f64;
    let send_ns = total_ns(&seg.sends) as f64;
    out.metric("queue.send_ns_per_obs", send_ns / obs, "ns");
    out.metric(
        "queue.producer_waits",
        seg.report
            .shards
            .iter()
            .map(|s| s.producer_waits)
            .sum::<u64>() as f64,
        "count",
    );
    out.metric("queue.roundtrip_ns_per_obs", roundtrip_ns, "ns");
    out.metric("pool.parks", seg.stats.parks as f64, "count");
    out.metric("pool.steals", seg.stats.steals as f64, "count");
    let drains = seg
        .report
        .metrics
        .histograms
        .get("drain_batch_size")
        .map_or(0, Histogram::count);
    out.metric("pool.drains", drains as f64, "count");
    out.metric("drain.ns_per_obs", drain_ns, "ns");
    let plain_wall_ns = (before.wall + after.wall).as_nanos() as f64;
    out.metric(
        "drain.busy_share",
        drain_ns * (before.offered + after.offered) as f64 / plain_wall_ns,
        "ratio",
    );
    let detector_mean = detector_ns.iter().sum::<f64>() / detector_ns.len().max(1) as f64;
    out.metric(
        "drain.residual_ns_per_obs",
        drain_ns - detector_mean - histogram_ns,
        "ns",
    );
    out.metric("histogram.ns_per_obs", histogram_ns, "ns");
    let plain_rate = (median(&before.rates)? + median(&after.rates)?) / 2.0;
    let traced_rate = median(&seg.rates)?;
    out.metric(
        "trace.overhead_share",
        1.0 - traced_rate / plain_rate,
        "ratio",
    );
    out.condition("untraced_obs_per_s", format!("{plain_rate:.0}"));
    out.condition("traced_obs_per_s", format!("{traced_rate:.0}"));

    conditions(&mut out, &fleet, &seg)?;
    out.condition(
        "producer_send_share",
        format!("{:.4}", send_ns / seg.wall.as_nanos() as f64),
    );
    out.condition(
        "send_batch_p50_ns",
        format!("{:.0}", quantile(&durations(&seg.sends), 0.5)?),
    );
    out.condition(
        "decisions_per_drain",
        format!("{:.1}", obs / drains.max(1) as f64),
    );
    Ok(out)
}
