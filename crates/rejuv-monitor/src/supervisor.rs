//! The sharded detector supervisor.
//!
//! A [`Supervisor`] owns N independent monitored streams (*shards* — one
//! per cluster host, service instance, …). Each shard couples a bounded
//! ingestion queue ([`ObsQueue`]) to a boxed
//! [`RejuvenationDetector`]: producers push raw observations through a
//! [`ShardSender`] (possibly from another thread), the supervisor drains
//! them in batches through the detector and accounts for every sample —
//! processed, or dropped to back-pressure. All decisions, counters and
//! the per-shard FNV-1a decision digest are pure functions of each
//! shard's observation sequence, which is what makes a recorded run
//! exactly replayable.
//!
//! Observations may carry simulation timestamps ([`Supervisor::ingest_at`],
//! [`ShardSender::send_at`]): timed samples feed a per-run
//! `inter_observation_latency` histogram and are recorded as
//! [`MonitorEvent::TimedBatch`] so replay reproduces the histogram
//! bit-for-bit. Timestamps never enter the decision digest — a timed and
//! an untimed run over the same values agree on every decision digest.
//!
//! A supervisor can also stream *checkpoints*: a [`CheckpointSink`]
//! receives a full [`SupervisorSnapshot`] every `checkpoint_every`
//! processed observations ([`Supervisor::set_checkpoint`]) or every
//! `secs` seconds of an injectable [`CheckpointClock`]
//! ([`Supervisor::set_checkpoint_timer`]); the event log, if any, is
//! flushed first so the persisted log always covers the checkpoint.
//! [`Supervisor::restore`] rebuilds from a snapshot, rejecting mismatched
//! shard counts, detector kinds or specs, and snapshot versions with a
//! typed [`RestoreError`] instead of silently misapplying state.
//!
//! Fleets need not be homogeneous: [`Supervisor::with_specs`] builds one
//! shard per [`DetectorSpec`] (see [`crate::fleet::FleetConfig`]), each
//! shard's digest is seeded with its detector kind name, and reports
//! carry a per-kind [`DetectorKindReport`] rollup.

use crate::assurance::failpoints::fp;
use crate::bus::{EventBus, OpEvent};
use crate::dlq::{DeadLetterQueue, DlqStats};
use crate::event::{EventLog, MonitorEvent};
use crate::metrics::{Histogram, MetricsRegistry, MetricsReport};
use crate::queue::{ObsQueue, QueueBackend, UNTIMED};
use rejuv_core::{ConfigError, Decision, DetectorSnapshot, DetectorSpec, RejuvenationDetector};
use rejuv_sim::{Observation, ObservationSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Histogram bounds for observation values (seconds; the paper's SLA
/// puts µX at 5 s).
const VALUE_BOUNDS: [f64; 7] = [1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];
/// Histogram bounds for drain batch sizes.
const BATCH_BOUNDS: [f64; 5] = [1.0, 8.0, 64.0, 512.0, 4096.0];
/// Histogram bounds for inter-observation latency, seconds of
/// simulation time between consecutive timed samples of one shard.
const LATENCY_BOUNDS: [f64; 6] = [0.01, 0.05, 0.25, 1.0, 5.0, 25.0];

/// Version tag of [`SupervisorSnapshot`]'s serialised format; bumped on
/// incompatible layout changes so a stale checkpoint file is rejected
/// with a typed error instead of misapplied. Version 2 added the
/// per-shard [`DetectorSpec`] carried for heterogeneous fleets;
/// version 3 moved histogram and counter accumulation into each shard
/// ([`ShardSnapshot`] now carries the per-shard histograms), so a
/// restored run resumes the exact per-shard floating-point state no
/// matter how many consumer threads drained it. Version 4
/// ([`SNAPSHOT_VERSION_DLQ`]) adds the per-shard dead-letter queue
/// contents and counters; it is written only when a DLQ is attached
/// ([`Supervisor::enable_dlq`]), so default runs keep emitting v3
/// byte-identically.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Version tag written when any shard has a dead-letter queue attached:
/// the snapshot additionally carries [`SupervisorSnapshot::dlq`], so no
/// accepted-or-dead-lettered sample is lost across a crash.
pub const SNAPSHOT_VERSION_DLQ: u32 = 4;

/// Tuning knobs of a [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Capacity of each shard's ingestion queue; pushes beyond it are
    /// dropped and counted.
    pub queue_capacity: usize,
    /// Maximum observations processed per shard per poll.
    pub drain_batch: usize,
    /// Checkpoint cadence: emit a [`MonitorEvent::Snapshot`] every this
    /// many processed observations per shard (`None` disables).
    pub snapshot_every: Option<u64>,
    /// Which [`QueueBackend`] each shard's ingestion queue runs on.
    /// Purely an execution-strategy knob: digests, reports and replays
    /// are bitwise identical across backends.
    pub backend: QueueBackend,
    /// How many consumer threads a [`crate::ConsumerThread`] (backed by
    /// a [`crate::ConsumerPool`]) spawns to drain the shards. Another
    /// pure execution-strategy knob: whole-shard ownership keeps
    /// per-shard FIFO order, so digests, traces and checkpoints are
    /// bitwise identical across consumer counts. Default 1.
    pub consumers: usize,
    /// Debug knob: drain with the per-sample reference loop (one
    /// virtual `observe` call, digest fold and histogram bucket search
    /// per observation) instead of the batch kernel
    /// ([`rejuv_core::RejuvenationDetector::observe_batch`] plus bulk
    /// histogram recording). The two paths are bitwise-identical in
    /// every artifact — digests, traces, reports, checkpoints — which
    /// is exactly why this flag exists: flipping it is a one-flag A/B
    /// that CI `cmp`s. Default `false` (batch kernel).
    pub scalar_drain: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            queue_capacity: 8_192,
            drain_batch: 512,
            snapshot_every: None,
            backend: QueueBackend::Mutex,
            consumers: 1,
            scalar_drain: false,
        }
    }
}

/// Receives full supervisor checkpoints (see
/// [`Supervisor::set_checkpoint`]); typically persists them atomically
/// via [`crate::checkpoint::save_snapshot`].
pub type CheckpointSink = Box<dyn FnMut(&SupervisorSnapshot) -> io::Result<()> + Send>;

/// A monotonic seconds source for timer-based checkpoints (see
/// [`Supervisor::set_checkpoint_timer`]). Injected rather than read
/// from `std::time` so the cadence is unit-testable with synthetic
/// clock ticks.
pub type CheckpointClock = Box<dyn FnMut() -> f64 + Send>;

/// When the configured checkpoint stream emits.
enum CheckpointCadence {
    /// Every `n` *total* processed observations (across shards).
    Every(u64),
    /// Whenever at least `secs` elapsed on `clock` since the last
    /// checkpoint, evaluated on drain-batch boundaries.
    Timer {
        secs: f64,
        clock: CheckpointClock,
        last_tick: f64,
    },
}

/// The configured checkpoint stream. Crate-visible so the consumer
/// pool can drive the same cadence/emit protocol without owning a
/// `&mut Supervisor`.
pub(crate) struct CheckpointStream {
    cadence: CheckpointCadence,
    /// Total processed observations at the last emitted checkpoint.
    last_total: u64,
    sink: CheckpointSink,
}

impl CheckpointStream {
    /// Whether a checkpoint is due at `total` processed observations.
    /// Timer cadences read their clock exactly once per evaluation.
    pub(crate) fn due(&mut self, total: u64) -> bool {
        match &mut self.cadence {
            CheckpointCadence::Every(every) => total / *every > self.last_total / *every,
            CheckpointCadence::Timer {
                secs,
                clock,
                last_tick,
            } => clock() - *last_tick >= *secs,
        }
    }

    /// Hands `snapshot` to the sink and restarts the cadence window at
    /// `total` (timer cadences re-read their clock).
    pub(crate) fn emit(&mut self, snapshot: &SupervisorSnapshot, total: u64) -> io::Result<()> {
        (self.sink)(snapshot)?;
        self.last_total = total;
        if let CheckpointCadence::Timer {
            clock, last_tick, ..
        } = &mut self.cadence
        {
            *last_tick = clock();
        }
        Ok(())
    }
}

/// One monitored stream: a bounded ingestion queue, a boxed detector,
/// and *all* run accounting for that stream — counters, digest, and the
/// three per-shard histograms. Keeping the histograms per shard (rather
/// than in one shared registry) is what makes reports and checkpoints
/// byte-identical no matter how many consumer threads drained the fleet
/// or in what interleaving: each shard's floating-point accumulation
/// order is fixed by its own observation sequence, and the supervisor
/// folds shards in index order when it builds the merged registry.
/// Crate-visible so the consumer pool can own shards directly.
pub(crate) struct Shard {
    pub(crate) detector: Box<dyn RejuvenationDetector>,
    /// The declarative spec this shard was built from, when the
    /// supervisor was assembled from a fleet config ([`None`] for
    /// detectors handed in as opaque boxes).
    pub(crate) spec: Option<DetectorSpec>,
    pub(crate) queue: ObsQueue,
    /// Observations fed through the detector so far.
    pub(crate) processed: u64,
    /// Rejuvenate decisions returned so far.
    pub(crate) rejuvenations: u64,
    /// FNV-1a over every (value bits, decision) pair, in order.
    pub(crate) digest: u64,
    /// Timestamp of the last *timed* observation, for the
    /// inter-observation latency histogram (`None` before the first).
    pub(crate) last_at: Option<f64>,
    pub(crate) last_decision: Decision,
    /// Per-shard `observation_value` accumulation.
    pub(crate) value_hist: Histogram,
    /// Per-shard `drain_batch_size` accumulation.
    pub(crate) batch_hist: Histogram,
    /// Per-shard `inter_observation_latency` accumulation.
    pub(crate) latency_hist: Histogram,
    /// Detector snapshot events emitted for this shard.
    pub(crate) snapshots: u64,
    /// Synchronous feeds ([`Supervisor::process_sync`]) dropped to
    /// back-pressure.
    pub(crate) sync_drops: u64,
    /// Operational event bus, if one was attached via
    /// [`Supervisor::set_bus`]; the drain path publishes
    /// [`OpEvent::RejuvenationFired`] through it. Purely observational —
    /// never feeds back into decisions or artifacts.
    pub(crate) bus: Option<Arc<EventBus>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// One digest step of the determinism contract: folds a sample's
/// `(value bits, decision)` pair into the running FNV-1a-style digest
/// *word-at-a-time* — one xor-multiply for the value bits taken as one
/// 64-bit word, one for the decision. Two serial multiplies per sample
/// instead of nine: the digest is an inherently serial dependency
/// chain, and at nine multiplies it *was* the drain plane's critical
/// path, capping both drain kernels well below what the detector and
/// histogram work costs. Both the scalar and the batch drain use this
/// same fold, so the A/B byte-equality contract is unaffected.
#[inline]
fn fold_sample(digest: u64, value_bits: u64, fired: bool) -> u64 {
    let digest = (digest ^ value_bits).wrapping_mul(FNV_PRIME);
    (digest ^ fired as u64).wrapping_mul(FNV_PRIME)
}

impl Shard {
    /// The per-sample reference bookkeeping for one `(value, at)`
    /// sample: one virtual `observe` call, the counters, the digest
    /// fold, the last decision, the inter-observation latency and the
    /// value histogram.
    fn step(&mut self, value: f64, at: f64) -> Decision {
        let decision = self.detector.observe(value);
        self.processed += 1;
        self.digest = fold_sample(self.digest, value.to_bits(), decision.is_rejuvenate());
        if decision.is_rejuvenate() {
            self.rejuvenations += 1;
        }
        self.last_decision = decision;
        if at.is_finite() {
            if let Some(prev) = self.last_at {
                self.latency_hist.record(at - prev);
            }
            self.last_at = Some(at);
        }
        self.value_hist.record(value);
        decision
    }

    /// This shard's slice of a [`SupervisorSnapshot`]; `None` when the
    /// detector does not support snapshots.
    pub(crate) fn snapshot_view(&self) -> Option<ShardSnapshot> {
        Some(ShardSnapshot {
            detector: self.detector.snapshot()?,
            spec: self.spec,
            processed: self.processed,
            rejuvenations: self.rejuvenations,
            digest: self.digest,
            accepted: self.queue.accepted(),
            dropped: self.queue.dropped(),
            producer_waits: self.queue.waits(),
            last_at: self.last_at,
            value_hist: self.value_hist.clone(),
            batch_hist: self.batch_hist.clone(),
            latency_hist: self.latency_hist.clone(),
            snapshots: self.snapshots,
            sync_drops: self.sync_drops,
        })
    }

    /// This shard's slice of a [`MonitorReport`].
    pub(crate) fn report_view(&self, index: usize) -> ShardReport {
        ShardReport {
            shard: index as u32,
            detector: self.detector.name().to_owned(),
            processed: self.processed,
            accepted: self.queue.accepted(),
            dropped: self.queue.dropped(),
            producer_waits: self.queue.waits(),
            rejuvenations: self.rejuvenations,
            detector_triggers: self.detector.rejuvenation_count(),
            digest: format!("{:016x}", self.digest),
        }
    }
}

/// Reusable buffers for one drain path (the supervisor owns one, each
/// pool worker owns one): the raw `(value, timestamp)` batch popped
/// from the queue, the bare value slice handed to the detector's batch
/// kernel, and the fired sequence numbers it returns. One allocation
/// set per drain plane, reused across every drained batch.
#[derive(Default)]
pub(crate) struct DrainScratch {
    pub(crate) batch: Vec<(f64, f64)>,
    values: Vec<f64>,
    fired: Vec<u64>,
}

impl DrainScratch {
    pub(crate) fn with_capacity(drain_batch: usize) -> Self {
        DrainScratch {
            batch: Vec::with_capacity(drain_batch),
            values: Vec::with_capacity(drain_batch),
            fired: Vec::new(),
        }
    }
}

/// Drains up to `config.drain_batch` pending observations of one shard
/// through its detector, accumulating all metric state *inside the
/// shard* and appending the events a log would record (batch,
/// rejuvenations, detector snapshot — in that order) to `events` when
/// `logging` is set. Shared verbatim by [`Supervisor::poll_shard`]
/// (which writes the events through immediately) and the consumer
/// pool's workers (which buffer them per shard and flush shard-major at
/// checkpoint/join), so both paths process, count and hash identically
/// by construction. Returns how many observations were processed.
///
/// The pop is the only step of its own: the popped batch goes through
/// [`apply_batch`], which the direct synchronous path
/// ([`Supervisor::process_sync_at`]) also calls, on a one-sample batch
/// it never queued.
pub(crate) fn drain_shard(
    index: usize,
    shard: &mut Shard,
    config: &SupervisorConfig,
    scratch: &mut DrainScratch,
    logging: bool,
    events: &mut Vec<MonitorEvent>,
) -> usize {
    let batch = &mut scratch.batch;
    batch.clear();
    // Top up the main queue from the dead-letter queue (capture order)
    // before popping: the logical stream is `main queue ++ DLQ`, and
    // refilling first keeps every drained batch identical to the batch
    // an undropped run would have drained. No-op without a DLQ.
    shard.queue.replay_dead_letters();
    shard.queue.drain_into(batch, config.drain_batch);
    if batch.is_empty() {
        return 0;
    }
    if logging {
        let seq_start = shard.processed;
        let timed = batch.iter().any(|&(_, at)| at.is_finite());
        events.push(if timed {
            MonitorEvent::TimedBatch {
                shard: index as u32,
                seq: seq_start,
                values: batch.iter().map(|&(v, _)| v).collect(),
                times: batch.iter().map(|&(_, at)| at).collect(),
            }
        } else {
            MonitorEvent::Batch {
                shard: index as u32,
                seq: seq_start,
                values: batch.iter().map(|&(v, _)| v).collect(),
            }
        });
    }
    apply_batch(index, shard, config, scratch, logging, events);
    scratch.batch.len()
}

/// Runs the batch in `scratch.batch` through one shard: detector,
/// counters, digest, histograms (`drain_batch_size` included), the
/// `supervisor.drain-applied` failpoint, bus events, and the
/// rejuvenation and detector-snapshot events a log would record after
/// the batch's own record, appended to `events` when `logging` is set.
///
/// The hot path is the **batch kernel**: one virtual
/// [`RejuvenationDetector::observe_batch`] call per drained batch, the
/// decision digest folded from the returned fire list, bulk
/// [`Histogram::record_slice`] for the value/latency histograms and a
/// vectorized timestamp-diff pass. `config.scalar_drain` selects the
/// per-sample reference loop instead; both produce bitwise-identical
/// shard state (digest, counters, histograms) and identical events.
fn apply_batch(
    index: usize,
    shard: &mut Shard,
    config: &SupervisorConfig,
    scratch: &mut DrainScratch,
    logging: bool,
    events: &mut Vec<MonitorEvent>,
) {
    let batch = &scratch.batch;
    let seq_start = shard.processed;
    scratch.fired.clear();
    let fired = &mut scratch.fired;
    if config.scalar_drain {
        // Reference path: one virtual dispatch, digest fold and bucket
        // search per sample. Kept selectable so the batch kernel below
        // is always one flag away from an A/B byte comparison.
        for &(value, at) in batch.iter() {
            let seq = shard.processed;
            if shard.step(value, at).is_rejuvenate() {
                fired.push(seq);
            }
        }
    } else {
        // Batch kernel: one virtual call per drained sub-chunk instead
        // of one per sample. The detector contract (`observe_batch` ≡
        // per-sample `observe`, bitwise) lets every per-sample artifact
        // be reconstructed from the fire list: the digest folds (value
        // bits, decision byte) pairs by walking the ascending fired
        // sequence numbers, and the counters/last-decision derive from
        // its length and tail.
        // The batch is processed in small sub-chunks, each one kernel
        // call followed by one fused digest/histogram/latency pass:
        //
        // * the FNV digest is a serial multiply-xor dependency chain,
        //   so the (independent) bucket searches and timestamp diffs
        //   run *inside* the same loop, filling the multiplier's
        //   latency bubbles — a separate digest loop measurably costs
        //   the batch path its whole win;
        // * chunking keeps each kernel call and each fold short enough
        //   that the out-of-order window can overlap chunk `k`'s fold
        //   (latency-bound) with chunk `k+1`'s detector work
        //   (throughput-bound), instead of serialising two long loops.
        //
        // Byte-for-byte the same digest, histograms and fire list as
        // the scalar path: same fold order, same accumulation order,
        // same subtraction per timed pair.
        const DRAIN_CHUNK: usize = 32;
        let all_values = &mut scratch.values;
        all_values.clear();
        all_values.extend(batch.iter().map(|&(v, _)| v));
        let mut digest = shard.digest;
        let mut next_fired = 0;
        let mut last_at = shard.last_at;
        let latency_hist = &mut shard.latency_hist;
        let value_hist = &mut shard.value_hist;
        let pairs = &batch[..];
        let mut start = 0;
        while start < pairs.len() {
            let end = (start + DRAIN_CHUNK).min(pairs.len());
            let values = &all_values[start..end];
            shard
                .detector
                .observe_batch(values, fired, seq_start + start as u64);
            // Each chunk's kernel appends only sequence numbers inside
            // that chunk, and each chunk's fold consumes exactly those
            // — so `next_fired == fired.len()` on entry means this
            // chunk fired nothing, and the fold can drop the per-sample
            // fired compare and sequence arithmetic. Rejuvenations are
            // rare, so this is the overwhelmingly common shape.
            if next_fired == fired.len() {
                value_hist.record_slice_with(values, |i, value| {
                    digest = fold_sample(digest, value.to_bits(), false);
                    // Untimed producers (`at = NaN`) cost one
                    // predictable branch here.
                    let at = pairs[start + i].1;
                    if at.is_finite() {
                        if let Some(prev) = last_at {
                            latency_hist.record(at - prev);
                        }
                        last_at = Some(at);
                    }
                });
            } else {
                let fired_slice = &fired[..];
                value_hist.record_slice_with(values, |i, value| {
                    let seq = seq_start + (start + i) as u64;
                    let fired_here =
                        next_fired < fired_slice.len() && fired_slice[next_fired] == seq;
                    next_fired += fired_here as usize;
                    digest = fold_sample(digest, value.to_bits(), fired_here);
                    let at = pairs[start + i].1;
                    if at.is_finite() {
                        if let Some(prev) = last_at {
                            latency_hist.record(at - prev);
                        }
                        last_at = Some(at);
                    }
                });
            }
            start = end;
        }
        shard.digest = digest;
        shard.last_at = last_at;
        shard.processed += pairs.len() as u64;
        shard.rejuvenations += fired.len() as u64;
        shard.last_decision = if fired.last() == Some(&(shard.processed - 1)) {
            Decision::Rejuvenate
        } else {
            Decision::Continue
        };
    }
    shard.batch_hist.record(batch.len() as f64);
    fp!("supervisor.drain-applied");
    if let Some(bus) = shard.bus.as_ref() {
        for &seq in fired.iter() {
            bus.publish(OpEvent::RejuvenationFired {
                shard: index as u32,
                seq,
            });
        }
    }
    if logging {
        for &seq in fired.iter() {
            events.push(MonitorEvent::Rejuvenated {
                shard: index as u32,
                seq,
            });
        }
    }
    if let Some(every) = config.snapshot_every {
        let crossed = (shard.processed / every) > (seq_start / every);
        if crossed {
            if let Some(state) = shard.detector.snapshot() {
                shard.snapshots += 1;
                if logging {
                    events.push(MonitorEvent::Snapshot {
                        shard: index as u32,
                        seq: shard.processed - 1,
                        state,
                    });
                }
            }
        }
    }
}

/// Turns `event` into the log record of the one-sample batch
/// `(value, at)` — `TimedBatch`, or `Batch` when `at` is not finite —
/// reusing its vectors when it already holds that variant.
fn set_one_sample(event: &mut MonitorEvent, shard: u32, seq: u64, value: f64, at: f64) {
    match event {
        MonitorEvent::TimedBatch {
            shard: s,
            seq: q,
            values,
            times,
        } if at.is_finite() => {
            (*s, *q) = (shard, seq);
            values.clear();
            values.push(value);
            times.clear();
            times.push(at);
        }
        MonitorEvent::Batch {
            shard: s,
            seq: q,
            values,
        } if !at.is_finite() => {
            (*s, *q) = (shard, seq);
            values.clear();
            values.push(value);
        }
        _ if at.is_finite() => {
            *event = MonitorEvent::TimedBatch {
                shard,
                seq,
                values: vec![value],
                times: vec![at],
            };
        }
        _ => {
            *event = MonitorEvent::Batch {
                shard,
                seq,
                values: vec![value],
            };
        }
    }
}

/// Folds per-shard metric state (histograms and derived counters) into
/// a merged registry, in whatever order shards are [`MetricsFold::add`]ed
/// — callers add in shard-index order, which is what pins the merged
/// floating-point sums regardless of drain interleaving. Crate-visible
/// so the consumer pool can fold shards it holds behind per-shard locks.
pub(crate) struct MetricsFold {
    value: Histogram,
    batch: Histogram,
    latency: Histogram,
    processed: u64,
    rejuvenations: u64,
    snapshots: u64,
    sync_drops: u64,
    by_kind: BTreeMap<String, u64>,
}

impl MetricsFold {
    pub(crate) fn new() -> Self {
        MetricsFold {
            value: Histogram::new(&VALUE_BOUNDS),
            batch: Histogram::new(&BATCH_BOUNDS),
            latency: Histogram::new(&LATENCY_BOUNDS),
            processed: 0,
            rejuvenations: 0,
            snapshots: 0,
            sync_drops: 0,
            by_kind: BTreeMap::new(),
        }
    }

    /// Folds one shard in; call in shard-index order.
    pub(crate) fn add(&mut self, shard: &Shard) {
        self.value.merge(&shard.value_hist);
        self.batch.merge(&shard.batch_hist);
        self.latency.merge(&shard.latency_hist);
        self.processed += shard.processed;
        self.rejuvenations += shard.rejuvenations;
        self.snapshots += shard.snapshots;
        self.sync_drops += shard.sync_drops;
        *self
            .by_kind
            .entry(shard.detector.name().to_owned())
            .or_insert(0) += shard.rejuvenations;
    }

    /// Builds the full registry: the base registry (gauges plus any
    /// ad-hoc instruments) overlaid with the folded histograms and the
    /// derived counters. Counter presence mirrors the incremental
    /// behaviour the registry had when drains updated it directly:
    /// `observations_processed` and `rejuvenations` exist once anything
    /// was processed, `snapshots`/`observations_dropped` once nonzero,
    /// and `rejuvenations_{kind}` always exists for every kind present.
    pub(crate) fn apply(self, base: &MetricsRegistry) -> MetricsRegistry {
        let mut merged = base.clone();
        merged.insert_histogram("observation_value", self.value);
        merged.insert_histogram("drain_batch_size", self.batch);
        merged.insert_histogram("inter_observation_latency", self.latency);
        if self.processed > 0 {
            merged.inc("observations_processed", self.processed);
            merged.inc("rejuvenations", self.rejuvenations);
        }
        if self.snapshots > 0 {
            merged.inc("snapshots", self.snapshots);
        }
        if self.sync_drops > 0 {
            merged.inc("observations_dropped", self.sync_drops);
        }
        for (kind, fired) in self.by_kind {
            merged.inc(&format!("rejuvenations_{kind}"), fired);
        }
        merged
    }
}

/// Histogram names derived from per-shard state; excluded from the base
/// registry a restore rebuilds (they are re-merged on every export).
const DERIVED_HISTOGRAMS: [&str; 3] = [
    "observation_value",
    "drain_batch_size",
    "inter_observation_latency",
];
/// Counter names derived from per-shard state, plus every counter
/// starting with `rejuvenations`.
const DERIVED_COUNTERS: [&str; 3] = [
    "observations_processed",
    "snapshots",
    "observations_dropped",
];

/// A producer handle for one shard's ingestion queue.
///
/// Cheap to clone, safe to move to another thread, and usable as a
/// [`rejuv_sim::ObservationSink`], so an engine-driven model can feed a
/// supervisor without depending on this crate's types.
#[derive(Debug, Clone)]
pub struct ShardSender {
    shard: u32,
    queue: ObsQueue,
}

impl ShardSender {
    /// The shard this handle feeds.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Offers one untimed observation; `false` means it was dropped to
    /// back-pressure (and counted).
    pub fn send(&self, value: f64) -> bool {
        self.queue.push(value)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; `false` means dropped to back-pressure (and counted).
    pub fn send_at(&self, value: f64, at: f64) -> bool {
        self.queue.push_at(value, at)
    }

    /// Sends, waiting until queue space frees up (lossless producers).
    /// Bounded spin, then a condvar park — never an unbounded busy
    /// loop. Returns `false` only when the queue was shut down while
    /// this producer waited (the sample was not enqueued).
    pub fn send_blocking(&self, value: f64) -> bool {
        self.queue.push_blocking(value)
    }

    /// Offers a batch of `(value, at)` samples in one queue operation
    /// (one lock acquisition on the mutex backend, one tail publish on
    /// the ring), returning how many were accepted; the rest are
    /// counted as drops.
    pub fn send_batch<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.queue.push_batch(samples)
    }

    /// Sends a whole batch losslessly, parking between refills whenever
    /// the queue is full — the batched flavour of
    /// [`ShardSender::send_blocking`]. Returns how many samples were
    /// enqueued: short only when the queue was shut down while this
    /// producer waited.
    pub fn send_batch_blocking<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.queue.push_batch_blocking(samples)
    }

    /// Pending (sent, not yet drained) observations in this shard's
    /// queue.
    ///
    /// **Approximate under concurrent drain**: relaxed atomic loads, no
    /// locking — a concurrent consumer can make the value momentarily
    /// stale by up to one drain batch. Exact whenever no drain is in
    /// flight. The consumer pool reads the same hint as its
    /// work-stealing heat signal.
    pub fn backlog(&self) -> usize {
        self.queue.backlog_hint()
    }
}

impl ObservationSink for ShardSender {
    fn push(&mut self, observation: Observation) -> bool {
        self.queue
            .push_at(observation.value, observation.at.as_secs())
    }

    fn push_batch(&mut self, observations: &[Observation]) -> usize {
        self.queue
            .push_batch(observations.iter().map(|o| (o.value, o.at.as_secs())))
    }
}

/// Per-shard slice of a [`MonitorReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Detector kind supervising the shard.
    pub detector: String,
    /// Observations fed through the detector.
    pub processed: u64,
    /// Observations accepted into the queue over its lifetime.
    pub accepted: u64,
    /// Observations dropped to back-pressure.
    pub dropped: u64,
    /// Times a lossless (blocking) producer parked on back-pressure.
    pub producer_waits: u64,
    /// Rejuvenate decisions returned.
    pub rejuvenations: u64,
    /// Lifetime trigger count reported by the detector itself (survives
    /// snapshot/restore; equals `rejuvenations` for a fresh supervisor).
    pub detector_triggers: u64,
    /// FNV-1a digest over the (value, decision) sequence, hex-encoded.
    pub digest: String,
}

/// Per-detector-kind rollup inside a [`MonitorReport`]: in a mixed
/// fleet, how much work each algorithm family did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorKindReport {
    /// Detector kind name ([`RejuvenationDetector::name`]).
    pub detector: String,
    /// Shards running this kind.
    pub shards: u64,
    /// Observations processed by those shards.
    pub processed: u64,
    /// Rejuvenate decisions returned by those shards.
    pub rejuvenations: u64,
}

/// The final metrics report of a monitoring run.
///
/// Serialising this is byte-stable: a replayed run that processed the
/// same per-shard observation sequences produces an identical report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Per-shard accounting.
    pub shards: Vec<ShardReport>,
    /// Per-detector-kind rollup, sorted by kind name (one entry per
    /// kind present in the fleet).
    pub by_detector: Vec<DetectorKindReport>,
    /// Sum of `processed` over all shards.
    pub total_processed: u64,
    /// Sum of `dropped` over all shards.
    pub total_dropped: u64,
    /// Sum of `rejuvenations` over all shards.
    pub total_rejuvenations: u64,
    /// The metrics registry export.
    pub metrics: MetricsReport,
}

/// A complete supervisor checkpoint: every shard's detector state plus
/// the run accounting, restorable via [`Supervisor::restore`].
///
/// Serialisation is hand-written (not derived) so the `dlq` field is
/// *omitted* when empty: a supervisor without dead-letter queues keeps
/// producing checkpoints byte-identical to the v3 derived layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorSnapshot {
    /// Serialised-format version; see [`SNAPSHOT_VERSION`] and
    /// [`SNAPSHOT_VERSION_DLQ`].
    pub version: u32,
    /// Per-shard detector snapshots and counters, by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// The metrics registry export at checkpoint time.
    pub metrics: MetricsReport,
    /// Dead-letter state of every shard with a DLQ attached (empty for
    /// v3 checkpoints). Entries are present even when no samples are
    /// pending, so lifetime capture/replay/overflow counters survive a
    /// crash too.
    pub dlq: Vec<DlqSnapshot>,
}

impl Serialize for SupervisorSnapshot {
    fn serialize(&self, s: &mut serde::Serializer<'_>) {
        // Keys in sorted order, as the derived impls write them.
        let mut o = s.object();
        if !self.dlq.is_empty() {
            o.field("dlq", &self.dlq);
        }
        o.field("metrics", &self.metrics);
        o.field("shards", &self.shards);
        o.field("version", &self.version);
        o.end();
    }
}

impl Deserialize for SupervisorSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` for SupervisorSnapshot"))
            })
        };
        Ok(SupervisorSnapshot {
            version: Deserialize::from_value(field("version")?)?,
            shards: Deserialize::from_value(field("shards")?)?,
            metrics: Deserialize::from_value(field("metrics")?)?,
            // Absent in v3 checkpoints: default to no dead-letter state.
            dlq: match value.get("dlq") {
                Some(dlq) => Deserialize::from_value(dlq)?,
                None => Vec::new(),
            },
        })
    }
}

/// One shard's dead-letter state inside a [`SupervisorSnapshot`]
/// (format v4, see [`SNAPSHOT_VERSION_DLQ`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlqSnapshot {
    /// The shard this dead-letter queue serves.
    pub shard: u32,
    /// Pending `(value, at)` samples, oldest first — exactly what
    /// replay would re-ingest next.
    pub samples: Vec<(f64, f64)>,
    /// Lifetime samples captured when the checkpoint was taken.
    pub captured: u64,
    /// Lifetime samples replayed when the checkpoint was taken.
    pub replayed: u64,
    /// Lifetime samples lost to DLQ overflow when the checkpoint was
    /// taken.
    pub overflow: u64,
}

/// One shard's slice of a [`SupervisorSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// The detector's complete state.
    pub detector: DetectorSnapshot,
    /// The declarative spec the shard was configured from, when known.
    /// [`Supervisor::restore`] refuses a checkpoint whose spec disagrees
    /// with the configured shard's (same-kind knob drift included).
    pub spec: Option<DetectorSpec>,
    /// Observations processed when the checkpoint was taken.
    pub processed: u64,
    /// Rejuvenate decisions returned when the checkpoint was taken.
    pub rejuvenations: u64,
    /// Decision digest when the checkpoint was taken.
    pub digest: u64,
    /// Queue-lifetime accepted count when the checkpoint was taken.
    pub accepted: u64,
    /// Queue-lifetime dropped count when the checkpoint was taken.
    pub dropped: u64,
    /// Queue-lifetime blocking-producer parks when the checkpoint was
    /// taken.
    pub producer_waits: u64,
    /// Timestamp of the last timed observation, if any, so the
    /// inter-observation latency histogram resumes seamlessly.
    pub last_at: Option<f64>,
    /// Per-shard `observation_value` histogram at checkpoint time.
    /// Carried per shard (not only merged into
    /// [`SupervisorSnapshot::metrics`]) because floating-point sums are
    /// order-sensitive: a resume must restart each shard's own
    /// accumulation exactly where it stopped, or the resumed run's
    /// merged report would re-associate the sums and drift from the
    /// uninterrupted run's bytes.
    pub value_hist: Histogram,
    /// Per-shard `drain_batch_size` histogram at checkpoint time.
    pub batch_hist: Histogram,
    /// Per-shard `inter_observation_latency` histogram at checkpoint
    /// time.
    pub latency_hist: Histogram,
    /// Detector snapshot events emitted by this shard when the
    /// checkpoint was taken.
    pub snapshots: u64,
    /// Synchronous feeds dropped to back-pressure when the checkpoint
    /// was taken.
    pub sync_drops: u64,
}

/// Why [`Supervisor::restore`] refused a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The checkpoint's serialised format is from a different code
    /// generation.
    VersionMismatch {
        /// Version this build writes and understands.
        expected: u32,
        /// Version found in the checkpoint.
        found: u32,
    },
    /// The checkpoint was taken from a supervisor with a different
    /// number of shards.
    ShardCountMismatch {
        /// Shards in this supervisor.
        expected: usize,
        /// Shards in the checkpoint.
        found: usize,
    },
    /// A shard's detector rejected its snapshot (wrong kind or
    /// unsupported).
    Detector {
        /// The offending shard.
        shard: usize,
        /// The underlying error.
        source: rejuv_core::SnapshotError,
    },
    /// The checkpoint's per-shard spec disagrees with the configured
    /// shard's — same kind, different knobs (a kind mismatch surfaces
    /// as [`RestoreError::Detector`] first).
    SpecMismatch {
        /// The offending shard.
        shard: usize,
        /// Spec configured for this supervisor's shard (boxed to keep
        /// the error type small on the happy path).
        expected: Box<DetectorSpec>,
        /// Spec recorded in the checkpoint.
        found: Box<DetectorSpec>,
    },
    /// A v4 checkpoint carries dead-letter state for a shard that has
    /// no dead-letter queue attached (or names a shard out of range);
    /// call [`Supervisor::enable_dlq`] before restoring.
    DlqMismatch {
        /// Shard index recorded in the checkpoint's dead-letter entry.
        shard: u32,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::VersionMismatch { expected, found } => write!(
                f,
                "checkpoint format v{found} is not the supported v{expected}"
            ),
            RestoreError::ShardCountMismatch { expected, found } => write!(
                f,
                "checkpoint has {found} shards but the supervisor has {expected}"
            ),
            RestoreError::Detector { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            RestoreError::SpecMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "shard {shard}: checkpoint spec {found} does not match configured {expected}"
            ),
            RestoreError::DlqMismatch { shard } => write!(
                f,
                "checkpoint carries dead-letter state for shard {shard}, \
                 which has no dead-letter queue attached"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Why [`Supervisor::reload_specs`] refused a fleet hot-reload. The
/// supervisor is never mutated on error: validation of *every* spec
/// happens before any shard is rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The new fleet has a different number of shards — hot-reload can
    /// rebuild detectors in place but cannot resize the fleet.
    ShardCountMismatch {
        /// Shards in this supervisor.
        expected: usize,
        /// Specs in the proposed fleet.
        found: usize,
    },
    /// A proposed spec failed detector validation.
    Spec {
        /// The offending shard.
        shard: usize,
        /// The underlying validation error.
        source: ConfigError,
    },
    /// The shard was not built from a [`DetectorSpec`] (opaque boxed
    /// detector), so there is no baseline to diff the new spec against.
    NotFromSpecs {
        /// The offending shard.
        shard: usize,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::ShardCountMismatch { expected, found } => write!(
                f,
                "fleet has {found} shards but the supervisor has {expected}"
            ),
            ReloadError::Spec { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            ReloadError::NotFromSpecs { shard } => write!(
                f,
                "shard {shard} was not built from a spec; hot-reload needs a spec-built fleet"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

/// The sharded online monitoring runtime.
pub struct Supervisor {
    config: SupervisorConfig,
    shards: Vec<Shard>,
    /// Topology gauges and ad-hoc instruments only; per-shard metric
    /// state is folded in on export (see [`MetricsFold`]).
    metrics: MetricsRegistry,
    log: Option<EventLog>,
    scratch: DrainScratch,
    event_scratch: Vec<MonitorEvent>,
    /// The direct sync path's one-sample batch record, reused per call.
    sample_event: MonitorEvent,
    checkpoint: Option<CheckpointStream>,
    /// Operational event bus, if attached ([`Supervisor::set_bus`]).
    bus: Option<Arc<EventBus>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("config", &self.config)
            .field("shards", &self.shards.len())
            .field("logging", &self.log.is_some())
            .field("checkpointing", &self.checkpoint.is_some())
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Creates an empty supervisor; add streams with
    /// [`Supervisor::add_shard`].
    pub fn new(config: SupervisorConfig) -> Self {
        assert!(config.drain_batch > 0, "drain batch must be positive");
        assert!(config.consumers > 0, "consumer count must be positive");
        // The base registry holds only topology gauges (and any ad-hoc
        // instruments added via `metrics_mut`); histograms and the
        // processing counters live per shard and are folded in on every
        // export — see `MetricsFold`.
        let mut metrics = MetricsRegistry::new();
        metrics.set_gauge("shards", 0.0);
        Supervisor {
            scratch: DrainScratch::with_capacity(config.drain_batch),
            config,
            shards: Vec::new(),
            metrics,
            log: None,
            event_scratch: Vec::new(),
            sample_event: MonitorEvent::Batch {
                shard: 0,
                seq: 0,
                values: Vec::new(),
            },
            checkpoint: None,
            bus: None,
        }
    }

    /// Convenience: a supervisor with `shards` streams from a detector
    /// factory (shard index passed in).
    pub fn with_shards<F>(config: SupervisorConfig, shards: usize, mut factory: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn RejuvenationDetector>,
    {
        let mut sup = Supervisor::new(config);
        for i in 0..shards {
            sup.add_shard(factory(i));
        }
        sup
    }

    /// A (possibly heterogeneous) supervisor with one shard per spec,
    /// in order — the fleet-config construction path. Each shard
    /// remembers its spec, so checkpoints carry the full fleet topology
    /// and [`Supervisor::restore`] can reject spec drift per shard.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of the first invalid spec.
    pub fn with_specs(
        config: SupervisorConfig,
        specs: &[DetectorSpec],
    ) -> Result<Self, ConfigError> {
        let mut sup = Supervisor::new(config);
        for spec in specs {
            sup.add_shard_spec(*spec)?;
        }
        Ok(sup)
    }

    /// Adds a monitored stream supervised by `detector`; returns its
    /// shard index.
    pub fn add_shard(&mut self, detector: Box<dyn RejuvenationDetector>) -> usize {
        self.push_shard(detector, None)
    }

    /// Adds a monitored stream built from a declarative spec; returns
    /// its shard index.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the spec fails detector validation.
    pub fn add_shard_spec(&mut self, spec: DetectorSpec) -> Result<usize, ConfigError> {
        let detector = spec.build()?;
        Ok(self.push_shard(detector, Some(spec)))
    }

    fn push_shard(
        &mut self,
        detector: Box<dyn RejuvenationDetector>,
        spec: Option<DetectorSpec>,
    ) -> usize {
        // Seed the decision digest with the detector kind so a digest
        // certifies *which algorithm* decided, not just what it decided
        // — two kinds that happen to agree on a stream still produce
        // distinct digests.
        let digest = fnv1a(FNV_OFFSET, detector.name().as_bytes());
        let kind = detector.name();
        self.shards.push(Shard {
            detector,
            spec,
            queue: ObsQueue::with_backend(self.config.queue_capacity, self.config.backend),
            processed: 0,
            rejuvenations: 0,
            digest,
            last_at: None,
            last_decision: Decision::Continue,
            value_hist: Histogram::new(&VALUE_BOUNDS),
            batch_hist: Histogram::new(&BATCH_BOUNDS),
            latency_hist: Histogram::new(&LATENCY_BOUNDS),
            snapshots: 0,
            sync_drops: 0,
            bus: self.bus.clone(),
        });
        self.metrics.set_gauge("shards", self.shards.len() as f64);
        let of_kind = self
            .shards
            .iter()
            .filter(|s| s.detector.name() == kind)
            .count();
        self.metrics
            .set_gauge(&format!("shards_{kind}"), of_kind as f64);
        // The per-kind rejuvenation counter (`rejuvenations_{kind}`) is
        // not pre-registered here: `MetricsFold::apply` inserts one for
        // every kind present in the topology, fired or not.
        self.shards.len() - 1
    }

    /// The declarative spec `shard` was built from, when the supervisor
    /// was assembled from specs ([`None`] for opaque detectors).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn spec(&self, shard: usize) -> Option<&DetectorSpec> {
        self.shards[shard].spec.as_ref()
    }

    /// Number of monitored streams.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Attaches a JSONL event log; subsequent drains append to it.
    pub fn set_log(&mut self, log: EventLog) {
        self.log = Some(log);
    }

    /// Detaches and returns the event log, if any.
    pub fn take_log(&mut self) -> Option<EventLog> {
        self.log.take()
    }

    /// Streams checkpoints to `sink`: after every `every` *total*
    /// processed observations (across shards), the event log is flushed
    /// and a full [`SupervisorSnapshot`] is handed to the sink.
    ///
    /// Checkpoints always land on drain-batch boundaries, so a resumed
    /// run (see [`crate::replay_events_resumed`]) reproduces the
    /// uninterrupted run's report byte-for-byte. Checkpointing leaves no
    /// trace in metrics or digests: a run with checkpoints enabled
    /// reports identically to one without.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn set_checkpoint(&mut self, every: u64, sink: CheckpointSink) {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint = Some(CheckpointStream {
            cadence: CheckpointCadence::Every(every),
            last_total: self.total_processed(),
            sink,
        });
    }

    /// Streams checkpoints to `sink` on a *timer*: whenever at least
    /// `secs` have elapsed on `clock` since the last checkpoint, the
    /// next drain that processed observations emits one. The cadence is
    /// still evaluated on drain-batch boundaries, so resumed replays
    /// stay byte-identical exactly as with [`Supervisor::set_checkpoint`].
    ///
    /// `clock` is any monotonic seconds source — wall time in
    /// production (`Instant::elapsed`), injected ticks in tests, which
    /// is what keeps the cadence deterministic under test.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive and finite.
    pub fn set_checkpoint_timer(
        &mut self,
        secs: f64,
        mut clock: CheckpointClock,
        sink: CheckpointSink,
    ) {
        assert!(
            secs.is_finite() && secs > 0.0,
            "checkpoint timer must be positive"
        );
        let last_tick = clock();
        self.checkpoint = Some(CheckpointStream {
            cadence: CheckpointCadence::Timer {
                secs,
                clock,
                last_tick,
            },
            last_total: self.total_processed(),
            sink,
        });
    }

    /// Stops streaming checkpoints and returns the sink, if any.
    pub fn take_checkpoint(&mut self) -> Option<CheckpointSink> {
        self.checkpoint.take().map(|stream| stream.sink)
    }

    /// Attaches a bounded [`DeadLetterQueue`] (holding up to `capacity`
    /// samples) to every shard: lossy pushes that find a queue full
    /// *capture* the `(value, at)` sample instead of dropping it, and
    /// each drain replays captured samples back in FIFO order before
    /// popping — so under saturation `dropped` stays 0 and the decision
    /// digests match a run that never saturated. Checkpoints switch to
    /// format v4 ([`SNAPSHOT_VERSION_DLQ`]), carrying the DLQ contents.
    ///
    /// Call before [`Supervisor::set_bus`] (an already-attached bus is
    /// propagated here too) and before producers start. Shards added
    /// later are *not* retrofitted.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero, or a shard already has a DLQ attached.
    pub fn enable_dlq(&mut self, capacity: usize) {
        for (i, shard) in self.shards.iter().enumerate() {
            let dlq = Arc::new(DeadLetterQueue::new(i as u32, capacity));
            if let Some(bus) = self.bus.as_ref() {
                dlq.set_bus(Arc::clone(bus));
            }
            shard.queue.attach_dlq(dlq);
        }
    }

    /// Attaches an operational [`EventBus`]: the runtime publishes
    /// [`OpEvent`]s (rejuvenation fired, checkpoint written, queue
    /// saturated, samples dead-lettered/replayed/overflowed, shard
    /// rebuilt) through it. Purely observational — attaching a bus
    /// changes no report, trace, digest, or checkpoint byte.
    pub fn set_bus(&mut self, bus: Arc<EventBus>) {
        for shard in &mut self.shards {
            shard.bus = Some(Arc::clone(&bus));
            if let Some(dlq) = shard.queue.dlq() {
                dlq.set_bus(Arc::clone(&bus));
            }
        }
        self.bus = Some(bus);
    }

    /// The attached operational event bus, if any.
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// Whether any shard has a dead-letter queue attached.
    pub fn dlq_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.queue.dlq().is_some())
    }

    /// Dead-letter accounting for `shard`, or [`None`] when it has no
    /// DLQ attached.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn dlq_stats(&self, shard: usize) -> Option<DlqStats> {
        self.shards[shard].queue.dlq().map(|d| d.stats())
    }

    /// Dead-letter accounting summed over every shard with a DLQ
    /// attached (all zeros when none is).
    pub fn dlq_totals(&self) -> DlqStats {
        let mut totals = DlqStats::default();
        for shard in &self.shards {
            if let Some(stats) = shard.queue.dlq().map(|d| d.stats()) {
                totals.pending += stats.pending;
                totals.captured += stats.captured;
                totals.replayed += stats.replayed;
                totals.overflow += stats.overflow;
            }
        }
        totals
    }

    /// Hot-reloads the fleet from `specs`, rebuilding **exactly the
    /// drifted shards** (spec differs from the one in force) in place:
    /// a fresh detector is built from the new spec, while the shard's
    /// processed/rejuvenation counters, histograms, and queue (pending
    /// samples included) are kept. The new detector kind is folded into
    /// the shard's running digest, so the digest records the algorithm
    /// switch the same way construction seeds record the initial kind.
    /// Publishes [`OpEvent::ShardRebuilt`] per rebuilt shard when a bus
    /// is attached, and returns the rebuilt shard indices (empty when
    /// nothing drifted).
    ///
    /// Validation is all-or-nothing: every spec is checked (count,
    /// spec-built shard, detector validation) before any shard is
    /// mutated, mirroring [`Supervisor::restore`]'s contract.
    ///
    /// # Errors
    ///
    /// [`ReloadError`] with the supervisor untouched.
    pub fn reload_specs(&mut self, specs: &[DetectorSpec]) -> Result<Vec<usize>, ReloadError> {
        if specs.len() != self.shards.len() {
            return Err(ReloadError::ShardCountMismatch {
                expected: self.shards.len(),
                found: specs.len(),
            });
        }
        let mut rebuilt: Vec<(usize, Box<dyn RejuvenationDetector>)> = Vec::new();
        for (i, (spec, shard)) in specs.iter().zip(&self.shards).enumerate() {
            let Some(current) = shard.spec.as_ref() else {
                return Err(ReloadError::NotFromSpecs { shard: i });
            };
            if spec == current {
                continue;
            }
            let detector = spec
                .build()
                .map_err(|source| ReloadError::Spec { shard: i, source })?;
            rebuilt.push((i, detector));
        }
        let mut indices = Vec::with_capacity(rebuilt.len());
        for (i, detector) in rebuilt {
            let shard = &mut self.shards[i];
            let from = shard.detector.name().to_owned();
            let to = detector.name().to_owned();
            shard.detector = detector;
            shard.spec = Some(specs[i]);
            // Fold the new kind into the *running* digest (same scheme
            // as the construction seed): decisions after the rebuild
            // are certified as the new algorithm's.
            shard.digest = fnv1a(shard.digest, to.as_bytes());
            shard.last_decision = Decision::Continue;
            if let Some(bus) = shard.bus.as_ref() {
                bus.publish(OpEvent::ShardRebuilt {
                    shard: i as u32,
                    from,
                    to,
                });
            }
            indices.push(i);
        }
        if !indices.is_empty() {
            self.refresh_kind_gauges();
        }
        Ok(indices)
    }

    /// Recomputes every `shards_{kind}` topology gauge after a reload:
    /// gauges for kinds no longer present drop to zero rather than
    /// lingering at a stale count.
    fn refresh_kind_gauges(&mut self) {
        let stale: Vec<String> = self
            .metrics
            .report()
            .gauges
            .keys()
            .filter(|name| name.starts_with("shards_"))
            .cloned()
            .collect();
        for name in stale {
            self.metrics.set_gauge(&name, 0.0);
        }
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for shard in &self.shards {
            *counts
                .entry(format!("shards_{}", shard.detector.name()))
                .or_insert(0) += 1;
        }
        for (name, count) in counts {
            self.metrics.set_gauge(&name, count as f64);
        }
    }

    /// Sum of processed observations over all shards.
    pub fn total_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// A cloneable producer handle for `shard`'s ingestion queue.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn sender(&self, shard: usize) -> ShardSender {
        ShardSender {
            shard: shard as u32,
            queue: self.shards[shard].queue.clone(),
        }
    }

    /// The shard's ingestion queue (consumer threads attach their
    /// wakeup notifier through it).
    pub(crate) fn queue(&self, shard: usize) -> &ObsQueue {
        &self.shards[shard].queue
    }

    /// Offers one untimed observation to `shard`'s queue without
    /// draining; `false` means dropped to back-pressure.
    pub fn ingest(&self, shard: usize, value: f64) -> bool {
        self.shards[shard].queue.push(value)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; `false` means dropped to back-pressure.
    pub fn ingest_at(&self, shard: usize, value: f64, at: f64) -> bool {
        self.shards[shard].queue.push_at(value, at)
    }

    /// Drains up to `drain_batch` pending observations of one shard
    /// through its detector, logging the batch and any rejuvenations.
    /// Returns how many observations were processed.
    ///
    /// # Errors
    ///
    /// Propagates event-log and checkpoint-sink write failures; the
    /// shard state has already advanced past the processed observations.
    pub fn poll_shard(&mut self, shard: usize) -> io::Result<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.drain_one(shard, &mut scratch);
        self.scratch = scratch;
        if matches!(result, Ok(n) if n > 0) {
            self.maybe_checkpoint()?;
        }
        result
    }

    fn drain_one(&mut self, shard: usize, scratch: &mut DrainScratch) -> io::Result<usize> {
        let logging = self.log.is_some();
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        let n = drain_shard(
            shard,
            &mut self.shards[shard],
            &self.config,
            scratch,
            logging,
            &mut events,
        );
        let result = match self.log.as_mut() {
            Some(log) => events.iter().try_for_each(|event| log.record(event)),
            None => Ok(()),
        };
        self.event_scratch = events;
        result.map(|()| n)
    }

    /// Emits a checkpoint to the configured sink if the cadence was
    /// crossed since the last one. The event log is flushed first so a
    /// persisted log always covers (at least) the checkpointed prefix —
    /// the invariant crash recovery relies on.
    fn maybe_checkpoint(&mut self) -> io::Result<()> {
        let total = self.total_processed();
        let Some(stream) = self.checkpoint.as_mut() else {
            return Ok(());
        };
        if !stream.due(total) {
            return Ok(());
        }
        self.checkpoint_now()
    }

    /// Immediately emits a checkpoint to the configured sink (no-op
    /// without one, or when a shard's detector cannot snapshot).
    ///
    /// # Errors
    ///
    /// Propagates log-flush and sink failures.
    pub fn checkpoint_now(&mut self) -> io::Result<()> {
        if self.checkpoint.is_none() {
            return Ok(());
        }
        fp!("supervisor.checkpoint-flush");
        if let Some(log) = self.log.as_mut() {
            log.flush()?;
        }
        let Some(snapshot) = self.snapshot() else {
            return Ok(());
        };
        fp!("supervisor.checkpoint-emit");
        let total = self.total_processed();
        if let Some(stream) = self.checkpoint.as_mut() {
            stream.emit(&snapshot, total)?;
        }
        if let Some(bus) = self.bus.as_ref() {
            bus.publish(OpEvent::CheckpointWritten {
                total_processed: total,
            });
        }
        Ok(())
    }

    /// Polls every shard once, round-robin; returns total observations
    /// processed.
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn poll_all(&mut self) -> io::Result<usize> {
        let mut total = 0;
        for shard in 0..self.shards.len() {
            total += self.poll_shard(shard)?;
        }
        Ok(total)
    }

    /// Synchronously feeds one untimed observation and drains the shard
    /// until its queue is empty, returning the decision for the *last*
    /// processed observation (i.e. this one, when the queue was empty).
    ///
    /// This is the live-attachment path: a model that needs a decision
    /// per observation degenerates the batched drain to batch size 1,
    /// while decoupled producers keep the full batching. When the
    /// shard has nothing pending, the sample is decided in place
    /// without passing through the queue; see
    /// [`Supervisor::process_sync_at`].
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn process_sync(&mut self, shard: usize, value: f64) -> io::Result<Decision> {
        self.process_sync_sample(shard, value, UNTIMED)
    }

    /// [`Supervisor::process_sync`] with a simulation timestamp, feeding
    /// the inter-observation latency histogram.
    ///
    /// **Direct decision.** When the shard's queue is empty and its
    /// dead-letter queue (if any) holds nothing, the sample is decided
    /// in place: the drain of a one-sample batch, without the push, the
    /// pop or the event built for it. Counters, digest, histograms
    /// (`drain_batch_size` records 1), bus events, log bytes, detector
    /// snapshots and checkpoints come out exactly as that drain's
    /// would. Otherwise the sample queues behind the pending ones and
    /// the shard is drained to empty, as any other push would be.
    ///
    /// # Errors
    ///
    /// Propagates event-log write failures.
    pub fn process_sync_at(&mut self, shard: usize, value: f64, at: f64) -> io::Result<Decision> {
        self.process_sync_sample(shard, value, at)
    }

    /// Neither path wakes a consumer worker: the direct path never
    /// pushes, and the queued path pushes quietly and drains
    /// the shard to empty itself before returning, so a wakeup would
    /// only send a parked worker after an empty queue (and into
    /// contention for the lock the caller holds). See
    /// [`ObsQueue::push_quiet_at`] for why nothing can be stranded. A
    /// concurrent producer's push that lands during a direct decision
    /// finds the queue empty and signals as usual; the backlog check
    /// after it drains whatever is already visible. (An event-log or
    /// checkpoint error ends the call early; callers treat it as fatal,
    /// as [`crate::MonitorBridge`] does.)
    fn process_sync_sample(&mut self, shard: usize, value: f64, at: f64) -> io::Result<Decision> {
        let queue = &self.shards[shard].queue;
        let idle = queue.backlog_hint() == 0 && queue.dlq().is_none_or(|dlq| dlq.pending() == 0);
        if idle {
            self.decide_in_place(shard, value, at)?;
            if self.shards[shard].queue.backlog_hint() == 0 {
                return Ok(self.shards[shard].last_decision);
            }
        } else if !self.shards[shard].queue.push_quiet_at(value, at) {
            self.shards[shard].sync_drops += 1;
        }
        while self.poll_shard(shard)? > 0 {}
        Ok(self.shards[shard].last_decision)
    }

    /// Decides one sample of an idle shard as a drained batch of one:
    /// [`apply_batch`] on the sample, then the same log records and
    /// checkpoint as `ingest_at` followed by `poll_shard`, in the same
    /// order, with no queue traffic. The batch's log record is
    /// `sample_event`, rewritten in place, so it allocates only when
    /// the sample switches between timed and untimed.
    fn decide_in_place(&mut self, index: usize, value: f64, at: f64) -> io::Result<()> {
        let shard = &mut self.shards[index];
        shard.queue.count_accepted();
        let seq = shard.processed;
        self.scratch.batch.clear();
        self.scratch.batch.push((value, at));
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        let logging = self.log.is_some();
        apply_batch(
            index,
            shard,
            &self.config,
            &mut self.scratch,
            logging,
            &mut events,
        );
        let result = match self.log.as_mut() {
            Some(log) => {
                set_one_sample(&mut self.sample_event, index as u32, seq, value, at);
                log.record(&self.sample_event)
                    .and_then(|()| events.iter().try_for_each(|event| log.record(event)))
            }
            None => Ok(()),
        };
        self.event_scratch = events;
        result?;
        self.maybe_checkpoint()
    }

    /// Observations processed by `shard` so far.
    pub fn processed(&self, shard: usize) -> u64 {
        self.shards[shard].processed
    }

    /// Rejuvenate decisions returned by `shard` so far.
    pub fn rejuvenations(&self, shard: usize) -> u64 {
        self.shards[shard].rejuvenations
    }

    /// Pending (ingested, not yet drained) observations of `shard`.
    ///
    /// **Approximate under concurrent drain**: the count is read with
    /// relaxed atomics and never takes the queue lock, so while a
    /// consumer thread is mid-drain it may lag or lead the true
    /// occupancy by up to one batch. That is exactly what the consumer
    /// pool wants from its work-stealing heat signal — a cheap,
    /// contention-free hint — and callers needing an exact figure should
    /// quiesce the consumers first (the count is exact when nobody is
    /// draining).
    pub fn backlog(&self, shard: usize) -> usize {
        self.shards[shard].queue.backlog_hint()
    }

    /// The metrics registry (for ad-hoc instruments around the runtime).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The full registry export: the base registry (gauges, ad-hoc
    /// instruments) overlaid with per-shard metric state folded in
    /// shard-index order — the order pin that keeps merged
    /// floating-point sums byte-stable across drain interleavings.
    fn merged_metrics(&self) -> MetricsRegistry {
        let mut fold = MetricsFold::new();
        for shard in &self.shards {
            fold.add(shard);
        }
        fold.apply(&self.metrics)
    }

    /// Exports the final report: per-shard accounting plus the metrics
    /// registry.
    pub fn report(&self) -> MonitorReport {
        let shards: Vec<ShardReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.report_view(i))
            .collect();
        let mut by_kind: std::collections::BTreeMap<&str, DetectorKindReport> =
            std::collections::BTreeMap::new();
        for s in &shards {
            let entry = by_kind
                .entry(s.detector.as_str())
                .or_insert_with(|| DetectorKindReport {
                    detector: s.detector.clone(),
                    shards: 0,
                    processed: 0,
                    rejuvenations: 0,
                });
            entry.shards += 1;
            entry.processed += s.processed;
            entry.rejuvenations += s.rejuvenations;
        }
        MonitorReport {
            total_processed: shards.iter().map(|s| s.processed).sum(),
            total_dropped: shards.iter().map(|s| s.dropped).sum(),
            total_rejuvenations: shards.iter().map(|s| s.rejuvenations).sum(),
            by_detector: by_kind.into_values().collect(),
            shards,
            metrics: self.merged_metrics().report(),
        }
    }

    /// Checkpoints every shard's detector state and the run accounting.
    ///
    /// Returns `None` if any shard's detector does not support
    /// snapshots (all-or-nothing: a partial checkpoint could not be
    /// restored coherently).
    pub fn snapshot(&self) -> Option<SupervisorSnapshot> {
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            shards.push(s.snapshot_view()?);
        }
        // One dead-letter entry per DLQ-attached shard, pending or not,
        // so lifetime counters survive a crash; the format version says
        // v4 exactly when any entry exists, keeping default (no-DLQ)
        // checkpoints byte-identical v3.
        let mut dlq = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(d) = s.queue.dlq() {
                let stats = d.stats();
                dlq.push(DlqSnapshot {
                    shard: i as u32,
                    samples: d.contents(),
                    captured: stats.captured,
                    replayed: stats.replayed,
                    overflow: stats.overflow,
                });
            }
        }
        Some(SupervisorSnapshot {
            version: if dlq.is_empty() {
                SNAPSHOT_VERSION
            } else {
                SNAPSHOT_VERSION_DLQ
            },
            shards,
            metrics: self.merged_metrics().report(),
            dlq,
        })
    }

    /// Restores a checkpoint taken by [`Supervisor::snapshot`]:
    /// detectors resume mid-epidemic, counters and metrics resume their
    /// totals. Pending queue contents are untouched.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] if the snapshot version is unknown, the shard
    /// counts differ, or a shard's snapshot belongs to a different
    /// detector kind than the one configured for that shard; the
    /// supervisor is unchanged on error.
    pub fn restore(&mut self, snapshot: &SupervisorSnapshot) -> Result<(), RestoreError> {
        if snapshot.version != SNAPSHOT_VERSION && snapshot.version != SNAPSHOT_VERSION_DLQ {
            return Err(RestoreError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: snapshot.version,
            });
        }
        // Dead-letter entries must land on shards that have a DLQ
        // attached — validated up front, like everything else.
        for entry in &snapshot.dlq {
            let attached = self
                .shards
                .get(entry.shard as usize)
                .is_some_and(|s| s.queue.dlq().is_some());
            if !attached {
                return Err(RestoreError::DlqMismatch { shard: entry.shard });
            }
        }
        if snapshot.shards.len() != self.shards.len() {
            return Err(RestoreError::ShardCountMismatch {
                expected: self.shards.len(),
                found: snapshot.shards.len(),
            });
        }
        // Validate every shard before mutating any: a snapshot whose
        // detector kind disagrees with the configured topology must not
        // silently swap the fleet's algorithms mid-run.
        let mut detectors = Vec::with_capacity(snapshot.shards.len());
        for (i, (shard, state)) in snapshot.shards.iter().zip(&self.shards).enumerate() {
            let expected = state.detector.name();
            let found = shard.detector.kind();
            if expected != found {
                return Err(RestoreError::Detector {
                    shard: i,
                    source: rejuv_core::SnapshotError::KindMismatch {
                        detector: expected,
                        snapshot: found,
                    },
                });
            }
            if let (Some(expected), Some(found)) = (state.spec.as_ref(), shard.spec.as_ref()) {
                if expected != found {
                    return Err(RestoreError::SpecMismatch {
                        shard: i,
                        expected: Box::new(*expected),
                        found: Box::new(*found),
                    });
                }
            }
            detectors.push(shard.detector.clone().into_detector());
        }
        for (state, (shard, detector)) in self
            .shards
            .iter_mut()
            .zip(snapshot.shards.iter().zip(detectors))
        {
            state.detector = detector;
            // The checkpoint is authoritative for the full shard state,
            // spec included (equality was enforced above when both
            // sides knew their spec).
            state.spec = shard.spec;
            state.processed = shard.processed;
            state.rejuvenations = shard.rejuvenations;
            state.digest = shard.digest;
            state
                .queue
                .resume_counters(shard.accepted, shard.dropped, shard.producer_waits);
            state.last_at = shard.last_at;
            state.last_decision = Decision::Continue;
            state.value_hist = shard.value_hist.clone();
            state.batch_hist = shard.batch_hist.clone();
            state.latency_hist = shard.latency_hist.clone();
            state.snapshots = shard.snapshots;
            state.sync_drops = shard.sync_drops;
        }
        // The snapshot's registry is a *merged* export: strip the
        // derived instruments back out so the base registry keeps only
        // gauges and ad-hoc state, and the restored per-shard histograms
        // and counters are folded in fresh on the next export (instead
        // of double-counted).
        let mut base = snapshot.metrics.clone();
        base.counters.retain(|name, _| {
            !DERIVED_COUNTERS.contains(&name.as_str()) && !name.starts_with("rejuvenations")
        });
        base.histograms
            .retain(|name, _| !DERIVED_HISTOGRAMS.contains(&name.as_str()));
        self.metrics = MetricsRegistry::from_report(&base);
        // The checkpoint is authoritative for dead-letter state too: a
        // v3 checkpoint (no entries) resets any attached DLQ, a v4 one
        // reinstates pending samples and lifetime counters wholesale.
        for shard in &self.shards {
            if let Some(dlq) = shard.queue.dlq() {
                dlq.reset();
            }
        }
        for entry in &snapshot.dlq {
            if let Some(dlq) = self.shards[entry.shard as usize].queue.dlq() {
                dlq.restore(
                    &entry.samples,
                    entry.captured,
                    entry.replayed,
                    entry.overflow,
                );
            }
        }
        if let Some(stream) = self.checkpoint.as_mut() {
            stream.last_total = snapshot.shards.iter().map(|s| s.processed).sum();
        }
        Ok(())
    }

    /// Decomposes the supervisor into the pieces the consumer pool
    /// distributes across threads (shards behind per-shard locks, the
    /// log/checkpoint/base-registry behind a control lock);
    /// [`Supervisor::from_parts`] reassembles after the pool joins.
    pub(crate) fn into_parts(self) -> SupervisorParts {
        SupervisorParts {
            config: self.config,
            shards: self.shards,
            metrics: self.metrics,
            log: self.log,
            checkpoint: self.checkpoint,
            bus: self.bus,
        }
    }

    /// Reassembles a supervisor from the pieces a consumer pool took
    /// apart; the inverse of [`Supervisor::into_parts`].
    pub(crate) fn from_parts(parts: SupervisorParts) -> Self {
        Supervisor {
            scratch: DrainScratch::with_capacity(parts.config.drain_batch),
            config: parts.config,
            shards: parts.shards,
            metrics: parts.metrics,
            log: parts.log,
            event_scratch: Vec::new(),
            sample_event: MonitorEvent::Batch {
                shard: 0,
                seq: 0,
                values: Vec::new(),
            },
            checkpoint: parts.checkpoint,
            bus: parts.bus,
        }
    }
}

/// A dismantled [`Supervisor`]: everything a [`crate::ConsumerPool`]
/// needs to drain shards from several threads and hand the supervisor
/// back intact at join.
pub(crate) struct SupervisorParts {
    pub(crate) config: SupervisorConfig,
    pub(crate) shards: Vec<Shard>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) log: Option<EventLog>,
    pub(crate) checkpoint: Option<CheckpointStream>,
    pub(crate) bus: Option<Arc<EventBus>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rejuv_core::{Clta, CltaConfig, SnapshotError, Sraa, SraaConfig};
    use std::sync::{Arc, Mutex};

    fn sraa() -> Box<dyn RejuvenationDetector> {
        Box::new(Sraa::new(
            SraaConfig::builder(5.0, 5.0)
                .sample_size(2)
                .buckets(2)
                .depth(1)
                .build()
                .unwrap(),
        ))
    }

    fn small() -> Supervisor {
        Supervisor::with_shards(
            SupervisorConfig {
                queue_capacity: 64,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            2,
            |_| sraa(),
        )
    }

    #[test]
    fn batched_drain_processes_in_fifo_order() {
        let mut sup = small();
        for i in 0..20 {
            assert!(sup.ingest(0, i as f64));
        }
        assert_eq!(sup.poll_shard(0).unwrap(), 8, "caps at drain_batch");
        assert_eq!(sup.poll_shard(0).unwrap(), 8);
        assert_eq!(sup.poll_shard(0).unwrap(), 4);
        assert_eq!(sup.poll_shard(0).unwrap(), 0);
        assert_eq!(sup.processed(0), 20);
        assert_eq!(sup.processed(1), 0, "shards are independent");
    }

    #[test]
    fn back_pressure_drops_are_counted_not_blocking() {
        let sup = Supervisor::with_shards(
            SupervisorConfig {
                queue_capacity: 4,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            1,
            |_| sraa(),
        );
        let sender = sup.sender(0);
        let mut accepted = 0;
        for i in 0..10 {
            if sender.send(i as f64) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        let report = sup.report();
        assert_eq!(report.shards[0].accepted, 4);
        assert_eq!(report.shards[0].dropped, 6);
        assert_eq!(report.total_dropped, 6);
    }

    #[test]
    fn process_sync_matches_a_bare_detector() {
        let mut sup = small();
        let mut reference = sraa();
        let values: Vec<f64> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    60.0
                } else {
                    4.0 + (i % 5) as f64
                }
            })
            .collect();
        for &v in &values {
            let expected = reference.observe(v);
            assert_eq!(sup.process_sync(0, v).unwrap(), expected);
        }
        assert_eq!(sup.rejuvenations(0), reference.rejuvenation_count());
    }

    #[test]
    fn digest_is_sensitive_to_decisions_and_values() {
        let mut a = small();
        let mut b = small();
        for v in [1.0, 2.0, 3.0] {
            a.process_sync(0, v).unwrap();
            b.process_sync(0, v).unwrap();
        }
        assert_eq!(a.report().shards[0].digest, b.report().shards[0].digest);
        b.process_sync(0, 4.0).unwrap();
        assert_ne!(a.report().shards[0].digest, b.report().shards[0].digest);
    }

    #[test]
    fn timestamps_feed_latency_histogram_but_not_digests() {
        let mut timed = small();
        let mut untimed = small();
        for i in 0..40 {
            let v = 4.0 + (i % 3) as f64;
            timed.process_sync_at(0, v, i as f64 * 0.5).unwrap();
            untimed.process_sync(0, v).unwrap();
        }
        // Identical values → identical digests, timestamps or not.
        assert_eq!(
            timed.report().shards[0].digest,
            untimed.report().shards[0].digest
        );
        let timed_report = timed.report();
        let hist = &timed_report.metrics.histograms["inter_observation_latency"];
        assert_eq!(hist.count(), 39, "one delta per consecutive timed pair");
        assert!((hist.mean() - 0.5).abs() < 1e-12);
        let untimed_report = untimed.report();
        let empty = &untimed_report.metrics.histograms["inter_observation_latency"];
        assert_eq!(empty.count(), 0, "untimed samples record no latency");
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut live = small();
        for i in 0..137 {
            live.process_sync(i % 2, 50.0 + (i % 3) as f64).unwrap();
        }
        let checkpoint = live.snapshot().expect("SRAA shards snapshot");

        // A fresh supervisor restored from the checkpoint must agree
        // with the uninterrupted one on every subsequent decision.
        let mut resumed = small();
        resumed.restore(&checkpoint).unwrap();
        for i in 0..300 {
            let shard = (i % 2) as usize;
            let v = 45.0 + (i % 4) as f64;
            assert_eq!(
                live.process_sync(shard, v).unwrap(),
                resumed.process_sync(shard, v).unwrap()
            );
        }
        assert_eq!(live.report(), resumed.report());
    }

    #[test]
    fn restore_rejects_wrong_shard_count() {
        let live = small();
        let checkpoint = live.snapshot().unwrap();
        let mut other = Supervisor::with_shards(SupervisorConfig::default(), 3, |_| sraa());
        assert_eq!(
            other.restore(&checkpoint),
            Err(RestoreError::ShardCountMismatch {
                expected: 3,
                found: 2,
            })
        );
    }

    #[test]
    fn restore_rejects_wrong_detector_kind() {
        let clta_sup = Supervisor::with_shards(SupervisorConfig::default(), 2, |_| {
            Box::new(Clta::new(CltaConfig::builder(5.0, 5.0).build().unwrap()))
        });
        let checkpoint = clta_sup.snapshot().unwrap();
        let mut sraa_sup = small();
        let before = sraa_sup.report();
        assert_eq!(
            sraa_sup.restore(&checkpoint),
            Err(RestoreError::Detector {
                shard: 0,
                source: SnapshotError::KindMismatch {
                    detector: "SRAA",
                    snapshot: "CLTA",
                },
            })
        );
        assert_eq!(sraa_sup.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn restore_rejects_unknown_version() {
        let live = small();
        let mut checkpoint = live.snapshot().unwrap();
        checkpoint.version = 99;
        let mut other = small();
        assert_eq!(
            other.restore(&checkpoint),
            Err(RestoreError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: 99,
            })
        );
    }

    #[test]
    fn checkpoint_sink_fires_on_cadence_and_respects_batch_boundaries() {
        let mut sup = small();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        sup.set_checkpoint(
            10,
            Box::new(move |snap| {
                let total: u64 = snap.shards.iter().map(|s| s.processed).sum();
                sink_seen.lock().unwrap().push(total);
                Ok(())
            }),
        );
        for i in 0..35 {
            sup.process_sync(i % 2, 5.0).unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &[10, 20, 30], "one checkpoint per crossed decade");
    }

    #[test]
    fn timer_checkpoints_follow_injected_clock_ticks() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity: 64,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &specs,
        )
        .unwrap();
        // A synthetic clock advancing 1 s per reading: checkpoints are
        // due once >= 3 s elapsed since the last emit, evaluated only
        // on drains that processed observations.
        let now = Arc::new(Mutex::new(0.0_f64));
        let clock_now = Arc::clone(&now);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        sup.set_checkpoint_timer(
            3.0,
            Box::new(move || {
                let mut t = clock_now.lock().unwrap();
                *t += 1.0;
                *t
            }),
            Box::new(move |snap| {
                let total: u64 = snap.shards.iter().map(|s| s.processed).sum();
                sink_seen.lock().unwrap().push(total);
                Ok(())
            }),
        );
        for i in 0..12 {
            sup.process_sync(i % 2, 5.0).unwrap();
        }
        // Construction reads the clock once (t=1). Each processed drain
        // reads it once more; every third drain crosses the 3 s budget
        // and emits (which re-reads the clock to restart the window).
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &[3, 6, 9, 12], "deterministic timer cadence");
    }

    #[test]
    fn restore_rejects_spec_drift_without_mutating_state() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let config = SupervisorConfig::default();
        let spec = DetectorSpec::new(DetectorKind::Sraa);
        let mut drifted = spec;
        drifted.buckets = 9;
        let mut donor = Supervisor::with_specs(config, &[drifted]).unwrap();
        for _ in 0..10 {
            donor.process_sync(0, 60.0).unwrap();
        }
        let checkpoint = donor.snapshot().unwrap();
        let mut sup = Supervisor::with_specs(config, &[spec]).unwrap();
        sup.process_sync(0, 4.0).unwrap();
        let before = sup.report();
        assert_eq!(
            sup.restore(&checkpoint),
            Err(RestoreError::SpecMismatch {
                shard: 0,
                expected: Box::new(spec),
                found: Box::new(drifted),
            })
        );
        assert_eq!(sup.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn digests_are_seeded_with_the_detector_kind() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        // Two kinds that agree on every decision for a tame stream must
        // still disagree on the digest: it certifies the algorithm too.
        let config = SupervisorConfig::default();
        let mut a =
            Supervisor::with_specs(config, &[DetectorSpec::new(DetectorKind::Sraa)]).unwrap();
        let mut b =
            Supervisor::with_specs(config, &[DetectorSpec::new(DetectorKind::Clta)]).unwrap();
        for _ in 0..50 {
            a.process_sync(0, 4.0).unwrap();
            b.process_sync(0, 4.0).unwrap();
        }
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.shards[0].rejuvenations, 0);
        assert_eq!(rb.shards[0].rejuvenations, 0);
        assert_ne!(ra.shards[0].digest, rb.shards[0].digest);
    }

    #[test]
    fn report_rolls_up_rejuvenations_per_detector_kind() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
            DetectorSpec::new(DetectorKind::Sraa),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for shard in 0..3 {
            for _ in 0..200 {
                sup.process_sync(shard, 80.0).unwrap();
            }
        }
        let report = sup.report();
        assert_eq!(report.by_detector.len(), 2, "one rollup entry per kind");
        let clta = &report.by_detector[0];
        let sraa = &report.by_detector[1];
        assert_eq!((clta.detector.as_str(), clta.shards), ("CLTA", 1));
        assert_eq!((sraa.detector.as_str(), sraa.shards), ("SRAA", 2));
        assert_eq!(clta.processed, 200);
        assert_eq!(sraa.processed, 400);
        assert_eq!(
            clta.rejuvenations + sraa.rejuvenations,
            report.total_rejuvenations
        );
        assert!(sraa.rejuvenations > 0, "sustained 80 s fires SRAA");
        // The per-kind metrics counters agree with the rollup.
        assert_eq!(
            report.metrics.counters["rejuvenations_SRAA"],
            sraa.rejuvenations
        );
        assert_eq!(
            report.metrics.counters["rejuvenations_CLTA"],
            clta.rejuvenations
        );
    }

    #[test]
    fn supervisor_snapshot_round_trips_through_json() {
        let mut sup = small();
        for i in 0..9 {
            sup.process_sync_at(0, 30.0, i as f64).unwrap();
        }
        let snap = sup.snapshot().unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let text = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn sender_works_as_observation_sink() {
        use rejuv_sim::Observation;
        let mut sup = small();
        let mut sink: Box<dyn ObservationSink> = Box::new(sup.sender(1));
        assert!(sink.push(Observation::at_secs(0.5, 42.0)));
        assert_eq!(sup.poll_shard(1).unwrap(), 1);
        assert_eq!(sup.processed(1), 1);
    }

    /// One spec-built SRAA shard with a deliberately tiny queue, so
    /// lossy sends saturate it.
    fn tiny_specced(queue_capacity: usize) -> Supervisor {
        use rejuv_core::{DetectorKind, DetectorSpec};
        Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &[DetectorSpec::new(DetectorKind::Sraa)],
        )
        .unwrap()
    }

    #[test]
    fn dlq_saturated_run_reports_identically_to_an_undropped_run() {
        // Saturated: capacity 8 (>= drain_batch, the replay-determinism
        // condition), so most of the burst dead-letters; replay at the
        // drain boundary must reconstruct the exact logical stream.
        let mut saturated = tiny_specced(8);
        saturated.enable_dlq(256);
        let mut roomy = tiny_specced(256);
        let values: Vec<f64> = (0..120)
            .map(|i| {
                if i % 9 == 0 {
                    75.0
                } else {
                    4.0 + (i % 5) as f64
                }
            })
            .collect();
        for &v in &values {
            assert!(saturated.ingest(0, v), "DLQ absorbs the overflow");
            assert!(roomy.ingest(0, v));
        }
        while saturated.poll_shard(0).unwrap() > 0 {}
        while roomy.poll_shard(0).unwrap() > 0 {}
        let totals = saturated.dlq_totals();
        assert!(totals.captured > 0, "the run must actually saturate");
        assert_eq!(totals.pending, 0);
        assert_eq!(totals.overflow, 0);
        assert_eq!(totals.captured, totals.replayed);
        // Same decisions, same digests, same counters: the DLQ made
        // back-pressure invisible to the report.
        assert_eq!(saturated.report(), roomy.report());
    }

    #[test]
    fn dlq_snapshot_round_trips_as_v4_and_restores_dead_letters() {
        let mut sup = tiny_specced(8);
        sup.enable_dlq(16);
        for i in 0..12 {
            // Timestamped samples: NaN (untimed) timestamps would defeat
            // the `assert_eq!` below, NaN never comparing equal.
            assert!(sup.ingest_at(0, 40.0 + i as f64, i as f64));
        }
        let snap = sup.snapshot().unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION_DLQ);
        assert_eq!(snap.dlq.len(), 1);
        assert_eq!(snap.dlq[0].shard, 0);
        assert_eq!(snap.dlq[0].samples.len(), 4, "12 offered, 8 queued");
        assert_eq!(snap.dlq[0].captured, 4);
        let text = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);

        let mut resumed = tiny_specced(8);
        resumed.enable_dlq(16);
        resumed.restore(&snap).unwrap();
        let stats = resumed.dlq_stats(0).unwrap();
        assert_eq!((stats.pending, stats.captured), (4, 4));
        // The reinstated dead letters replay on the next drain: the
        // queue itself was empty (pending queue contents are never
        // checkpointed), so exactly the 4 captured samples process.
        assert_eq!(resumed.poll_shard(0).unwrap(), 4);
        assert_eq!(resumed.dlq_stats(0).unwrap().pending, 0);
    }

    #[test]
    fn v4_checkpoint_into_a_dlq_less_supervisor_is_rejected() {
        let mut donor = tiny_specced(8);
        donor.enable_dlq(16);
        for i in 0..12 {
            donor.ingest(0, 40.0 + i as f64);
        }
        let snap = donor.snapshot().unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION_DLQ);
        let mut target = tiny_specced(8);
        let before = target.report();
        assert_eq!(
            target.restore(&snap),
            Err(RestoreError::DlqMismatch { shard: 0 })
        );
        assert_eq!(target.report(), before, "failed restore leaves no trace");
    }

    #[test]
    fn v3_checkpoint_resets_dead_letter_state_on_restore() {
        let donor = small();
        let snap = donor.snapshot().unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION, "no DLQ stays v3");
        let mut target = Supervisor::with_shards(
            SupervisorConfig {
                queue_capacity: 2,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            2,
            |_| sraa(),
        );
        target.enable_dlq(8);
        for i in 0..5 {
            target.ingest(0, i as f64);
        }
        assert!(target.dlq_stats(0).unwrap().pending > 0);
        target.restore(&snap).unwrap();
        // The checkpoint is authoritative: it predates the dead
        // letters, so they are gone.
        assert_eq!(target.dlq_totals(), DlqStats::default());
    }

    #[test]
    fn reload_rebuilds_only_drifted_shards_and_folds_the_digest() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for shard in 0..2 {
            for _ in 0..30 {
                sup.process_sync(shard, 5.0).unwrap();
            }
        }
        let before = sup.report();
        let mut next = specs;
        next[1] = DetectorSpec::new(DetectorKind::Cusum);
        assert_eq!(sup.reload_specs(&next).unwrap(), vec![1]);
        // The untouched shard is bit-for-bit untouched; the rebuilt one
        // keeps its counters and folds the new kind into its digest.
        let after = sup.report();
        assert_eq!(after.shards[0], before.shards[0]);
        assert_eq!(after.shards[1].processed, 30);
        let before_digest = u64::from_str_radix(&before.shards[1].digest, 16).unwrap();
        assert_eq!(
            after.shards[1].digest,
            format!("{:016x}", fnv1a(before_digest, b"CUSUM"))
        );
        assert_eq!(sup.spec(1), Some(&next[1]));
        // Topology gauges follow: the CLTA gauge drops to zero instead
        // of lingering.
        assert_eq!(after.metrics.gauges["shards_CLTA"], 0.0);
        assert_eq!(after.metrics.gauges["shards_CUSUM"], 1.0);
        assert_eq!(after.metrics.gauges["shards_SRAA"], 1.0);
        // Reloading the now-current fleet is a no-op.
        assert_eq!(sup.reload_specs(&next).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn reload_rejects_bad_fleets_without_mutating_any_shard() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let specs = [
            DetectorSpec::new(DetectorKind::Sraa),
            DetectorSpec::new(DetectorKind::Clta),
        ];
        let mut sup = Supervisor::with_specs(SupervisorConfig::default(), &specs).unwrap();
        for _ in 0..10 {
            sup.process_sync(0, 5.0).unwrap();
        }
        let before = sup.report();

        // Wrong shard count.
        assert!(matches!(
            sup.reload_specs(&specs[..1]),
            Err(ReloadError::ShardCountMismatch {
                expected: 2,
                found: 1,
            })
        ));
        // Shard 0 drifts to a *valid* spec, shard 1 to an invalid one:
        // validate-all-then-mutate means shard 0 must stay untouched.
        let mut bad = specs;
        bad[0] = DetectorSpec::new(DetectorKind::Cusum);
        bad[1].sample_size = 0;
        assert!(matches!(
            sup.reload_specs(&bad),
            Err(ReloadError::Spec { shard: 1, .. })
        ));
        assert_eq!(sup.report(), before, "failed reloads leave no trace");
        assert_eq!(sup.spec(0), Some(&specs[0]));

        // A closure-built fleet has no specs to diff against.
        let mut opaque = small();
        assert_eq!(
            opaque.reload_specs(&specs).unwrap_err(),
            ReloadError::NotFromSpecs { shard: 0 }
        );
    }

    #[test]
    fn bus_publishes_the_operational_event_stream() {
        use rejuv_core::{DetectorKind, DetectorSpec};
        let mut sup = Supervisor::with_specs(
            SupervisorConfig {
                queue_capacity: 4,
                drain_batch: 8,
                ..SupervisorConfig::default()
            },
            &[DetectorSpec::new(DetectorKind::Sraa)],
        )
        .unwrap();
        sup.enable_dlq(4);
        let bus = Arc::new(EventBus::new());
        sup.set_bus(Arc::clone(&bus));
        let sub = bus.subscribe(256);
        sup.set_checkpoint(8, Box::new(|_| Ok(())));

        // 4 queued, 4 dead-lettered, 2 overflowed.
        for i in 0..10 {
            sup.ingest(0, 60.0 + i as f64);
        }
        // Drain everything (replaying the dead letters), then push the
        // detector over its threshold so a rejuvenation fires.
        while sup.poll_shard(0).unwrap() > 0 {}
        while sup.rejuvenations(0) == 0 {
            sup.process_sync(0, 90.0).unwrap();
        }
        let events = sub.drain();
        let has = |pred: &dyn Fn(&OpEvent) -> bool| events.iter().any(pred);
        assert!(has(&|e| matches!(e, OpEvent::QueueSaturated { shard: 0 })));
        assert!(has(
            &|e| matches!(e, OpEvent::SamplesDeadLettered { shard: 0, count } if *count > 0)
        ));
        assert!(has(
            &|e| matches!(e, OpEvent::DlqOverflow { shard: 0, count } if *count > 0)
        ));
        assert!(has(
            &|e| matches!(e, OpEvent::DlqReplayed { shard: 0, count } if *count > 0)
        ));
        assert!(has(&|e| matches!(
            e,
            OpEvent::RejuvenationFired { shard: 0, .. }
        )));
        assert!(has(&|e| matches!(
            e,
            OpEvent::CheckpointWritten { total_processed } if *total_processed >= 8
        )));
        // Reload publishes the rebuild.
        let next = [DetectorSpec::new(DetectorKind::Clta)];
        sup.reload_specs(&next).unwrap();
        let events = sub.drain();
        assert!(events.iter().any(|e| matches!(
            e,
            OpEvent::ShardRebuilt { shard: 0, from, to } if from == "SRAA" && to == "CLTA"
        )));
        assert_eq!(sub.overflow(), 0);
    }
}
