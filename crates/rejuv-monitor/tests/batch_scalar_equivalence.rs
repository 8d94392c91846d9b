//! Batch-kernel versus scalar-drain A/B suite.
//!
//! `SupervisorConfig::scalar_drain` routes `drain_shard` through the
//! original per-sample loop instead of the batch kernels
//! (`observe_batch` + bulk histogram records + the vectorised
//! timestamp-diff pass). The knob is a debug/ablation switch, never a
//! semantic one: these tests run the same preloaded workload through
//! both paths — at every consumer count, for a
//! homogeneous SRAA fleet and the 4-kind example fleet — and require
//! the event-log trace, the final report JSON, the final checkpoint
//! JSON and every per-shard decision digest to match *byte for byte*.
//!
//! Preloading (pushing every observation before the pool spawns) pins
//! the drain-batch boundaries, so even the trace bytes are a pure
//! function of the workload and the comparison is exact.

use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_monitor::{
    ConsumerPool, EventLog, FleetConfig, SharedBuffer, Supervisor, SupervisorConfig,
};
use std::path::Path;

const FLEET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fleet.toml");
const CONSUMER_COUNTS: [usize; 3] = [1, 2, 4];

fn config(consumers: usize, scalar_drain: bool) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 2_048,
        drain_batch: 16,
        snapshot_every: Some(100),
        consumers,
        scalar_drain,
    }
}

fn sraa() -> Box<dyn RejuvenationDetector> {
    Box::new(Sraa::new(
        SraaConfig::builder(5.0, 5.0)
            .sample_size(2)
            .buckets(5)
            .depth(3)
            .build()
            .unwrap(),
    ))
}

/// Deterministic workload: mostly-healthy values with sustained spike
/// windows so detectors fire. Purely a function of `(shard, i)`.
fn value_at(shard: u64, i: u64) -> f64 {
    if ((i + shard * 11) / 31) % 7 == 6 {
        50.0 + (i % 5) as f64
    } else {
        3.0 + ((i + shard * 3) % 6) as f64 * 0.7
    }
}

/// Everything a run leaves behind that must be byte-stable.
struct Artifacts {
    trace: Vec<u8>,
    report: String,
    checkpoint: String,
    digests: Vec<String>,
}

/// Preloads the full workload, drains it through a consumer pool, and
/// collects the run's artefacts.
fn pool_run<F>(build: F, shards: usize, per_shard: u64) -> Artifacts
where
    F: FnOnce() -> Supervisor,
{
    let mut sup = build();
    let buffer = SharedBuffer::new();
    sup.set_log(EventLog::new(Box::new(buffer.clone())));
    for shard in 0..shards {
        let sender = sup.sender(shard);
        for i in 0..per_shard {
            assert!(
                sender.send(value_at(shard as u64, i)),
                "workload must fit the queue capacity (preloaded run)"
            );
        }
    }
    let pool = ConsumerPool::spawn(sup);
    let joined = pool.join().expect("pool drains cleanly");
    let mut sup = joined
        .supervisor
        .expect("owned pool returns the supervisor");
    sup.take_log()
        .expect("log attached")
        .flush()
        .expect("flush");
    let report = sup.report();
    let snapshot = sup.snapshot().expect("every detector here snapshots");
    Artifacts {
        trace: buffer.contents(),
        report: serde_json::to_string_pretty(&report).expect("render report"),
        checkpoint: serde_json::to_string_pretty(&snapshot).expect("render checkpoint"),
        digests: report.shards.iter().map(|s| s.digest.clone()).collect(),
    }
}

/// Runs every consumer count twice — batch kernel and
/// scalar drain — and requires the pairs to agree byte for byte.
fn kernel_ab_is_byte_identical<F>(build: F, shards: usize, per_shard: u64)
where
    F: Fn(SupervisorConfig) -> Supervisor,
{
    for consumers in CONSUMER_COUNTS {
        let batch = pool_run(|| build(config(consumers, false)), shards, per_shard);
        let scalar = pool_run(|| build(config(consumers, true)), shards, per_shard);
        assert_eq!(
            batch.digests, scalar.digests,
            "x{consumers}: batch kernel and scalar drain digests diverged"
        );
        assert_eq!(
            batch.trace, scalar.trace,
            "x{consumers}: trace bytes diverged between kernels"
        );
        assert_eq!(
            batch.report, scalar.report,
            "x{consumers}: report bytes diverged between kernels"
        );
        assert_eq!(
            batch.checkpoint, scalar.checkpoint,
            "x{consumers}: checkpoint bytes diverged between kernels"
        );
        assert!(
            !batch.trace.is_empty(),
            "the workload must actually record events"
        );
    }
}

#[test]
fn homogeneous_fleet_batch_and_scalar_drain_agree() {
    kernel_ab_is_byte_identical(
        |config| Supervisor::with_shards(config, 5, |_| sraa()),
        5,
        600,
    );
}

#[test]
fn mixed_fleet_batch_and_scalar_drain_agree() {
    let fleet = FleetConfig::load(Path::new(FLEET_PATH)).expect("example fleet parses");
    let shards = fleet.shard_count();
    assert!(shards >= 4, "the example fleet mixes four detector kinds");
    kernel_ab_is_byte_identical(
        move |config| Supervisor::with_specs(config, fleet.specs()).expect("fleet builds"),
        shards,
        500,
    );
}

/// The synchronous ingest/poll path (no pool, no threads) must also be
/// kernel-agnostic: `process_sync` drains through the same
/// `drain_shard`, so flipping `scalar_drain` may not move a single
/// digest bit or decision.
#[test]
fn sync_path_batch_and_scalar_drain_agree() {
    let run = |scalar_drain: bool| {
        let mut sup = Supervisor::with_shards(config(1, scalar_drain), 3, |_| sraa());
        let mut fired = Vec::new();
        for i in 0..2_000u64 {
            for shard in 0..3 {
                // Healthy traffic for the first three quarters, then a
                // sustained degradation so the chains definitely walk to
                // a trigger — the A/B must agree on *firing* runs too.
                let value = if i < 1_500 {
                    value_at(shard as u64, i)
                } else {
                    55.0 + (i % 7) as f64
                };
                let decision = sup.process_sync(shard, value).expect("no log attached");
                if decision.is_rejuvenate() {
                    fired.push((shard, i));
                }
            }
        }
        let report = sup.report();
        (
            fired,
            serde_json::to_string_pretty(&report).expect("render report"),
        )
    };
    let (batch_fired, batch_report) = run(false);
    let (scalar_fired, scalar_report) = run(true);
    assert_eq!(batch_fired, scalar_fired, "sync decisions diverged");
    assert_eq!(batch_report, scalar_report, "sync report bytes diverged");
    assert!(
        !batch_fired.is_empty(),
        "workload must trigger rejuvenations"
    );
}
