//! The synchronous bridge path beside a shared consumer pool.
//!
//! `MonitorBridge` calls decide (or push and drain) under the
//! supervisor lock, so they must never wake the pool's parked worker (a
//! wakeup would only find empty queues and contend for the lock).
//! Decoupled producers on the same shard keep their wakeups, and no
//! sample may be left in a queue with the worker asleep.
//!
//! A bridge call on an idle shard decides its sample in place instead
//! of queueing it. That direct path must leave exactly the artifacts of
//! the queued path — trace, report, checkpoints, digests and bus
//! events — and must step aside whenever samples are already queued or
//! dead-lettered.

use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_monitor::{
    ConsumerPool, EventBus, EventLog, OpEvent, ShardSender, SharedBuffer, SharedSupervisor,
    Supervisor, SupervisorConfig,
};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

fn value_at(i: u64) -> f64 {
    if (i / 40) % 6 == 5 {
        60.0
    } else {
        3.0 + (i % 7) as f64 * 0.5
    }
}

#[test]
fn bridge_calls_never_wake_a_shared_pool_worker() {
    let shared = SharedSupervisor::new(Supervisor::with_shards(
        SupervisorConfig::default(),
        4,
        |_| sraa(),
    ));
    let pool = ConsumerPool::spawn_shared(&shared);
    let mut bridges: Vec<_> = (0..4).map(|h| shared.bridge(h)).collect();
    for i in 0..10_000u64 {
        bridges[(i % 4) as usize].observe_at(i as f64 * 0.01, value_at(i));
    }
    let stats = pool.join().unwrap().stats;
    assert_eq!(
        stats.per_thread_drains,
        vec![0],
        "the bridges drained every observation themselves"
    );
    assert!(
        stats.parks <= 1,
        "the worker parks once and is never woken by a bridge call (parks = {})",
        stats.parks
    );
    assert_eq!(shared.report().total_processed, 10_000);
}

/// Waits until shard 0 has processed everything its queue accepted,
/// panicking if that never happens (a sample stranded with the worker
/// parked).
fn wait_until_drained(shared: &SharedSupervisor) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let shard = &shared.report().shards[0];
        if shard.processed == shard.accepted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{} accepted samples stranded with the worker parked",
            shard.accepted - shard.processed
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn mixed_sync_and_async_producers_strand_no_sample() {
    const ROUNDS: usize = 12;
    const BATCHES: u64 = 400;
    const BATCH: usize = 8;
    for _ in 0..ROUNDS {
        let config = SupervisorConfig {
            // Small enough that the lossy sender sometimes finds the
            // queue full, so drops are exercised too; a drain batch
            // below the sender's batch makes the sync path loop.
            queue_capacity: 32,
            drain_batch: 4,
            ..SupervisorConfig::default()
        };
        let shared = SharedSupervisor::new(Supervisor::with_shards(config, 2, |_| sraa()));
        let sender = shared.with(|s| s.sender(0));
        let pool = ConsumerPool::spawn_shared(&shared);
        let sending = AtomicBool::new(true);
        let bridge_calls = std::thread::scope(|scope| {
            // The bridge stops as soon as the sender does, so the
            // run ends on whatever the two left in flight together.
            let bridge = scope.spawn(|| {
                let mut bridge = shared.bridge(0);
                let mut calls = 0u64;
                while sending.load(Ordering::Acquire) {
                    bridge.observe_at(calls as f64, value_at(calls));
                    calls += 1;
                }
                calls
            });
            for b in 0..BATCHES {
                let batch: [(f64, f64); BATCH] =
                    std::array::from_fn(|k| (value_at(b * BATCH as u64 + k as u64), f64::NAN));
                sender.send_batch(batch);
                std::thread::yield_now();
            }
            sending.store(false, Ordering::Release);
            bridge.join().unwrap()
        });
        wait_until_drained(&shared);
        pool.join().unwrap();
        let shard = &shared.report().shards[0];
        let offered = bridge_calls + BATCHES * BATCH as u64;
        assert_eq!(shard.accepted + shard.dropped, offered);
        assert_eq!(shard.processed, offered - shard.dropped);
    }
}

/// One step of a scripted run on one shard.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A synchronous decision: a bridge call in the bridged run,
    /// `ingest_at` plus `poll_shard` until empty in the queued run.
    Sync(usize, f64, f64),
    /// A decoupled `ShardSender` push, left queued for the next sync
    /// call on its shard to drain (the same call in both runs).
    Send(usize, f64, f64),
    /// One `poll_shard` (one drain batch), as a consumer worker would
    /// run between sync calls.
    Poll(usize),
}

const SHARDS: usize = 3;

/// A script of `steps` sync calls round-robin over the shards; every
/// fifth sample is untimed (`NaN`), and every `burst_every`-th step
/// first leaves `burst` sender samples queued on its shard, followed
/// by one poll of that shard when `poll` is set.
fn script(steps: u64, burst_every: u64, burst: u64, poll: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut n = 0u64;
    let mut per_shard = [0u64; SHARDS];
    let mut next = |shard: usize| {
        n += 1;
        per_shard[shard] += 1;
        let at = if n.is_multiple_of(5) {
            f64::NAN
        } else {
            n as f64 * 0.01
        };
        (shard, value_at(per_shard[shard]), at)
    };
    for step in 0..steps {
        let shard = (step % SHARDS as u64) as usize;
        if step % burst_every == burst_every - 1 {
            for _ in 0..burst {
                let (shard, value, at) = next(shard);
                ops.push(Op::Send(shard, value, at));
            }
            if poll {
                ops.push(Op::Poll(shard));
            }
        }
        let (shard, value, at) = next(shard);
        ops.push(Op::Sync(shard, value, at));
    }
    ops
}

/// Everything a run leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Artifacts {
    trace: String,
    report: String,
    checkpoints: Vec<String>,
    bus: Vec<OpEvent>,
}

/// Queue sizing of a scripted run.
#[derive(Debug, Clone, Copy)]
struct Layout {
    queue_capacity: usize,
    drain_batch: usize,
    dlq: bool,
}

/// A supervisor with an event log, detector snapshots, a checkpoint
/// sink and a subscribed bus, plus the handles to read them back.
fn rig(
    layout: Layout,
) -> (
    Supervisor,
    SharedBuffer,
    Arc<Mutex<Vec<String>>>,
    rejuv_monitor::BusSubscription,
) {
    let config = SupervisorConfig {
        queue_capacity: layout.queue_capacity,
        drain_batch: layout.drain_batch,
        snapshot_every: Some(25),
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_shards(config, SHARDS, |_| sraa());
    if layout.dlq {
        sup.enable_dlq(64);
    }
    let bus = Arc::new(EventBus::new());
    let subscription = bus.subscribe(1 << 20);
    sup.set_bus(bus);
    let trace = SharedBuffer::new();
    sup.set_log(EventLog::new(Box::new(trace.clone())));
    let checkpoints = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&checkpoints);
    sup.set_checkpoint(
        40,
        Box::new(move |snapshot| {
            sink.lock()
                .unwrap()
                .push(serde_json::to_string(snapshot).unwrap());
            Ok(())
        }),
    );
    (sup, trace, checkpoints, subscription)
}

fn send(sup: &Supervisor, shard: usize, value: f64, at: f64) {
    let sender = sup.sender(shard);
    let offered = if at.is_nan() {
        sender.send(value)
    } else {
        sender.send_at(value, at)
    };
    assert!(offered, "the scripts never overflow the queue or the DLQ");
}

fn finish(
    mut sup: Supervisor,
    trace: SharedBuffer,
    checkpoints: Arc<Mutex<Vec<String>>>,
    subscription: rejuv_monitor::BusSubscription,
) -> Artifacts {
    sup.checkpoint_now().unwrap();
    sup.take_log().unwrap().flush().unwrap();
    assert_eq!(subscription.overflow(), 0);
    let checkpoints = std::mem::take(&mut *checkpoints.lock().unwrap());
    Artifacts {
        trace: String::from_utf8(trace.contents()).unwrap(),
        report: serde_json::to_string(&sup.report()).unwrap(),
        checkpoints,
        bus: subscription.drain(),
    }
}

/// Runs `ops` through per-shard `MonitorBridge`s.
fn bridged(ops: &[Op], layout: Layout) -> Artifacts {
    let (sup, trace, checkpoints, subscription) = rig(layout);
    let shared = SharedSupervisor::new(sup);
    let mut bridges: Vec<_> = (0..SHARDS).map(|h| shared.bridge(h)).collect();
    for &op in ops {
        match op {
            Op::Sync(shard, value, at) if at.is_nan() => {
                bridges[shard].observe(value);
            }
            Op::Sync(shard, value, at) => {
                bridges[shard].observe_at(at, value);
            }
            Op::Send(shard, value, at) => shared.with(|sup| send(sup, shard, value, at)),
            Op::Poll(shard) => {
                shared.with(|sup| sup.poll_shard(shard).unwrap());
            }
        }
    }
    drop(bridges);
    let sup = shared.try_into_inner().expect("every bridge dropped");
    finish(sup, trace, checkpoints, subscription)
}

/// Runs `ops` through the queue: `ingest_at`, then `poll_shard` until
/// the shard is empty.
fn queued(ops: &[Op], layout: Layout) -> Artifacts {
    let (mut sup, trace, checkpoints, subscription) = rig(layout);
    for &op in ops {
        match op {
            Op::Sync(shard, value, at) => {
                assert!(sup.ingest_at(shard, value, at), "never overflows");
                while sup.poll_shard(shard).unwrap() > 0 {}
            }
            Op::Send(shard, value, at) => send(&sup, shard, value, at),
            Op::Poll(shard) => {
                sup.poll_shard(shard).unwrap();
            }
        }
    }
    finish(sup, trace, checkpoints, subscription)
}

fn assert_same_artifacts(ops: &[Op], layout: Layout) -> Artifacts {
    let direct = bridged(ops, layout);
    let reference = queued(ops, layout);
    assert_eq!(direct.trace, reference.trace, "trace");
    assert_eq!(direct.report, reference.report, "report");
    assert_eq!(direct.checkpoints, reference.checkpoints, "checkpoints");
    assert_eq!(direct.bus, reference.bus, "bus events");
    direct
}

fn count(bus: &[OpEvent], pick: impl Fn(&OpEvent) -> bool) -> usize {
    bus.iter().filter(|e| pick(e)).count()
}

const SMALL: Layout = Layout {
    queue_capacity: 8,
    drain_batch: 4,
    dlq: false,
};

#[test]
fn direct_decisions_leave_the_queued_paths_bytes() {
    let run = assert_same_artifacts(&script(1_500, u64::MAX, 0, false), SMALL);
    let fired = count(&run.bus, |e| matches!(e, OpEvent::RejuvenationFired { .. }));
    assert!(fired > 0, "the stream fires rejuvenations");
    assert!(run.trace.contains("\"Batch\"") && run.trace.contains("\"TimedBatch\""));
    assert!(
        run.trace.contains("\"Snapshot\""),
        "detector snapshots logged"
    );
    assert!(run.checkpoints.len() > 30, "checkpoints streamed");
}

#[test]
fn samples_queued_by_a_sender_force_the_queued_path() {
    // Bursts of 6 behind a drain batch of 4: the falling-back sync call
    // drains two batches, the second ending on its own sample.
    let run = assert_same_artifacts(&script(1_500, 7, 6, false), SMALL);
    assert!(run.report.contains("\"processed\":"));
    let fired = count(&run.bus, |e| matches!(e, OpEvent::RejuvenationFired { .. }));
    assert!(fired > 0, "the stream fires rejuvenations");
}

#[test]
fn pending_dead_letters_force_the_queued_path() {
    // Bursts of 11 into a queue of 4 dead-letter 7 samples; one poll
    // then empties the queue while the DLQ still holds them, so only
    // the pending dead letters keep the sync call behind them.
    let layout = Layout {
        queue_capacity: 4,
        drain_batch: 4,
        dlq: true,
    };
    let run = assert_same_artifacts(&script(1_500, 7, 11, true), layout);
    let replays = count(&run.bus, |e| matches!(e, OpEvent::DlqReplayed { .. }));
    assert!(replays > 0, "dead letters were captured and replayed");
}

/// An event-log sink that offers one sample through a `ShardSender` on
/// each of its first `pushes` writes: a push landing while a sync call
/// is deciding, as a concurrent producer's would, but at a fixed point.
struct PushingSink {
    sender: ShardSender,
    pushes: u64,
}

impl Write for PushingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.pushes > 0 {
            self.pushes -= 1;
            assert!(self.sender.send(value_at(self.pushes)));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_push_landing_during_a_direct_decision_is_drained_by_the_same_call() {
    let mut sup = Supervisor::with_shards(SupervisorConfig::default(), 1, |_| sraa());
    sup.set_log(EventLog::new(Box::new(PushingSink {
        sender: sup.sender(0),
        pushes: 3,
    })));
    for i in 0..6u64 {
        // Each of the first three calls finds the shard idle and
        // decides in place; its log write queues one sample, which
        // the call must drain before it returns.
        sup.process_sync_at(0, value_at(i), i as f64).unwrap();
        let report = sup.report();
        assert_eq!(
            report.shards[0].processed, report.shards[0].accepted,
            "call {i} left a sample queued"
        );
    }
    assert_eq!(sup.report().shards[0].processed, 9);
}
