//! The synchronous bridge path beside a shared consumer pool.
//!
//! `MonitorBridge` calls push and drain under the supervisor lock, so
//! they must never wake the pool's parked worker (a wakeup would only
//! find empty queues and contend for the lock). Decoupled producers on
//! the same shard keep their wakeups, and no sample may be left in a
//! queue with the worker asleep.

use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_monitor::{ConsumerPool, QueueBackend, SharedSupervisor, Supervisor, SupervisorConfig};
use std::sync::atomic::{AtomicBool, Ordering};
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
fn wait_until_drained(shared: &SharedSupervisor, backend: QueueBackend) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let shard = &shared.report().shards[0];
        if shard.processed == shard.accepted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{backend:?}: {} accepted samples stranded with the worker parked",
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
    for backend in [QueueBackend::Mutex, QueueBackend::Ring, QueueBackend::FanIn] {
        for _ in 0..ROUNDS {
            let config = SupervisorConfig {
                // Small enough that the lossy sender sometimes finds the
                // queue full, so drops are exercised too; a drain batch
                // below the sender's batch makes the sync path loop.
                queue_capacity: 32,
                drain_batch: 4,
                backend,
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
                    if backend == QueueBackend::Ring {
                        // The ring is single-producer: a second producer
                        // must serialise with the bridge, here through
                        // the supervisor lock.
                        shared.with(|_| sender.send_batch(batch));
                    } else {
                        sender.send_batch(batch);
                    }
                    std::thread::yield_now();
                }
                sending.store(false, Ordering::Release);
                bridge.join().unwrap()
            });
            wait_until_drained(&shared, backend);
            pool.join().unwrap();
            let shard = &shared.report().shards[0];
            let offered = bridge_calls + BATCHES * BATCH as u64;
            assert_eq!(shard.accepted + shard.dropped, offered, "{backend:?}");
            assert_eq!(shard.processed, offered - shard.dropped, "{backend:?}");
        }
    }
}
