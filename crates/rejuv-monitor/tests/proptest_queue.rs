//! Conformance for [`ObsQueue`] against a reference model.
//!
//! Property tests drive the queue and an in-test `VecDeque`-plus-
//! capacity model through the same arbitrary sequence of push /
//! batch-push / blocking-push / drain operations and require identical
//! drained `(value, at)` sequences, accept/drop counts and lengths
//! after every step — the bounded-FIFO contract that digests, reports
//! and replays are built on. A second property pins batch pushes to the
//! same semantics as repeated single pushes. Threaded tests then cover
//! what single-threaded determinism cannot: loss-free shutdown drains
//! through a [`ConsumerPool`] and per-shard supervisor digest equality
//! with a serial reference under real producer/consumer concurrency.

use proptest::prelude::*;
use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};
use rejuv_monitor::{ConsumerPool, ObsQueue, Supervisor, SupervisorConfig, WorkNotifier};
use std::collections::VecDeque;
use std::sync::Arc;

/// One step of the deterministic interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// `push_at` — may drop when full.
    Push(f64, f64),
    /// `push_batch` — accepts a prefix, drops the rest.
    PushBatch(Vec<f64>),
    /// `push_blocking_at`, with the single-threaded convention that a
    /// full queue is first relieved by draining one sample (applied
    /// identically to queue and model, so blocking never deadlocks the
    /// test and the op still exercises the blocking entry points).
    PushBlocking(f64, f64),
    /// `drain_into` with the given batch limit.
    Drain(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..100.0, 0.0f64..50.0).prop_map(|(v, at)| Op::Push(v, at)),
        proptest::collection::vec(0.0f64..100.0, 0..12).prop_map(Op::PushBatch),
        (0.0f64..100.0, 0.0f64..50.0).prop_map(|(v, at)| Op::PushBlocking(v, at)),
        (1usize..8).prop_map(Op::Drain),
    ]
}

/// Timestamp a batch-pushed value carries.
fn batch_at(v: f64) -> f64 {
    v * 0.5
}

/// Applies one op to the queue, appending whatever it drains to `out`.
fn apply(q: &ObsQueue, op: &Op, out: &mut Vec<(f64, f64)>) {
    match op {
        Op::Push(v, at) => {
            q.push_at(*v, *at);
        }
        Op::PushBatch(values) => {
            q.push_batch(values.iter().map(|&v| (v, batch_at(v))));
        }
        Op::PushBlocking(v, at) => {
            if q.len() == q.capacity() {
                q.drain_into(out, 1);
            }
            q.push_blocking_at(*v, *at);
        }
        Op::Drain(max) => {
            q.drain_into(out, *max);
        }
    }
}

/// The bounded-FIFO contract, written as plainly as possible.
struct Model {
    buf: VecDeque<(f64, f64)>,
    capacity: usize,
    accepted: u64,
    dropped: u64,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            buf: VecDeque::new(),
            capacity,
            accepted: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, sample: (f64, f64)) {
        if self.buf.len() < self.capacity {
            self.buf.push_back(sample);
            self.accepted += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn drain(&mut self, out: &mut Vec<(f64, f64)>, max: usize) {
        let take = self.buf.len().min(max);
        out.extend(self.buf.drain(..take));
    }

    fn apply(&mut self, op: &Op, out: &mut Vec<(f64, f64)>) {
        match op {
            Op::Push(v, at) => self.push((*v, *at)),
            Op::PushBatch(values) => {
                for &v in values {
                    self.push((v, batch_at(v)));
                }
            }
            Op::PushBlocking(v, at) => {
                if self.buf.len() == self.capacity {
                    self.drain(out, 1);
                }
                self.push((*v, *at));
            }
            Op::Drain(max) => self.drain(out, *max),
        }
    }
}

/// Samples as bit patterns, so NaN timestamps compare equal too.
fn bits(samples: &[(f64, f64)]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|&(v, at)| (v.to_bits(), at.to_bits()))
        .collect()
}

proptest! {
    /// Any single-threaded interleaving of pushes, batch pushes,
    /// blocking pushes and drains leaves the queue in agreement with
    /// the model after every step: same drained samples (values *and*
    /// timestamps, bit-for-bit), same accept/drop accounting, same
    /// occupancy; and a final shutdown drain loses nothing.
    #[test]
    fn queue_matches_model_on_arbitrary_interleavings(
        capacity in 1usize..10,
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let queue = ObsQueue::bounded(capacity);
        let mut model = Model::new(capacity);
        let (mut out_q, mut out_m) = (Vec::new(), Vec::new());
        for op in &ops {
            apply(&queue, op, &mut out_q);
            model.apply(op, &mut out_m);
            prop_assert_eq!(bits(&out_q), bits(&out_m), "drained after {:?}", op);
            prop_assert_eq!(queue.accepted(), model.accepted, "accepted after {:?}", op);
            prop_assert_eq!(queue.dropped(), model.dropped, "dropped after {:?}", op);
            prop_assert_eq!(queue.len(), model.buf.len(), "len after {:?}", op);
            prop_assert_eq!(queue.backlog_hint(), model.buf.len(), "hint after {:?}", op);
        }
        // Shutdown, then the final drain: nothing accepted is lost.
        queue.shutdown();
        queue.drain_into(&mut out_q, usize::MAX);
        model.drain(&mut out_m, usize::MAX);
        prop_assert!(queue.is_empty());
        prop_assert_eq!(bits(&out_q), bits(&out_m));
        prop_assert_eq!(
            out_q.len() as u64,
            queue.accepted(),
            "every accepted sample was drained exactly once"
        );
    }

    /// `push_batch` is exactly repeated `push_at`: same accepted
    /// prefix, same drop count, same drained samples.
    #[test]
    fn batch_push_equals_repeated_singles(
        capacity in 1usize..10,
        prefill in 0usize..10,
        values in proptest::collection::vec(0.0f64..100.0, 0..20),
    ) {
        let batched = ObsQueue::bounded(capacity);
        let singles = ObsQueue::bounded(capacity);
        for i in 0..prefill.min(capacity) {
            batched.push(i as f64);
            singles.push(i as f64);
        }
        let accepted = batched.push_batch(values.iter().map(|&v| (v, v + 0.25)));
        let mut accepted_singles = 0;
        for &v in &values {
            accepted_singles += usize::from(singles.push_at(v, v + 0.25));
        }
        prop_assert_eq!(accepted, accepted_singles);
        prop_assert_eq!(batched.dropped(), singles.dropped());
        let (mut out_b, mut out_s) = (Vec::new(), Vec::new());
        batched.drain_into(&mut out_b, usize::MAX);
        singles.drain_into(&mut out_s, usize::MAX);
        // Bitwise: the NaN-timestamped prefill must compare equal too.
        prop_assert_eq!(bits(&out_b), bits(&out_s));
    }
}

fn detector() -> Box<dyn RejuvenationDetector> {
    Box::new(Sraa::new(
        SraaConfig::builder(5.0, 5.0)
            .sample_size(2)
            .buckets(5)
            .depth(3)
            .build()
            .unwrap(),
    ))
}

const SHARDS: usize = 3;
const PER_SHARD: u64 = 20_000;

/// The deterministic per-shard workload of the threaded tests.
fn synthetic(shard: u64, i: u64) -> f64 {
    3.0 + ((i * 7 + shard * 13) % 23) as f64 * 0.6 + if i.is_multiple_of(311) { 40.0 } else { 0.0 }
}

fn config(consumers: usize) -> SupervisorConfig {
    SupervisorConfig {
        queue_capacity: 64,
        drain_batch: 16,
        consumers,
        ..SupervisorConfig::default()
    }
}

/// Runs a threaded multi-shard supervisor workload: batched blocking
/// producers, parked consumer threads, shutdown drain. Returns the
/// per-shard decision digests.
fn threaded_digests(consumers: usize) -> Vec<String> {
    let supervisor = Supervisor::with_shards(config(consumers), SHARDS, |_| detector());
    let senders: Vec<_> = (0..SHARDS).map(|s| supervisor.sender(s)).collect();
    let pool = ConsumerPool::spawn(supervisor);
    std::thread::scope(|scope| {
        for (shard, sender) in senders.iter().enumerate() {
            scope.spawn(move || {
                let mut i = 0u64;
                let mut batch = Vec::with_capacity(29);
                while i < PER_SHARD {
                    let n = 29.min(PER_SHARD - i);
                    batch.clear();
                    batch.extend((i..i + n).map(|k| (synthetic(shard as u64, k), f64::NAN)));
                    sender.send_batch_blocking(batch.iter().copied());
                    i += n;
                }
            });
        }
    });
    let supervisor = pool
        .join()
        .expect("no log attached")
        .supervisor
        .expect("owned pool returns the supervisor");
    let report = supervisor.report();
    assert_eq!(
        report.total_processed,
        SHARDS as u64 * PER_SHARD,
        "shutdown drain is loss-free with {consumers} consumer(s)"
    );
    assert_eq!(report.total_dropped, 0, "blocking producers never drop");
    report.shards.iter().map(|s| s.digest.clone()).collect()
}

/// The same workload ingested and drained on one thread.
fn serial_digests() -> Vec<String> {
    let mut supervisor = Supervisor::with_shards(config(1), SHARDS, |_| detector());
    for i in 0..PER_SHARD {
        for shard in 0..SHARDS {
            assert!(supervisor.ingest(shard, synthetic(shard as u64, i)));
        }
        while supervisor.poll_all().unwrap() > 0 {}
    }
    supervisor
        .report()
        .shards
        .iter()
        .map(|s| s.digest.clone())
        .collect()
}

/// Under real concurrency — parked consumers, blocking batched
/// producers, shutdown drain — every sample is processed and each
/// shard lands on the serial reference's decision digest.
#[test]
fn threaded_stress_digests_match_serial_reference() {
    let serial = serial_digests();
    for consumers in [1, 2] {
        assert_eq!(
            threaded_digests(consumers),
            serial,
            "{consumers} consumer(s) must be digest-equivalent to serial"
        );
    }
}

/// A consumer blocked on the notifier still sees a loss-free shutdown:
/// samples pushed before `shutdown()` are drained, in order.
#[test]
fn shutdown_drain_is_loss_free() {
    let queue = ObsQueue::bounded(32);
    let notifier = Arc::new(WorkNotifier::new());
    queue.attach_notifier(Arc::clone(&notifier));
    let consumer_q = queue.clone();
    let consumer_n = Arc::clone(&notifier);
    let consumer = std::thread::spawn(move || {
        let mut out = Vec::new();
        loop {
            while consumer_q.drain_into(&mut out, 8) > 0 {}
            if consumer_n.wait() == rejuv_monitor::Wakeup::Shutdown {
                break;
            }
        }
        // Final drain after the shutdown signal.
        while consumer_q.drain_into(&mut out, 8) > 0 {}
        out
    });
    for i in 0..500u64 {
        queue.push_blocking(i as f64);
    }
    notifier.shutdown();
    let out = consumer.join().unwrap();
    assert_eq!(out.len(), 500, "shutdown lost samples");
    assert!(
        out.iter().enumerate().all(|(i, &(v, _))| v == i as f64),
        "FIFO order violated"
    );
}
