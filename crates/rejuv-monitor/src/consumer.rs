//! The parked consumer thread — event-driven ingestion.
//!
//! The original runtime drained queues from a caller-owned poll loop:
//! `while supervisor.poll_all()? > 0 {}` plus `yield_now`, which pegs a
//! core whenever producers go quiet. [`ConsumerThread`] replaces that
//! with a dedicated thread that *parks* on a [`WorkNotifier`] condvar
//! whenever every shard queue is empty; the first push into an empty
//! queue wakes it (see [`crate::queue::ObsQueue::attach_notifier`]).
//! Between batches the consumer costs zero CPU.
//!
//! Shutdown is explicit and loss-free: [`ConsumerThread::join`] signals
//! the notifier, the thread drains every queue to empty one final time,
//! and ownership of the supervisor (when the thread owned it) returns
//! to the caller for the end-of-run report. Producers must stop pushing
//! before `join` for the final drain to be complete.

use crate::assurance::failpoints::fp;
use crate::bridge::SharedSupervisor;
use crate::pool::{ConsumerPool, PoolStats};
use crate::supervisor::Supervisor;
use std::io;

/// A drain plane that sleeps between batches instead of spinning.
///
/// Since the consumer-pool runtime this is a façade over
/// [`ConsumerPool`]: it spawns `supervisor.config().consumers` worker
/// threads (default 1) with whole-shard ownership and bounded
/// work-stealing, keeping the original one-call spawn/join surface.
pub struct ConsumerThread {
    pool: ConsumerPool,
}

impl std::fmt::Debug for ConsumerThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsumerThread")
            .field("parks", &self.parks())
            .finish_non_exhaustive()
    }
}

impl ConsumerThread {
    /// Spawns a consumer pool that owns `supervisor` outright. Clone
    /// the shard senders *before* calling this;
    /// [`ConsumerThread::join`] hands the supervisor back.
    pub fn spawn(supervisor: Supervisor) -> Self {
        ConsumerThread {
            pool: ConsumerPool::spawn(supervisor),
        }
    }

    /// Spawns consumers over a [`SharedSupervisor`], coexisting with
    /// synchronous [`crate::MonitorBridge`]s, whose observations never
    /// wake them (see [`ConsumerPool::spawn_shared`]). `join` returns
    /// `None`; the shared handle keeps owning the supervisor.
    pub fn spawn_shared(shared: &SharedSupervisor) -> Self {
        ConsumerThread {
            pool: ConsumerPool::spawn_shared(shared),
        }
    }

    /// Times a consumer actually went to sleep waiting for work,
    /// summed over the pool's workers.
    pub fn parks(&self) -> u64 {
        self.pool.parks()
    }

    /// Current drain-plane telemetry (steal/park/per-worker counters).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// A cloneable telemetry handle for scraper threads; see
    /// [`ConsumerPool::stats_handle`](crate::ConsumerPool::stats_handle).
    pub fn stats_handle(&self) -> crate::pool::PoolStatsHandle {
        self.pool.stats_handle()
    }

    /// Signals shutdown, waits for the final loss-free drain, and
    /// returns the supervisor when the pool owned one
    /// ([`ConsumerThread::spawn`]); `None` for the shared flavour.
    ///
    /// # Errors
    ///
    /// Propagates event-log / checkpoint-sink failures from the drain
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if a consumer worker itself panicked.
    pub fn join(self) -> io::Result<Option<Supervisor>> {
        self.join_stats().map(|(supervisor, _)| supervisor)
    }

    /// Like [`ConsumerThread::join`], but also returns the pool's final
    /// drain-plane telemetry so callers (e.g. `monitord`) can report
    /// steals, parks and per-worker drains after shutdown.
    ///
    /// # Errors
    ///
    /// Propagates event-log / checkpoint-sink failures from the drain
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if a consumer worker itself panicked.
    pub fn join_stats(self) -> io::Result<(Option<Supervisor>, PoolStats)> {
        fp!("consumer.join");
        self.pool
            .join()
            .map(|joined| (joined.supervisor, joined.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;
    use rejuv_core::{RejuvenationDetector, Sraa, SraaConfig};

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

    #[test]
    fn owned_consumer_drains_everything_and_returns_supervisor() {
        let supervisor = Supervisor::with_shards(
            SupervisorConfig {
                queue_capacity: 64,
                drain_batch: 16,
                ..SupervisorConfig::default()
            },
            3,
            |_| sraa(),
        );
        let senders: Vec<_> = (0..3).map(|s| supervisor.sender(s)).collect();
        let consumer = ConsumerThread::spawn(supervisor);
        std::thread::scope(|scope| {
            for sender in &senders {
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        sender.send_blocking(3.0 + (i % 5) as f64);
                    }
                });
            }
        });
        let supervisor = consumer.join().unwrap().expect("owned flavour");
        let report = supervisor.report();
        assert_eq!(report.total_processed, 15_000);
        assert_eq!(report.total_dropped, 0);
    }

    #[test]
    fn consumer_parks_while_idle_instead_of_spinning() {
        let supervisor = Supervisor::with_shards(SupervisorConfig::default(), 1, |_| sraa());
        let sender = supervisor.sender(0);
        let consumer = ConsumerThread::spawn(supervisor);
        // Let the consumer find the queues empty and go to sleep.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(consumer.parks() >= 1, "idle consumer parked");
        // A push into the empty queue wakes it; wait for the drain.
        sender.send(42.0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while sender.backlog() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(sender.backlog(), 0, "the wakeup drained the push");
        let supervisor = consumer.join().unwrap().expect("owned");
        assert_eq!(supervisor.processed(0), 1);
    }

    #[test]
    fn shared_consumer_coexists_with_bridges() {
        let supervisor = Supervisor::with_shards(SupervisorConfig::default(), 2, |_| sraa());
        let shared = SharedSupervisor::new(supervisor);
        let consumer = ConsumerThread::spawn_shared(&shared);
        let mut bridge = shared.bridge(0);
        let sender = shared.with(|s| s.sender(1));
        for i in 0..200 {
            bridge.observe(4.0 + (i % 3) as f64);
            sender.send(5.0);
        }
        assert!(consumer.join().unwrap().is_none(), "shared flavour");
        let report = shared.report();
        assert_eq!(report.shards[0].processed, 200, "bridge path");
        assert_eq!(report.shards[1].processed, 200, "sender path drained");
    }
}
