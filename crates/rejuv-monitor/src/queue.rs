//! Bounded single-producer/single-consumer observation queues.
//!
//! Each supervisor shard owns one [`ObsQueue`]: the producer side (a
//! simulation feed, an instrumented request path) pushes raw samples,
//! the consumer side (the supervisor's drain loop) removes them in
//! batches. The queue is *bounded*: when the consumer falls behind,
//! pushes fail fast and are counted instead of blocking the producer —
//! overload degrades monitoring fidelity, never source throughput.
//!
//! Samples are `(value, at)` pairs; `at` is a simulation timestamp in
//! seconds, with `NaN` marking an untimed sample (producers that only
//! have a value). Timestamps ride along so the supervisor can build
//! inter-observation latency histograms; they never enter decision
//! digests.
//!
//! Blocking producers ([`ObsQueue::push_blocking`]) spin a bounded
//! number of times, then *park* on a condvar until the consumer frees
//! space — a stalled consumer costs a wait counter increment, not a
//! pegged core. Symmetrically, a [`WorkNotifier`] can be attached so an
//! empty→non-empty transition wakes a parked consumer thread (see
//! [`crate::consumer::ConsumerThread`]): between batches, neither side
//! burns CPU. When the drain plane exits it calls
//! [`ObsQueue::shutdown`], which wakes any still-parked producer so a
//! blocking push never sleeps forever on space that cannot free.
//!
//! Lossy pushes need not mean lost samples: attaching a
//! [`DeadLetterQueue`](crate::dlq::DeadLetterQueue) (see
//! [`crate::supervisor::Supervisor::enable_dlq`]) diverts what a full
//! queue would drop into a bounded side buffer, replayed in FIFO order
//! by the drain path once back-pressure clears.
//!
//! Three interchangeable backends implement the contract, selected by
//! [`QueueBackend`]:
//!
//! * **Mutex** — a mutex-guarded ring buffer. Batched drains amortise
//!   the lock; simple, and the reference for conformance tests.
//! * **Ring** — a lock-free Vyukov-style SPSC ring in *safe* Rust: the
//!   payload lives in per-slot atomics (`f64`s bit-packed into
//!   `AtomicU64`), so no `unsafe` cell tricks are needed. The fast path
//!   performs no lock acquisitions and no read-modify-write beyond one
//!   relaxed counter; batched pushes ([`ObsQueue::push_batch`]) publish
//!   one tail update per batch.
//! * **FanIn** — a multi-producer fan-in over per-producer SPSC lanes:
//!   each producer thread claims a private Vyukov lane (the same
//!   zero-`unsafe` bit-packed design as the ring) and stamps every
//!   sample with a global ticket; the single consumer merges lanes by
//!   popping strictly in ticket order, so the drained sequence is a
//!   deterministic total order even with many concurrent producers.
//!   Capacity is enforced globally with one CAS-bounded counter, so
//!   back-pressure accounting matches the other backends exactly.
//!
//! All backends drain in FIFO order (per producer) and account
//! identically (`accepted`/`dropped`/`waits`), so decision digests,
//! reports and replays are bitwise identical regardless of backend — a
//! property the conformance suite in `tests/proptest_queue.rs` pins
//! down.
//!
//! # Why the lock-free ring needs no `unsafe`
//!
//! The classic obstacle is publishing a non-atomic payload across
//! threads, which demands `UnsafeCell` + raw pointers. Here the payload
//! is two `f64`s: each fits an `AtomicU64` via `to_bits`/`from_bits`,
//! so every slot is `{seq: AtomicUsize, value: AtomicU64, at:
//! AtomicU64}` and plain atomic stores/loads move the data. Ordering:
//! the producer writes `value`/`at` with `Relaxed` stores, then
//! publishes the slot with a `Release` store of `seq = pos + 1`; the
//! consumer `Acquire`-loads `seq`, and on a match the release/acquire
//! edge makes the payload stores visible. Freeing runs the same
//! protocol in reverse: the consumer reads the payload, then
//! `Release`-stores `seq = pos + slots` (the free marker for the next
//! lap) and finally publishes `head` with a `Release` store; the
//! producer's `Acquire` reload of `head` (capacity check) orders every
//! consumer read before any slot reuse. Sleep/wake transitions
//! (empty→non-empty consumer wakeups, full→space producer wakeups) are
//! the one place release/acquire is not enough — both sides face the
//! store-buffering pattern ("I published, did the other side see it
//! before deciding to sleep?") — so those paths add `SeqCst` fences;
//! see `maybe_notify` / `wake_parked_producer`.

use crate::assurance::failpoints::fp;
use crate::dlq::DeadLetterQueue;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Timestamp marker for samples that carry no timestamp.
pub(crate) const UNTIMED: f64 = f64::NAN;

/// How many scheduler yields a blocking push attempts before parking on
/// the space condvar. Short stalls resolve without a park; long stalls
/// sleep instead of spinning.
const BLOCKING_SPIN_LIMIT: u32 = 64;

/// Which [`ObsQueue`] implementation a supervisor shard uses.
///
/// All backends implement the same bounded-queue contract and produce
/// bitwise-identical digests, reports and replays; they differ only in
/// how the producers and consumer synchronise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum QueueBackend {
    /// Mutex-guarded ring buffer (the default): one lock acquisition
    /// per push and per drained batch.
    #[default]
    Mutex,
    /// Lock-free Vyukov-style SPSC ring (safe Rust, bit-packed atomic
    /// slots): no locks on the fast path, condvars only for idle
    /// parking. Requires the SPSC contract — at most one thread pushing
    /// and one draining at any instant (external serialisation, e.g.
    /// the `SharedSupervisor` lock, also satisfies it).
    Ring,
    /// Multi-producer fan-in over per-producer SPSC lanes, merged
    /// deterministically at drain by per-sample ticket stamps. Producers
    /// stop contending on one mutex; the consumer side still requires
    /// external serialisation (at most one thread draining at any
    /// instant). Trades memory for lane isolation: each of its lanes is
    /// sized to the full logical capacity.
    FanIn,
}

impl QueueBackend {
    /// The CLI/config name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::Mutex => "mutex",
            QueueBackend::Ring => "ring",
            QueueBackend::FanIn => "fanin",
        }
    }
}

impl std::fmt::Display for QueueBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for QueueBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_lowercase().as_str() {
            "mutex" => Ok(QueueBackend::Mutex),
            "ring" => Ok(QueueBackend::Ring),
            "fanin" => Ok(QueueBackend::FanIn),
            other => Err(format!("unknown queue backend {other} (mutex|ring|fanin)")),
        }
    }
}

/// Wakes a parked consumer when any of its queues gains work.
///
/// One notifier is shared by every queue a consumer thread drains; a
/// push into an *empty* queue signals it (pushes into a non-empty queue
/// don't need to — the consumer only parks after draining every queue
/// to empty, so a pending item is never overlooked).
#[derive(Debug, Default)]
pub struct WorkNotifier {
    state: Mutex<NotifyState>,
    cv: Condvar,
    /// Times a waiter actually blocked (telemetry for "the consumer
    /// parks instead of spinning").
    parks: AtomicU64,
}

#[derive(Debug, Default)]
struct NotifyState {
    /// Work arrived since the last `wait` returned.
    pending: bool,
    /// The consumer should drain what's left and exit.
    shutdown: bool,
}

/// What woke a [`WorkNotifier::wait`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakeup {
    /// At least one queue gained work; drain and wait again.
    Work,
    /// Shutdown was requested; drain remaining work and exit.
    Shutdown,
}

impl WorkNotifier {
    /// Creates an idle notifier.
    pub fn new() -> Self {
        WorkNotifier::default()
    }

    /// Signals that work is available, waking a parked waiter.
    pub fn notify_work(&self) {
        fp!("queue.notify-work");
        let mut state = self.state.lock().expect("notifier lock poisoned");
        state.pending = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Requests shutdown, waking a parked waiter.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("notifier lock poisoned");
        state.shutdown = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until work arrives or shutdown is requested. Consumes the
    /// pending-work flag; shutdown is sticky and reported only once no
    /// work signal is pending (so pre-shutdown pushes still drain).
    pub fn wait(&self) -> Wakeup {
        let mut state = self.state.lock().expect("notifier lock poisoned");
        if !state.pending && !state.shutdown {
            self.parks.fetch_add(1, Ordering::Relaxed);
            fp!("queue.wait-park");
            state = self
                .cv
                .wait_while(state, |s| !s.pending && !s.shutdown)
                .expect("notifier lock poisoned");
        }
        if state.pending {
            state.pending = false;
            Wakeup::Work
        } else {
            Wakeup::Shutdown
        }
    }

    /// Times a waiter actually went to sleep.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

/// Lifetime accounting shared by all backends. All counters are
/// updated with relaxed atomics — they are telemetry, not
/// synchronisation.
#[derive(Debug, Default)]
struct Counters {
    /// Samples accepted over the queue's lifetime.
    accepted: AtomicU64,
    /// Samples rejected because the queue was full.
    dropped: AtomicU64,
    /// Times a blocking producer had to park waiting for space.
    waits: AtomicU64,
}

/// Consumer wakeup hook shared by all backends; set once a consumer
/// thread attaches. The `attached` flag lets the ring's push fast path
/// skip the option lock entirely when no consumer thread exists.
#[derive(Debug, Default)]
struct NotifierSlot {
    hook: Mutex<Option<Arc<WorkNotifier>>>,
    attached: AtomicBool,
}

impl NotifierSlot {
    fn attach(&self, notifier: Arc<WorkNotifier>) {
        *self.hook.lock().expect("notifier slot poisoned") = Some(notifier);
        self.attached.store(true, Ordering::Release);
    }

    fn notify(&self) {
        if let Some(n) = self.hook.lock().expect("notifier slot poisoned").as_ref() {
            n.notify_work();
        }
    }
}

// ---------------------------------------------------------------------
// Mutex backend
// ---------------------------------------------------------------------

struct MutexInner {
    buf: Mutex<VecDeque<(f64, f64)>>,
    /// Producers in `push_blocking` park here when the queue is full;
    /// `drain_into` notifies after freeing space.
    space: Condvar,
    capacity: usize,
    /// Mirror of `buf.len()`, refreshed under the lock after every
    /// mutation, so `backlog_hint` can answer with one relaxed load
    /// instead of contending on the queue lock.
    occupancy: AtomicUsize,
    counters: Counters,
    notifier: NotifierSlot,
    /// Sticky shutdown flag: once set, parked producers wake and return
    /// short instead of sleeping on space that will never free (the
    /// drain plane is gone). See [`ObsQueue::shutdown`].
    shutdown: AtomicBool,
}

impl MutexInner {
    fn new(capacity: usize) -> Self {
        MutexInner {
            // Preallocate the full bound: a bounded queue will reach
            // exactly this length under back-pressure, so reserving it
            // up front trades transient memory for never reallocating
            // (and never stalling) on the hot path.
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            space: Condvar::new(),
            capacity,
            occupancy: AtomicUsize::new(0),
            counters: Counters::default(),
            notifier: NotifierSlot::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Single push attempt; does not count drops (the caller decides
    /// whether a full queue is a real drop or a blocking retry).
    /// `signal: false` skips the consumer wakeup; see
    /// [`ObsQueue::push_quiet_at`].
    fn try_push(&self, value: f64, at: f64, signal: bool) -> bool {
        fp!("queue.mutex.push");
        let mut buf = self.buf.lock().expect("queue lock poisoned");
        if buf.len() >= self.capacity {
            return false;
        }
        let was_empty = buf.is_empty();
        buf.push_back((value, at));
        self.occupancy.store(buf.len(), Ordering::Relaxed);
        drop(buf);
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if was_empty && signal {
            self.notifier.notify();
        }
        true
    }

    /// Moves up to `space` leading samples out of `it` under one lock
    /// acquisition; returns how many were accepted.
    fn push_batch_partial(&self, it: &mut impl Iterator<Item = (f64, f64)>, want: usize) -> usize {
        let mut buf = self.buf.lock().expect("queue lock poisoned");
        let space = self.capacity - buf.len();
        let take = want.min(space);
        if take == 0 {
            return 0;
        }
        let was_empty = buf.is_empty();
        buf.extend(it.take(take));
        self.occupancy.store(buf.len(), Ordering::Relaxed);
        drop(buf);
        self.counters
            .accepted
            .fetch_add(take as u64, Ordering::Relaxed);
        if was_empty {
            self.notifier.notify();
        }
        take
    }

    fn push_blocking(&self, value: f64, at: f64) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.try_push(value, at, true) {
                return true;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::yield_now();
        }
        // Park until the consumer frees space (or shutdown wakes us).
        // The push happens under the same lock the wait releases, so
        // space seen is space used.
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        fp!("queue.mutex.park");
        let mut buf = self.buf.lock().expect("queue lock poisoned");
        buf = self
            .space
            .wait_while(buf, |b| {
                b.len() >= self.capacity && !self.shutdown.load(Ordering::SeqCst)
            })
            .expect("queue lock poisoned");
        if buf.len() >= self.capacity {
            return false; // woken by shutdown, still full
        }
        let was_empty = buf.is_empty();
        buf.push_back((value, at));
        self.occupancy.store(buf.len(), Ordering::Relaxed);
        drop(buf);
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if was_empty {
            self.notifier.notify();
        }
        true
    }

    /// Parks until at least one slot is free (blocking batch refill).
    /// Returns `false` if the queue shut down while full instead.
    fn wait_for_space(&self) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if self.buf.lock().expect("queue lock poisoned").len() < self.capacity {
                return true;
            }
            std::thread::yield_now();
        }
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        let buf = self.buf.lock().expect("queue lock poisoned");
        let buf = self
            .space
            .wait_while(buf, |b| {
                b.len() >= self.capacity && !self.shutdown.load(Ordering::SeqCst)
            })
            .expect("queue lock poisoned");
        buf.len() < self.capacity
    }

    /// Sets the sticky shutdown flag and wakes every parked producer.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the queue lock so a producer between its predicate check
        // and its sleep cannot miss this wakeup.
        let _buf = self.buf.lock().expect("queue lock poisoned");
        self.space.notify_all();
    }

    fn drain_into(&self, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
        fp!("queue.mutex.drain");
        let mut buf = self.buf.lock().expect("queue lock poisoned");
        let take = buf.len().min(max);
        out.extend(buf.drain(..take));
        self.occupancy.store(buf.len(), Ordering::Relaxed);
        drop(buf);
        if take > 0 {
            fp!("queue.mutex.unpark");
            self.space.notify_all();
        }
        take
    }

    fn len(&self) -> usize {
        self.buf.lock().expect("queue lock poisoned").len()
    }
}

// ---------------------------------------------------------------------
// Lock-free ring backend
// ---------------------------------------------------------------------

/// Pads a hot field to its own cache line so the producer- and
/// consumer-owned cursors never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

/// One ring slot. `seq` is the Vyukov sequence word: it equals the slot
/// position when the slot is free for that lap, position + 1 once the
/// payload is published, and advances by the slot count when freed for
/// the next lap. `value`/`at` carry the `f64` payload bit-packed, which
/// is what lets the whole ring stay in safe Rust.
#[derive(Debug)]
struct Slot {
    seq: AtomicUsize,
    value: AtomicU64,
    at: AtomicU64,
}

/// Producer-owned hot state (one cache line).
#[derive(Debug, Default)]
struct ProducerSide {
    /// Next position to write. Only the producer stores it; consumers
    /// and observers read it for `len()`.
    tail: AtomicUsize,
    /// Producer-local cache of the consumer's `head`, refreshed (with
    /// `Acquire`) only when the ring looks full — the Lamport trick
    /// that keeps steady-state pushes from touching the consumer's
    /// cache line at all.
    head_cache: AtomicUsize,
}

struct RingInner {
    slots: Box<[Slot]>,
    /// `slots.len() - 1`; the slot count is a power of two so `pos &
    /// mask` indexes correctly even across position wrap-around.
    mask: usize,
    /// The logical bound. May be below the physical slot count (which
    /// is rounded up to a power of two); fullness is enforced against
    /// this, so both backends drop at exactly the same occupancy.
    capacity: usize,
    prod: CacheLine<ProducerSide>,
    /// Next position to read; only the consumer stores it.
    head: CacheLine<AtomicUsize>,
    /// Blocking producers park here when the ring is full; guards no
    /// data, only the sleep/wake handshake.
    space_lock: Mutex<()>,
    space: Condvar,
    /// Set (SeqCst) by a producer about to park; checked by the
    /// consumer after freeing space. See `wake_parked_producer`.
    producer_parked: AtomicBool,
    /// Sticky shutdown flag; see [`ObsQueue::shutdown`].
    shutdown: AtomicBool,
    counters: Counters,
    notifier: NotifierSlot,
}

impl RingInner {
    fn new(capacity: usize) -> Self {
        let slot_count = capacity.next_power_of_two();
        let slots: Box<[Slot]> = (0..slot_count)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: AtomicU64::new(0),
                at: AtomicU64::new(0),
            })
            .collect();
        RingInner {
            slots,
            mask: slot_count - 1,
            capacity,
            prod: CacheLine(ProducerSide::default()),
            head: CacheLine(AtomicUsize::new(0)),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
            producer_parked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            notifier: NotifierSlot::default(),
        }
    }

    /// How many of the `want` samples the producer may write at `pos`
    /// right now. Answers from the cached head whenever it already
    /// proves enough room, and only then reloads the consumer's `head`
    /// (with `Acquire`, which also orders the consumer's slot reads
    /// before any reuse) — the Lamport trick that keeps steady-state
    /// pushes off the consumer's cache line. Refreshing whenever the
    /// cached view is merely *insufficient* (not just full) matters for
    /// conformance: a stale cache must never make the ring drop samples
    /// the mutex backend would accept.
    fn space_for(&self, pos: usize, want: usize) -> usize {
        let cached = self.prod.0.head_cache.load(Ordering::Relaxed);
        let space = self
            .capacity
            .saturating_sub(pos.wrapping_sub(cached).min(self.capacity));
        if space >= want {
            return space;
        }
        let head = self.head.0.load(Ordering::Acquire);
        self.prod.0.head_cache.store(head, Ordering::Relaxed);
        self.capacity - pos.wrapping_sub(head).min(self.capacity)
    }

    /// Writes one slot's payload and publishes it. The caller has
    /// already established the slot is free via `space_for`.
    fn write_slot(&self, pos: usize, value: f64, at: f64) {
        let slot = &self.slots[pos & self.mask];
        debug_assert_eq!(
            slot.seq.load(Ordering::Acquire),
            pos,
            "SPSC contract violated: slot not free for this lap"
        );
        slot.value.store(value.to_bits(), Ordering::Relaxed);
        slot.at.store(at.to_bits(), Ordering::Relaxed);
        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
    }

    /// Single push attempt; does not count drops. `signal: false`
    /// skips the wakeup check; see [`ObsQueue::push_quiet_at`].
    fn try_push(&self, value: f64, at: f64, signal: bool) -> bool {
        fp!("queue.ring.push");
        let pos = self.prod.0.tail.load(Ordering::Relaxed);
        if self.space_for(pos, 1) == 0 {
            return false;
        }
        self.write_slot(pos, value, at);
        self.prod
            .0
            .tail
            .store(pos.wrapping_add(1), Ordering::Release);
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if signal {
            self.maybe_notify(pos, 1);
        }
        true
    }

    /// Moves up to `want` leading samples out of `it`, publishing one
    /// tail update (and at most one wakeup check) for the whole batch;
    /// returns how many were accepted.
    fn push_batch_partial(&self, it: &mut impl Iterator<Item = (f64, f64)>, want: usize) -> usize {
        let pos = self.prod.0.tail.load(Ordering::Relaxed);
        let take = want.min(self.space_for(pos, want));
        if take == 0 {
            return 0;
        }
        for (i, (value, at)) in it.take(take).enumerate() {
            self.write_slot(pos.wrapping_add(i), value, at);
        }
        self.prod
            .0
            .tail
            .store(pos.wrapping_add(take), Ordering::Release);
        self.counters
            .accepted
            .fetch_add(take as u64, Ordering::Relaxed);
        self.maybe_notify(pos, take);
        take
    }

    /// Wakes an attached consumer if it may have parked on "empty"
    /// anywhere inside the batch just published at `[start, start+n)`.
    ///
    /// This is the store-buffering corner: the producer published slot
    /// sequences, the consumer published `head` before deciding the
    /// ring was empty, and each must see the other's store. Release/
    /// acquire alone permits *both* reads to miss, losing the wakeup
    /// forever; a `SeqCst` fence on each side (the consumer's sits at
    /// the top of `drain_into`) forbids that outcome — at least one
    /// side wins, so either the consumer sees the data (no park) or the
    /// producer sees the caught-up head (and notifies).
    fn maybe_notify(&self, start: usize, n: usize) {
        if !self.notifier.attached.load(Ordering::Relaxed) {
            return;
        }
        fence(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::Relaxed);
        // head ∈ [start, start+n] means the consumer caught up inside
        // (or exactly at) this batch and may be parked; further behind
        // means older published items were already covered by their own
        // pushes' checks.
        if head.wrapping_sub(start) <= n {
            self.notifier.notify();
        }
    }

    fn push_blocking(&self, value: f64, at: f64) -> bool {
        loop {
            for _ in 0..BLOCKING_SPIN_LIMIT {
                if self.try_push(value, at, true) {
                    return true;
                }
                std::thread::yield_now();
            }
            if !self.park_until_space() {
                return false; // shut down while full
            }
            // SPSC: nothing but this thread pushes, so the freed slot
            // the park observed is still free.
            let pushed = self.try_push(value, at, true);
            debug_assert!(pushed, "space observed under the park handshake vanished");
            if pushed {
                return true;
            }
            // Defensive fallback for contract misuse: never lose the
            // sample a blocking push promised to deliver.
        }
    }

    /// Parks until at least one slot is free, counting the wait. Uses
    /// the `producer_parked` flag + `SeqCst` handshake mirroring
    /// `maybe_notify` (the consumer's side is `wake_parked_producer`).
    /// Returns `false` if the queue shut down while full instead.
    fn park_until_space(&self) -> bool {
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        fp!("queue.ring.park");
        let mut guard = self.space_lock.lock().expect("park lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.producer_parked.store(false, Ordering::Relaxed);
                return false;
            }
            self.producer_parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let pos = self.prod.0.tail.load(Ordering::Relaxed);
            if self.space_for(pos, 1) > 0 {
                self.producer_parked.store(false, Ordering::Relaxed);
                return true;
            }
            guard = self.space.wait(guard).expect("park lock poisoned");
        }
    }

    /// Parks until space is available for a blocking batch refill
    /// (spin first, mirroring `push_blocking`). Returns `false` if the
    /// queue shut down while full instead.
    fn wait_for_space(&self) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let pos = self.prod.0.tail.load(Ordering::Relaxed);
            if self.space_for(pos, 1) > 0 {
                return true;
            }
            std::thread::yield_now();
        }
        self.park_until_space()
    }

    /// Sets the sticky shutdown flag and wakes a parked producer. The
    /// notify happens under the park lock, so a producer between its
    /// re-check and its sleep cannot miss it.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.space_lock.lock().expect("park lock poisoned");
        self.space.notify_all();
    }

    fn drain_into(&self, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
        fp!("queue.ring.drain");
        // Pairs with the producer-side fence in `maybe_notify`: after
        // the consumer publishes head (possibly deciding "empty" next
        // call), this fence guarantees it cannot also miss a slot the
        // producer published before checking head. See `maybe_notify`.
        fence(Ordering::SeqCst);
        let start = self.head.0.load(Ordering::Relaxed);
        let slot_count = self.mask + 1;
        let mut pos = start;
        let mut taken = 0;
        while taken < max {
            let slot = &self.slots[pos & self.mask];
            if slot.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
                break; // contiguous run exhausted
            }
            let value = f64::from_bits(slot.value.load(Ordering::Relaxed));
            let at = f64::from_bits(slot.at.load(Ordering::Relaxed));
            out.push((value, at));
            // Free the slot for the next lap.
            slot.seq
                .store(pos.wrapping_add(slot_count), Ordering::Release);
            pos = pos.wrapping_add(1);
            taken += 1;
        }
        if taken > 0 {
            self.head.0.store(pos, Ordering::Release);
            self.wake_parked_producer();
        }
        taken
    }

    /// Wakes a producer parked on back-pressure, if any. The `SeqCst`
    /// fence closes the same store-buffering window as `maybe_notify`,
    /// with the roles swapped: the consumer published `head` (space),
    /// the producer published `producer_parked`; at least one side must
    /// observe the other, so either the producer's re-check finds space
    /// or this check finds the flag and notifies under the park lock.
    fn wake_parked_producer(&self) {
        fp!("queue.ring.unpark");
        fence(Ordering::SeqCst);
        if self.producer_parked.load(Ordering::Relaxed) {
            let _guard = self.space_lock.lock().expect("park lock poisoned");
            self.producer_parked.store(false, Ordering::Relaxed);
            self.space.notify_all();
        }
    }

    /// Pending samples right now (exact when quiescent, a snapshot
    /// under concurrency).
    fn len(&self) -> usize {
        let tail = self.prod.0.tail.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(self.capacity)
    }
}

// ---------------------------------------------------------------------
// Fan-in backend
// ---------------------------------------------------------------------

/// Lanes per fan-in queue. The first `FANIN_LANES - 1` producer threads
/// each claim a private SPSC lane; any later thread falls back to the
/// last lane, shared under a mutex (correct, just slower). The lane
/// count bounds memory, not how many producers the queue supports.
const FANIN_LANES: usize = 8;

/// Source of unique fan-in queue ids for the thread-local lane cache.
static FANIN_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Which lane this thread claimed in each fan-in queue it has
    /// pushed into, keyed by queue id. Thread-local so the per-push
    /// lane lookup never synchronises with other producers.
    static CLAIMED_LANES: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

/// One fan-in lane slot: the Vyukov `seq` protocol of [`Slot`] plus the
/// global ticket that orders the sample across lanes.
#[derive(Debug)]
struct FanSlot {
    seq: AtomicUsize,
    value: AtomicU64,
    at: AtomicU64,
    ticket: AtomicU64,
}

/// One per-producer SPSC lane. `tail` is written only by the lane's
/// producer (or under the shared-lane lock); `head` only by the single
/// consumer. Capacity is *not* enforced per lane — the global `pending`
/// counter bounds total occupancy, and each lane is sized to hold the
/// full logical capacity, so a reservation always has a free slot in
/// whichever lane its producer owns.
#[derive(Debug)]
struct Lane {
    slots: Box<[FanSlot]>,
    mask: usize,
    tail: CacheLine<AtomicUsize>,
    head: CacheLine<AtomicUsize>,
}

struct FanInInner {
    /// Key for the thread-local lane cache.
    id: u64,
    lanes: Box<[Lane]>,
    /// The logical bound, enforced globally across all lanes by
    /// `pending` so back-pressure accounting matches the other
    /// backends exactly.
    capacity: usize,
    /// Samples reserved but not yet consumed, across all lanes. A push
    /// reserves with a CAS bounded by `capacity` (`Acquire` on success,
    /// pairing with the consumer's `Release` decrement so every slot
    /// freed before the decrement is visible before reuse); the
    /// consumer decrements once per pop, *after* freeing the slot.
    pending: AtomicUsize,
    /// Next global ticket to hand out. Tickets totally order samples
    /// across lanes; the consumer pops strictly in ticket order, so the
    /// drained sequence is deterministic given the reservation order.
    tickets: AtomicU64,
    /// Next ticket the consumer will pop. Consumer-owned; producers
    /// read it (after a `SeqCst` fence) to decide whether the consumer
    /// may be parked waiting for the batch just published.
    next_ticket: AtomicU64,
    /// Consumer-owned hint: the lane that yielded the last pop.
    /// Contiguous ticket blocks come from one lane, so starting the
    /// next scan there makes the common case O(1), not O(lanes).
    last_lane: AtomicUsize,
    /// How many exclusive lanes have been handed out.
    claimed: AtomicUsize,
    /// Serialises producers that overflow into the shared last lane:
    /// ticket grab and slot write must happen together under it, or
    /// tickets could invert within the lane and deadlock the
    /// ticket-ordered drain.
    shared_lock: Mutex<()>,
    /// Blocking producers park here when the queue is full.
    space_lock: Mutex<()>,
    space: Condvar,
    /// Set (`SeqCst`) by a producer about to park; cleared only by the
    /// waking consumer — with multiple producers, a peer observing
    /// space must not clear a flag another parked producer relies on.
    producer_parked: AtomicBool,
    /// Sticky shutdown flag; see [`ObsQueue::shutdown`].
    shutdown: AtomicBool,
    counters: Counters,
    notifier: NotifierSlot,
}

impl FanInInner {
    fn new(capacity: usize) -> Self {
        let slot_count = capacity.next_power_of_two();
        let lanes: Box<[Lane]> = (0..FANIN_LANES)
            .map(|_| Lane {
                slots: (0..slot_count)
                    .map(|i| FanSlot {
                        seq: AtomicUsize::new(i),
                        value: AtomicU64::new(0),
                        at: AtomicU64::new(0),
                        ticket: AtomicU64::new(0),
                    })
                    .collect(),
                mask: slot_count - 1,
                tail: CacheLine(AtomicUsize::new(0)),
                head: CacheLine(AtomicUsize::new(0)),
            })
            .collect();
        FanInInner {
            id: FANIN_IDS.fetch_add(1, Ordering::Relaxed),
            lanes,
            capacity,
            pending: AtomicUsize::new(0),
            tickets: AtomicU64::new(0),
            next_ticket: AtomicU64::new(0),
            last_lane: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            shared_lock: Mutex::new(()),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
            producer_parked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            notifier: NotifierSlot::default(),
        }
    }

    /// The lane this thread pushes into, claiming one on first use.
    fn lane_for_thread(&self) -> usize {
        CLAIMED_LANES.with(|map| {
            *map.borrow_mut().entry(self.id).or_insert_with(|| {
                self.claimed
                    .fetch_add(1, Ordering::Relaxed)
                    .min(FANIN_LANES - 1)
            })
        })
    }

    /// Reserves up to `want` of the global capacity; returns how many
    /// slots were secured (0 when full).
    fn reserve(&self, want: usize) -> usize {
        let mut cur = self.pending.load(Ordering::Relaxed);
        loop {
            let take = want.min(self.capacity - cur.min(self.capacity));
            if take == 0 {
                return 0;
            }
            match self.pending.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Writes `take` already-reserved samples into this thread's lane,
    /// stamping each with a global ticket, then runs the wakeup check
    /// unless `signal` is false (see [`ObsQueue::push_quiet_at`]).
    /// For the shared overflow lane, the ticket grab and the slot
    /// writes happen together under the lane lock so tickets stay
    /// ascending within the lane — the invariant the ticket-ordered
    /// drain relies on to never wait for a sample behind a later one.
    fn publish(&self, it: &mut impl Iterator<Item = (f64, f64)>, take: usize, signal: bool) {
        fp!("queue.fanin.publish");
        let lane_idx = self.lane_for_thread();
        let guard = if lane_idx == FANIN_LANES - 1 {
            Some(self.shared_lock.lock().expect("shared lane lock poisoned"))
        } else {
            None
        };
        let lane = &self.lanes[lane_idx];
        let first = self.tickets.fetch_add(take as u64, Ordering::Relaxed);
        let pos = lane.tail.0.load(Ordering::Relaxed);
        for (i, (value, at)) in it.take(take).enumerate() {
            let slot = &lane.slots[pos.wrapping_add(i) & lane.mask];
            debug_assert_eq!(
                slot.seq.load(Ordering::Acquire),
                pos.wrapping_add(i),
                "fan-in lane slot reused before the consumer freed it"
            );
            slot.value.store(value.to_bits(), Ordering::Relaxed);
            slot.at.store(at.to_bits(), Ordering::Relaxed);
            slot.ticket.store(first + i as u64, Ordering::Relaxed);
            slot.seq
                .store(pos.wrapping_add(i).wrapping_add(1), Ordering::Release);
        }
        lane.tail.0.store(pos.wrapping_add(take), Ordering::Relaxed);
        drop(guard);
        self.counters
            .accepted
            .fetch_add(take as u64, Ordering::Relaxed);
        if signal {
            self.maybe_notify(first, take as u64);
        }
    }

    /// Wakes an attached consumer that may have parked while the batch
    /// ticketed `[first, first + n)` was in flight. Same
    /// store-buffering closure as the ring's `maybe_notify`, with the
    /// consumer's published cursor being `next_ticket` instead of
    /// `head`: the producer publishes its slots then fences; the
    /// consumer stores `next_ticket`, fences and rescans before giving
    /// up (see `drain_into`); at least one side must see the other, so
    /// either the rescan finds the sample or this check finds the
    /// consumer waiting inside the window and notifies. A waiting
    /// ticket below `first` is covered by *its* publisher's check — the
    /// same induction the ring uses over earlier pushes.
    fn maybe_notify(&self, first: u64, n: u64) {
        if !self.notifier.attached.load(Ordering::Relaxed) {
            return;
        }
        fence(Ordering::SeqCst);
        let next = self.next_ticket.load(Ordering::Relaxed);
        if next.wrapping_sub(first) <= n {
            self.notifier.notify();
        }
    }

    /// Single push attempt; does not count drops.
    fn try_push(&self, value: f64, at: f64, signal: bool) -> bool {
        if self.reserve(1) == 0 {
            return false;
        }
        self.publish(&mut std::iter::once((value, at)), 1, signal);
        true
    }

    /// Moves up to `want` leading samples out of `it`; returns how many
    /// were accepted.
    fn push_batch_partial(&self, it: &mut impl Iterator<Item = (f64, f64)>, want: usize) -> usize {
        let take = self.reserve(want);
        if take == 0 {
            return 0;
        }
        self.publish(it, take, true);
        take
    }

    fn push_blocking(&self, value: f64, at: f64) -> bool {
        loop {
            for _ in 0..BLOCKING_SPIN_LIMIT {
                if self.try_push(value, at, true) {
                    return true;
                }
                std::thread::yield_now();
            }
            // Unlike the SPSC ring, space observed under the park
            // handshake may be claimed by a peer producer first — so
            // re-attempt the push and re-park if it is gone again.
            if !self.park_until_space() {
                return false; // shut down while full
            }
        }
    }

    /// Parks until the queue is below capacity, counting the wait. The
    /// `SeqCst` handshake mirrors the ring's, but the flag is *sticky*:
    /// only the waking consumer clears it, because with several
    /// producers one observing space must not un-flag peers still
    /// parked behind it.
    fn park_until_space(&self) -> bool {
        self.counters.waits.fetch_add(1, Ordering::Relaxed);
        fp!("queue.fanin.park");
        let mut guard = self.space_lock.lock().expect("park lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            self.producer_parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.pending.load(Ordering::Relaxed) < self.capacity {
                return true;
            }
            guard = self.space.wait(guard).expect("park lock poisoned");
        }
    }

    /// Parks until space is available for a blocking batch refill
    /// (spin first, mirroring `push_blocking`). Returns `false` if the
    /// queue shut down while full instead.
    fn wait_for_space(&self) -> bool {
        for _ in 0..BLOCKING_SPIN_LIMIT {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if self.pending.load(Ordering::Relaxed) < self.capacity {
                return true;
            }
            std::thread::yield_now();
        }
        self.park_until_space()
    }

    /// Sets the sticky shutdown flag and wakes every parked producer
    /// (notify under the park lock so no producer can miss it between
    /// its re-check and its sleep).
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.space_lock.lock().expect("park lock poisoned");
        self.space.notify_all();
    }

    /// Pops the sample ticketed `next` if some lane has published it at
    /// its head, appending it to `out`; returns the lane it came from.
    /// Scans from `hint` because consecutive tickets usually come from
    /// the same lane (one producer's contiguous block).
    fn pop_ticket(&self, next: u64, hint: usize, out: &mut Vec<(f64, f64)>) -> Option<usize> {
        for probe in 0..FANIN_LANES {
            let lane_idx = (hint + probe) % FANIN_LANES;
            let lane = &self.lanes[lane_idx];
            let head = lane.head.0.load(Ordering::Relaxed);
            let slot = &lane.slots[head & lane.mask];
            if slot.seq.load(Ordering::Acquire) != head.wrapping_add(1) {
                continue; // lane empty, or its head not yet published
            }
            if slot.ticket.load(Ordering::Relaxed) != next {
                continue; // published, but a later ticket: not its turn
            }
            let value = f64::from_bits(slot.value.load(Ordering::Relaxed));
            let at = f64::from_bits(slot.at.load(Ordering::Relaxed));
            out.push((value, at));
            // Free the slot for the lane's next lap.
            slot.seq
                .store(head.wrapping_add(lane.mask + 1), Ordering::Release);
            lane.head.0.store(head.wrapping_add(1), Ordering::Relaxed);
            return Some(lane_idx);
        }
        None
    }

    fn drain_into(&self, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
        fp!("queue.fanin.drain");
        // Pairs with the producer-side fences in `maybe_notify`.
        fence(Ordering::SeqCst);
        let mut next = self.next_ticket.load(Ordering::Relaxed);
        let mut hint = self.last_lane.load(Ordering::Relaxed);
        let mut taken = 0;
        while taken < max {
            let popped = match self.pop_ticket(next, hint, out) {
                Some(lane) => Some(lane),
                None => {
                    // Head-of-line ticket not visible. Before giving up
                    // (the caller may park on a WorkNotifier), close
                    // the store-buffering window: fence and rescan once
                    // — the producer side is `maybe_notify`.
                    fence(Ordering::SeqCst);
                    self.pop_ticket(next, hint, out)
                }
            };
            let Some(lane) = popped else { break };
            hint = lane;
            next = next.wrapping_add(1);
            // `SeqCst` so a producer's post-publish window check and
            // this cursor publication cannot both miss each other.
            self.next_ticket.store(next, Ordering::SeqCst);
            // After the slot is freed: the producer's reserve-CAS
            // (`Acquire`) sees this decrement only after the free.
            self.pending.fetch_sub(1, Ordering::Release);
            taken += 1;
        }
        if taken > 0 {
            self.last_lane.store(hint, Ordering::Relaxed);
            self.wake_parked_producer();
        }
        taken
    }

    /// Wakes producers parked on back-pressure, if any; same `SeqCst`
    /// closure as the ring's, except the flag is cleared here only.
    fn wake_parked_producer(&self) {
        fp!("queue.fanin.unpark");
        fence(Ordering::SeqCst);
        if self.producer_parked.load(Ordering::Relaxed) {
            let _guard = self.space_lock.lock().expect("park lock poisoned");
            self.producer_parked.store(false, Ordering::Relaxed);
            self.space.notify_all();
        }
    }

    /// Samples reserved and not yet consumed (exact when quiescent; a
    /// reservation whose payload is still being written counts too).
    fn len(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Inner {
    Mutex(Arc<MutexInner>),
    Ring(Arc<RingInner>),
    FanIn(Arc<FanInInner>),
}

/// A bounded queue of observations, cheaply cloneable into producer and
/// consumer handles (clones share the same buffer and counters).
///
/// Construct with [`ObsQueue::bounded`] (mutex backend) or
/// [`ObsQueue::with_backend`]. The [`QueueBackend::Ring`] flavour
/// requires the SPSC contract: at most one thread pushing and one
/// draining at any instant (handing either role between threads through
/// a lock or join is fine). Misuse cannot corrupt memory — everything
/// is safe Rust — but concurrent producers may overwrite each other's
/// samples.
#[derive(Clone)]
pub struct ObsQueue {
    inner: Inner,
    /// Optional dead-letter queue, shared by every clone (set once,
    /// read with one atomic load on the push path). While attached,
    /// lossy pushes capture instead of dropping; see [`crate::dlq`].
    dlq: Arc<OnceLock<Arc<DeadLetterQueue>>>,
}

impl std::fmt::Debug for ObsQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsQueue")
            .field("backend", &self.backend())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("accepted", &self.accepted())
            .field("dropped", &self.dropped())
            .field("waits", &self.waits())
            .finish()
    }
}

impl ObsQueue {
    /// Creates a mutex-backed queue holding at most `capacity` pending
    /// observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        ObsQueue::with_backend(capacity, QueueBackend::Mutex)
    }

    /// Creates a queue on the chosen [`QueueBackend`] holding at most
    /// `capacity` pending observations. The ring backend rounds its
    /// *physical* slot count up to the next power of two but enforces
    /// the logical `capacity` exactly, so back-pressure behaviour is
    /// identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_backend(capacity: usize, backend: QueueBackend) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let inner = match backend {
            QueueBackend::Mutex => Inner::Mutex(Arc::new(MutexInner::new(capacity))),
            QueueBackend::Ring => Inner::Ring(Arc::new(RingInner::new(capacity))),
            QueueBackend::FanIn => Inner::FanIn(Arc::new(FanInInner::new(capacity))),
        };
        ObsQueue {
            inner,
            dlq: Arc::new(OnceLock::new()),
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.inner {
            Inner::Mutex(_) => QueueBackend::Mutex,
            Inner::Ring(_) => QueueBackend::Ring,
            Inner::FanIn(_) => QueueBackend::FanIn,
        }
    }

    fn counters(&self) -> &Counters {
        match &self.inner {
            Inner::Mutex(q) => &q.counters,
            Inner::Ring(q) => &q.counters,
            Inner::FanIn(q) => &q.counters,
        }
    }

    /// Attaches a consumer wakeup hook: pushes that make the queue
    /// non-empty will signal it. Replaces any previous notifier.
    pub fn attach_notifier(&self, notifier: Arc<WorkNotifier>) {
        match &self.inner {
            Inner::Mutex(q) => q.notifier.attach(notifier),
            Inner::Ring(q) => q.notifier.attach(notifier),
            Inner::FanIn(q) => q.notifier.attach(notifier),
        }
    }

    /// Offers one untimed observation; returns `false` (and counts a
    /// drop) if the queue is full. With a dead-letter queue attached,
    /// the sample is captured there instead and `false` means DLQ
    /// overflow — the only remaining (and counted) loss.
    pub fn push(&self, value: f64) -> bool {
        self.push_at(value, UNTIMED)
    }

    /// Offers one observation stamped at `at` seconds of simulation
    /// time; returns `false` (and counts a drop) if the queue is full.
    /// See [`ObsQueue::push`] for the dead-letter behaviour.
    pub fn push_at(&self, value: f64, at: f64) -> bool {
        self.offer(value, at, true)
    }

    /// [`ObsQueue::push_at`] without the consumer wakeup: the push never
    /// signals the attached [`WorkNotifier`].
    ///
    /// Only for a caller that drains this queue itself, to empty,
    /// before it lets any other consumer near it — the synchronous
    /// supervisor path, which pushes and drains under the supervisor
    /// lock. The rule that keeps this loss-free: **whatever a quiet
    /// push leaves in the queue is drained before the lock is
    /// released.** That covers the quiet sample itself and any sample a
    /// concurrent producer adds meanwhile — such a push finds the queue
    /// non-empty (or, on the lock-free backends, the drain cursor
    /// behind its own batch) and so skips its own wakeup, relying on
    /// the drain already under way. The caller's drain-to-empty loop is
    /// that drain. A push landing after the loop saw the queue empty
    /// signals as usual, so a parked worker never sleeps over work.
    pub(crate) fn push_quiet_at(&self, value: f64, at: f64) -> bool {
        self.offer(value, at, false)
    }

    fn offer(&self, value: f64, at: f64, signal: bool) -> bool {
        if let Some(dlq) = self.dlq.get() {
            // While samples are pending in the DLQ, new lossy pushes
            // must queue *behind* them: the logical stream is always
            // `main queue ++ DLQ`, which is what keeps replayed runs
            // in per-producer FIFO order (and digests deterministic).
            if dlq.pending() > 0 {
                return dlq.capture_one(value, at);
            }
        }
        let accepted = match &self.inner {
            Inner::Mutex(q) => q.try_push(value, at, signal),
            Inner::Ring(q) => q.try_push(value, at, signal),
            Inner::FanIn(q) => q.try_push(value, at, signal),
        };
        if accepted {
            return true;
        }
        if let Some(dlq) = self.dlq.get() {
            return dlq.capture_one(value, at);
        }
        self.counters().dropped.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Offers a batch of `(value, at)` samples, accepting a leading
    /// prefix bounded by the free space; returns how many were
    /// accepted. The rest are counted as drops — unless a dead-letter
    /// queue is attached, in which case they are captured there (then
    /// the return value counts queued *plus* captured samples, and the
    /// shortfall is DLQ overflow). One lock acquisition (mutex) or one
    /// tail publish (ring) covers the whole accepted prefix — the
    /// batched-producer fast path.
    pub fn push_batch<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut it = samples.into_iter();
        let want = it.len();
        if let Some(dlq) = self.dlq.get() {
            // FIFO invariant: pending dead letters go first. See
            // `push_at`.
            if dlq.pending() > 0 {
                return dlq.capture_iter(&mut it, want);
            }
        }
        let took = match &self.inner {
            Inner::Mutex(q) => q.push_batch_partial(&mut it, want),
            Inner::Ring(q) => q.push_batch_partial(&mut it, want),
            Inner::FanIn(q) => q.push_batch_partial(&mut it, want),
        };
        if took < want {
            if let Some(dlq) = self.dlq.get() {
                return took + dlq.capture_iter(&mut it, want - took);
            }
            self.counters()
                .dropped
                .fetch_add((want - took) as u64, Ordering::Relaxed);
        }
        took
    }

    /// Pushes a batch losslessly: accepts as much as fits, then spins
    /// briefly and parks until the consumer frees space, repeating
    /// until every sample is enqueued — or until [`ObsQueue::shutdown`]
    /// wakes the park, at which point it stops short. Returns how many
    /// samples were enqueued (short of the batch length only on
    /// shutdown). Parks are counted in [`ObsQueue::waits`].
    pub fn push_batch_blocking<I>(&self, samples: I) -> usize
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut it = samples.into_iter();
        let want = it.len();
        let mut pushed = 0;
        while pushed < want {
            let took = match &self.inner {
                Inner::Mutex(q) => q.push_batch_partial(&mut it, want - pushed),
                Inner::Ring(q) => q.push_batch_partial(&mut it, want - pushed),
                Inner::FanIn(q) => q.push_batch_partial(&mut it, want - pushed),
            };
            pushed += took;
            if pushed < want {
                let space = match &self.inner {
                    Inner::Mutex(q) => q.wait_for_space(),
                    Inner::Ring(q) => q.wait_for_space(),
                    Inner::FanIn(q) => q.wait_for_space(),
                };
                if !space {
                    break; // shut down while full: nothing will drain
                }
            }
        }
        pushed
    }

    /// Pushes an untimed observation, waiting until space frees up. For
    /// producers that must not lose samples, e.g. the throughput bench's
    /// load generators. Returns `false` only if the queue was shut down
    /// while full (the sample was not enqueued).
    pub fn push_blocking(&self, value: f64) -> bool {
        self.push_blocking_at(value, UNTIMED)
    }

    /// Pushes a timestamped observation, waiting until space frees up.
    ///
    /// Spins (with scheduler yields) a bounded number of times, then
    /// parks until the consumer drains — a stalled consumer never costs
    /// a pegged producer core. Parks are counted in [`ObsQueue::waits`].
    /// Returns `false` only if the queue was shut down while full.
    pub fn push_blocking_at(&self, value: f64, at: f64) -> bool {
        match &self.inner {
            Inner::Mutex(q) => q.push_blocking(value, at),
            Inner::Ring(q) => q.push_blocking(value, at),
            Inner::FanIn(q) => q.push_blocking(value, at),
        }
    }

    /// Marks the queue shut down and wakes every parked producer: the
    /// drain plane is gone, so space will never free and a blocking
    /// push sleeping on it would hang forever. Blocking pushes observe
    /// the flag and return short instead. Sticky until
    /// [`ObsQueue::clear_shutdown`] (the consumer pool clears it on
    /// spawn so drain planes can run back to back on one supervisor);
    /// non-blocking pushes and drains are unaffected.
    pub fn shutdown(&self) {
        match &self.inner {
            Inner::Mutex(q) => q.shutdown(),
            Inner::Ring(q) => q.shutdown(),
            Inner::FanIn(q) => q.shutdown(),
        }
    }

    /// Whether [`ObsQueue::shutdown`] has been called (and not cleared).
    pub fn is_shutdown(&self) -> bool {
        match &self.inner {
            Inner::Mutex(q) => q.shutdown.load(Ordering::SeqCst),
            Inner::Ring(q) => q.shutdown.load(Ordering::SeqCst),
            Inner::FanIn(q) => q.shutdown.load(Ordering::SeqCst),
        }
    }

    /// Clears the sticky shutdown flag so blocking pushes park again.
    pub(crate) fn clear_shutdown(&self) {
        match &self.inner {
            Inner::Mutex(q) => q.shutdown.store(false, Ordering::SeqCst),
            Inner::Ring(q) => q.shutdown.store(false, Ordering::SeqCst),
            Inner::FanIn(q) => q.shutdown.store(false, Ordering::SeqCst),
        }
    }

    /// The attached dead-letter queue, if any.
    pub fn dlq(&self) -> Option<&Arc<DeadLetterQueue>> {
        self.dlq.get()
    }

    /// Attaches a dead-letter queue: lossy pushes that find the queue
    /// full capture their samples there instead of dropping them. The
    /// attachment is shared by every clone of this queue — including
    /// clones made before the call. At most one DLQ per queue.
    ///
    /// # Panics
    ///
    /// If a DLQ is already attached.
    pub(crate) fn attach_dlq(&self, dlq: Arc<DeadLetterQueue>) {
        assert!(
            self.dlq.set(dlq).is_ok(),
            "dead-letter queue already attached"
        );
    }

    /// Re-ingests pending dead-lettered samples into the main queue
    /// (oldest first), bounded by the queue's free space; returns how
    /// many were moved. The drain path calls this before every drain,
    /// so replayed samples re-enter at drain-batch boundaries in
    /// capture order — the ordering the decision digests are defined
    /// over. No-op without a DLQ or with nothing pending.
    ///
    /// Single-consumer note: this pushes from the consumer thread, but
    /// never concurrently with a producer on the SPSC ring — while the
    /// DLQ is non-empty every lossy push is diverted *into* the DLQ
    /// (serialised by its lock), and the pending count only reads zero
    /// again after the replay's queue writes are published.
    pub(crate) fn replay_dead_letters(&self) -> usize {
        let Some(dlq) = self.dlq.get() else { return 0 };
        if dlq.pending() == 0 {
            return 0;
        }
        dlq.replay_with(|mut it, want| match &self.inner {
            Inner::Mutex(q) => q.push_batch_partial(&mut it, want),
            Inner::Ring(q) => q.push_batch_partial(&mut it, want),
            Inner::FanIn(q) => q.push_batch_partial(&mut it, want),
        })
    }

    /// Moves up to `max` pending `(value, at)` samples into `out`
    /// (appended in FIFO order), returning how many were moved. One
    /// lock acquisition (mutex) or one contiguous slot run (ring) per
    /// batch; parked producers are woken when space was freed.
    pub fn drain_into(&self, out: &mut Vec<(f64, f64)>, max: usize) -> usize {
        match &self.inner {
            Inner::Mutex(q) => q.drain_into(out, max),
            Inner::Ring(q) => q.drain_into(out, max),
            Inner::FanIn(q) => q.drain_into(out, max),
        }
    }

    /// Pending observations right now.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Mutex(q) => q.len(),
            Inner::Ring(q) => q.len(),
            Inner::FanIn(q) => q.len(),
        }
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending observations as a cheap, *approximate* heat signal:
    /// relaxed atomic loads only, never a lock. Exact when the queue is
    /// quiescent; under concurrent pushes and drains it is a racy
    /// snapshot that may lag either side by a batch. The consumer
    /// pool's work-stealing check reads this so sizing up a backlog
    /// never contends with the drain it is deciding whether to relieve.
    pub fn backlog_hint(&self) -> usize {
        match &self.inner {
            Inner::Mutex(q) => q.occupancy.load(Ordering::Relaxed),
            Inner::Ring(q) => q.len(),
            Inner::FanIn(q) => q.len(),
        }
    }

    /// Maximum pending observations.
    pub fn capacity(&self) -> usize {
        match &self.inner {
            Inner::Mutex(q) => q.capacity,
            Inner::Ring(q) => q.capacity,
            Inner::FanIn(q) => q.capacity,
        }
    }

    /// Resets the lifetime accounting to checkpointed values; used when
    /// a supervisor restores a snapshot so its report resumes the
    /// checkpoint's totals.
    pub(crate) fn resume_counters(&self, accepted: u64, dropped: u64, waits: u64) {
        let counters = self.counters();
        counters.accepted.store(accepted, Ordering::Relaxed);
        counters.dropped.store(dropped, Ordering::Relaxed);
        counters.waits.store(waits, Ordering::Relaxed);
    }

    /// Counts one sample as accepted without enqueueing it: the direct
    /// synchronous path decides a sample in place instead of pushing it
    /// through an empty queue, and must account it as that push would.
    pub(crate) fn count_accepted(&self) {
        self.counters().accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime count of accepted observations.
    pub fn accepted(&self) -> u64 {
        self.counters().accepted.load(Ordering::Relaxed)
    }

    /// Lifetime count of observations dropped to back-pressure.
    pub fn dropped(&self) -> u64 {
        self.counters().dropped.load(Ordering::Relaxed)
    }

    /// Lifetime count of blocking-producer parks (back-pressure stalls
    /// that put the producer to sleep instead of spinning).
    pub fn waits(&self) -> u64 {
        self.counters().waits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [QueueBackend; 3] =
        [QueueBackend::Mutex, QueueBackend::Ring, QueueBackend::FanIn];

    /// Runs `test` against a fresh queue of every backend.
    fn for_each_backend(capacity: usize, test: impl Fn(ObsQueue)) {
        for backend in BACKENDS {
            test(ObsQueue::with_backend(capacity, backend));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ObsQueue::bounded(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics_for_ring() {
        let _ = ObsQueue::with_backend(0, QueueBackend::Ring);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("mutex".parse(), Ok(QueueBackend::Mutex));
        assert_eq!("Ring".parse(), Ok(QueueBackend::Ring));
        assert_eq!("fanin".parse(), Ok(QueueBackend::FanIn));
        assert!("spinlock".parse::<QueueBackend>().is_err());
        assert!("spinlock"
            .parse::<QueueBackend>()
            .unwrap_err()
            .contains("mutex|ring|fanin"));
        assert_eq!(QueueBackend::Ring.to_string(), "ring");
        assert_eq!(QueueBackend::FanIn.to_string(), "fanin");
        assert_eq!(QueueBackend::default(), QueueBackend::Mutex);
    }

    #[test]
    fn push_fails_fast_when_full() {
        for_each_backend(2, |q| {
            assert!(q.push(1.0));
            assert!(q.push(2.0));
            assert!(!q.push(3.0));
            assert_eq!((q.accepted(), q.dropped(), q.len()), (2, 1, 2));
        });
    }

    #[test]
    fn drain_preserves_fifo_order_and_frees_space() {
        for_each_backend(3, |q| {
            for v in [1.0, 2.0, 3.0] {
                q.push(v);
            }
            let mut out = Vec::new();
            assert_eq!(q.drain_into(&mut out, 2), 2);
            assert_eq!(values(&out), vec![1.0, 2.0]);
            assert!(q.push(4.0), "drain must free capacity");
            assert_eq!(q.drain_into(&mut out, 10), 2);
            assert_eq!(values(&out), vec![1.0, 2.0, 3.0, 4.0]);
            assert!(q.is_empty());
        });
    }

    fn values(samples: &[(f64, f64)]) -> Vec<f64> {
        samples.iter().map(|&(v, _)| v).collect()
    }

    #[test]
    fn timestamps_ride_along_and_untimed_is_nan() {
        for_each_backend(4, |q| {
            q.push_at(1.5, 10.0);
            q.push(2.5);
            let mut out = Vec::new();
            q.drain_into(&mut out, 8);
            assert_eq!(out[0], (1.5, 10.0));
            assert_eq!(out[1].0, 2.5);
            assert!(out[1].1.is_nan(), "untimed samples carry NaN");
        });
    }

    #[test]
    fn clones_share_state() {
        for_each_backend(4, |q| {
            let producer = q.clone();
            producer.push(7.0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.accepted(), 1);
        });
    }

    #[test]
    fn batch_push_accepts_a_prefix_and_counts_the_rest_as_drops() {
        for_each_backend(4, |q| {
            q.push(0.0);
            let batch: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, UNTIMED)).collect();
            assert_eq!(q.push_batch(batch), 3, "only three slots were free");
            assert_eq!((q.accepted(), q.dropped(), q.len()), (4, 2, 4));
            let mut out = Vec::new();
            q.drain_into(&mut out, 10);
            assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0]);
        });
    }

    #[test]
    fn batch_push_wraps_around_the_ring() {
        // Cycle a small ring well past its physical slot count so laps
        // and sequence-word advancement are exercised.
        for_each_backend(3, |q| {
            let mut out = Vec::new();
            let mut expected = Vec::new();
            let mut next = 0.0;
            for round in 0..40 {
                let n = 1 + (round % 3);
                let batch: Vec<(f64, f64)> = (0..n).map(|i| (next + i as f64, UNTIMED)).collect();
                let took = q.push_batch(batch.clone());
                expected.extend(batch[..took].iter().map(|&(v, _)| v));
                next += n as f64;
                q.drain_into(&mut out, 2);
            }
            q.drain_into(&mut out, usize::MAX);
            assert_eq!(values(&out), expected);
            assert_eq!(q.accepted(), expected.len() as u64);
        });
    }

    #[test]
    fn blocking_push_parks_instead_of_spinning() {
        for_each_backend(1, |q| {
            q.push(0.0);
            let producer = q.clone();
            let handle = std::thread::spawn(move || {
                // Queue is full: the producer must wait for the drain below.
                producer.push_blocking(1.0);
            });
            // Give the producer time to exhaust its spin budget and park.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let mut out = Vec::new();
            q.drain_into(&mut out, 1);
            handle.join().unwrap();
            assert_eq!(q.len(), 1);
            assert_eq!(q.accepted(), 2);
            assert_eq!(q.waits(), 1, "the stalled producer parked exactly once");
        });
    }

    #[test]
    fn blocking_batch_push_delivers_everything() {
        for_each_backend(4, |q| {
            let producer = q.clone();
            let handle = std::thread::spawn(move || {
                let batch: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, UNTIMED)).collect();
                producer.push_batch_blocking(batch);
            });
            let mut out = Vec::new();
            while out.len() < 64 {
                if q.drain_into(&mut out, 8) == 0 {
                    std::thread::yield_now();
                }
            }
            handle.join().unwrap();
            assert_eq!(values(&out), (0..64).map(f64::from).collect::<Vec<_>>());
            assert_eq!((q.accepted(), q.dropped()), (64, 0));
        });
    }

    #[test]
    fn notifier_signals_on_empty_to_nonempty_transition() {
        for_each_backend(8, |q| {
            let notifier = Arc::new(WorkNotifier::new());
            q.attach_notifier(Arc::clone(&notifier));
            q.push(1.0);
            assert_eq!(notifier.wait(), Wakeup::Work, "first push signals");
            q.push(2.0); // non-empty: no signal needed
            notifier.shutdown();
            assert_eq!(notifier.wait(), Wakeup::Shutdown);
        });
    }

    #[test]
    fn notifier_reports_pending_work_before_shutdown() {
        let n = WorkNotifier::new();
        n.notify_work();
        n.shutdown();
        assert_eq!(n.wait(), Wakeup::Work, "pre-shutdown work drains first");
        assert_eq!(n.wait(), Wakeup::Shutdown);
        assert_eq!(n.parks(), 0, "no wait ever blocked");
    }

    #[test]
    fn threaded_producer_consumer_loses_nothing_with_blocking_push() {
        for_each_backend(16, |q| {
            let producer = q.clone();
            const N: u64 = 10_000;
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for i in 0..N {
                        producer.push_blocking(i as f64);
                    }
                });
                let mut seen = 0u64;
                let mut batch = Vec::new();
                let mut expected = 0.0;
                while seen < N {
                    batch.clear();
                    let n = q.drain_into(&mut batch, 64);
                    for &(v, _) in &batch {
                        assert_eq!(v, expected, "FIFO order must survive threading");
                        expected += 1.0;
                    }
                    seen += n as u64;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            assert_eq!(q.accepted(), N);
            assert_eq!(q.dropped(), 0);
        });
    }

    #[test]
    fn threaded_batched_producer_keeps_fifo_and_loses_nothing() {
        for_each_backend(64, |q| {
            let producer = q.clone();
            const N: u64 = 50_000;
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut i = 0u64;
                    while i < N {
                        let n = (N - i).min(37);
                        let batch: Vec<(f64, f64)> =
                            (i..i + n).map(|k| (k as f64, UNTIMED)).collect();
                        producer.push_batch_blocking(batch);
                        i += n;
                    }
                });
                let mut seen = 0u64;
                let mut batch = Vec::new();
                let mut expected = 0.0;
                while seen < N {
                    batch.clear();
                    let n = q.drain_into(&mut batch, 48);
                    for &(v, _) in &batch {
                        assert_eq!(v, expected, "FIFO order must survive batching");
                        expected += 1.0;
                    }
                    seen += n as u64;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            assert_eq!(q.accepted(), N);
            assert_eq!(q.dropped(), 0);
        });
    }

    #[test]
    fn parked_consumer_is_woken_by_ring_pushes() {
        // End-to-end park/wake over the lock-free backend: a consumer
        // thread parks on the notifier whenever a drain comes up empty,
        // while the producer free-runs; every sample must arrive.
        let q = ObsQueue::with_backend(8, QueueBackend::Ring);
        let notifier = Arc::new(WorkNotifier::new());
        q.attach_notifier(Arc::clone(&notifier));
        const N: u64 = 2_000;
        std::thread::scope(|scope| {
            let consumer_q = q.clone();
            let consumer_n = Arc::clone(&notifier);
            let consumer = scope.spawn(move || {
                let mut out = Vec::new();
                loop {
                    while consumer_q.drain_into(&mut out, 16) > 0 {}
                    match consumer_n.wait() {
                        Wakeup::Work => continue,
                        Wakeup::Shutdown => break,
                    }
                }
                while consumer_q.drain_into(&mut out, 16) > 0 {}
                out
            });
            for i in 0..N {
                q.push_blocking(i as f64);
                if i % 128 == 0 {
                    // Give the consumer a chance to drain to empty and
                    // park, exercising the empty→non-empty wakeup.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            notifier.shutdown();
            let out = consumer.join().unwrap();
            assert_eq!(out.len() as u64, N, "every push was drained");
            for (i, &(v, _)) in out.iter().enumerate() {
                assert_eq!(v, i as f64);
            }
        });
    }

    /// Asserts the drained fan-in sequence is a loss-free merge: every
    /// producer's samples appear exactly once, in that producer's push
    /// order. Values encode `producer * stride + index`.
    fn assert_merged(out: &[(f64, f64)], producers: usize, per_producer: u64, stride: f64) {
        assert_eq!(out.len() as u64, producers as u64 * per_producer);
        let mut next = vec![0u64; producers];
        for &(v, _) in out {
            let producer = (v / stride) as usize;
            let index = (v - producer as f64 * stride) as u64;
            assert_eq!(
                index, next[producer],
                "producer {producer}'s samples arrived out of order"
            );
            next[producer] += 1;
        }
        assert!(next.iter().all(|&n| n == per_producer));
    }

    #[test]
    fn fanin_merges_concurrent_producers_without_loss_or_reordering() {
        // More producers than lanes, so the shared overflow lane is
        // exercised alongside the exclusive ones; a parked consumer
        // covers the notify handshake.
        const PRODUCERS: usize = FANIN_LANES + 4;
        const PER_PRODUCER: u64 = 2_000;
        let q = ObsQueue::with_backend(64, QueueBackend::FanIn);
        let notifier = Arc::new(WorkNotifier::new());
        q.attach_notifier(Arc::clone(&notifier));
        let out = std::thread::scope(|scope| {
            let consumer_q = q.clone();
            let consumer_n = Arc::clone(&notifier);
            let consumer = scope.spawn(move || {
                let mut out = Vec::new();
                loop {
                    while consumer_q.drain_into(&mut out, 32) > 0 {}
                    match consumer_n.wait() {
                        Wakeup::Work => continue,
                        Wakeup::Shutdown => break,
                    }
                }
                while consumer_q.drain_into(&mut out, 32) > 0 {}
                out
            });
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let producer = q.clone();
                    scope.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            producer.push_blocking(p as f64 * 1e6 + i as f64);
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            notifier.shutdown();
            consumer.join().unwrap()
        });
        assert_merged(&out, PRODUCERS, PER_PRODUCER, 1e6);
        assert_eq!(q.accepted(), PRODUCERS as u64 * PER_PRODUCER);
        assert_eq!(q.dropped(), 0, "blocking producers never drop");
    }

    #[test]
    fn fanin_batched_producers_merge_deterministically_per_producer() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 10_000;
        let q = ObsQueue::with_backend(128, QueueBackend::FanIn);
        let out = std::thread::scope(|scope| {
            let consumer_q = q.clone();
            let consumer = scope.spawn(move || {
                let mut out = Vec::new();
                while (out.len() as u64) < PRODUCERS as u64 * PER_PRODUCER {
                    if consumer_q.drain_into(&mut out, 48) == 0 {
                        std::thread::yield_now();
                    }
                }
                out
            });
            for p in 0..PRODUCERS {
                let producer = q.clone();
                scope.spawn(move || {
                    let mut i = 0u64;
                    while i < PER_PRODUCER {
                        let n = 37.min(PER_PRODUCER - i);
                        let batch: Vec<(f64, f64)> = (i..i + n)
                            .map(|k| (p as f64 * 1e6 + k as f64, UNTIMED))
                            .collect();
                        producer.push_batch_blocking(batch);
                        i += n;
                    }
                });
            }
            consumer.join().unwrap()
        });
        assert_merged(&out, PRODUCERS, PER_PRODUCER, 1e6);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn fanin_accounts_drops_exactly_under_concurrent_lossy_producers() {
        const PRODUCERS: usize = 6;
        const PER_PRODUCER: u64 = 5_000;
        let q = ObsQueue::with_backend(32, QueueBackend::FanIn);
        let drained = std::sync::atomic::AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) || !q.is_empty() {
                    out.clear();
                    if q.drain_into(&mut out, 16) == 0 {
                        std::thread::yield_now();
                    }
                    drained.fetch_add(out.len() as u64, Ordering::Relaxed);
                }
            });
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let producer = q.clone();
                    scope.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            producer.push(p as f64 * 1e6 + i as f64);
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        let sent = PRODUCERS as u64 * PER_PRODUCER;
        assert_eq!(
            q.accepted() + q.dropped(),
            sent,
            "every push was either accepted or counted as a drop"
        );
        assert_eq!(
            drained.load(Ordering::Relaxed),
            q.accepted(),
            "every accepted sample was drained exactly once"
        );
    }

    #[test]
    fn backlog_hint_tracks_occupancy_when_quiescent() {
        for_each_backend(8, |q| {
            assert_eq!(q.backlog_hint(), 0);
            for v in 0..5 {
                q.push(v as f64);
            }
            assert_eq!(q.backlog_hint(), 5, "{}", q.backend());
            let mut out = Vec::new();
            q.drain_into(&mut out, 3);
            assert_eq!(q.backlog_hint(), 2, "{}", q.backend());
            q.drain_into(&mut out, usize::MAX);
            assert_eq!(q.backlog_hint(), 0, "{}", q.backend());
        });
    }

    /// Regression: a producer parked inside `push_batch_blocking` on a
    /// full queue must be woken by `shutdown` and return short, rather
    /// than sleep forever on space that will never free (the drain
    /// plane is gone). Before the fix, the park loop re-checked only
    /// occupancy, so the wake was lost and join hung.
    #[test]
    fn shutdown_wakes_a_parked_batch_producer() {
        for_each_backend(4, |q| {
            for v in 0..4 {
                q.push(v as f64);
            }
            let producer = q.clone();
            let pushed = std::thread::scope(|scope| {
                let handle = scope.spawn(move || {
                    let batch: Vec<(f64, f64)> =
                        (0..8).map(|k| (100.0 + k as f64, UNTIMED)).collect();
                    producer.push_batch_blocking(batch)
                });
                // Wait until the producer has given up spinning and
                // parked (parks are counted), then shut the queue down.
                while q.waits() == 0 {
                    std::thread::yield_now();
                }
                q.shutdown();
                handle.join().unwrap()
            });
            assert!(q.is_shutdown(), "{}", q.backend());
            assert!(
                pushed < 8,
                "{}: batch producer must return short on shutdown, pushed {pushed}",
                q.backend()
            );
        });
    }

    #[test]
    fn shutdown_wakes_a_parked_blocking_push_and_clear_rearms_it() {
        for_each_backend(2, |q| {
            q.push(1.0);
            q.push(2.0);
            let producer = q.clone();
            let accepted = std::thread::scope(|scope| {
                let handle = scope.spawn(move || producer.push_blocking(3.0));
                while q.waits() == 0 {
                    std::thread::yield_now();
                }
                q.shutdown();
                handle.join().unwrap()
            });
            assert!(
                !accepted,
                "{}: shutdown while full must refuse",
                q.backend()
            );
            // The flag is sticky until cleared; once cleared (the pool
            // does this on spawn) and space exists, blocking pushes
            // work again.
            q.clear_shutdown();
            assert!(!q.is_shutdown());
            let mut out = Vec::new();
            q.drain_into(&mut out, usize::MAX);
            assert!(q.push_blocking(4.0), "{}", q.backend());
        });
    }

    #[test]
    fn dlq_captures_overflow_instead_of_dropping() {
        for_each_backend(2, |q| {
            q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 3)));
            // 2 fit, 3 dead-letter, 1 overflows the DLQ itself.
            let mut offered = 0u64;
            for v in 0..6 {
                q.push(v as f64);
                offered += 1;
            }
            let stats = q.dlq().unwrap().stats();
            assert_eq!(
                q.dropped(),
                0,
                "{}: a DLQ means no silent drops",
                q.backend()
            );
            assert_eq!((stats.pending, stats.captured, stats.overflow), (3, 3, 1));
            assert_eq!(
                q.accepted() + stats.pending as u64 + stats.overflow,
                offered,
                "{}: every offered sample is accounted for",
                q.backend()
            );
        });
    }

    #[test]
    fn pending_dead_letters_divert_pushes_even_with_queue_space() {
        for_each_backend(2, |q| {
            q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 8)));
            q.push(1.0);
            q.push(2.0);
            q.push(3.0); // full -> dead-lettered
            let mut out = Vec::new();
            q.drain_into(&mut out, usize::MAX); // frees all space
                                                // The logical stream is queue ++ DLQ: while sample 3.0 is
                                                // still pending, later pushes must line up behind it, not
                                                // jump into the freed slots.
            assert!(q.push(4.0), "{}", q.backend());
            assert_eq!(q.len(), 0, "{}: push diverted to the DLQ", q.backend());
            assert_eq!(values(&q.dlq().unwrap().contents()), vec![3.0, 4.0]);
            // Batch pushes divert the same way.
            assert_eq!(q.push_batch(vec![(5.0, UNTIMED)]), 1);
            assert_eq!(q.dlq().unwrap().pending(), 3, "{}", q.backend());
        });
    }

    #[test]
    fn replay_moves_dead_letters_fifo_bounded_by_free_space() {
        for_each_backend(2, |q| {
            q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 8)));
            for v in 0..5 {
                q.push(v as f64); // 0,1 queued; 2,3,4 dead-lettered
            }
            let mut out = Vec::new();
            q.drain_into(&mut out, usize::MAX);
            assert_eq!(values(&out), vec![0.0, 1.0]);
            // Space for two: replay moves exactly the two oldest.
            assert_eq!(q.replay_dead_letters(), 2, "{}", q.backend());
            q.drain_into(&mut out, usize::MAX);
            assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0]);
            assert_eq!(q.replay_dead_letters(), 1, "{}", q.backend());
            q.drain_into(&mut out, usize::MAX);
            assert_eq!(values(&out), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
            let stats = q.dlq().unwrap().stats();
            assert_eq!((stats.pending, stats.captured, stats.replayed), (0, 3, 3));
            // After replay the accounting identity still balances:
            // replayed samples moved from `pending` into `accepted`.
            assert_eq!(q.accepted() + stats.overflow, 5);
            assert_eq!(
                q.replay_dead_letters(),
                0,
                "{}: nothing pending",
                q.backend()
            );
        });
    }

    #[test]
    fn batch_push_splits_between_queue_and_dlq() {
        for_each_backend(2, |q| {
            q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
            let batch: Vec<(f64, f64)> = (0..6).map(|v| (v as f64, UNTIMED)).collect();
            // 2 queued + 2 captured = 4 kept; 2 are DLQ overflow.
            assert_eq!(q.push_batch(batch), 4, "{}", q.backend());
            assert_eq!(q.dropped(), 0, "{}", q.backend());
            let stats = q.dlq().unwrap().stats();
            assert_eq!((stats.pending, stats.overflow), (2, 2));
        });
    }

    #[test]
    #[should_panic(expected = "dead-letter queue already attached")]
    fn attaching_a_second_dlq_panics() {
        let q = ObsQueue::bounded(2);
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
        q.attach_dlq(Arc::new(DeadLetterQueue::new(0, 2)));
    }
}
