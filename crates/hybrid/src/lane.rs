//! The group-commit write lane both service front-ends run on.
//!
//! A lane is one [`Engine`] behind a leader/follower queue. Every
//! write enqueues a request with a result slot. The first writer to
//! find the lane idle becomes the *leader*: it takes the engine lock,
//! swaps out the whole pending queue, commits it as one batch by
//! running the front-end's apply closure on each request in queue
//! order, republishes the lane's [`Snapshot`]
//! and only then fills the submitters' slots — so every writer reads
//! its own write in the next snapshot it takes (read-your-writes).
//! Writers that arrive while a leader is busy enqueue and park
//! (followers); the leader keeps draining until the queue is empty.
//!
//! [`Service`](crate::Service) runs one lane;
//! [`ShardedService`](crate::ShardedService) runs one per shard. What
//! differs between them — event fan-out and per-op history on the one
//! hand, routing, broadcast/2PC and per-batch history on the other —
//! lives in the two closures they pass to [`Lane::submit`]: one applies
//! a request, the other runs once per batch after the republish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use crate::engine::Engine;
use crate::error::{HybridError, HybridResult};
use crate::events::Event;
use crate::snapshot::Snapshot;

/// Lock a mutex, riding through poisoning: a writer that panicked
/// mid-batch must not take the whole service down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a committed (or journaled-and-failed) write hands back: the
/// commit seq and the event.
pub(crate) type Outcome = HybridResult<(u64, Event)>;

/// One submitted request waiting for its batch to commit.
struct Slot {
    result: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, result: Outcome) {
        *lock(&self.result) = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> Outcome {
        let mut guard = lock(&self.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The pending queue. `draining` marks that a leader is inside the
/// engine critical section.
struct Queue<R> {
    pending: Vec<(R, Arc<Slot>)>,
    draining: bool,
}

/// A point-in-time copy of one write lane's counters.
///
/// [`Service::stats`](crate::Service::stats) returns its one lane's;
/// [`ShardStats::shards`](crate::ShardStats::shards) holds one per
/// shard. The E12, E14 and served-path benchmarks report these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests committed through the lane's queue (a broadcast counts
    /// once, on the lane that led it).
    pub ops: u64,
    /// Engine critical sections (group commits).
    pub batches: u64,
    /// Largest single group commit, in requests.
    pub max_batch: u64,
    /// Writers that parked as followers instead of leading a batch.
    pub writer_waits: u64,
    /// Snapshot reads that found the publish lock briefly held.
    pub reader_waits: u64,
    /// Requests enqueued but not yet taken by a leader at sample time
    /// (the write-queue depth the network front-end's BUSY threshold
    /// reads).
    pub queue_depth: u64,
    /// Deepest the pending queue has ever been.
    pub max_queue_depth: u64,
    /// Nanoseconds spent applying ops inside the engine critical
    /// section (lock wait and routing excluded) — the numerator of
    /// E14's critical-path model, so only the sharded service measures
    /// it. [`Service`](crate::Service) leaves it at 0: the two clock
    /// reads per op cost about 2% of its preload CPU.
    pub busy_ns: u64,
}

/// The live counters behind [`ServiceStats`]; all relaxed atomics.
#[derive(Debug, Default)]
struct Counters {
    ops: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    writer_waits: AtomicU64,
    reader_waits: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    busy_ns: AtomicU64,
}

/// One engine, its group-commit queue of `R` requests, its published
/// snapshot and its counters.
pub(crate) struct Lane<R> {
    engine: Mutex<Engine>,
    queue: Mutex<Queue<R>>,
    /// The published read view; replaced (not mutated) once per batch.
    snapshot: Mutex<Arc<Snapshot>>,
    /// Seq of the published snapshot, for cheap staleness checks.
    published_seq: AtomicU64,
    counters: Counters,
}

impl<R> Lane<R> {
    /// A lane over `engine`, publishing its current state.
    pub(crate) fn new(engine: Engine) -> Lane<R> {
        Lane {
            snapshot: Mutex::new(engine.snapshot()),
            published_seq: AtomicU64::new(engine.seq()),
            engine: Mutex::new(engine),
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                draining: false,
            }),
            counters: Counters::default(),
        }
    }

    /// The engine under its write lock, outside the queue — for
    /// maintenance paths and for a broadcast leader applying to every
    /// lane (which locks engines in ascending lane order only).
    pub(crate) fn engine(&self) -> MutexGuard<'_, Engine> {
        lock(&self.engine)
    }

    /// The published snapshot. Never waits on a leader for long: a
    /// brush with the publish lock is counted as a reader wait.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        match self.snapshot.try_lock() {
            Ok(guard) => Arc::clone(&guard),
            Err(TryLockError::WouldBlock) => {
                self.counters.reader_waits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&lock(&self.snapshot))
            }
            Err(TryLockError::Poisoned(p)) => Arc::clone(&p.into_inner()),
        }
    }

    /// Seq of the published snapshot.
    pub(crate) fn published_seq(&self) -> u64 {
        self.published_seq.load(Ordering::Acquire)
    }

    /// Replaces the published snapshot with `engine`'s current state.
    pub(crate) fn publish(&self, engine: &Engine) {
        *lock(&self.snapshot) = engine.snapshot();
        self.published_seq.store(engine.seq(), Ordering::Release);
    }

    /// Requests enqueued but not yet taken by a leader: one relaxed
    /// load, cheap enough for a per-request saturation check.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.counters.queue_depth.load(Ordering::Relaxed)
    }

    /// A copy of the lane's counters.
    pub(crate) fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            ops: c.ops.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            writer_waits: c.writer_waits.load(Ordering::Relaxed),
            reader_waits: c.reader_waits.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` (a sharded engine apply), charging its time to
    /// `busy_ns`.
    pub(crate) fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.counters
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Enqueues `request` and blocks until its batch commits.
    ///
    /// If the lane is idle the caller leads: it commits batches until
    /// the queue is empty. Per batch, `apply` runs on each request in
    /// queue order under the engine lock; the lane then republishes
    /// its snapshot, runs `published` over the batch's outcomes, and
    /// fills the slots.
    pub(crate) fn submit(
        &self,
        request: R,
        apply: impl FnMut(&mut Engine, R) -> Outcome,
        published: impl FnMut(&[Outcome]),
    ) -> Outcome {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let lead = {
            let mut queue = lock(&self.queue);
            queue.pending.push((request, Arc::clone(&slot)));
            let depth = queue.pending.len() as u64;
            self.counters.queue_depth.store(depth, Ordering::Relaxed);
            self.counters
                .max_queue_depth
                .fetch_max(depth, Ordering::Relaxed);
            if queue.draining {
                self.counters.writer_waits.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                queue.draining = true;
                true
            }
        };
        if lead {
            self.drain(apply, published);
        }
        slot.wait()
    }

    /// Leader path: swap out the pending queue and commit it as one
    /// batch, until no requests remain; then hand leadership back.
    fn drain(
        &self,
        mut apply: impl FnMut(&mut Engine, R) -> Outcome,
        mut published: impl FnMut(&[Outcome]),
    ) {
        let mut engine = lock(&self.engine);
        let mut guard = LeaderGuard {
            queue: &self.queue,
            counters: &self.counters,
            taken: Vec::new().into_iter(),
            slots: Vec::new(),
            leading: true,
        };
        loop {
            let batch = {
                let mut queue = lock(&self.queue);
                if queue.pending.is_empty() {
                    queue.draining = false;
                    guard.leading = false;
                    break;
                }
                self.counters.queue_depth.store(0, Ordering::Relaxed);
                std::mem::take(&mut queue.pending)
            };
            let size = batch.len() as u64;
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters.ops.fetch_add(size, Ordering::Relaxed);
            self.counters.max_batch.fetch_max(size, Ordering::Relaxed);
            guard.taken = batch.into_iter();
            let mut outcomes = Vec::with_capacity(guard.taken.len());
            for (request, slot) in guard.taken.by_ref() {
                guard.slots.push(slot);
                outcomes.push(apply(&mut engine, request));
            }
            // One republish per batch, before any submitter wakes.
            self.publish(&engine);
            published(&outcomes);
            for (slot, outcome) in guard.slots.drain(..).zip(outcomes) {
                slot.fill(outcome);
            }
        }
    }
}

/// Unwind safety for a leader. Dropped while still `leading` — the
/// apply closure (or anything after it) panicked — it hands
/// leadership back and fails every slot the leader was holding or
/// would have taken, so no follower parks forever and the next
/// submitter can lead. Ops already applied stay applied.
struct LeaderGuard<'a, R> {
    queue: &'a Mutex<Queue<R>>,
    counters: &'a Counters,
    /// The swapped-out batch's requests not yet applied.
    taken: std::vec::IntoIter<(R, Arc<Slot>)>,
    /// Slots of the batch's applied requests, filled after publish.
    slots: Vec<Arc<Slot>>,
    leading: bool,
}

impl<R> Drop for LeaderGuard<'_, R> {
    fn drop(&mut self) {
        if !self.leading {
            return;
        }
        let stranded = {
            let mut queue = lock(self.queue);
            queue.draining = false;
            self.counters.queue_depth.store(0, Ordering::Relaxed);
            std::mem::take(&mut queue.pending)
        };
        let unapplied = self.taken.by_ref().chain(stranded).map(|(_, slot)| slot);
        for slot in self.slots.drain(..).chain(unapplied) {
            slot.fill(Err(HybridError::WriteAborted(
                "the batch leader panicked before this write's outcome was known".into(),
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    fn apply_one(engine: &mut Engine, op: Op) -> Outcome {
        let result = engine.apply(op);
        result.map(|event| (engine.seq(), event))
    }

    fn project(name: &str) -> Op {
        Op::CreateProject { name: name.into() }
    }

    /// Runs `submit` on its own thread; `None` if it did not return
    /// within ten seconds (a parked follower nobody will wake).
    fn submit_within(lane: &Arc<Lane<Op>>, op: Op) -> Option<Outcome> {
        let (tx, rx) = mpsc::channel();
        let lane = Arc::clone(lane);
        let submitter = std::thread::spawn(move || {
            let _ = tx.send(lane.submit(op, apply_one, |_| {}));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(10)).ok()?;
        submitter.join().expect("the submitter returned");
        Some(outcome)
    }

    #[test]
    fn a_panicking_batch_fails_its_followers_and_the_lane_recovers() {
        let lane: Arc<Lane<Op>> = Arc::new(Lane::new(Engine::builder().build()));
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let leader = {
            let (lane, entered, release) = (lane.clone(), entered.clone(), release.clone());
            std::thread::spawn(move || {
                lane.submit(
                    project("leader"),
                    |_, _| {
                        entered.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        panic!("injected batch failure");
                    },
                    |_| {},
                )
            })
        };
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Followers enqueue behind the stuck leader, then it panics.
        let (tx, rx) = mpsc::channel();
        let followers: Vec<_> = (0..3)
            .map(|i| {
                let (lane, tx) = (lane.clone(), tx.clone());
                std::thread::spawn(move || {
                    let _ = tx.send(lane.submit(project(&format!("f{i}")), apply_one, |_| {}));
                })
            })
            .collect();
        while lane.queue_depth() < 3 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        assert!(leader.join().is_err(), "the leader's panic propagates");
        for _ in 0..3 {
            let err = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a stranded follower is woken, not left parked")
                .expect_err("a stranded follower gets a typed error");
            assert_eq!(err.kind(), "write-aborted");
        }
        for follower in followers {
            follower.join().expect("followers return, not panic");
        }
        assert_eq!(lane.queue_depth(), 0);
        // Leadership was handed back: a later submit leads and commits.
        let (seq, event) = submit_within(&lane, project("after"))
            .expect("the next submitter can lead")
            .expect("the lane commits again");
        assert_eq!(seq, 1);
        assert_eq!(event.kind_name(), "project-created");
        assert_eq!(lane.snapshot().seq(), 1);
    }

    #[test]
    fn outcomes_are_published_before_slots_fill() {
        let lane: Lane<Op> = Lane::new(Engine::builder().build());
        let (seq, _) = lane
            .submit(project("p"), apply_one, |outcomes| {
                assert_eq!(outcomes.len(), 1);
            })
            .unwrap();
        assert_eq!(lane.published_seq(), seq);
        let stats = lane.stats();
        assert_eq!((stats.ops, stats.batches, stats.max_batch), (1, 1, 1));
        assert_eq!(stats.max_queue_depth, 1);
    }
}
