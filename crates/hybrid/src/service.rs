//! Concurrent multi-session front-end over the [`Engine`].
//!
//! The paper's system was inherently multi-user: several designers
//! drive the coupled frameworks at once, each through their own JCF
//! desktop session. This module reproduces that shape as a
//! thread-safe service with a sharded read/write discipline:
//!
//! * **Reads are snapshot reads.** The service keeps a published
//!   [`Snapshot`] (an immutable view over the OMS database and the
//!   coupling state); `browse`, `read_design_data` and arbitrary
//!   queries run against it with `&self`, in parallel, with zero byte
//!   copies — concurrent readers share [`cad_vfs::Blob`] handles.
//! * **Writes are group-committed.** All mutations funnel into the
//!   service's one write lane (the crate's `lane` module, shared with
//!   [`ShardedService`](crate::ShardedService)): the first writer to
//!   arrive leads and commits every queued op in one engine critical
//!   section; followers park on their result slot. Per batch the
//!   service offers each committed seq to the history ring, and after
//!   the lane republishes it fans the committed events out to every
//!   session's subscription queue — all before any submitter wakes.
//!
//! The effect is the classic group-commit trade: writers pay one lock
//! handoff per *batch* instead of per op, and readers never wait on
//! writers at all (at worst they read the previous snapshot). The
//! typed write helpers come from [`SessionOps`].
//!
//! # Examples
//!
//! ```
//! use hybrid::{Engine, Service, SessionOps};
//!
//! # fn main() -> Result<(), hybrid::HybridError> {
//! let service = Service::new(Engine::builder().build());
//! let admin = service.open_session(service.admin());
//! let alice_id = admin.add_user("alice", false)?;
//! let alice = service.open_session(alice_id);
//! // Reads run against the published snapshot, in parallel, &self:
//! assert_eq!(alice.snapshot().seq(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cad_vfs::Blob;
use jcf::{CellVersionId, DovId, UserId};

use crate::engine::Engine;
use crate::error::HybridResult;
use crate::events::Event;
use crate::history::{HistoryRing, HistoryView, MergeBackend, RetentionPolicy, Workspace};
use crate::lane::{lock, Lane, Outcome, ServiceStats};
use crate::ops::Op;
use crate::session::SessionOps;
use crate::snapshot::Snapshot;

/// A session's private queue of committed `(seq, event)` pairs.
type EventQueue = Arc<Mutex<VecDeque<(u64, Event)>>>;

struct Inner {
    /// The engine, its group-commit queue and its published snapshot.
    lane: Lane<Op>,
    /// Per-session event queues, keyed by session id.
    subscribers: Mutex<Vec<(u64, EventQueue)>>,
    /// The time-travel retention ring: recently published snapshots by
    /// commit seq, plus pins (§15). Only writers touch it (once per
    /// committed op); history reads clone an `Arc` out and leave.
    history: Mutex<HistoryRing<Arc<Snapshot>>>,
    next_session: AtomicU64,
    admin: UserId,
}

/// Thread-safe multi-session service over one [`Engine`].
///
/// Cloning is cheap (an [`Arc`] bump); clones share the engine, the
/// write queue and the published snapshot. Open one [`Session`] per
/// user with [`Service::open_session`].
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Wraps an engine (typically from [`Engine::builder`]) into a
    /// service and publishes the initial snapshot. History is retained
    /// under the default [`RetentionPolicy`]; use
    /// [`Service::with_retention`] to pick another.
    pub fn new(engine: Engine) -> Service {
        Service::with_retention(engine, RetentionPolicy::default())
    }

    /// Like [`Service::new`] with an explicit history retention policy.
    pub fn with_retention(engine: Engine, policy: RetentionPolicy) -> Service {
        let admin = engine.admin();
        let mut history = HistoryRing::new(policy);
        history.observe(engine.seq(), engine.snapshot());
        Service {
            inner: Arc::new(Inner {
                lane: Lane::new(engine),
                subscribers: Mutex::new(Vec::new()),
                history: Mutex::new(history),
                next_session: AtomicU64::new(1),
                admin,
            }),
        }
    }

    /// The built-in framework administrator.
    pub fn admin(&self) -> UserId {
        self.inner.admin
    }

    /// Opens a session acting as `user`. The session subscribes to the
    /// engine's event stream from this point on.
    pub fn open_session(&self, user: UserId) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let events = Arc::new(Mutex::new(VecDeque::new()));
        lock(&self.inner.subscribers).push((id, Arc::clone(&events)));
        Session {
            service: self.clone(),
            id,
            user,
            events,
            cache: Mutex::new(None),
        }
    }

    /// The currently published [`Snapshot`]. Never blocks on writers:
    /// if a leader is just republishing, the previous snapshot is
    /// returned (and the brush with the lock is counted as a
    /// `reader_wait`).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner.lane.snapshot()
    }

    /// A copy of the service's concurrency counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.lane.stats()
    }

    /// The current write-queue depth: ops enqueued but not yet taken
    /// by a batch leader. One relaxed atomic load — cheap enough for a
    /// per-request saturation check (the network front-end's BUSY
    /// threshold).
    pub fn queue_depth(&self) -> u64 {
        self.inner.lane.queue_depth()
    }

    /// Runs a closure against the engine under the write lock, outside
    /// the batching queue. For maintenance paths (checkpointing, fault
    /// arming) that need the whole engine, not one op.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.inner.lane.engine();
        let out = f(&mut engine);
        lock(&self.inner.history).observe(engine.seq(), engine.snapshot());
        self.inner.lane.publish(&engine);
        out
    }

    /// Submits one op through the batched write queue and blocks until
    /// its batch commits. Returns the engine sequence number the op
    /// committed at together with its event — the form the network
    /// front-end ships back over the wire. (In-process callers usually
    /// go through the typed [`SessionOps`] helpers instead.)
    ///
    /// Each batch applies its ops in order, offers every committed seq
    /// to the retention ring, republishes once and fans the committed
    /// events out to every session's queue before any submitter wakes.
    ///
    /// # Errors
    ///
    /// Returns whatever the op returns on the engine.
    pub fn submit(&self, op: Op) -> HybridResult<(u64, Event)> {
        let inner = &*self.inner;
        inner.lane.submit(
            op,
            |engine, op| {
                let result = engine.apply(op);
                let seq = engine.seq();
                // O(1) per op (the snapshot cache hands back one Arc per
                // seq) and entirely off the read path.
                lock(&inner.history).observe(seq, engine.snapshot());
                result.map(|event| (seq, event))
            },
            |outcomes| inner.fan_out(outcomes),
        )
    }

    // --- the time-travel surface (§15) ------------------------------------

    /// The snapshot retained at exactly commit seq `seq`.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`](crate::HybridError::SeqUnreachable)
    /// (naming the closest retained boundary) when `seq` was never
    /// retained or has been evicted.
    pub fn at(&self, seq: u64) -> HybridResult<Arc<Snapshot>> {
        lock(&self.inner.history).get(seq)
    }

    /// Pins a retained seq so it survives ring eviction until
    /// [`Service::unpin`].
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`](crate::HybridError::SeqUnreachable)
    /// for unretained seqs.
    pub fn pin(&self, seq: u64) -> HybridResult<()> {
        lock(&self.inner.history).pin(seq)
    }

    /// Drops a pin; returns whether one existed.
    pub fn unpin(&self, seq: u64) -> bool {
        lock(&self.inner.history).unpin(seq)
    }

    /// Every currently retained seq (ring and pins), sorted ascending.
    pub fn retained_seqs(&self) -> Vec<u64> {
        lock(&self.inner.history).retained()
    }
}

impl Inner {
    /// Delivers a batch's committed events, in commit order, to every
    /// session's queue (including the submitters' own). Failed ops
    /// journal but never fan out.
    fn fan_out(&self, outcomes: &[Outcome]) {
        let subscribers = lock(&self.subscribers);
        for (_, queue) in subscribers.iter() {
            let mut queue = lock(queue);
            for (seq, event) in outcomes.iter().flatten() {
                queue.push_back((*seq, event.clone()));
            }
        }
    }
}

/// One user's handle on the [`Service`]: typed [`SessionOps`] writes
/// that group-commit through the shared queue, snapshot reads that
/// never block on writers, and a private queue of committed events.
///
/// Dropping the session unsubscribes it.
#[derive(Debug)]
pub struct Session {
    service: Service,
    id: u64,
    user: UserId,
    events: EventQueue,
    /// The session's cached view, revalidated against the service's
    /// published sequence number on every read. A session is driven by
    /// one thread, so this mutex is effectively uncontended — reads of
    /// an unchanged snapshot never touch shared service locks.
    cache: Mutex<Option<Arc<Snapshot>>>,
}

impl Drop for Session {
    fn drop(&mut self) {
        let subscribers = &self.service.inner.subscribers;
        lock(subscribers).retain(|(sid, _)| *sid != self.id);
    }
}

impl SessionOps for Session {
    fn user(&self) -> UserId {
        self.user
    }

    /// Submits through the service's write queue. The returned seq is
    /// the handle read-your-writes time travel needs: `let (seq, _) =
    /// s.apply_seq(op)?; s.at(seq)?` sees exactly that write (given it
    /// was retained).
    fn apply_seq(&self, op: Op) -> HybridResult<(u64, Event)> {
        self.service.submit(op)
    }
}

impl Session {
    /// The owning service.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// The currently published [`Snapshot`] — the session's read view.
    /// Cached per session: only the first read after a write batch
    /// pays the (brief) shared snapshot lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.with_snapshot(Arc::clone)
    }

    /// Runs a closure against the session's cached view, revalidated
    /// against the published seq — the zero-shared-traffic read path.
    fn with_snapshot<R>(&self, f: impl FnOnce(&Arc<Snapshot>) -> R) -> R {
        let mut cache = lock(&self.cache);
        let published = self.service.inner.lane.published_seq();
        let snap = match cache.take() {
            Some(snap) if snap.seq() == published => snap,
            _ => self.service.snapshot(),
        };
        f(cache.insert(snap))
    }

    /// Drains the events committed since the last call (each with the
    /// engine sequence number it committed at).
    pub fn events(&self) -> Vec<(u64, Event)> {
        lock(&self.events).drain(..).collect()
    }

    /// This session's reads against the snapshot retained at commit
    /// seq `seq` — time travel. The returned [`HistoryView`] answers
    /// every zero-copy read of the live session at that fixed seq,
    /// `&self`, without ever touching the write path.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`](crate::HybridError::SeqUnreachable)
    /// when `seq` is not retained (see [`Service::at`]).
    pub fn at(&self, seq: u64) -> HybridResult<HistoryView> {
        Ok(HistoryView::new(self.user, self.service.at(seq)?))
    }

    /// Opens a branch [`Workspace`] on `cv` against the snapshot
    /// retained at `seq`. Unlike [`SessionOps::reserve`], this takes
    /// no lock on the head — the reservation happens atomically inside
    /// [`Workspace::merge_forward`], and concurrent edits surface
    /// there as typed [`Event::MergeConflict`] outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::SeqUnreachable`](crate::HybridError::SeqUnreachable)
    /// when `seq` is not retained.
    pub fn reserve_at(&self, cv: CellVersionId, seq: u64) -> HybridResult<Workspace> {
        let base = self.service.at(seq)?;
        Ok(Workspace::open(
            MergeBackend::Single(self.service.clone()),
            self.user,
            cv,
            &base,
        ))
    }

    /// Reads design data from the published snapshot: zero-copy, in
    /// parallel with other readers, never blocking on writers.
    ///
    /// # Errors
    ///
    /// Returns desktop visibility errors.
    pub fn read_design_data(&self, dov: DovId) -> HybridResult<Blob> {
        self.with_snapshot(|snap| snap.read_design_data(self.user, dov))
    }

    /// Browses design data from the published snapshot (same zero-copy
    /// path as [`Session::read_design_data`]).
    ///
    /// # Errors
    ///
    /// Returns desktop visibility errors.
    pub fn browse(&self, dov: DovId) -> HybridResult<Blob> {
        self.with_snapshot(|snap| snap.browse(self.user, dov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_and_session_are_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<Service>();
        assert_both::<Session>();
        assert_both::<Arc<Snapshot>>();
    }

    #[test]
    fn writes_commit_and_events_fan_out_to_all_sessions() {
        let service = Service::new(Engine::builder().build());
        let admin = service.open_session(service.admin());
        let observer = service.open_session(service.admin());
        let alice = admin.add_user("alice", false).unwrap();
        let _ = alice;
        let seen: Vec<_> = observer.events();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 1);
        assert_eq!(seen[0].1.kind_name(), "user-added");
        // The submitter sees its own event too.
        assert_eq!(admin.events().len(), 1);
    }

    #[test]
    fn snapshot_republishes_once_per_batch() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        assert_eq!(session.snapshot().seq(), 0);
        session.create_project("p").unwrap();
        assert_eq!(session.snapshot().seq(), 1);
        let stats = service.stats();
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch, 1);
    }

    #[test]
    fn failed_ops_return_their_error_to_the_submitter() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        session.create_project("p").unwrap();
        let err = session.create_project("p").unwrap_err();
        assert_eq!(err.kind(), "jcf");
        // Failures are journaled (engine semantics) but not fanned out.
        assert_eq!(
            session.events().len(),
            1,
            "only the successful op produced an event"
        );
    }

    #[test]
    fn dropped_sessions_stop_receiving_events() {
        let service = Service::new(Engine::builder().build());
        let writer = service.open_session(service.admin());
        let ephemeral = service.open_session(service.admin());
        drop(ephemeral);
        writer.create_project("p").unwrap();
        assert_eq!(lock(&service.inner.subscribers).len(), 1);
    }

    #[test]
    fn raw_submit_returns_the_commit_sequence() {
        let service = Service::new(Engine::builder().build());
        let (seq, event) = service
            .submit(Op::CreateProject { name: "p".into() })
            .unwrap();
        assert_eq!(seq, 1);
        assert_eq!(event.kind_name(), "project-created");
        assert_eq!(service.snapshot().seq(), 1);
    }

    #[test]
    fn concurrent_readers_share_payloads_with_zero_copies() {
        let service = Service::new(Engine::builder().build());
        let admin = service.open_session(service.admin());
        let alice = admin.add_user("alice", false).unwrap();
        let team = admin.add_team("asic").unwrap();
        admin.add_team_member(team, alice).unwrap();
        let flow = admin.standard_flow("std").unwrap();
        let project = admin.create_project("alu").unwrap();
        let cell = admin.create_cell(project, "adder").unwrap();
        let (cv, variant) = admin.create_cell_version(cell, flow.flow, team).unwrap();
        let alice_session = service.open_session(alice);
        alice_session.reserve(cv).unwrap();
        let dovs = alice_session
            .run_activity(
                variant,
                flow.enter_schematic,
                false,
                vec![crate::ToolOutput {
                    viewtype: "schematic".into(),
                    data: b"netlist adder\nport a input\n".to_vec().into(),
                }],
                None,
            )
            .unwrap();
        let dov = dovs[0];
        let reference = alice_session.read_design_data(dov).unwrap();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let service = service.clone();
                let reference = reference.clone();
                std::thread::spawn(move || {
                    let session = service.open_session(alice);
                    let before = Blob::materializations();
                    for _ in 0..32 {
                        let data = session.read_design_data(dov).unwrap();
                        assert!(Blob::ptr_eq(&data, &reference));
                    }
                    assert_eq!(Blob::materializations(), before);
                })
            })
            .collect();
        for t in readers {
            t.join().unwrap();
        }
    }

    #[test]
    fn with_engine_republishes_the_snapshot() {
        let service = Service::new(Engine::builder().build());
        let session = service.open_session(service.admin());
        service.with_engine(|engine| {
            engine.create_project("direct").unwrap();
        });
        assert_eq!(session.snapshot().seq(), 1);
    }
}
