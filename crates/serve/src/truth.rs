//! Published truth snapshots — the read path.
//!
//! The write path (drain ticks) and the read path (polling clients) meet
//! at one cell per session: a [`Published<TruthSnapshot>`] whose current
//! value is replaced at the end of every tick that touched the session.
//! Readers never take the session slot lock, so a read completes in
//! sub-microsecond time even while that session's converge is running
//! (measured by `crowd-serve-bench --mode mixed`).
//!
//! ## Why a read never waits on ingest or converge
//!
//! The cell is an `Arc` behind a mutex, and each [`TruthReader`] caches
//! the `Arc` it last returned. A poll loads the cell's epoch (`Acquire`)
//! and, while that matches the cached snapshot's epoch, returns a clone
//! of the cached `Arc` without touching any lock another handle shares.
//!
//! A reader takes the cell lock only when the epoch moved, and that lock
//! is a leaf held for one `Arc` clone or swap, never across a build,
//! ingest or converge. Publishers build the next value outside it and
//! store the new epoch (`Release`) after the swap, so a reader that sees
//! the new epoch also finds the new value. Reclamation is plain `Arc`
//! refcounting: a handle pins at most the snapshot it last returned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crowd_core::DMat;
use crowd_stream::StreamReport;

use crate::obs;
use crate::service::{SessionId, SessionStats};
use crate::shard::lock;

/// How fresh a [`TruthSnapshot`] is. Reads never fail mid-poll — they
/// degrade to a typed state instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotState {
    /// The session is healthy; the snapshot reflects its state at the
    /// end of the tick that published it.
    Live,
    /// The session was poisoned by a converge panic after this
    /// snapshot's content was built: the fields are the last good state
    /// (the engine itself is not trusted after a panic), only
    /// [`TruthSnapshot::stats`] is current. The session may return to
    /// [`SnapshotState::Live`] via a checkpoint auto-restart.
    SnapshotStale {
        /// The poison (panic) message.
        reason: String,
    },
    /// The session was evicted; this is its final state and no further
    /// epochs will be published. Service-level lookups return
    /// [`ServeError::UnknownSession`](crate::ServeError::UnknownSession)
    /// instead, but a [`TruthReader`] held across the eviction keeps
    /// reading this terminal snapshot.
    SessionGone,
}

impl SnapshotState {
    /// `true` for [`SnapshotState::Live`].
    pub fn is_live(&self) -> bool {
        matches!(self, Self::Live)
    }

    /// `true` for [`SnapshotState::SnapshotStale`].
    pub fn is_stale(&self) -> bool {
        matches!(self, Self::SnapshotStale { .. })
    }

    /// `true` for [`SnapshotState::SessionGone`].
    pub fn is_gone(&self) -> bool {
        matches!(self, Self::SessionGone)
    }
}

/// An immutable, internally-consistent view of one session's truth
/// state, published at the end of the drain tick (or lifecycle event)
/// that produced it. Every field was read under the same slot lock, so
/// `plurality`, `report`, and `stats` can never disagree about which
/// tick they describe.
#[derive(Debug, Clone)]
pub struct TruthSnapshot {
    /// The session this snapshot describes.
    pub session: SessionId,
    /// Publish epoch: strictly increasing per session, starting at 1
    /// when the session is created. With durability on, recovery seeds
    /// the counter from the durable ingest/converge totals so epochs
    /// keep increasing across a crash (see ARCHITECTURE.md § read path).
    pub epoch: u64,
    /// Freshness: live, stale (poisoned), or evicted.
    pub state: SnapshotState,
    /// Answer batches the engine has absorbed.
    pub cum_batches: u64,
    /// Live per-task plurality labels (`O(n·ℓ)` off the engine's label
    /// counts at publish time — includes ingested-but-unconverged
    /// answers).
    pub plurality: Vec<Option<u8>>,
    /// The most recent converge output (`None` before the first
    /// converge), shared with the session slot and every other snapshot
    /// published since that converge. `result.converged` distinguishes a
    /// fixed point from a budget-sliced intermediate.
    pub report: Option<Arc<StreamReport>>,
    /// Session counters, from the same instant as every other field.
    pub stats: SessionStats,
}

impl TruthSnapshot {
    /// The `n × ℓ` per-task posteriors of the last converge, when the
    /// method computes them (`None` before the first converge). That
    /// converge may have been budget-sliced rather than converged: check
    /// [`converged`](Self::converged) for a fixed point.
    pub fn posteriors(&self) -> Option<&DMat> {
        self.report
            .as_ref()
            .and_then(|r| r.result.posteriors.as_deref())
    }

    /// Whether the last converge met the convergence criterion.
    pub fn converged(&self) -> bool {
        self.report.as_ref().is_some_and(|r| r.result.converged)
    }
}

/// A published value that carries its own publish epoch, so a cached
/// copy can tell whether its cell has moved on.
pub(crate) trait Stamped {
    /// The epoch this value was published at.
    fn epoch(&self) -> u64;
}

impl Stamped for TruthSnapshot {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A published immutable value: readers clone the current `Arc`,
/// publishers swap in a new one (module docs).
pub(crate) struct Published<T> {
    /// The current value, locked only to clone or replace the `Arc`.
    current: Mutex<Arc<T>>,
    /// Serializes publishers, who build the next value under this lock
    /// rather than under `current`.
    writer: Mutex<()>,
    /// The epoch of the current value, stored after the swap.
    epoch: AtomicU64,
}

impl<T> Published<T> {
    /// Create a cell whose first value has epoch `epoch_base + 1` (the
    /// closure receives that epoch, so values that embed their own
    /// epoch can). A cell is never empty: readers always see a value.
    pub fn new(epoch_base: u64, initial: impl FnOnce(u64) -> T) -> Self {
        let epoch = epoch_base + 1;
        Self {
            current: Mutex::new(Arc::new(initial(epoch))),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The current publish epoch (one atomic load). A lower bound on
    /// the epoch of the next [`read`](Self::read): it is stored after
    /// the swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish the value built by `f`, which receives the previous
    /// value and the new epoch. Returns the new epoch. Publishers
    /// serialize on the writer mutex; readers wait at most for the swap.
    pub fn publish_with(&self, f: impl FnOnce(&T, u64) -> T) -> u64 {
        let _writer = lock(&self.writer);
        // Only publishers store the epoch, and they hold `writer`.
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let next = Arc::new(f(&self.read(), epoch));
        // The displaced value drops after the cell lock is released.
        let _prior = std::mem::replace(&mut *lock(&self.current), next);
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The current value: one cell-lock hold for an `Arc` clone.
    pub fn read(&self) -> Arc<T> {
        Arc::clone(&lock(&self.current))
    }
}

impl<T: Stamped> Published<T> {
    /// The current value through one reader's `cache`, which holds the
    /// value that reader last returned. The cell lock is taken only
    /// when the cell's epoch differs from the cached value's.
    pub fn read_cached(&self, cache: &Mutex<Arc<T>>) -> Arc<T> {
        let epoch = self.epoch();
        let mut cached = lock(cache);
        if cached.epoch() != epoch {
            *cached = self.read();
        }
        Arc::clone(&cached)
    }
}

/// A clonable, `Send + Sync` handle for polling one session's published
/// [`TruthSnapshot`] (see [`CrowdServe::reader`](crate::CrowdServe::reader)).
///
/// [`snapshot`](Self::snapshot) never takes the session slot lock or any
/// other service lock and never waits for ingest or converge work, so it
/// completes in sub-microsecond time even while the session's own
/// converge is running. The handle stays valid across poisoning,
/// checkpoint restarts, and eviction — reads degrade to
/// [`SnapshotState::SnapshotStale`] / [`SnapshotState::SessionGone`]
/// instead of erroring mid-poll.
///
/// Each handle caches the snapshot it last returned and pins no older
/// one. Give each polling thread its own clone: threads sharing one
/// handle stay correct but contend on its cache lock.
pub struct TruthReader {
    session: SessionId,
    cell: Arc<Published<TruthSnapshot>>,
    /// The snapshot this handle last returned.
    cache: Mutex<Arc<TruthSnapshot>>,
}

impl TruthReader {
    pub(crate) fn new(session: SessionId, cell: Arc<Published<TruthSnapshot>>) -> Self {
        let cache = Mutex::new(cell.read());
        Self {
            session,
            cell,
            cache,
        }
    }

    /// The session this handle reads.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// A lower bound on the epoch of the snapshot the next
    /// [`snapshot`](Self::snapshot) call returns — one atomic load, for
    /// change detection without taking a snapshot reference. The epoch
    /// is stored after the snapshot is swapped in, so for a moment a
    /// publish can be visible to `snapshot` but not yet here.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The current published snapshot. Never blocks behind ingest or
    /// converge work.
    pub fn snapshot(&self) -> Arc<TruthSnapshot> {
        let timer = obs::truth_read_seconds().start_timer();
        let snap = self.cell.read_cached(&self.cache);
        timer.stop();
        obs::truth_reads().inc();
        snap
    }
}

impl Clone for TruthReader {
    fn clone(&self) -> Self {
        Self {
            session: self.session,
            cell: Arc::clone(&self.cell),
            cache: Mutex::new(Arc::clone(&lock(&self.cache))),
        }
    }
}

impl std::fmt::Debug for TruthReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TruthReader")
            .field("session", &self.session)
            .field("epoch", &self.cell.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{snapshot_from_slot, SessionSlot};
    use crowd_core::Method;
    use crowd_data::TaskType;
    use crowd_stream::{StreamConfig, StreamEngine};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn handle_types_are_send_sync() {
        assert_send_sync::<TruthReader>();
        assert_send_sync::<Arc<TruthSnapshot>>();
        assert_send_sync::<Published<u64>>();
    }

    #[test]
    fn publish_and_read_roundtrip() {
        let cell: Published<(u64, String)> = Published::new(0, |e| (e, "init".to_string()));
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.read().0, 1);
        let e = cell.publish_with(|prior, epoch| {
            assert_eq!(prior.0, 1);
            (epoch, format!("{} then {epoch}", prior.1))
        });
        assert_eq!(e, 2);
        let v = cell.read();
        assert_eq!(v.0, 2);
        assert_eq!(v.1, "init then 2");
    }

    #[test]
    fn recovery_seeded_epochs_start_above_base() {
        let cell: Published<u64> = Published::new(41, |e| e);
        assert_eq!(cell.epoch(), 42);
        assert_eq!(cell.publish_with(|_, e| e), 43);
    }

    /// A cell holding a fresh session's first snapshot.
    fn truth_cell() -> Arc<Published<TruthSnapshot>> {
        let config = StreamConfig::new(Method::Mv, TaskType::DecisionMaking, 2, 2);
        let slot = SessionSlot::new(StreamEngine::new(config).unwrap());
        let sid = SessionId::from_raw(7);
        Arc::new(Published::new(0, |e| {
            snapshot_from_slot(&slot, sid, 0, e, None)
        }))
    }

    fn republish(cell: &Published<TruthSnapshot>) -> u64 {
        cell.publish_with(|prior, epoch| TruthSnapshot {
            epoch,
            ..prior.clone()
        })
    }

    #[test]
    fn reads_between_publishes_return_the_cached_arc() {
        let cell = truth_cell();
        let reader = TruthReader::new(SessionId::from_raw(7), Arc::clone(&cell));
        let (a, b) = (reader.snapshot(), reader.snapshot());
        assert!(Arc::ptr_eq(&a, &b), "no publish in between");
        republish(&cell);
        let c = reader.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "a publish refreshes the cache");
        assert!(Arc::ptr_eq(&c, &reader.snapshot()));
    }

    #[test]
    fn a_returned_publish_is_visible_to_cached_and_cloned_handles() {
        let cell = truth_cell();
        let cached = TruthReader::new(SessionId::from_raw(7), Arc::clone(&cell));
        assert_eq!(cached.snapshot().epoch, 1);
        let clone = cached.clone();
        let e = republish(&cell);
        assert_eq!(cached.epoch(), e);
        assert_eq!(
            cached.snapshot().epoch,
            e,
            "handle that cached the old epoch"
        );
        assert_eq!(clone.snapshot().epoch, e, "clone taken before the publish");
    }

    /// Payload that counts its drops — the reclamation ledger.
    struct Counted {
        epoch: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Stamped for Counted {
        fn epoch(&self) -> u64 {
            self.epoch
        }
    }

    #[test]
    fn retired_values_are_reclaimed_not_leaked() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell: Published<Counted> = Published::new(0, |e| Counted {
            epoch: e,
            drops: Arc::clone(&drops),
        });
        let publish = || {
            cell.publish_with(|_, e| Counted {
                epoch: e,
                drops: Arc::clone(&drops),
            })
        };
        // A reader handle that read once, at epoch 1.
        let handle = Mutex::new(cell.read());
        for _ in 0..50 {
            publish();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 49, "the handle pins epoch 1");
        assert_eq!(cell.read_cached(&handle).epoch, 51);
        assert_eq!(drops.load(Ordering::SeqCst), 50, "its refresh frees it");
        for _ in 0..50 {
            publish();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 99, "now it pins epoch 51");
        drop(handle);
        // With no readers active, each publish frees its predecessor.
        assert_eq!(drops.load(Ordering::SeqCst), 100);
        assert_eq!(cell.read().epoch, 101);
        drop(cell);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            101,
            "cell drop frees the rest"
        );
    }

    impl Stamped for (u64, u64) {
        fn epoch(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn concurrent_readers_see_consistent_monotonic_epochs() {
        // Writer publishes (epoch, checksum) pairs; readers must never
        // see a torn pair or an epoch that goes backwards.
        let cell: Arc<Published<(u64, u64)>> = Arc::new(Published::new(0, |e| (e, e ^ 0xABCD)));
        let done = Arc::new(AtomicBool::new(false));
        // Every reader is running before the first publish and reads at
        // least once — otherwise a busy scheduler can finish all 2000
        // publishes before any reader starts.
        let start = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let done = Arc::clone(&done);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let cache = Mutex::new(cell.read());
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    start.wait();
                    loop {
                        let v = cell.read_cached(&cache);
                        assert_eq!(v.1, v.0 ^ 0xABCD, "torn snapshot");
                        assert!(v.0 >= last, "epoch went backwards: {} < {last}", v.0);
                        last = v.0;
                        reads += 1;
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        for _ in 0..2000 {
            cell.publish_with(|_, e| (e, e ^ 0xABCD));
        }
        done.store(true, Ordering::SeqCst);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(cell.epoch(), 2001);
    }
}
