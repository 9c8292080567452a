//! Published truth snapshots — the wait-free read path.
//!
//! The write path (drain ticks) and the read path (polling clients) meet
//! at a single word: each session owns a [`Published<TruthSnapshot>`]
//! cell whose current value is swapped atomically at the end of every
//! tick that touched the session. Readers load the pointer and bump the
//! snapshot's refcount — they never take the session slot lock, so a
//! read completes in sub-microsecond time even while that session's
//! converge is running (measured by `crowd-serve-bench --mode mixed`).
//!
//! ## Memory reclamation
//!
//! The cell is a hand-rolled arc-swap over `AtomicPtr` +
//! [`Arc::into_raw`], std-only like the rest of the workspace. The
//! classic hazard is the window between a reader's pointer load and its
//! refcount increment: a concurrent publisher that dropped the old
//! `Arc` immediately would free the value out from under the reader.
//! Reclamation is therefore epoch-based:
//!
//! - Every reader handle owns a **hazard slot**. A read stamps the
//!   current publish epoch into its slot (SeqCst), loads the pointer,
//!   increments the strong count, and clears the slot.
//! - A publisher swaps the new pointer in, tags the old one with the
//!   new epoch on a retire list, bumps the epoch, then scans the slots:
//!   a retired entry with epoch `R` is freed only when every active
//!   stamp is `≥ R` (vacuously, when no stamp is active).
//!
//! Soundness (all operations SeqCst, so they form one total order): a
//! reader that could still load the retired pointer must have loaded
//! `ptr` *before* the swap at epoch `R`, hence stamped *before* the
//! publisher's scan, hence is visible to the scan with a stamp `< R` —
//! so the entry is retained. Conversely a reader that stamps after the
//! scan also loads after the swap and gets the new pointer. A stamp is
//! cleared only after the increment (the clear is a release store), so
//! a scan that observes an idle slot observes the increment too. Stale
//! stamps are conservative: they can only delay reclamation, never
//! allow a premature free. A reader merely *holding* a snapshot `Arc`
//! pins only that snapshot (plain refcounting); the hazard window
//! itself is a few instructions.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, Weak};

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
    /// converge). `result.converged` distinguishes a fixed point from a
    /// budget-sliced intermediate.
    pub report: Option<StreamReport>,
    /// Session counters, from the same instant as every other field.
    pub stats: SessionStats,
}

impl TruthSnapshot {
    /// The latest converged per-task posteriors, when the method
    /// computes them (`None` before the first converge).
    pub fn posteriors(&self) -> Option<&[Vec<f64>]> {
        self.report
            .as_ref()
            .and_then(|r| r.result.posteriors.as_deref())
    }

    /// Whether the last converge met the convergence criterion.
    pub fn converged(&self) -> bool {
        self.report.as_ref().is_some_and(|r| r.result.converged)
    }
}

/// A reader's hazard slot: 0 when idle, the stamped epoch while a read
/// is between its pointer load and its refcount increment.
#[derive(Default)]
pub(crate) struct ReadSlot {
    pub(crate) stamp: AtomicU64,
}

/// A value retired by a publish: freed once no active stamp is below
/// `epoch` (the epoch whose swap displaced it).
struct Retired<T> {
    epoch: u64,
    ptr: *mut T,
}

struct WriterState<T> {
    retired: Vec<Retired<T>>,
}

/// Number of shared anonymous hazard slots for slot-less reads
/// ([`Published::read`]). More than this many *simultaneous* slot-less
/// readers of one cell fall back to a brief writer-mutex hold (still
/// correct, no longer wait-free) — dedicated [`TruthReader`] handles
/// never contend here.
const ANON_SLOTS: usize = 8;

/// A published immutable value behind an atomic pointer swap: wait-free
/// reads, serialized writes, epoch-based reclamation (module docs).
pub(crate) struct Published<T> {
    /// The current value, from [`Arc::into_raw`]. Never null.
    ptr: AtomicPtr<T>,
    /// The epoch of the current value.
    epoch: AtomicU64,
    /// Serializes publishers; owns the retire list. Also taken by the
    /// lock-fallback read path to pin the current pointer.
    writer: Mutex<WriterState<T>>,
    /// Registered reader slots (locked for registration and the
    /// publisher's scan only — never on the read path).
    slots: Mutex<Vec<Weak<ReadSlot>>>,
    /// Shared slots for slot-less reads.
    anon: Vec<Arc<ReadSlot>>,
}

// SAFETY: `ptr`/`retired` own `Arc<T>`s disguised as raw pointers; the
// protocol above never produces an unsynchronized access to `T`.
unsafe impl<T: Send + Sync> Send for Published<T> {}
unsafe impl<T: Send + Sync> Sync for Published<T> {}

impl<T> Published<T> {
    /// Create a cell whose first value has epoch `epoch_base + 1` (the
    /// closure receives that epoch, so values that embed their own
    /// epoch can). A cell is never empty: readers always see a value.
    pub fn new(epoch_base: u64, initial: impl FnOnce(u64) -> T) -> Self {
        let epoch = epoch_base + 1;
        let ptr = Arc::into_raw(Arc::new(initial(epoch))).cast_mut();
        Self {
            ptr: AtomicPtr::new(ptr),
            epoch: AtomicU64::new(epoch),
            writer: Mutex::new(WriterState {
                retired: Vec::new(),
            }),
            slots: Mutex::new(Vec::new()),
            anon: (0..ANON_SLOTS).map(|_| Arc::default()).collect(),
        }
    }

    /// The current publish epoch (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Publish the value built by `f`, which receives the previous
    /// value and the new epoch. Returns the new epoch. Publishers
    /// serialize on the writer mutex; readers are never blocked.
    pub fn publish_with(&self, f: impl FnOnce(&T, u64) -> T) -> u64 {
        let mut w = lock(&self.writer);
        let epoch = self.epoch.load(SeqCst) + 1;
        // SAFETY: the current pointer is valid and cannot be retired or
        // freed while the writer mutex is held.
        let prior = unsafe { &*self.ptr.load(SeqCst) };
        let next = Arc::into_raw(Arc::new(f(prior, epoch))).cast_mut();
        let old = self.ptr.swap(next, SeqCst);
        self.epoch.store(epoch, SeqCst);
        w.retired.push(Retired { epoch, ptr: old });
        self.reclaim(&mut w);
        epoch
    }

    /// Free every retired value no in-flight read can still touch.
    fn reclaim(&self, w: &mut WriterState<T>) {
        let mut min_active = u64::MAX;
        {
            let mut slots = lock(&self.slots);
            slots.retain(|weak| {
                let Some(slot) = weak.upgrade() else {
                    return false; // the reader handle is gone
                };
                let stamp = slot.stamp.load(SeqCst);
                if stamp != 0 {
                    min_active = min_active.min(stamp);
                }
                true
            });
        }
        for slot in &self.anon {
            let stamp = slot.stamp.load(SeqCst);
            if stamp != 0 {
                min_active = min_active.min(stamp);
            }
        }
        let mut freed = 0u64;
        w.retired.retain(|r| {
            if r.epoch <= min_active {
                // SAFETY: the pointer came from `Arc::into_raw` at
                // publish time and this is the writer's single drop of
                // it; the epoch argument above rules out in-flight
                // readers still resolving it.
                drop(unsafe { Arc::from_raw(r.ptr) });
                freed += 1;
                false
            } else {
                true
            }
        });
        if freed > 0 {
            obs::truth_retired_freed().add(freed);
        }
    }

    /// Register a dedicated hazard slot (one brief registry-mutex
    /// hold — not on the read path).
    pub fn register_slot(&self) -> Arc<ReadSlot> {
        let slot = Arc::new(ReadSlot::default());
        lock(&self.slots).push(Arc::downgrade(&slot));
        slot
    }

    /// Wait-free read through a dedicated slot. Falls back to
    /// [`read_locked`](Self::read_locked) only when the *same* slot is
    /// concurrently mid-read (two threads sharing one handle — clone
    /// the handle per thread to stay wait-free).
    pub fn read_with(&self, slot: &ReadSlot) -> Arc<T> {
        let e = self.epoch.load(SeqCst);
        if slot.stamp.compare_exchange(0, e, SeqCst, SeqCst).is_ok() {
            let arc = self.load_current();
            slot.stamp.store(0, SeqCst);
            arc
        } else {
            self.read_locked()
        }
    }

    /// Slot-less read: claims one of the shared anonymous slots, or
    /// falls back to the writer mutex if all are mid-read.
    pub fn read(&self) -> Arc<T> {
        let e = self.epoch.load(SeqCst);
        for slot in &self.anon {
            if slot.stamp.compare_exchange(0, e, SeqCst, SeqCst).is_ok() {
                let arc = self.load_current();
                slot.stamp.store(0, SeqCst);
                return arc;
            }
        }
        self.read_locked()
    }

    /// Load the current value while protected by a stamped slot.
    fn load_current(&self) -> Arc<T> {
        let p = self.ptr.load(SeqCst);
        // SAFETY: our stamp (sequenced before this load) keeps any
        // publisher from freeing `p` until the slot clears, and the
        // pointer came from `Arc::into_raw` with the strong count we
        // are about to claim.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    /// Correct-but-blocking read: holding the writer mutex excludes any
    /// concurrent swap or reclaim, pinning the current pointer.
    fn read_locked(&self) -> Arc<T> {
        let _w = lock(&self.writer);
        let p = self.ptr.load(SeqCst);
        // SAFETY: as in `load_current`, with the writer mutex as the pin.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }
}

impl<T> Drop for Published<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; these are the writer's outstanding
        // `Arc::into_raw` references (current value + retire list).
        unsafe {
            drop(Arc::from_raw(*self.ptr.get_mut()));
        }
        let w = self
            .writer
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for r in w.retired.drain(..) {
            // SAFETY: as above.
            unsafe {
                drop(Arc::from_raw(r.ptr));
            }
        }
    }
}

/// A clonable, `Send + Sync` handle for polling one session's published
/// [`TruthSnapshot`] — the redesigned read API (see
/// [`CrowdServe::reader`](crate::CrowdServe::reader)).
///
/// [`snapshot`](Self::snapshot) is wait-free: it never touches the
/// session slot lock (or any other service lock), so it completes in
/// sub-microsecond time even while the session's own converge is
/// running. The handle stays valid across poisoning, checkpoint
/// restarts, and eviction — reads degrade to
/// [`SnapshotState::SnapshotStale`] / [`SnapshotState::SessionGone`]
/// instead of erroring mid-poll.
///
/// Each handle owns its hazard slot; share a handle across threads by
/// cloning it (a clone registers a fresh slot), not by wrapping one in
/// a lock — two threads racing on the *same* handle stay correct but
/// lose wait-freedom.
pub struct TruthReader {
    session: SessionId,
    cell: Arc<Published<TruthSnapshot>>,
    slot: Arc<ReadSlot>,
}

impl TruthReader {
    pub(crate) fn new(session: SessionId, cell: Arc<Published<TruthSnapshot>>) -> Self {
        let slot = cell.register_slot();
        Self {
            session,
            cell,
            slot,
        }
    }

    /// The session this handle reads.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The epoch of the snapshot the next [`snapshot`](Self::snapshot)
    /// call would return — one atomic load, for change detection
    /// without taking a snapshot reference.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The current published snapshot. Wait-free; never blocks behind
    /// ingest or converge work.
    pub fn snapshot(&self) -> Arc<TruthSnapshot> {
        let timer = obs::truth_read_seconds().start_timer();
        let snap = self.cell.read_with(&self.slot);
        timer.stop();
        obs::truth_reads().inc();
        snap
    }
}

impl Clone for TruthReader {
    fn clone(&self) -> Self {
        Self::new(self.session, Arc::clone(&self.cell))
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

    #[test]
    fn retired_values_are_reclaimed_not_leaked() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell: Published<Counted> = Published::new(0, |e| Counted {
            epoch: e,
            drops: Arc::clone(&drops),
        });
        for _ in 0..100 {
            cell.publish_with(|_, e| Counted {
                epoch: e,
                drops: Arc::clone(&drops),
            });
        }
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

    #[test]
    fn active_stamp_pins_the_current_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell: Published<Counted> = Published::new(0, |e| Counted {
            epoch: e,
            drops: Arc::clone(&drops),
        });
        let slot = cell.register_slot();
        // Freeze a reader mid-read: stamped, pointer not yet resolved.
        slot.stamp.store(cell.epoch(), SeqCst);
        cell.publish_with(|_, e| Counted {
            epoch: e,
            drops: Arc::clone(&drops),
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "epoch-1 value must survive while a stamp at epoch 1 is active"
        );
        slot.stamp.store(0, SeqCst);
        cell.publish_with(|_, e| Counted {
            epoch: e,
            drops: Arc::clone(&drops),
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "both retirees freed once idle"
        );
    }

    #[test]
    fn busy_slot_falls_back_to_locked_read() {
        let cell: Published<u64> = Published::new(0, |e| e);
        let slot = cell.register_slot();
        slot.stamp.store(cell.epoch(), SeqCst); // simulate a concurrent read
        assert_eq!(
            *cell.read_with(&slot),
            1,
            "fallback still returns the value"
        );
        slot.stamp.store(0, SeqCst);
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
                    let slot = cell.register_slot();
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    start.wait();
                    loop {
                        let v = cell.read_with(&slot);
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
