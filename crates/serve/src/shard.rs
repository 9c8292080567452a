//! Shard internals: the bounded ingest queue, the session table, the
//! per-session WAL handles, and the drain-tick executor body that runs
//! on a pool worker.
//!
//! Lock ordering (deadlock freedom): `slot → wal → ingest`, with the
//! session-table and WAL-table map locks held only for lookups. The
//! submit path takes `wal → ingest` (after a brief, released slot
//! check); the drain takes `ingest` alone to steal the queue, then
//! `slot → wal` per session. No path takes them in a conflicting order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crowd_data::AnswerRecord;
use crowd_stream::{ConvergeBudget, StreamEngine, StreamReport};

use crate::durable::fault::{FaultPlan, FaultSite};
use crate::durable::snapshot::{write_snapshot, SnapshotData};
use crate::durable::wal::WalWriter;
use crate::durable::{self, DurabilityConfig};
use crate::obs;
use crate::service::SessionStats;
use crate::truth::{Published, SnapshotState, TruthSnapshot};
use crate::SessionId;

/// One batch of answers waiting in a shard's ingest queue.
pub(crate) struct Envelope {
    pub session: u64,
    pub records: Vec<AnswerRecord>,
}

/// A session slot on a shard. Each slot has its **own** lock (the table
/// maps ids to `Arc<Mutex<SessionSlot>>`), so a long converge on one
/// session never blocks reads or converges of its shard-mates.
pub(crate) struct SessionSlot {
    pub engine: StreamEngine,
    /// The most recent drain-tick output — the freshest model state,
    /// shared (not copied) with every snapshot published from it.
    /// After a budget-exhausted tick this is an *unconverged* snapshot
    /// (`result.converged == false`); readers that require a fixed point
    /// must check that flag.
    pub last_report: Option<Arc<StreamReport>>,
    /// `Some(message)` once a converge panicked; the slot refuses further
    /// work until restarted (durable sessions, next tick) or evicted.
    pub poisoned: Option<String>,
    /// Converge attempts so far (the [`FaultSite::Converge`] index —
    /// panicked attempts count, so a restarted session's retry draws a
    /// fresh fault decision).
    pub converge_attempts: u64,
    /// Checkpoint auto-restarts consumed (bounded by
    /// [`DurabilityConfig::max_session_restarts`]).
    pub restarts: u32,
    /// Answer batches the engine has absorbed (the in-memory twin of the
    /// WAL's ingest cursor) — published as
    /// [`TruthSnapshot::cum_batches`].
    pub batches_ingested: u64,
    /// Test-only fault injection: the next converge on this slot panics.
    pub debug_panic_next_converge: bool,
    /// Test-only: the next converge on this slot parks on this gate
    /// (with the slot lock held) until released — how the read-path
    /// tests pin a converge "in flight".
    #[cfg(any(test, feature = "fault-inject"))]
    pub debug_block_next_converge: Option<Arc<crate::service::ConvergeGate>>,
}

impl SessionSlot {
    pub fn new(engine: StreamEngine) -> Self {
        Self {
            engine,
            last_report: None,
            poisoned: None,
            converge_attempts: 0,
            restarts: 0,
            batches_ingested: 0,
            debug_panic_next_converge: false,
            #[cfg(any(test, feature = "fault-inject"))]
            debug_block_next_converge: None,
        }
    }
}

/// A session's durability state: the WAL writer plus the frame counters
/// that tie the log to the engine. Lives outside [`SessionSlot`] so a
/// submit's WAL append (possibly an fsync) never holds the slot lock
/// and never blocks reads.
pub(crate) struct SessionWal {
    pub writer: WalWriter,
    /// Batch frames appended (submit side).
    pub batches_appended: u64,
    /// Batch frames ingested into the engine (drain side) — the
    /// `cum_batches` recorded by the next converge frame.
    pub batches_ingested: u64,
    /// Converge frames appended.
    pub converges_logged: u64,
    /// Successful converges since the last snapshot.
    pub converges_since_snapshot: u64,
    /// Snapshots written (the [`FaultSite::Snapshot`] index).
    pub snapshots_written: u64,
}

/// The ingest queue, bounded in **answers** (not envelopes) so queue
/// memory is proportional to actual load.
pub(crate) struct IngestQueue {
    pub queue: VecDeque<Envelope>,
    pub queued_answers: usize,
}

/// What one shard did during one drain tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardTickStats {
    pub answers_ingested: usize,
    pub sessions_converged: usize,
    pub sessions_budget_exhausted: usize,
    pub sessions_deadline_deferred: usize,
    pub sessions_restarted: usize,
    pub newly_poisoned: Vec<SessionId>,
    pub ingest_errors: Vec<(SessionId, String)>,
}

/// Per-tick context a drain needs beyond the budget: the durability
/// configuration (for WAL converge frames, snapshot cadence, and
/// checkpoint auto-restarts) and the fault plan.
#[derive(Clone, Default)]
pub(crate) struct DrainCtx {
    pub durability: Option<DurabilityConfig>,
    pub fault: FaultPlan,
}

pub(crate) struct Shard {
    /// This shard's index in the service's shard vector (recorded in
    /// published [`SessionStats`]).
    pub index: usize,
    pub ingest: Mutex<IngestQueue>,
    /// The session table. The map lock is held only for lookups and
    /// insert/remove — never across a converge.
    pub sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionSlot>>>>,
    /// Per-session WAL handles (present only when durability is on).
    /// Same discipline as the session table: map lock for lookups only.
    pub wals: Mutex<BTreeMap<u64, Arc<Mutex<SessionWal>>>>,
    /// Per-session published truth cells — the read path. The
    /// map lock is for lookups and insert/remove only; reads and
    /// publishes go through the cell, never this lock.
    pub truths: Mutex<BTreeMap<u64, Arc<Published<TruthSnapshot>>>>,
    /// Serialises whole drains against evictions: an eviction must
    /// observe either the pre-drain queue (and pull its envelopes out
    /// itself) or the post-drain engines (envelopes applied) — never a
    /// drain that has stolen the queue but not yet applied it.
    pub drain_gate: Mutex<()>,
    /// Lock-free mirror of `ingest.queued_answers`, kept in step at
    /// every queue mutation so [`CrowdServe::stats`](crate::CrowdServe::stats)
    /// polls without touching the queue lock.
    pub queued_answers: AtomicUsize,
    /// Lock-free count of currently-poisoned sessions on this shard
    /// (same purpose).
    pub poisoned_sessions: AtomicUsize,
}

/// All shard locks tolerate poisoning: the guarded data is kept
/// consistent by the per-session catch_unwind in the drain body, and a
/// panic elsewhere must not wedge every session on the shard.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shard {
    pub fn new(index: usize) -> Self {
        Self {
            index,
            ingest: Mutex::new(IngestQueue {
                queue: VecDeque::new(),
                queued_answers: 0,
            }),
            sessions: Mutex::new(BTreeMap::new()),
            wals: Mutex::new(BTreeMap::new()),
            truths: Mutex::new(BTreeMap::new()),
            drain_gate: Mutex::new(()),
            queued_answers: AtomicUsize::new(0),
            poisoned_sessions: AtomicUsize::new(0),
        }
    }

    /// Fetch one session's slot handle (brief map lock).
    pub fn slot(&self, raw: u64) -> Option<Arc<Mutex<SessionSlot>>> {
        lock(&self.sessions).get(&raw).cloned()
    }

    /// Fetch one session's WAL handle (brief map lock).
    pub fn wal(&self, raw: u64) -> Option<Arc<Mutex<SessionWal>>> {
        lock(&self.wals).get(&raw).cloned()
    }

    /// Fetch one session's published truth cell (brief map lock).
    pub fn truth(&self, raw: u64) -> Option<Arc<Published<TruthSnapshot>>> {
        lock(&self.truths).get(&raw).cloned()
    }

    /// The drain-tick body, run on a pool worker thread (or inline).
    ///
    /// Three phases:
    ///
    /// 0. **Restart** — with durability on, poisoned sessions that still
    ///    have restart budget are rebuilt from their last checkpoint +
    ///    WAL replay and resume serving (graceful degradation instead of
    ///    dying).
    /// 1. **Ingest** — move every queued envelope into its engine, in
    ///    FIFO submission order (per-session order is what the
    ///    bit-identical replay property rests on).
    /// 2. **Converge** — for each dirty session (new answers, or a
    ///    previous tick's budget ran out), run one budgeted converge.
    ///    Sessions are visited in ascending id order; once `deadline`
    ///    passes, remaining dirty sessions are deferred to the next tick.
    ///    With durability on, each successful converge appends a WAL
    ///    converge frame (pinning the replay schedule) and, on cadence,
    ///    an atomic snapshot of the warm state.
    ///
    /// Each session is locked individually for its own ingest/converge,
    /// so reads of other sessions proceed throughout the tick. A panic
    /// inside one session's converge is caught, poisons only that
    /// session, and the drain moves on to the next one.
    pub fn drain(
        &self,
        budget: ConvergeBudget,
        deadline: Option<Duration>,
        ctx: &DrainCtx,
    ) -> ShardTickStats {
        let _gate = lock(&self.drain_gate);
        let started = Instant::now();
        let tick_timer = obs::shard_tick_seconds().start_timer();
        let mut stats = ShardTickStats::default();
        // Sessions whose published snapshot must be refreshed at the end
        // of this tick (ingested, converged, poisoned, or restarted).
        let mut touched: BTreeSet<u64> = BTreeSet::new();

        // Phase 0: checkpoint auto-restarts.
        if ctx.durability.is_some() {
            self.restart_poisoned(ctx, &mut stats, &mut touched);
        }

        // Take the whole queue in one lock hold; submitters regain the
        // full capacity immediately.
        let envelopes: Vec<Envelope> = {
            let mut q = lock(&self.ingest);
            obs::ingest_queued().add(-(q.queued_answers as i64));
            self.queued_answers
                .fetch_sub(q.queued_answers, Ordering::SeqCst);
            q.queued_answers = 0;
            q.queue.drain(..).collect()
        };

        // Phase 1: ingest.
        for env in envelopes {
            let sid = SessionId::from_raw(env.session);
            let Some(slot) = self.slot(env.session) else {
                // The session was evicted between the submit and this
                // drain (the evict path pulls its own envelopes first, so
                // this is a submit that raced the eviction). Report, don't
                // crash the tick.
                stats
                    .ingest_errors
                    .push((sid, "session evicted before ingest".to_string()));
                continue;
            };
            let mut slot = lock(&slot);
            if slot.poisoned.is_some() {
                // Keep the batch (it raced the poisoning panic into the
                // queue, and with durability it is already acknowledged in
                // the WAL): a restartable session ingests it after its
                // next-tick checkpoint restart, and an evicted one
                // surfaces it in `EvictedSession::undrained`. Requeueing
                // at the back is order-safe — submits to a poisoned
                // session are refused, so no younger envelope of this
                // session can already be ahead of it.
                drop(slot);
                let mut q = lock(&self.ingest);
                q.queued_answers += env.records.len();
                self.queued_answers
                    .fetch_add(env.records.len(), Ordering::SeqCst);
                obs::ingest_queued().add(env.records.len() as i64);
                q.queue.push_back(env);
                continue;
            }
            match slot.engine.push_batch(&env.records) {
                Ok(n) => stats.answers_ingested += n,
                Err((accepted, e)) => {
                    stats.answers_ingested += accepted;
                    stats
                        .ingest_errors
                        .push((sid, format!("record {accepted} rejected: {e}")));
                }
            }
            slot.batches_ingested += 1;
            touched.insert(env.session);
            // The batch left the queue and entered the engine (even a
            // partially-rejected one: the rejection is deterministic and
            // replays identically) — advance the WAL's ingest cursor so
            // the next converge frame covers it.
            if ctx.durability.is_some() {
                if let Some(wal) = self.wal(env.session) {
                    lock(&wal).batches_ingested += 1;
                }
            }
        }

        // Phase 2: budgeted converges, ascending session id. Snapshot the
        // id → slot handles first; the map lock is not held while any
        // session converges.
        let snapshot: Vec<(u64, Arc<Mutex<SessionSlot>>)> = lock(&self.sessions)
            .iter()
            .map(|(&raw, slot)| (raw, Arc::clone(slot)))
            .collect();
        for (raw, slot) in snapshot {
            let mut slot = lock(&slot);
            if slot.poisoned.is_some() || !slot.engine.needs_converge() {
                continue;
            }
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    stats.sessions_deadline_deferred += 1;
                    obs::shard_deadline_deferred().inc();
                    continue;
                }
            }
            let inject_debug = std::mem::take(&mut slot.debug_panic_next_converge);
            #[cfg(any(test, feature = "fault-inject"))]
            let inject_block = std::mem::take(&mut slot.debug_block_next_converge);
            let attempt = slot.converge_attempts;
            slot.converge_attempts += 1;
            let inject_fault = ctx
                .fault
                .decide(FaultSite::Converge {
                    session: raw,
                    index: attempt,
                })
                .is_some();
            let engine = &mut slot.engine;
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if inject_debug {
                    panic!("injected converge panic");
                }
                if inject_fault {
                    panic!("injected converge panic (fault plan)");
                }
                #[cfg(any(test, feature = "fault-inject"))]
                if let Some(gate) = inject_block {
                    gate.park(); // holds the slot lock until released
                }
                engine.converge_budgeted(budget)
            }));
            match outcome {
                Ok(Ok(report)) => {
                    if report.result.converged {
                        stats.sessions_converged += 1;
                        obs::shard_sessions_converged().inc();
                    } else {
                        stats.sessions_budget_exhausted += 1;
                        obs::shard_budget_exhausted().inc();
                    }
                    slot.last_report = Some(Arc::new(report));
                    touched.insert(raw);
                    if let Some(dur) = &ctx.durability {
                        self.log_converge(raw, &slot, budget, dur, ctx, &mut stats);
                    }
                }
                Ok(Err(e)) => {
                    // A typed engine error (not a panic): the engine is
                    // still consistent, so the session stays usable; the
                    // error is surfaced in the tick report.
                    stats
                        .ingest_errors
                        .push((SessionId::from_raw(raw), format!("converge failed: {e}")));
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    slot.poisoned = Some(msg);
                    stats.newly_poisoned.push(SessionId::from_raw(raw));
                    touched.insert(raw);
                    self.poisoned_sessions.fetch_add(1, Ordering::SeqCst);
                    obs::shard_poisoned().inc();
                }
            }
        }

        // Publish a fresh truth snapshot for every session this tick
        // changed — the single write that the read path sees.
        // Each slot is re-locked briefly; the drain gate keeps the state
        // it captured from moving under us.
        for &raw in &touched {
            let Some(cell) = self.truth(raw) else {
                continue;
            };
            let Some(slot) = self.slot(raw) else { continue };
            let slot = lock(&slot);
            publish_session(&cell, &slot, SessionId::from_raw(raw), self.index, None);
        }
        obs::shard_answers_ingested().add(stats.answers_ingested as u64);
        let dt = tick_timer.stop();
        crowd_obs::journal::record(
            crowd_obs::SpanKind::DrainTick,
            stats.answers_ingested as u64,
            dt,
        );
        stats
    }

    /// Append a converge frame for a just-completed converge and, on
    /// cadence, write a snapshot of the warm state. Called with the slot
    /// lock held (slot → wal is the sanctioned order).
    ///
    /// A converge-frame append failure **wedges** the WAL: the engine
    /// has converged but the log no longer records it, so any later
    /// replay would diverge from the live trajectory. Wedging makes the
    /// degradation explicit — reads keep serving, but further submits
    /// fail typed until the session is restarted or evicted. A snapshot
    /// failure, by contrast, is only logged: snapshots are an
    /// optimisation and recovery falls back to full-WAL replay.
    fn log_converge(
        &self,
        raw: u64,
        slot: &SessionSlot,
        budget: ConvergeBudget,
        dur: &DurabilityConfig,
        ctx: &DrainCtx,
        stats: &mut ShardTickStats,
    ) {
        let Some(wal) = self.wal(raw) else { return };
        let mut wal = lock(&wal);
        if wal.writer.broken().is_some() {
            return;
        }
        let cum = wal.batches_ingested;
        let logged_budget = u64::try_from(budget.max_iterations).unwrap_or(u64::MAX);
        if let Err(e) = wal.writer.append_converge(cum, logged_budget) {
            wal.writer
                .wedge(format!("converge frame append failed: {e}"));
            stats.ingest_errors.push((
                SessionId::from_raw(raw),
                format!("wal wedged (converge frame append failed: {e}); submits will fail until restart/evict"),
            ));
            return;
        }
        wal.converges_logged += 1;
        wal.converges_since_snapshot += 1;
        if dur.snapshot_every_converges > 0
            && wal.converges_since_snapshot >= dur.snapshot_every_converges
        {
            wal.converges_since_snapshot = 0;
            let index = wal.snapshots_written;
            wal.snapshots_written += 1;
            let data = SnapshotData {
                cum_batches: cum,
                cum_converges: wal.converges_logged,
                checkpoint: slot.engine.checkpoint(),
            };
            let path = durable::snapshot_path(&dur.dir, raw);
            let sync = dur.fsync != durable::FsyncPolicy::Never;
            let timer = obs::snapshot_write_seconds().start_timer();
            let result = write_snapshot(&path, raw, index, &ctx.fault, &data, sync);
            let dt = timer.stop();
            crowd_obs::journal::record(crowd_obs::SpanKind::SnapshotWrite, raw, dt);
            if let Err(e) = result {
                obs::snapshot_failures().inc();
                stats.ingest_errors.push((
                    SessionId::from_raw(raw),
                    format!("snapshot write failed (recovery will replay the full wal): {e}"),
                ));
            } else {
                obs::snapshot_writes().inc();
            }
        }
    }

    /// Phase 0: rebuild poisoned sessions from snapshot + WAL replay.
    ///
    /// The recovered engine is advanced to exactly the batches the live
    /// engine had ingested (`batches_ingested`): tail frames beyond the
    /// last converge marker are pushed only up to that cursor — the rest
    /// are still sitting in the in-memory ingest queue and will be
    /// ingested by phase 1 as usual (pushing them here would make phase 1
    /// re-push duplicates, whose rejection would silently drop the whole
    /// remainder of each batch).
    fn restart_poisoned(
        &self,
        ctx: &DrainCtx,
        stats: &mut ShardTickStats,
        touched: &mut BTreeSet<u64>,
    ) {
        let Some(dur) = &ctx.durability else { return };
        let snapshot: Vec<(u64, Arc<Mutex<SessionSlot>>)> = lock(&self.sessions)
            .iter()
            .map(|(&raw, slot)| (raw, Arc::clone(slot)))
            .collect();
        for (raw, slot_arc) in snapshot {
            let mut slot = lock(&slot_arc);
            if slot.poisoned.is_none() || slot.restarts >= dur.max_session_restarts {
                continue;
            }
            let sid = SessionId::from_raw(raw);
            let Some(wal_arc) = self.wal(raw) else {
                continue;
            };
            let mut wal = lock(&wal_arc);
            match durable::recover_session(&dur.dir, raw) {
                Ok(mut r) => {
                    // Advance to the live ingest cursor (see above).
                    let ingested_past_converge =
                        usize::try_from(wal.batches_ingested.saturating_sub(r.cum_batches))
                            .unwrap_or(usize::MAX)
                            .min(r.tail_batches.len());
                    for batch in &r.tail_batches[..ingested_past_converge] {
                        let _ = r.engine.push_batch(batch);
                    }
                    // Heal a wedged writer by reopening on the valid
                    // prefix (truncating any torn tail).
                    if wal.writer.broken().is_some() || r.torn {
                        let path = durable::wal_path(&dur.dir, raw);
                        match WalWriter::reopen(
                            &path,
                            raw,
                            dur.fsync,
                            ctx.fault.clone(),
                            r.valid_len,
                            r.valid_frames,
                        ) {
                            Ok(writer) => {
                                wal.writer = writer;
                                wal.batches_appended = r.cum_batches + r.tail_batches.len() as u64;
                                wal.batches_ingested =
                                    r.cum_batches + ingested_past_converge as u64;
                                wal.converges_logged = r.cum_converges;
                            }
                            Err(e) => {
                                stats.ingest_errors.push((
                                    sid,
                                    format!("restart aborted: wal reopen failed: {e}"),
                                ));
                                continue;
                            }
                        }
                    }
                    slot.engine = r.engine;
                    slot.last_report = r.last_report.map(Arc::new);
                    slot.poisoned = None;
                    slot.restarts += 1;
                    slot.batches_ingested = wal.batches_ingested;
                    self.poisoned_sessions.fetch_sub(1, Ordering::SeqCst);
                    touched.insert(raw);
                    stats.sessions_restarted += 1;
                    obs::shard_restarts().inc();
                    crowd_obs::journal::record(
                        crowd_obs::SpanKind::SessionRestart,
                        raw,
                        (r.timings.scan + r.timings.snapshot_load + r.timings.replay).as_secs_f64(),
                    );
                    obs::recovery_snapshot_load_seconds()
                        .record(r.timings.snapshot_load.as_secs_f64());
                    obs::recovery_replay_seconds().record(r.timings.replay.as_secs_f64());
                }
                Err(e) => {
                    stats
                        .ingest_errors
                        .push((sid, format!("restart failed: {e}")));
                }
            }
        }
    }
}

/// Publish a fresh [`TruthSnapshot`] for one session from its locked
/// slot. Every field is read under this single slot hold, which is what
/// makes the snapshot internally consistent ("same tick" semantics).
/// `state_override` lets the evict path publish the terminal
/// [`SnapshotState::SessionGone`] snapshot.
pub(crate) fn publish_session(
    cell: &Published<TruthSnapshot>,
    slot: &SessionSlot,
    session: SessionId,
    shard_idx: usize,
    state_override: Option<SnapshotState>,
) {
    cell.publish_with(|prior, epoch| {
        let mut snap = snapshot_from_slot(slot, session, shard_idx, epoch, Some(prior));
        if let Some(state) = state_override {
            snap.state = state;
        }
        snap
    });
    obs::truth_publishes().inc();
}

/// Build a snapshot of one slot's state at `epoch`.
///
/// For a poisoned slot the engine is not trusted (the panic may have
/// left mid-converge views behind): only its scalar counters are read,
/// `plurality` is carried forward from the `prior` snapshot, and the
/// state degrades to [`SnapshotState::SnapshotStale`]. `last_report` is
/// always safe — the panic never touches it.
pub(crate) fn snapshot_from_slot(
    slot: &SessionSlot,
    session: SessionId,
    shard_idx: usize,
    epoch: u64,
    prior: Option<&TruthSnapshot>,
) -> TruthSnapshot {
    let (state, plurality) = match &slot.poisoned {
        Some(reason) => (
            SnapshotState::SnapshotStale {
                reason: reason.clone(),
            },
            prior.map(|p| p.plurality.clone()).unwrap_or_default(),
        ),
        None => (SnapshotState::Live, slot.engine.current_estimates()),
    };
    let summary = slot.engine.summary();
    TruthSnapshot {
        session,
        epoch,
        state,
        cum_batches: slot.batches_ingested,
        plurality,
        report: slot.last_report.clone(),
        stats: SessionStats {
            session,
            shard: shard_idx,
            answers_seen: summary.answers_seen,
            pending_answers: summary.pending_answers,
            converges: summary.converges,
            needs_converge: summary.needs_converge,
            poisoned: slot.poisoned.is_some(),
            restarts: slot.restarts,
        },
    }
}

/// Best-effort panic payload rendering for poison records.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::Method;
    use crowd_data::{Answer, TaskType};
    use crowd_stream::StreamConfig;

    #[test]
    fn poisoned_session_batches_are_requeued_not_dropped() {
        // A batch that raced the poisoning panic into the queue must
        // survive drains (it is acknowledged; eviction or a restart will
        // account for it) rather than being silently discarded.
        let shard = Shard::new(0);
        let config = StreamConfig::new(Method::Mv, TaskType::DecisionMaking, 2, 2);
        let mut slot = SessionSlot::new(StreamEngine::new(config).unwrap());
        slot.poisoned = Some("injected".to_string());
        lock(&shard.sessions).insert(7, Arc::new(Mutex::new(slot)));
        let records = vec![AnswerRecord {
            task: 0,
            worker: 0,
            answer: Answer::Label(1),
        }];
        {
            let mut q = lock(&shard.ingest);
            q.queued_answers = records.len();
            shard.queued_answers.store(records.len(), Ordering::SeqCst);
            q.queue.push_back(Envelope {
                session: 7,
                records: records.clone(),
            });
        }
        for _ in 0..3 {
            let stats = shard.drain(
                ConvergeBudget::iterations(usize::MAX),
                None,
                &DrainCtx::default(),
            );
            assert_eq!(stats.answers_ingested, 0);
            assert!(stats.ingest_errors.is_empty());
        }
        let q = lock(&shard.ingest);
        assert_eq!(q.queued_answers, 1);
        assert_eq!(q.queue.len(), 1);
        assert_eq!(q.queue[0].records, records);
    }
}
