//! Shard internals: the bounded ingest queue, the session table (one
//! record per session: slot, WAL handle and published truth cell), and
//! the drain-tick executor body that runs on a pool worker.
//!
//! Lock ordering (deadlock freedom): `slot → wal → ingest`, with the
//! session-table map lock a leaf held only for a lookup, insert or
//! remove. The submit path takes `wal → ingest` (after a brief, released
//! slot check); the drain takes `ingest` alone to steal the queue, then
//! `slot → wal` per session; eviction takes `ingest` (retiring the
//! record and pulling its envelopes), then `slot`. No path takes them in
//! a conflicting order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crowd_data::AnswerRecord;
use crowd_stream::{ConvergeBudget, StreamEngine, StreamReport};

use crate::durable::fault::{FaultPlan, FaultSite};
use crate::durable::snapshot::{write_snapshot, SnapshotData};
use crate::durable::wal::WalWriter;
use crate::durable::{self, DurabilityConfig};
use crate::obs;
use crate::service::{SessionStats, TickReport};
use crate::truth::{Published, SnapshotState, TruthSnapshot};
use crate::SessionId;

/// One batch of answers waiting in a shard's ingest queue.
pub(crate) struct Envelope {
    pub session: u64,
    pub records: Vec<AnswerRecord>,
}

/// Everything one session owns, reached through one table entry. Each
/// part has its own lock: a converge holds only its session's slot, a
/// WAL append only the wal, and reads take neither.
pub(crate) struct Session {
    pub slot: Mutex<SessionSlot>,
    /// The WAL handle (present only when durability is on). Outside the
    /// slot, so a submit's append (possibly an fsync) never holds the
    /// slot lock.
    pub wal: Option<Mutex<SessionWal>>,
    /// The published truth cell — the read path. Reads and publishes go
    /// through the cell, never the table lock.
    pub truth: Arc<Published<TruthSnapshot>>,
    /// Set by eviction in the same ingest-lock hold that pulls the
    /// session's envelopes; a submit checks it in its own ingest-lock
    /// hold, so a batch is either pulled by the eviction or refused.
    pub retired: AtomicBool,
}

/// A session's engine and counters, behind the record's slot lock.
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
    /// Answer batches the engine has absorbed — published as
    /// [`TruthSnapshot::cum_batches`], and with durability on the WAL's
    /// ingest cursor: the `cum_batches` the next converge frame records.
    pub batches_ingested: u64,
    /// Batches a drain took off the queue after a converge panic had
    /// poisoned the session, oldest first. They are acknowledged (with
    /// durability, already in the WAL), so they wait here — off the
    /// shard's queue and its capacity — until a checkpoint restart
    /// ingests them or eviction returns them as `undrained`.
    pub parked: Vec<Vec<AnswerRecord>>,
    /// Test-only: the next converge on this slot parks on this gate
    /// (with the slot lock held) until released — how the read-path
    /// tests pin a converge "in flight".
    #[cfg(test)]
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
            parked: Vec::new(),
            #[cfg(test)]
            debug_block_next_converge: None,
        }
    }

    /// Push one batch into the engine. Even a partially rejected batch
    /// counts as ingested (the rejection is deterministic and replays
    /// identically), so the next converge frame covers it.
    fn ingest(&mut self, session: SessionId, records: &[AnswerRecord], report: &mut TickReport) {
        match self.engine.push_batch(records) {
            Ok(n) => report.answers_ingested += n,
            Err((accepted, e)) => {
                report.answers_ingested += accepted;
                report
                    .errors
                    .push((session, format!("record {accepted} rejected: {e}")));
            }
        }
        self.batches_ingested += 1;
    }
}

/// A session's durability state: the WAL writer plus the converge and
/// snapshot counters that tie the log to the engine.
pub(crate) struct SessionWal {
    pub writer: WalWriter,
    /// Converge frames appended.
    pub converges_logged: u64,
    /// Successful converges since the last snapshot.
    pub converges_since_snapshot: u64,
    /// Snapshots written (the [`FaultSite::Snapshot`] index).
    pub snapshots_written: u64,
}

impl SessionWal {
    /// A handle on `writer`, whose log already holds `converges_logged`
    /// converge frames.
    pub fn new(writer: WalWriter, converges_logged: u64) -> Self {
        Self {
            writer,
            converges_logged,
            converges_since_snapshot: 0,
            snapshots_written: 0,
        }
    }
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
    /// The ingest queue, bounded in **answers** (not envelopes) so queue
    /// memory is proportional to actual load.
    pub ingest: Mutex<VecDeque<Envelope>>,
    /// The session table. The map lock is held only for lookups and
    /// insert/remove — never across a converge, an append or a read.
    pub sessions: Mutex<BTreeMap<u64, Arc<Session>>>,
    /// Serialises whole drains against evictions: an eviction must
    /// observe either the pre-drain queue (and pull its envelopes out
    /// itself) or the post-drain engines (envelopes applied) — never a
    /// drain that has stolen the queue but not yet applied it.
    pub drain_gate: Mutex<()>,
    /// Answers in the ingest queue. Changed only under the ingest lock,
    /// where the capacity check reads it; [`CrowdServe::stats`](crate::CrowdServe::stats)
    /// polls it without touching the queue lock.
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
            ingest: Mutex::new(VecDeque::new()),
            sessions: Mutex::new(BTreeMap::new()),
            drain_gate: Mutex::new(()),
            queued_answers: AtomicUsize::new(0),
            poisoned_sessions: AtomicUsize::new(0),
        }
    }

    /// Fetch one session's record (brief map lock).
    pub fn session(&self, raw: u64) -> Option<Arc<Session>> {
        lock(&self.sessions).get(&raw).cloned()
    }

    /// Every session's record, ascending id (brief map lock).
    fn records(&self) -> Vec<(u64, Arc<Session>)> {
        lock(&self.sessions)
            .iter()
            .map(|(&raw, record)| (raw, Arc::clone(record)))
            .collect()
    }

    /// Register a session: publish its first truth snapshot (epoch
    /// `epoch_base + 1`) and only then insert its record, so a reader
    /// can never observe an empty cell.
    pub fn open(&self, raw: u64, slot: SessionSlot, wal: Option<SessionWal>, epoch_base: u64) {
        let session = SessionId::from_raw(raw);
        let truth = Arc::new(Published::new(epoch_base, |epoch| {
            snapshot_from_slot(&slot, session, self.index, epoch, None)
        }));
        obs::truth_publishes().inc();
        let record = Session {
            slot: Mutex::new(slot),
            wal: wal.map(Mutex::new),
            truth,
            retired: AtomicBool::new(false),
        };
        lock(&self.sessions).insert(raw, Arc::new(record));
    }

    /// Append a batch to the ingest queue. Called with the queue locked.
    pub fn enqueue(&self, q: &mut VecDeque<Envelope>, env: Envelope) {
        let n = env.records.len();
        self.queued_answers.fetch_add(n, Ordering::SeqCst);
        obs::ingest_queued().add(n as i64);
        q.push_back(env);
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
    ///    bit-identical replay property rests on). A poisoned session's
    ///    envelopes are parked on its slot instead.
    /// 2. **Converge** — for each dirty session (new answers, or a
    ///    previous tick's budget ran out), run one budgeted converge.
    ///    Sessions are visited in ascending id order.
    ///    With durability on, each successful converge appends a WAL
    ///    converge frame (pinning the replay schedule) and, on cadence,
    ///    an atomic snapshot of the warm state.
    ///
    /// Each session is locked individually for its own ingest/converge,
    /// so reads of other sessions proceed throughout the tick. A panic
    /// inside one session's converge is caught, poisons only that
    /// session, and the drain moves on to the next one. The returned
    /// report leaves `shard_failures` and `elapsed` to the caller.
    pub fn drain(&self, budget: ConvergeBudget, ctx: &DrainCtx) -> TickReport {
        let _gate = lock(&self.drain_gate);
        let tick_timer = obs::shard_tick_seconds().start_timer();
        let mut report = TickReport::default();
        // Sessions whose published snapshot must be refreshed at the end
        // of this tick (ingested, converged, poisoned, or restarted).
        let mut touched: BTreeSet<u64> = BTreeSet::new();

        // Phase 0: checkpoint auto-restarts.
        if let Some(dur) = &ctx.durability {
            self.restart_poisoned(dur, ctx, &mut report, &mut touched);
        }

        // Take the whole queue in one lock hold; submitters regain the
        // full capacity immediately.
        let envelopes: Vec<Envelope> = {
            let mut q = lock(&self.ingest);
            let queued = self.queued_answers.swap(0, Ordering::SeqCst);
            obs::ingest_queued().add(-(queued as i64));
            q.drain(..).collect()
        };

        // Phase 1: ingest.
        for env in envelopes {
            let sid = SessionId::from_raw(env.session);
            let Some(record) = self.session(env.session) else {
                // Eviction pulls a session's envelopes and retires it in
                // one ingest-lock hold, so no envelope should outlive its
                // session. Report, don't crash the tick.
                report
                    .errors
                    .push((sid, "session evicted before ingest".to_string()));
                continue;
            };
            let mut slot = lock(&record.slot);
            if slot.poisoned.is_some() {
                // Keep the batch (it raced the poisoning panic into the
                // queue, and with durability it is already acknowledged in
                // the WAL), but not in the queue, where it would hold the
                // shard's capacity against healthy sessions. Submits to a
                // poisoned session are refused, so whatever of this
                // session is still queued is younger than what is parked.
                slot.parked.push(env.records);
                continue;
            }
            slot.ingest(sid, &env.records, &mut report);
            touched.insert(env.session);
        }

        // Phase 2: budgeted converges, ascending session id. The map
        // lock is not held while any session converges.
        for (raw, record) in self.records() {
            let mut slot = lock(&record.slot);
            if slot.poisoned.is_some() || !slot.engine.needs_converge() {
                continue;
            }
            #[cfg(test)]
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
                if inject_fault {
                    panic!("injected converge panic (fault plan)");
                }
                #[cfg(test)]
                if let Some(gate) = inject_block {
                    gate.park(); // holds the slot lock until released
                }
                engine.converge_budgeted(budget)
            }));
            match outcome {
                Ok(Ok(stream_report)) => {
                    if stream_report.result.converged {
                        report.sessions_converged += 1;
                        obs::shard_sessions_converged().inc();
                    } else {
                        report.sessions_budget_exhausted += 1;
                        obs::shard_budget_exhausted().inc();
                    }
                    slot.last_report = Some(Arc::new(stream_report));
                    touched.insert(raw);
                    if let (Some(dur), Some(wal)) = (&ctx.durability, &record.wal) {
                        log_converge(raw, &slot, &mut lock(wal), budget, dur, ctx, &mut report);
                    }
                }
                Ok(Err(e)) => {
                    // A typed engine error (not a panic): the engine is
                    // still consistent, so the session stays usable; the
                    // error is surfaced in the tick report.
                    report
                        .errors
                        .push((SessionId::from_raw(raw), format!("converge failed: {e}")));
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    slot.poisoned = Some(msg);
                    report.poisoned.push(SessionId::from_raw(raw));
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
            let Some(record) = self.session(raw) else {
                continue;
            };
            let slot = lock(&record.slot);
            publish_session(
                &record.truth,
                &slot,
                SessionId::from_raw(raw),
                self.index,
                None,
            );
        }
        obs::shard_answers_ingested().add(report.answers_ingested as u64);
        tick_timer.stop();
        report
    }

    /// Phase 0: rebuild poisoned sessions from snapshot + WAL replay.
    ///
    /// The recovered engine is advanced to exactly the batches the live
    /// engine had ingested (`batches_ingested`): tail frames beyond the
    /// last converge marker are pushed only up to that cursor. The rest
    /// are the slot's parked batches, pushed next from memory, and then
    /// whatever is still in the ingest queue, which phase 1 ingests as
    /// usual (pushing those from the log here would make phase 1 re-push
    /// duplicates, whose rejection would silently drop the whole
    /// remainder of each batch).
    fn restart_poisoned(
        &self,
        dur: &DurabilityConfig,
        ctx: &DrainCtx,
        report: &mut TickReport,
        touched: &mut BTreeSet<u64>,
    ) {
        for (raw, record) in self.records() {
            let mut slot = lock(&record.slot);
            if slot.poisoned.is_none() || slot.restarts >= dur.max_session_restarts {
                continue;
            }
            let sid = SessionId::from_raw(raw);
            let Some(wal) = &record.wal else { continue };
            let mut wal = lock(wal);
            match durable::recover_session(&dur.dir, raw) {
                Ok(mut r) => {
                    // Advance to the live ingest cursor (see above).
                    let ingested_past_converge =
                        usize::try_from(slot.batches_ingested.saturating_sub(r.cum_batches))
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
                                wal.converges_logged = r.cum_converges;
                                slot.batches_ingested =
                                    r.cum_batches + ingested_past_converge as u64;
                            }
                            Err(e) => {
                                report.errors.push((
                                    sid,
                                    format!("restart aborted: wal reopen failed: {e}"),
                                ));
                                continue;
                            }
                        }
                    }
                    slot.engine = r.engine;
                    slot.last_report = r.last_report.map(Arc::new);
                    for batch in std::mem::take(&mut slot.parked) {
                        slot.ingest(sid, &batch, report);
                    }
                    slot.poisoned = None;
                    slot.restarts += 1;
                    self.poisoned_sessions.fetch_sub(1, Ordering::SeqCst);
                    touched.insert(raw);
                    report.sessions_restarted += 1;
                    obs::shard_restarts().inc();
                    obs::recovery_snapshot_load_seconds()
                        .record(r.timings.snapshot_load.as_secs_f64());
                    obs::recovery_replay_seconds().record(r.timings.replay.as_secs_f64());
                }
                Err(e) => {
                    report.errors.push((sid, format!("restart failed: {e}")));
                }
            }
        }
    }
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
    raw: u64,
    slot: &SessionSlot,
    wal: &mut SessionWal,
    budget: ConvergeBudget,
    dur: &DurabilityConfig,
    ctx: &DrainCtx,
    report: &mut TickReport,
) {
    if wal.writer.broken().is_some() {
        return;
    }
    let cum = slot.batches_ingested;
    let logged_budget = u64::try_from(budget.max_iterations).unwrap_or(u64::MAX);
    if let Err(e) = wal.writer.append_converge(cum, logged_budget) {
        wal.writer
            .wedge(format!("converge frame append failed: {e}"));
        report.errors.push((
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
        timer.stop();
        if let Err(e) = result {
            obs::snapshot_failures().inc();
            report.errors.push((
                SessionId::from_raw(raw),
                format!("snapshot write failed (recovery will replay the full wal): {e}"),
            ));
        } else {
            obs::snapshot_writes().inc();
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
        // account for it) rather than being silently discarded. It is
        // held on the session, not in the queue, so it takes no capacity
        // from the shard's healthy sessions.
        let shard = Shard::new(0);
        let config = StreamConfig::new(Method::Mv, TaskType::DecisionMaking, 2, 2);
        let mut slot = SessionSlot::new(StreamEngine::new(config).unwrap());
        slot.poisoned = Some("injected".to_string());
        shard.open(7, slot, None, 0);
        let records = vec![AnswerRecord {
            task: 0,
            worker: 0,
            answer: Answer::Label(1),
        }];
        shard.enqueue(
            &mut lock(&shard.ingest),
            Envelope {
                session: 7,
                records: records.clone(),
            },
        );
        for _ in 0..3 {
            let report = shard.drain(ConvergeBudget::iterations(usize::MAX), &DrainCtx::default());
            assert_eq!(report.answers_ingested, 0);
            assert!(report.errors.is_empty());
        }
        let record = shard.session(7).unwrap();
        let slot = lock(&record.slot);
        assert_eq!(shard.queued_answers.load(Ordering::SeqCst), 0);
        assert_eq!(slot.parked.len(), 1);
        assert_eq!(slot.parked[0], records);
    }
}
