//! The public service API: session lifecycle, the ingest front, drain
//! ticks, reads, and crash recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowd_core::exec::{JobOutcome, WorkerPool};
use crowd_data::AnswerRecord;
use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine, StreamReport};

use crate::durable::fault::FaultPlan;
use crate::durable::wal::WalWriter;
use crate::durable::{self, DurabilityConfig, RecoveryReport};
use crate::obs;
use crate::shard::{
    lock, panic_message, publish_session, DrainCtx, Envelope, SessionSlot, SessionWal, Shard,
};
use crate::truth::{SnapshotState, TruthReader, TruthSnapshot};
use crate::ServeError;

/// Opaque session identifier, stable for the session's lifetime (and,
/// with durability on, across process restarts — recovery rebuilds a
/// session under its original id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    pub(crate) fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Session shards. Each shard drains on its own pool worker, so this
    /// is the service's ingest/convergence parallelism.
    pub shards: usize,
    /// Per-shard ingest queue capacity, in **answers**. A batch that
    /// would overflow a non-empty queue is rejected with
    /// [`ServeError::Backpressure`]; a batch into an *empty* queue is
    /// always admitted (a single batch larger than the capacity must not
    /// be undeliverable).
    pub queue_capacity: usize,
    /// Per-session EM-iteration budget for one drain tick. Sessions that
    /// exhaust it stay dirty and resume (warm) next tick.
    pub tick_iteration_budget: usize,
    /// Durability: `Some` enables the per-session write-ahead answer
    /// log, periodic warm-state snapshots, crash recovery via
    /// [`CrowdServe::recover`], and checkpoint auto-restart of poisoned
    /// sessions. `None` (the default) is the pure in-memory service.
    pub durability: Option<DurabilityConfig>,
    /// Deterministic fault injection for chaos testing
    /// ([`FaultPlan::none`] by default — zero-cost on every path).
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: crowd_core::exec::default_threads().clamp(1, 8),
            queue_capacity: 1 << 16,
            tick_iteration_budget: usize::MAX,
            durability: None,
            fault: FaultPlan::none(),
        }
    }
}

/// What one [`CrowdServe::drain_tick`] did, aggregated over all shards.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Answers moved from ingest queues into engines.
    pub answers_ingested: usize,
    /// Sessions whose converge met the convergence criterion.
    pub sessions_converged: usize,
    /// Sessions whose converge ran out of iteration budget (they resume
    /// next tick).
    pub sessions_budget_exhausted: usize,
    /// Poisoned sessions auto-restarted from their last checkpoint this
    /// tick (durability only).
    pub sessions_restarted: usize,
    /// Sessions newly poisoned by a converge panic this tick.
    pub poisoned: Vec<SessionId>,
    /// Per-session ingest/converge errors (typed engine rejections, not
    /// panics — those poison), plus durability warnings (wedged WALs,
    /// failed snapshot writes).
    pub errors: Vec<(SessionId, String)>,
    /// Shard drain jobs that failed outside any session's converge
    /// (cancelled pool, top-level panic). Always 0 in healthy operation.
    pub shard_failures: usize,
    /// Wall-clock duration of the whole tick (submit → all shards
    /// joined).
    pub elapsed: Duration,
}

impl TickReport {
    /// Add one shard's drain report (which leaves `shard_failures` and
    /// `elapsed` to the tick).
    fn merge(&mut self, s: TickReport) {
        self.answers_ingested += s.answers_ingested;
        self.sessions_converged += s.sessions_converged;
        self.sessions_budget_exhausted += s.sessions_budget_exhausted;
        self.sessions_restarted += s.sessions_restarted;
        self.poisoned.extend(s.poisoned);
        self.errors.extend(s.errors);
    }
}

/// Per-session counters for observability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// The session.
    pub session: SessionId,
    /// The shard the session lives on.
    pub shard: usize,
    /// Answers accepted into the engine so far.
    pub answers_seen: usize,
    /// Answers accepted since the last warm converge.
    pub pending_answers: usize,
    /// Warm converges run so far.
    pub converges: usize,
    /// Whether the next drain tick would re-converge this session.
    pub needs_converge: bool,
    /// Whether the session is poisoned.
    pub poisoned: bool,
    /// Checkpoint auto-restarts this session has consumed.
    pub restarts: u32,
}

/// Service-wide counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Shards configured.
    pub shards: usize,
    /// Live sessions (including poisoned ones awaiting eviction).
    pub sessions: usize,
    /// Poisoned sessions awaiting restart or eviction.
    pub poisoned_sessions: usize,
    /// Answers currently waiting in ingest queues. Batches a drain has
    /// parked on a poisoned session are not counted: they hold no queue
    /// capacity, and come back from its restart or eviction.
    pub queued_answers: usize,
}

/// Everything a retired session leaves behind.
#[derive(Debug)]
pub struct EvictedSession {
    /// The retired session's id.
    pub session: SessionId,
    /// Total answers the session absorbed.
    pub answers_seen: usize,
    /// Warm converges the session ran.
    pub converges: usize,
    /// The final converged report (after draining pending ingest), or the
    /// last one on record if the final converge was impossible.
    pub final_report: Option<StreamReport>,
    /// The poison message, for sessions that died to a converge panic.
    pub poisoned: Option<String>,
    /// Answers the engine never absorbed: for a poisoned session, every
    /// answer parked on it or still queued, in submission order; for a
    /// healthy one, the suffix of any batch whose ingestion was rejected
    /// mid-way (the offending record and everything after it). Empty in
    /// clean evictions — the caller can account for every acknowledged
    /// submit as either `answers_seen` or returned here: a submit racing
    /// the eviction is either pulled in with the queue or refused with
    /// [`ServeError::UnknownSession`], never acknowledged and dropped.
    pub undrained: Vec<AnswerRecord>,
}

/// The multi-session service core. See the crate docs for the
/// architecture; all methods are callable from any thread.
pub struct CrowdServe {
    config: ServeConfig,
    shards: Vec<Arc<Shard>>,
    pool: WorkerPool,
    next_session: AtomicU64,
}

/// Test-only rendezvous for pinning a converge "in flight": the drain
/// worker parks on it (slot lock held) until the test releases it.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct ConvergeGate {
    entered: (std::sync::Mutex<bool>, std::sync::Condvar),
    release: (std::sync::Mutex<bool>, std::sync::Condvar),
}

#[cfg(test)]
impl ConvergeGate {
    /// Drain side: announce entry, then park until released.
    pub(crate) fn park(&self) {
        *lock(&self.entered.0) = true;
        self.entered.1.notify_all();
        let mut released = lock(&self.release.0);
        while !*released {
            released = self
                .release
                .1
                .wait(released)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Test side: block until the converge is parked on the gate.
    pub(crate) fn wait_entered(&self) {
        let mut entered = lock(&self.entered.0);
        while !*entered {
            entered = self
                .entered
                .1
                .wait(entered)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Test side: let the parked converge proceed.
    pub(crate) fn release(&self) {
        *lock(&self.release.0) = true;
        self.release.1.notify_all();
    }
}

impl CrowdServe {
    /// Build a service with `config.shards` empty shards and a worker
    /// pool sized to drain them all concurrently. With durability
    /// configured, the directory is created (but existing logs are not
    /// read — use [`CrowdServe::recover`] to rebuild sessions).
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::BadConfig {
                detail: "shards must be at least 1".to_string(),
            });
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::BadConfig {
                detail: "queue_capacity must be at least 1 answer".to_string(),
            });
        }
        if config.tick_iteration_budget == 0 {
            return Err(ServeError::BadConfig {
                detail: "tick_iteration_budget must be at least 1 iteration".to_string(),
            });
        }
        if let Some(dur) = &config.durability {
            std::fs::create_dir_all(&dur.dir).map_err(|e| ServeError::BadConfig {
                detail: format!("cannot create durability dir {}: {e}", dur.dir.display()),
            })?;
        }
        let shards = (0..config.shards)
            .map(|i| Arc::new(Shard::new(i)))
            .collect();
        Ok(Self {
            pool: WorkerPool::new(config.shards),
            shards,
            next_session: AtomicU64::new(0),
            config,
        })
    }

    /// Rebuild a service from the durability directory: every session
    /// with a WAL is recovered from its latest valid snapshot plus WAL
    /// tail replay (full-WAL replay when the snapshot is missing,
    /// corrupt, or inconsistent), torn WAL tails are truncated to the
    /// last valid frame, and batches that were logged but never covered
    /// by a converge frame are re-enqueued onto their shard's ingest
    /// queue (bypassing the capacity check — they were durably
    /// acknowledged and must not be dropped) for the next drain tick.
    ///
    /// Recovery is bit-identical: the rebuilt engines hold exactly the
    /// state replaying the logged answer/converge schedule produces, so
    /// continuing the stream yields the same plurality and posterior
    /// outputs the uninterrupted run would have (property-tested in
    /// `tests/durability.rs`). A [`TruthSnapshot`]'s posteriors are
    /// `None` for a session whose snapshot covered its entire converge
    /// history until the next drain tick converges it again.
    ///
    /// Unrecoverable WALs (no valid header, or a replay-level failure)
    /// are skipped — counted and named in the [`RecoveryReport`], files
    /// left on disk for inspection, their ids never reused.
    pub fn recover(config: ServeConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let Some(dur) = config.durability.clone() else {
            return Err(ServeError::BadConfig {
                detail: "recover requires config.durability".to_string(),
            });
        };
        let serve = Self::new(config)?;
        let mut report = RecoveryReport::default();
        let t_scan = Instant::now();
        let ids = durable::scan_wal_sessions(&dur.dir).map_err(|e| ServeError::Durability {
            session: None,
            detail: format!("cannot scan durability dir {}: {e}", dur.dir.display()),
        })?;
        report.timings.scan = t_scan.elapsed();
        let mut max_id = None;
        for raw in ids {
            max_id = Some(raw);
            let sid = SessionId::from_raw(raw);
            let r = match durable::recover_session(&dur.dir, raw) {
                Ok(r) => r,
                Err(e) => {
                    report.sessions_skipped += 1;
                    report.skipped.push((sid, e.to_string()));
                    continue;
                }
            };
            if r.torn {
                report.torn_tails_truncated += 1;
            }
            if r.snapshot_used {
                report.snapshots_used += 1;
            }
            if r.snapshot_fallback {
                report.snapshot_fallbacks += 1;
            }
            report.timings.absorb(&r.timings);
            report.converges_replayed += r.converges_run;
            // Reopen the WAL on its valid prefix (this truncates any torn
            // tail) so post-recovery submits extend a clean log.
            let writer = match WalWriter::reopen(
                &durable::wal_path(&dur.dir, raw),
                raw,
                dur.fsync,
                serve.config.fault.clone(),
                r.valid_len,
                r.valid_frames,
            ) {
                Ok(w) => w,
                Err(e) => {
                    report.sessions_skipped += 1;
                    report
                        .skipped
                        .push((sid, format!("wal reopen failed: {e}")));
                    continue;
                }
            };
            let shard = &serve.shards[serve.shard_of(sid)];
            let mut slot = SessionSlot::new(r.engine);
            slot.last_report = r.last_report.map(Arc::new);
            slot.batches_ingested = r.cum_batches;
            // Republish the recovered truth, seeding the epoch counter
            // from the durable ingest/converge totals so snapshot epochs
            // keep increasing across the crash (ARCHITECTURE.md § read
            // path) — a reader that outlives the process restart never
            // sees its epoch go backwards.
            shard.open(
                raw,
                slot,
                Some(SessionWal::new(writer, r.cum_converges)),
                r.cum_batches + r.cum_converges,
            );
            let t_requeue = Instant::now();
            let mut requeued = 0usize;
            let mut q = lock(&shard.ingest);
            for records in r.tail_batches {
                requeued += records.len();
                shard.enqueue(
                    &mut q,
                    Envelope {
                        session: raw,
                        records,
                    },
                );
            }
            drop(q);
            report.timings.requeue += t_requeue.elapsed();
            report.answers_requeued += requeued;
            report.per_session.push(durable::RecoveredSessionCounts {
                session: sid,
                wal_frames: r.valid_frames,
                wal_bytes: r.valid_len,
                converges_replayed: r.converges_run,
                answers_requeued: requeued,
            });
            obs::recovery_converges_replayed().add(r.converges_run);
            obs::recovery_answers_requeued().add(requeued as u64);
            obs::recovery_wal_frames().add(r.valid_frames);
            obs::recovery_wal_bytes().add(r.valid_len);
            report.sessions_recovered += 1;
        }
        obs::recovery_sessions_recovered().add(report.sessions_recovered as u64);
        obs::recovery_sessions_skipped().add(report.sessions_skipped as u64);
        let t = &report.timings;
        for (hist, dt) in [
            (obs::recovery_scan_seconds(), t.scan),
            (obs::recovery_snapshot_load_seconds(), t.snapshot_load),
            (obs::recovery_replay_seconds(), t.replay),
            (obs::recovery_requeue_seconds(), t.requeue),
        ] {
            hist.record(dt.as_secs_f64());
        }
        serve
            .next_session
            .store(max_id.map_or(0, |m| m + 1), Ordering::Relaxed);
        Ok((serve, report))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a session is pinned to.
    pub fn shard_of(&self, session: SessionId) -> usize {
        (session.raw() % self.shards.len() as u64) as usize
    }

    /// Ids of every live session, ascending — the way to re-address
    /// sessions after [`CrowdServe::recover`] (ids are stable across
    /// recovery). Collected from the shards' session tables, each map
    /// lock held only to copy its keys, so polling this never waits on
    /// ingest or converge work.
    pub fn sessions(&self) -> Vec<SessionId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            ids.extend(lock(&shard.sessions).keys().map(|&raw| SessionId(raw)));
        }
        ids.sort_unstable();
        ids
    }

    /// Open a streaming session. The engine validates the config (task
    /// type, method support) exactly as a standalone
    /// [`StreamEngine`](crowd_stream::StreamEngine) would. With
    /// durability on, the session's WAL is created (with the config as
    /// its header frame) before the session is registered — a session
    /// that cannot log is never opened.
    pub fn create_session(&self, config: StreamConfig) -> Result<SessionId, ServeError> {
        let engine = StreamEngine::new(config.clone())?;
        let sid = SessionId::from_raw(self.next_session.fetch_add(1, Ordering::Relaxed));
        let wal = match &self.config.durability {
            Some(dur) => {
                let writer = WalWriter::create(
                    &durable::wal_path(&dur.dir, sid.raw()),
                    sid.raw(),
                    dur.fsync,
                    self.config.fault.clone(),
                    &config,
                )
                .map_err(|e| ServeError::Durability {
                    session: Some(sid),
                    detail: format!("wal create failed: {e}"),
                })?;
                Some(SessionWal::new(writer, 0))
            }
            None => None,
        };
        self.shards[self.shard_of(sid)].open(sid.raw(), SessionSlot::new(engine), wal, 0);
        Ok(sid)
    }

    /// Enqueue an answer batch for `session` — the async-style ingest
    /// front. Returns as soon as the batch is on the owning shard's
    /// bounded queue; no inference runs here, and validation happens at
    /// drain time (per-record, engine untouched on rejection). A full
    /// queue returns [`ServeError::Backpressure`] without enqueuing.
    ///
    /// With durability on this is a **write-ahead** step: the batch is
    /// appended (and, per [`FsyncPolicy`](crate::FsyncPolicy), fsynced)
    /// to the session's WAL before it is enqueued, so an acknowledged
    /// submit survives a crash. The append and the enqueue are atomic
    /// with respect to failure: on any error (including
    /// [`ServeError::Durability`]) the batch is neither logged nor
    /// queued — a frame on disk and a batch in the queue always
    /// correspond one-to-one. A submit that races an
    /// [`evict`](Self::evict) of the same session is either pulled in by
    /// the eviction or refused with [`ServeError::UnknownSession`].
    pub fn submit(&self, session: SessionId, records: Vec<AnswerRecord>) -> Result<(), ServeError> {
        if records.is_empty() {
            return Ok(());
        }
        let shard_idx = self.shard_of(session);
        let shard = &self.shards[shard_idx];
        let record = shard
            .session(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        if lock(&record.slot).poisoned.is_some() {
            return Err(ServeError::SessionPoisoned(session));
        }
        // Lock order: wal → ingest. Both are held across the append so
        // the capacity check, the WAL frame, and the enqueue are one
        // atomic step (a backpressure rejection must not leave a frame
        // behind for recovery to resurrect).
        let mut wal = record.wal.as_ref().map(lock);
        if let Some(why) = wal.as_ref().and_then(|w| w.writer.broken()) {
            return Err(ServeError::Durability {
                session: Some(session),
                detail: format!("wal is wedged ({why}); restart or evict the session"),
            });
        }
        let mut q = lock(&shard.ingest);
        // Eviction retires the record in the ingest-lock hold that pulls
        // its envelopes: past that hold, a batch would be acknowledged
        // into a queue no one drains for this session.
        if record.retired.load(Ordering::SeqCst) {
            return Err(ServeError::UnknownSession(session));
        }
        let queued = shard.queued_answers.load(Ordering::SeqCst);
        if queued > 0 && queued + records.len() > self.config.queue_capacity {
            obs::ingest_backpressure().inc();
            return Err(ServeError::Backpressure {
                session,
                shard: shard_idx,
                queued_answers: queued,
                capacity: self.config.queue_capacity,
            });
        }
        if let Some(w) = wal.as_deref_mut() {
            w.writer
                .append_batch(&records)
                .map_err(|e| ServeError::Durability {
                    session: Some(session),
                    detail: format!("wal append failed: {e}"),
                })?;
        }
        obs::ingest_batches().inc();
        obs::ingest_answers().add(records.len() as u64);
        shard.enqueue(
            &mut q,
            Envelope {
                session: session.raw(),
                records,
            },
        );
        Ok(())
    }

    /// Run one drain tick: one job per shard is submitted to the worker
    /// pool's from-any-thread queue, each shard ingests its queued
    /// batches and re-converges its dirty sessions under the configured
    /// budget, and the merged [`TickReport`] is returned once every shard
    /// has finished. With durability on, the tick also restarts poisoned
    /// sessions from checkpoint, logs converge frames, and writes
    /// snapshots on cadence.
    pub fn drain_tick(&self) -> TickReport {
        let started = Instant::now();
        let budget = ConvergeBudget::iterations(self.config.tick_iteration_budget);
        let ctx = DrainCtx {
            durability: self.config.durability.clone(),
            fault: self.config.fault.clone(),
        };
        let mut report = TickReport::default();

        if self.shards.len() == 1 {
            // One shard: drain inline, no dispatch latency.
            report.merge(self.shards[0].drain(budget, &ctx));
        } else {
            // Each job returns its statistics through its own ticket (not
            // shared shard state), so concurrent drain_tick callers cannot
            // steal or clobber each other's statistics.
            let tickets: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    let shard = Arc::clone(shard);
                    let ctx = ctx.clone();
                    self.pool.submit(move || shard.drain(budget, &ctx))
                })
                .collect();
            for ticket in tickets {
                match ticket.join() {
                    JobOutcome::Completed(stats) => report.merge(stats),
                    JobOutcome::Panicked(_) | JobOutcome::Cancelled => {
                        report.shard_failures += 1;
                    }
                }
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// A clonable, `Send + Sync` [`TruthReader`] handle for polling
    /// `session`'s published [`TruthSnapshot`] — the read path. The
    /// handle outlives poisoning, checkpoint restarts, and even
    /// eviction: instead of erroring mid-poll, its snapshots degrade to
    /// the typed [`SnapshotState::SnapshotStale`] /
    /// [`SnapshotState::SessionGone`] states.
    ///
    /// Clone the handle per polling thread (each clone caches its own
    /// snapshot); [`TruthReader::snapshot`] then takes no service lock
    /// and never waits for ingest or converge work — it completes in
    /// sub-microsecond time while the session's own converge is in
    /// flight (`tests/read_path.rs`, and measured by
    /// `crowd-serve-bench --mode mixed`).
    pub fn reader(&self, session: SessionId) -> Result<TruthReader, ServeError> {
        let record = self.shards[self.shard_of(session)]
            .session(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        Ok(TruthReader::new(session, Arc::clone(&record.truth)))
    }

    /// The current published [`TruthSnapshot`] for `session` — one
    /// coherent read of plurality, posteriors, last report and session
    /// stats: every field comes from the same publish epoch, so they can
    /// never disagree about which tick they describe.
    ///
    /// This entry point does one brief lookup of the session's record
    /// (its shard's session-table lock, never the session slot lock) and
    /// then clones the truth cell's current `Arc` under its leaf lock;
    /// it never waits for ingest or converge work. For a polling loop,
    /// take a [`reader`](Self::reader) handle instead and skip the
    /// lookup too.
    /// Returns [`ServeError::UnknownSession`] once eviction has taken the
    /// session out of its table (a [`TruthReader`] held across the
    /// eviction keeps serving the terminal
    /// [`SnapshotState::SessionGone`] snapshot).
    pub fn truth(&self, session: SessionId) -> Result<Arc<TruthSnapshot>, ServeError> {
        let record = self.shards[self.shard_of(session)]
            .session(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        let timer = obs::truth_read_seconds().start_timer();
        let snap = record.truth.read();
        timer.stop();
        obs::truth_reads().inc();
        Ok(snap)
    }

    /// Service-wide counters: the session count sums the shards'
    /// session-table lengths (each map lock held for one `len`), the
    /// rest are per-shard atomics. Polling this takes no slot, WAL or
    /// queue lock, so it never waits on ingest or converge work.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shards: self.shards.len(),
            sessions: self.shards.iter().map(|s| lock(&s.sessions).len()).sum(),
            poisoned_sessions: self
                .shards
                .iter()
                .map(|s| s.poisoned_sessions.load(Ordering::SeqCst))
                .sum(),
            queued_answers: self
                .shards
                .iter()
                .map(|s| s.queued_answers.load(Ordering::SeqCst))
                .sum(),
        }
    }

    /// Gracefully retire a session: its still-queued batches are pulled
    /// out of the shard's ingest queue and applied, a final unbudgeted
    /// converge runs (if the session is dirty and healthy), and the
    /// session's record leaves its shard's table. Poisoned sessions are
    /// evicted without touching the engine — their last good report and
    /// poison message come back in the [`EvictedSession`], and every
    /// answer the engine never absorbed (parked and queued batches for a
    /// poisoned session, rejected-batch suffixes for a healthy one) is
    /// surfaced in [`EvictedSession::undrained`] rather than dropped. A submit
    /// racing the eviction is either pulled in with the queue or
    /// refused with [`ServeError::UnknownSession`].
    ///
    /// With durability on, the session's WAL and snapshot files are
    /// deleted — the caller received the final state, and a later
    /// [`recover`](Self::recover) must not resurrect the session.
    pub fn evict(&self, session: SessionId) -> Result<EvictedSession, ServeError> {
        let shard = &self.shards[self.shard_of(session)];
        // Serialise against whole drain ticks on this shard: an eviction
        // must see either the pre-drain queue (and pull its envelopes
        // below) or the post-drain engines — never a drain that has
        // stolen the queue but not yet applied it, which would silently
        // drop the session's submitted batches from its final state.
        let _gate = lock(&shard.drain_gate);

        // In one ingest-lock hold: take the record out of the table,
        // retire it (a submit that has not enqueued yet is refused from
        // here on), and pull its pending envelopes, in order.
        let (record, pending) = {
            let mut q = lock(&shard.ingest);
            let record = lock(&shard.sessions)
                .remove(&session.raw())
                .ok_or(ServeError::UnknownSession(session))?;
            record.retired.store(true, Ordering::SeqCst);
            let (mine, rest): (Vec<Envelope>, Vec<Envelope>) =
                q.drain(..).partition(|env| env.session == session.raw());
            *q = rest.into();
            let pulled: usize = mine.iter().map(|e| e.records.len()).sum();
            shard.queued_answers.fetch_sub(pulled, Ordering::SeqCst);
            obs::ingest_queued().add(-(pulled as i64));
            (record, mine)
        };
        let mut slot = lock(&record.slot);
        if slot.poisoned.is_some() {
            shard.poisoned_sessions.fetch_sub(1, Ordering::SeqCst);
        }

        let mut undrained = Vec::new();
        // Batches parked on a poisoned session are older than any of its
        // still-queued ones.
        let batches = std::mem::take(&mut slot.parked)
            .into_iter()
            .chain(pending.into_iter().map(|env| env.records));
        if slot.poisoned.is_none() {
            for records in batches {
                match slot.engine.push_batch(&records) {
                    Ok(_) => {}
                    // The partial-apply contract: 0..accepted applied,
                    // the rest (offending record included) untouched —
                    // surface it instead of dropping it.
                    Err((accepted, _)) => undrained.extend_from_slice(&records[accepted..]),
                }
            }
            if slot.engine.needs_converge() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    slot.engine.converge()
                }));
                match outcome {
                    Ok(Ok(report)) => slot.last_report = Some(Arc::new(report)),
                    Ok(Err(_)) => {} // e.g. empty stream: keep last_report
                    Err(payload) => slot.poisoned = Some(panic_message(payload.as_ref())),
                }
            }
        } else {
            undrained.extend(batches.flatten());
        }

        // Publish the terminal snapshot (carrying the session's final
        // state): readers holding a TruthReader across the eviction land
        // on `SessionGone` with the last truths intact, never on a torn
        // or vanished cell.
        publish_session(
            &record.truth,
            &slot,
            session,
            shard.index,
            Some(SnapshotState::SessionGone),
        );
        let evicted = EvictedSession {
            session,
            answers_seen: slot.engine.answers_seen(),
            converges: slot.engine.converges(),
            // Readers still holding the terminal snapshot share the
            // report; the caller gets its own (posteriors stay shared).
            final_report: slot.last_report.take().map(Arc::unwrap_or_clone),
            poisoned: slot.poisoned.take(),
            undrained,
        };
        // Close the WAL file handle before unlinking (a refused submit
        // may still hold the record for a moment).
        drop(slot);
        drop(record);
        if let Some(dur) = &self.config.durability {
            let _ = std::fs::remove_file(durable::wal_path(&dur.dir, session.raw()));
            let _ = std::fs::remove_file(durable::snapshot_path(&dur.dir, session.raw()));
        }
        Ok(evicted)
    }

    /// Test-only fault injection: make the next converge on `session`
    /// park on `gate` inside the drain tick, holding the session slot
    /// lock until the test calls [`ConvergeGate::release`]. This is how
    /// the read path is tested: with a converge deliberately wedged
    /// mid-tick, reader snapshots must still complete instantly.
    #[cfg(test)]
    pub(crate) fn debug_block_next_converge(
        &self,
        session: SessionId,
        gate: Arc<ConvergeGate>,
    ) -> Result<(), ServeError> {
        let record = self.shards[self.shard_of(session)]
            .session(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        lock(&record.slot).debug_block_next_converge = Some(gate);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultSite, FsyncPolicy};
    use crowd_core::Method;
    use crowd_data::{Answer, TaskType};

    fn decision_session(n: usize, m: usize) -> StreamConfig {
        StreamConfig::new(Method::Mv, TaskType::DecisionMaking, n, m)
    }

    fn rec(task: usize, worker: usize, label: u8) -> AnswerRecord {
        AnswerRecord {
            task,
            worker,
            answer: Answer::Label(label),
        }
    }

    #[test]
    fn config_validation() {
        for (cfg, needle) in [
            (
                ServeConfig {
                    shards: 0,
                    ..ServeConfig::default()
                },
                "shards",
            ),
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..ServeConfig::default()
                },
                "queue_capacity",
            ),
            (
                ServeConfig {
                    tick_iteration_budget: 0,
                    ..ServeConfig::default()
                },
                "tick_iteration_budget",
            ),
        ] {
            match CrowdServe::new(cfg) {
                Err(ServeError::BadConfig { detail }) => assert!(detail.contains(needle)),
                other => panic!("expected BadConfig, got {other:?}", other = other.is_ok()),
            }
        }
    }

    #[test]
    fn sessions_round_robin_over_shards() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        let ids: Vec<SessionId> = (0..6)
            .map(|_| serve.create_session(decision_session(4, 3)).unwrap())
            .collect();
        let shards: Vec<usize> = ids.iter().map(|&s| serve.shard_of(s)).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(serve.stats().sessions, 6);
    }

    #[test]
    fn submit_drain_read_roundtrip() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(0, 1, 1), rec(1, 0, 0)])
            .unwrap();
        // Nothing ingested until the tick — the published snapshot still
        // describes the empty session.
        assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 0);
        assert_eq!(serve.stats().queued_answers, 3);
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 3);
        assert_eq!(tick.sessions_converged, 1);
        assert_eq!(tick.shard_failures, 0);
        assert!(tick.errors.is_empty());
        let snap = serve.truth(sid).unwrap();
        assert_eq!(snap.plurality, vec![Some(1), Some(0), None]);
        let report = snap.report.as_ref().unwrap();
        assert_eq!(report.answers_seen, 3);
        assert!(report.result.converged);
    }

    #[test]
    fn unknown_and_empty_submissions() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Empty batch is a no-op, not an error.
        serve.submit(sid, vec![]).unwrap();
        assert_eq!(serve.stats().queued_answers, 0);
        let ghost = SessionId::from_raw(999);
        assert!(matches!(
            serve.submit(ghost, vec![rec(0, 0, 1)]),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.truth(ghost),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.reader(ghost),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.evict(ghost),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn backpressure_is_typed_and_non_lossy() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(10, 10)).unwrap();
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(1, 0, 1), rec(2, 0, 1)])
            .unwrap();
        // 3 queued; 2 more would exceed capacity 4 → backpressure.
        let err = serve
            .submit(sid, vec![rec(3, 0, 1), rec(4, 0, 1)])
            .unwrap_err();
        match err {
            ServeError::Backpressure {
                queued_answers,
                capacity,
                ..
            } => {
                assert_eq!(queued_answers, 3);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected backpressure, got {other}"),
        }
        // One more answer fits exactly.
        serve.submit(sid, vec![rec(3, 0, 1)]).unwrap();
        // After a drain the queue is empty again and accepts batches —
        // even one larger than capacity, since the queue is empty.
        serve.drain_tick();
        serve
            .submit(
                sid,
                vec![
                    rec(4, 0, 1),
                    rec(5, 0, 1),
                    rec(6, 0, 1),
                    rec(7, 0, 1),
                    rec(8, 0, 1),
                    rec(9, 0, 1),
                ],
            )
            .unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 6);
        assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 10);
    }

    #[test]
    fn invalid_records_surface_in_tick_report_without_killing_session() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Second record is out of range; first is accepted, batch stops.
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(7, 0, 1), rec(1, 1, 0)])
            .unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert_eq!(tick.errors.len(), 1);
        assert!(tick.errors[0].1.contains("out of range"));
        // Session is alive and serving.
        assert_eq!(serve.truth(sid).unwrap().plurality[0], Some(1));
        serve.submit(sid, vec![rec(1, 1, 0)]).unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert!(tick.errors.is_empty());
    }

    #[test]
    fn eviction_drains_pending_ingest_and_finalises() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        let other = serve.create_session(decision_session(3, 3)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1), rec(1, 0, 0)]).unwrap();
        serve.submit(other, vec![rec(2, 2, 1)]).unwrap();
        // Evict before any tick: the queued batch must still count.
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 2);
        assert!(evicted.poisoned.is_none());
        assert!(evicted.undrained.is_empty());
        let report = evicted.final_report.expect("final converge ran");
        assert_eq!(report.answers_seen, 2);
        assert!(matches!(
            serve.truth(sid),
            Err(ServeError::UnknownSession(_))
        ));
        // The sibling session's queued batch survived the queue surgery.
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert_eq!(serve.truth(other).unwrap().stats.answers_seen, 1);
    }

    #[test]
    fn poisoned_eviction_surfaces_undrained_answers() {
        // The session's second converge attempt (index 1) panics.
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            fault: FaultPlan::seeded(0)
                .schedule(
                    FaultSite::Converge {
                        session: 0,
                        index: 1,
                    },
                    FaultKind::Panic,
                )
                .build(),
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(4, 4)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1)]).unwrap();
        serve.drain_tick();
        serve.submit(sid, vec![rec(1, 1, 1)]).unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.poisoned, vec![sid]);
        // Queued after poisoning: these answers never reach the engine.
        // (Submit refuses on a poisoned session, so enqueue through the
        // pre-poison path: the batch above was ingested before the panic;
        // queue one more via a fresh submit attempt — which must fail —
        // then verify the evicted payload accounts for every answer.)
        assert!(matches!(
            serve.submit(sid, vec![rec(2, 2, 1)]),
            Err(ServeError::SessionPoisoned(_))
        ));
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 2);
        assert!(evicted.poisoned.is_some());
        assert!(evicted.undrained.is_empty());
    }

    /// A plan that makes session 1's first converge panic.
    fn doomed_first_converge() -> FaultPlan {
        FaultPlan::seeded(0)
            .schedule(
                FaultSite::Converge {
                    session: 1,
                    index: 0,
                },
                FaultKind::Panic,
            )
            .build()
    }

    /// Opens a healthy session 0 and a doomed session 1 (see
    /// [`doomed_first_converge`]) with one answer each, then runs one
    /// tick that takes the queue, parks the healthy converge on a gate
    /// while `backlog` is submitted for the doomed session, and lets the
    /// doomed converge panic: the backlog is acknowledged and queued.
    fn poison_behind_queued_backlog(
        serve: &CrowdServe,
        backlog: &[AnswerRecord],
    ) -> (SessionId, SessionId) {
        let healthy = serve.create_session(decision_session(4, 4)).unwrap();
        let doomed = serve.create_session(decision_session(4, 4)).unwrap();
        serve.submit(healthy, vec![rec(0, 0, 1)]).unwrap();
        serve.submit(doomed, vec![rec(0, 0, 1)]).unwrap();
        let gate = Arc::new(ConvergeGate::default());
        serve
            .debug_block_next_converge(healthy, Arc::clone(&gate))
            .unwrap();
        let tick = std::thread::scope(|scope| {
            let tick = scope.spawn(|| serve.drain_tick());
            gate.wait_entered();
            serve.submit(doomed, backlog.to_vec()).unwrap();
            gate.release();
            tick.join().unwrap()
        });
        assert_eq!(tick.poisoned, vec![doomed]);
        assert_eq!(tick.sessions_converged, 1);
        (healthy, doomed)
    }

    #[test]
    fn poisoned_backlog_never_blocks_healthy_shard_mates() {
        // A poisoned session's acknowledged backlog is kept for its
        // eviction, but must not hold the shard's queue capacity: the
        // healthy session on the same shard keeps being admitted.
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            queue_capacity: 2,
            fault: doomed_first_converge(),
            ..ServeConfig::default()
        })
        .unwrap();
        // Over capacity: admitted only because the tick emptied the queue.
        let backlog = vec![rec(1, 1, 1), rec(2, 2, 0), rec(3, 3, 1)];
        let (healthy, doomed) = poison_behind_queued_backlog(&serve, &backlog);
        for _ in 0..3 {
            let tick = serve.drain_tick();
            assert!(tick.errors.is_empty(), "{:?}", tick.errors);
        }
        let submitted = serve.submit(healthy, vec![rec(1, 1, 0)]);
        assert!(submitted.is_ok(), "healthy session refused: {submitted:?}");
        assert_eq!(serve.drain_tick().answers_ingested, 1);
        let evicted = serve.evict(doomed).unwrap();
        assert_eq!(evicted.answers_seen, 1);
        assert!(evicted.poisoned.is_some());
        assert_eq!(evicted.undrained, backlog);
    }

    #[test]
    fn parked_batches_are_ingested_by_a_later_restart_and_logged() {
        // Without restart budget the doomed session's backlog stays
        // parked. Once a restart succeeds it ingests the backlog after the
        // rebuild, and the converge frame that follows covers it, so
        // recovery rebuilds the same session with nothing to requeue.
        let dir = std::env::temp_dir().join(format!("crowd-serve-parked-{}", std::process::id()));
        let mut durability = DurabilityConfig::new(&dir);
        durability.fsync = FsyncPolicy::Never;
        durability.max_session_restarts = 0;
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            durability: Some(durability.clone()),
            fault: doomed_first_converge(),
            ..ServeConfig::default()
        })
        .unwrap();
        let backlog = vec![rec(1, 1, 1), rec(2, 2, 0), rec(3, 3, 1)];
        let (_, doomed) = poison_behind_queued_backlog(&serve, &backlog);
        assert_eq!(serve.drain_tick().sessions_restarted, 0);
        assert_eq!(serve.stats().queued_answers, 0);

        durability.max_session_restarts = 1;
        let ctx = DrainCtx {
            durability: Some(durability.clone()),
            fault: FaultPlan::none(),
        };
        let tick = serve.shards[0].drain(ConvergeBudget::iterations(usize::MAX), &ctx);
        assert!(tick.errors.is_empty(), "{:?}", tick.errors);
        assert_eq!(tick.sessions_restarted, 1);
        assert_eq!(tick.answers_ingested, backlog.len());
        assert_eq!(tick.sessions_converged, 1);
        let live = serve.truth(doomed).unwrap();
        assert_eq!(live.stats.answers_seen, 4);
        assert_eq!(live.cum_batches, 2);
        drop(serve);

        let (recovered, report) = CrowdServe::recover(ServeConfig {
            shards: 1,
            durability: Some(durability),
            ..ServeConfig::default()
        })
        .unwrap();
        assert_eq!(report.answers_requeued, 0);
        let snap = recovered.truth(doomed).unwrap();
        assert_eq!(snap.stats.answers_seen, 4);
        assert_eq!(snap.plurality, live.plurality);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_racing_eviction_is_refused_or_accounted_for() {
        // A submit that passed its slot check before an eviction but
        // reaches the ingest queue after it must not be acknowledged and
        // then lost: it is refused, or the evicted session accounts for
        // its answer.
        let dir =
            std::env::temp_dir().join(format!("crowd-serve-evict-race-{}", std::process::id()));
        let mut durability = DurabilityConfig::new(&dir);
        durability.fsync = FsyncPolicy::Never;
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            durability: Some(durability),
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        let record = serve.shards[0].session(sid.raw()).unwrap();
        let wal = lock(record.wal.as_ref().unwrap());
        let (submitted, evicted) = std::thread::scope(|scope| {
            let submitter = scope.spawn(|| serve.submit(sid, vec![rec(0, 0, 1)]));
            // Table, test and submitter: once the submitter holds the
            // record it has passed its slot check and waits on the WAL.
            while Arc::strong_count(&record) < 3 {
                std::thread::yield_now();
            }
            let evicted = serve.evict(sid).unwrap();
            drop(wal);
            (submitter.join().unwrap(), evicted)
        });
        match submitted {
            Err(ServeError::UnknownSession(s)) => assert_eq!(s, sid),
            Ok(()) => assert_eq!(
                evicted.answers_seen + evicted.undrained.len(),
                1,
                "an acknowledged answer is neither seen nor undrained"
            ),
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        let tick = serve.drain_tick();
        assert!(tick.errors.is_empty(), "{:?}", tick.errors);
        assert_eq!(serve.stats().queued_answers, 0);
        drop(serve);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthy_eviction_surfaces_rejected_batch_suffix() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Second record is out of range: at eviction the engine keeps the
        // first and the rest must come back in `undrained`.
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(9, 0, 1), rec(1, 1, 0)])
            .unwrap();
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 1);
        assert_eq!(evicted.undrained, vec![rec(9, 0, 1), rec(1, 1, 0)]);
    }

    #[test]
    fn concurrent_drain_ticks_conserve_statistics() {
        // drain_tick is callable from any thread; two overlapping ticks
        // must neither lose nor double-count ingested answers (each tick
        // reports through its own per-job slot, and batches are ingested
        // exactly once whichever tick drains them).
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sids: Vec<SessionId> = (0..4)
            .map(|_| serve.create_session(decision_session(8, 8)).unwrap())
            .collect();
        for round in 0..4 {
            for (k, &sid) in sids.iter().enumerate() {
                serve
                    .submit(sid, vec![rec(round, k % 8, 1), rec(4 + round, k % 8, 0)])
                    .unwrap();
            }
            let reports: Vec<TickReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| serve.drain_tick())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let ingested: usize = reports.iter().map(|r| r.answers_ingested).sum();
            assert_eq!(ingested, 8, "round {round}: {reports:?}");
            assert!(reports.iter().all(|r| r.shard_failures == 0));
        }
        for &sid in &sids {
            assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 8);
        }
    }

    #[test]
    fn wedged_converge_never_stalls_readers_or_stats() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1)]).unwrap();
        serve.drain_tick();
        let reader = serve.reader(sid).unwrap();
        let epoch_before = reader.snapshot().epoch;

        let gate = Arc::new(ConvergeGate::default());
        serve
            .debug_block_next_converge(sid, Arc::clone(&gate))
            .unwrap();
        serve.submit(sid, vec![rec(1, 1, 1)]).unwrap();
        std::thread::scope(|scope| {
            let tick = scope.spawn(|| serve.drain_tick());
            gate.wait_entered();
            // The session's own converge is now wedged mid-tick, holding
            // the slot lock. A lock-taking reader would hang here until
            // the release below; the published-snapshot path must finish
            // every read immediately — and so must the registry-backed
            // service-wide getters.
            let start = Instant::now();
            for _ in 0..1_000 {
                let snap = reader.snapshot();
                assert_eq!(snap.epoch, epoch_before, "no publish while wedged");
                assert!(snap.state.is_live());
            }
            let elapsed = start.elapsed();
            assert_eq!(serve.stats().sessions, 1);
            assert_eq!(serve.stats().queued_answers, 0, "already ingested");
            assert_eq!(serve.sessions(), vec![sid]);
            assert!(
                elapsed < Duration::from_secs(1),
                "1000 reads against a wedged converge took {elapsed:?}"
            );
            gate.release();
            let tick = tick.join().unwrap();
            assert_eq!(tick.answers_ingested, 1);
            assert_eq!(tick.sessions_converged, 1);
        });
        let snap = reader.snapshot();
        assert!(snap.epoch > epoch_before, "tick end published");
        assert_eq!(snap.stats.answers_seen, 2);
    }
}
