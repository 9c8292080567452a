//! Durability and fault tolerance for the serve layer.
//!
//! Three pieces (see ARCHITECTURE.md for the full state machine):
//!
//! - [`wal`] — a per-session write-ahead answer log. `submit` appends
//!   the batch as a checksummed frame *before* enqueueing it, and the
//!   shard drain appends a converge marker after each successful
//!   converge. The log therefore pins both the answers **and the exact
//!   converge schedule**, which is what makes replay bit-identical
//!   (warm EM trajectories depend on when converges ran).
//! - [`snapshot`] — periodic atomic checkpoints of warm engine state,
//!   taken every [`DurabilityConfig::snapshot_every_converges`]
//!   successful converges. Recovery uses the latest valid snapshot to
//!   skip re-running EM over the prefix it covers; answers themselves
//!   are always re-pushed from the WAL (cheap and deterministic). A
//!   corrupt, missing, or inconsistent snapshot silently downgrades to
//!   full-WAL replay — snapshots are an optimisation, never a
//!   correctness dependency.
//! - [`fault`] — a seeded, deterministic [`fault::FaultPlan`] threaded through
//!   WAL appends, snapshot writes, and drain-tick converges, so chaos
//!   tests reproduce from a single seed.
//!
//! Recovery invariant (property-tested in `tests/durability.rs`): for a
//! WAL truncated at **any** frame boundary, rebuilding the session and
//! continuing the remaining schedule produces bit-identical plurality
//! and posterior outputs to the uninterrupted run.

pub mod fault;
pub mod snapshot;
pub mod wal;

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crowd_data::AnswerRecord;
use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine, StreamError, StreamReport};

use snapshot::SnapshotData;
use wal::Frame;

/// When WAL appends reach the disk.
///
/// The policy trades ingest latency against the crash-loss window:
/// `Always` loses nothing a successful `submit` acknowledged; `EveryN`
/// bounds loss to the last `n - 1` acknowledged batches; `Never` leaves
/// flushing to the OS page cache (process-crash-safe, power-loss-unsafe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every frame — an acknowledged submit is durable.
    Always,
    /// `fsync` every `n` frames (values of 0 behave as 1).
    EveryN(u32),
    /// Never `fsync`; the OS flushes when it pleases.
    Never,
}

/// Durability configuration for a [`CrowdServe`](crate::CrowdServe).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the per-session WAL and snapshot files
    /// (`wal-<id>.log`, `snap-<id>.snap`). Created if missing.
    pub dir: PathBuf,
    /// When WAL appends are fsynced.
    pub fsync: FsyncPolicy,
    /// Snapshot a session's warm state every this many successful
    /// converges (`0` disables snapshots; recovery then always replays
    /// the full WAL).
    pub snapshot_every_converges: u64,
    /// How many times a poisoned session may be auto-restarted from its
    /// last checkpoint before it stays poisoned and must be evicted.
    pub max_session_restarts: u32,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the safe defaults: fsync on every
    /// append, a snapshot every 4 converges, up to 3 auto-restarts.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every_converges: 4,
            max_session_restarts: 3,
        }
    }
}

/// Wall-clock cost of each recovery phase, in the order they run.
/// Mirrored into the `serve.recovery.*_seconds` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPhaseTimings {
    /// Directory scan plus reading every WAL's valid prefix off disk.
    pub scan: Duration,
    /// Reading and validating snapshot files (downgrade checks included).
    pub snapshot_load: Duration,
    /// Re-pushing batches and re-running converges (the EM work).
    pub replay: Duration,
    /// Re-enqueueing tail batches onto ingest queues.
    pub requeue: Duration,
}

impl RecoveryPhaseTimings {
    pub(crate) fn absorb(&mut self, other: &RecoveryPhaseTimings) {
        self.scan += other.scan;
        self.snapshot_load += other.snapshot_load;
        self.replay += other.replay;
        self.requeue += other.requeue;
    }
}

/// What recovery read and replayed for one session — the on-disk counts
/// a durability audit checks against the WAL actually written.
#[derive(Debug, Clone)]
pub struct RecoveredSessionCounts {
    /// The recovered session.
    pub session: crate::SessionId,
    /// Valid WAL frames read (header included).
    pub wal_frames: u64,
    /// Valid WAL bytes read (the prefix the reopen truncates to).
    pub wal_bytes: u64,
    /// Converges actually re-run for this session (EM work).
    pub converges_replayed: u64,
    /// Answers from this session's tail batches re-enqueued for the next
    /// drain tick.
    pub answers_requeued: usize,
}

/// What [`CrowdServe::recover`](crate::CrowdServe::recover) did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sessions rebuilt and serving again.
    pub sessions_recovered: usize,
    /// WAL files that could not produce a session (unreadable header or
    /// an engine-level replay failure) — their files are left in place
    /// for inspection.
    pub sessions_skipped: usize,
    /// Sessions whose snapshot fast path was used.
    pub snapshots_used: usize,
    /// Sessions with a snapshot that was unusable (corrupt, checksum
    /// mismatch, or inconsistent with the WAL) — recovered via full-WAL
    /// replay instead.
    pub snapshot_fallbacks: usize,
    /// Sessions whose WAL ended in a torn tail (truncated to the last
    /// valid frame).
    pub torn_tails_truncated: usize,
    /// Converges re-run during replay (EM work actually done).
    pub converges_replayed: u64,
    /// Answers from WAL tail batches (logged but never covered by a
    /// converge frame) re-enqueued onto ingest queues for the next tick.
    pub answers_requeued: usize,
    /// Why each skipped session could not be rebuilt (parallel to
    /// `sessions_skipped`).
    pub skipped: Vec<(crate::SessionId, String)>,
    /// Per-phase wall-clock timings (also exported as
    /// `serve.recovery.*_seconds` metrics).
    pub timings: RecoveryPhaseTimings,
    /// Per-session frame/byte/replay counts, one entry per recovered
    /// session, ascending id order.
    pub per_session: Vec<RecoveredSessionCounts>,
}

pub(crate) fn wal_path(dir: &Path, raw: u64) -> PathBuf {
    dir.join(format!("wal-{raw}.log"))
}

pub(crate) fn snapshot_path(dir: &Path, raw: u64) -> PathBuf {
    dir.join(format!("snap-{raw}.snap"))
}

/// Session ids with a WAL file under `dir`, ascending.
pub(crate) fn scan_wal_sessions(dir: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|id| id.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// A session rebuilt from its WAL (and possibly a snapshot).
pub(crate) struct ReplayedSession {
    pub engine: StreamEngine,
    /// The report of the last converge actually re-run during replay
    /// (`None` when the snapshot covered every converge frame — the
    /// next drain tick produces a fresh one).
    pub last_report: Option<StreamReport>,
    /// Batch frames absorbed into the engine.
    pub cum_batches: u64,
    /// Converge frames applied (skipped-via-snapshot ones included).
    pub cum_converges: u64,
    /// Converges actually re-run (EM work).
    pub converges_run: u64,
    pub snapshot_used: bool,
    /// A snapshot existed but was unusable.
    pub snapshot_fallback: bool,
    /// Batches logged after the last converge frame: not absorbed here,
    /// the caller re-enqueues them (crash recovery) or pushes a prefix
    /// (in-place restart).
    pub tail_batches: Vec<Vec<AnswerRecord>>,
    /// Valid WAL prefix in bytes / frames (reopen truncates to this).
    pub valid_len: u64,
    pub valid_frames: u64,
    /// The WAL had bytes past the valid prefix.
    pub torn: bool,
    /// Per-phase wall time spent rebuilding this session (scan = WAL
    /// read; requeue is the caller's phase and stays zero here).
    pub timings: RecoveryPhaseTimings,
}

pub(crate) enum SessionRecoveryError {
    /// The WAL file could not be read at all.
    Io(io::Error),
    /// No valid header frame — nothing to rebuild.
    NoHeader,
    /// The engine rejected the replay (config no longer constructible,
    /// or a replayed converge failed).
    Stream(StreamError),
}

impl std::fmt::Display for SessionRecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal unreadable: {e}"),
            Self::NoHeader => write!(f, "wal has no valid header frame"),
            Self::Stream(e) => write!(f, "replay failed: {e}"),
        }
    }
}

enum ReplayFail {
    /// The snapshot could not be installed — retry without it.
    Snapshot,
    /// The replay itself failed — the session is unrecoverable.
    Stream(StreamError),
}

/// Rebuild one session from `dir`. Pure with respect to the filesystem:
/// nothing is written — the caller truncates/reopens the WAL afterwards.
pub(crate) fn recover_session(
    dir: &Path,
    raw: u64,
) -> Result<ReplayedSession, SessionRecoveryError> {
    let mut timings = RecoveryPhaseTimings::default();
    let t0 = Instant::now();
    let contents = wal::read_wal(&wal_path(dir, raw)).map_err(SessionRecoveryError::Io)?;
    timings.scan = t0.elapsed();
    let Some(config) = contents.config.clone() else {
        return Err(SessionRecoveryError::NoHeader);
    };
    let snap_path = snapshot_path(dir, raw);
    // "Present" means the file exists — a snapshot that exists but cannot
    // be read (corrupt, torn, wrong version) counts as a fallback, not as
    // a session that never had one.
    let t0 = Instant::now();
    let snapshot_present = snap_path.exists();
    let snap =
        snapshot::read_snapshot(&snap_path).filter(|s| snapshot_consistent(s, &contents.frames));
    timings.snapshot_load = t0.elapsed();
    let mut snapshot_fallback = snapshot_present && snap.is_none();

    let t0 = Instant::now();
    let replayed = match replay(&config, &contents.frames, snap.as_ref()) {
        Ok(r) => r,
        Err(ReplayFail::Snapshot) => {
            // The snapshot looked consistent but would not install
            // (answer-count mismatch): downgrade to full replay.
            snapshot_fallback = true;
            match replay(&config, &contents.frames, None) {
                Ok(r) => r,
                Err(ReplayFail::Snapshot) => unreachable!("no snapshot in fallback replay"),
                Err(ReplayFail::Stream(e)) => return Err(SessionRecoveryError::Stream(e)),
            }
        }
        Err(ReplayFail::Stream(e)) => return Err(SessionRecoveryError::Stream(e)),
    };
    timings.replay = t0.elapsed();

    Ok(ReplayedSession {
        timings,
        snapshot_used: replayed.snapshot_used,
        snapshot_fallback,
        engine: replayed.engine,
        last_report: replayed.last_report,
        cum_batches: replayed.cum_batches,
        cum_converges: replayed.cum_converges,
        converges_run: replayed.converges_run,
        tail_batches: replayed.tail_batches,
        valid_len: contents.valid_len,
        valid_frames: contents.valid_frames,
        torn: contents.torn,
    })
}

/// Whether a snapshot's recorded position exists in this WAL prefix: its
/// converge count must not exceed the converge frames present (a WAL
/// truncated behind the snapshot makes the snapshot "from the future"),
/// and the converge frame it was taken at must record the same batch
/// count.
fn snapshot_consistent(snap: &SnapshotData, frames: &[Frame]) -> bool {
    if snap.cum_converges == 0 {
        return false;
    }
    let mut converges = 0u64;
    for frame in frames {
        if let Frame::Converge { cum_batches, .. } = frame {
            converges += 1;
            if converges == snap.cum_converges {
                return *cum_batches == snap.cum_batches;
            }
        }
    }
    false
}

struct Replayed {
    engine: StreamEngine,
    last_report: Option<StreamReport>,
    cum_batches: u64,
    cum_converges: u64,
    converges_run: u64,
    snapshot_used: bool,
    tail_batches: Vec<Vec<AnswerRecord>>,
}

/// The replay core: push batch frames in order, and at each converge
/// frame re-run the converge under its logged budget — except over the
/// prefix a valid snapshot covers, where EM is skipped and the warm
/// state is installed at the snapshot point instead. Mirrors the live
/// ingest semantics exactly (`push_batch` partial-apply rejections are
/// deterministic, so a batch that half-applied live half-applies
/// identically here).
fn replay(
    config: &StreamConfig,
    frames: &[Frame],
    snap: Option<&SnapshotData>,
) -> Result<Replayed, ReplayFail> {
    let mut batches: Vec<&Vec<AnswerRecord>> = Vec::new();
    let mut converges: Vec<(u64, u64)> = Vec::new();
    for frame in frames {
        match frame {
            Frame::Batch(records) => batches.push(records),
            Frame::Converge {
                cum_batches,
                budget,
            } => converges.push((*cum_batches, *budget)),
            // `read_wal` never yields a header here (it is stored
            // separately and a second header ends the valid prefix).
            Frame::Header(_) => {}
        }
    }

    let mut engine = StreamEngine::new(config.clone()).map_err(ReplayFail::Stream)?;
    let mut cursor = 0usize;
    let mut last_report = None;
    let mut converges_run = 0u64;
    let mut cum_converges = 0u64;
    let mut snapshot_used = false;

    for (k, &(cum, budget)) in converges.iter().enumerate() {
        // A converge frame referencing batches that are not in the log
        // cannot happen through the writer (batches are appended before
        // their converge marker); treat it as corruption ending the
        // replay here, leaving the rest as tail.
        if cum as usize > batches.len() || (cum as usize) < cursor {
            break;
        }
        while cursor < cum as usize {
            // Mirrors the shard drain: the accepted prefix applies, a
            // rejection stops the batch and the engine stays consistent
            // (the push_batch partial-apply contract).
            let _ = engine.push_batch(batches[cursor]);
            cursor += 1;
        }
        let position = k as u64 + 1;
        if let Some(s) = snap {
            if position < s.cum_converges {
                cum_converges = position;
                continue; // EM skipped: the snapshot covers this point.
            }
            if position == s.cum_converges {
                engine
                    .restore_checkpoint(s.checkpoint.clone())
                    .map_err(|_| ReplayFail::Snapshot)?;
                snapshot_used = true;
                cum_converges = position;
                continue;
            }
        }
        let iterations = usize::try_from(budget).unwrap_or(usize::MAX);
        let report = engine
            .converge_budgeted(ConvergeBudget::iterations(iterations))
            .map_err(ReplayFail::Stream)?;
        last_report = Some(report);
        converges_run += 1;
        cum_converges = position;
    }

    let cum_batches = cursor as u64;
    let tail_batches = batches[cursor..].iter().map(|b| (*b).clone()).collect();
    Ok(Replayed {
        engine,
        last_report,
        cum_batches,
        cum_converges,
        converges_run,
        snapshot_used,
        tail_batches,
    })
}
