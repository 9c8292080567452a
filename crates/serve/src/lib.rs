//! # crowd-serve — the multi-session truth-inference service core
//!
//! PR 2's [`StreamEngine`](crowd_stream::StreamEngine) made *one* answer
//! stream incrementally convergeable; this crate serves **many** of them
//! at once — the "sharded engines behind an async ingest front" the
//! ROADMAP names as the step toward serving heavy multi-tenant traffic.
//!
//! Architecture (no new runtime dependency — the executors are the
//! parked threads of [`crowd_core::exec::WorkerPool`]):
//!
//! - **Sessions** are independent streaming-inference universes (one
//!   [`StreamConfig`](crowd_stream::StreamConfig) each), identified by a
//!   [`SessionId`] and pinned to one of N **shards** by id.
//! - **Ingest** is asynchronous in style: [`CrowdServe::submit`] appends
//!   an answer batch to the owning shard's **bounded MPSC queue** and
//!   returns immediately — without running any inference, and without
//!   blocking behind EM. A full queue surfaces as typed
//!   [`ServeError::Backpressure`], never silent loss.
//! - **Drain ticks** ([`CrowdServe::drain_tick`]) fan one job per shard
//!   out onto the worker pool's submit queue. Each shard job drains its
//!   ingest queue into the engines, then re-converges dirty sessions
//!   under a **budget** — an EM-iteration cap per session. A session
//!   that runs out of budget resumes from its
//!   [`WarmStart`](crowd_core::WarmStart) on the next tick, so one heavy
//!   tenant cannot monopolise a shard.
//! - **Reads never wait on ingest or converge**: every drain tick
//!   publishes an immutable [`TruthSnapshot`] per touched session by
//!   swapping one `Arc`, so readers never touch an engine lock — not
//!   even the lock of the session *being read* while its own converge
//!   is in flight.
//!   [`CrowdServe::truth`] returns the current snapshot (plurality
//!   labels, the last converge's posteriors and [`StreamReport`](crowd_stream::StreamReport),
//!   counters — all from the same publish **epoch**);
//!   [`CrowdServe::reader`] hands out a clonable [`TruthReader`] whose
//!   `snapshot()` skips even the session-map lookup. Snapshots carry a
//!   typed [`SnapshotState`] that degrades to `SnapshotStale` /
//!   `SessionGone` across poisoning and eviction instead of erroring.
//!   See ARCHITECTURE.md §read-path for why no read waits.
//! - **Isolation**: a panic inside one session's converge poisons only
//!   that session ([`ServeError::SessionPoisoned`] on later use); sibling
//!   sessions and shards keep serving. [`CrowdServe::evict`] gracefully
//!   retires a session — pending ingest drained, one final converge, all
//!   state returned to the caller.
//!
//! - **Durability** (opt-in via [`ServeConfig::durability`]): every
//!   submit is write-ahead logged to a per-session checksummed WAL
//!   before it is enqueued, warm engine state is checkpointed to
//!   snapshots on a converge cadence, and [`CrowdServe::recover`]
//!   rebuilds every session bit-identically after a crash — tolerating
//!   torn WAL tails (truncated to the last valid frame) and corrupt
//!   snapshots (silent downgrade to full-WAL replay). Poisoned sessions
//!   auto-restart from their last checkpoint, and chaos testing threads
//!   a seeded [`FaultPlan`] through every I/O and converge path. See the
//!   [`durable`] module and ARCHITECTURE.md §durability.
//!
//! Determinism: a session's batches are applied in submission order and
//! each converge is bit-identical at any thread count, so every session's
//! outputs equal a sequential single-session replay of the same batch
//! sequence — property-tested in `tests/multi_session.rs` and checked end
//! to end by perfbench's `serve` workload (a standalone-engine replay).
//!
//! ```
//! use crowd_core::Method;
//! use crowd_data::{datasets::PaperDataset, StreamSession};
//! use crowd_serve::{CrowdServe, ServeConfig};
//! use crowd_stream::StreamConfig;
//!
//! let d = PaperDataset::DPosSent.generate(0.05, 7);
//! let serve = CrowdServe::new(ServeConfig::default()).unwrap();
//! let sid = serve
//!     .create_session(StreamConfig::new(
//!         Method::Ds,
//!         d.task_type(),
//!         d.num_tasks(),
//!         d.num_workers(),
//!     ))
//!     .unwrap();
//! for batch in StreamSession::from_dataset(&d, 500) {
//!     serve.submit(sid, batch.records).unwrap();
//!     serve.drain_tick();
//! }
//! let evicted = serve.evict(sid).unwrap();
//! assert!(evicted.final_report.unwrap().result.converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod obs;
mod service;
mod shard;
mod truth;

pub use durable::fault::{FaultKind, FaultPlan, FaultPlanBuilder, FaultSite};
pub use durable::{
    DurabilityConfig, FsyncPolicy, RecoveredSessionCounts, RecoveryPhaseTimings, RecoveryReport,
};
pub use service::{
    CrowdServe, EvictedSession, ServeConfig, ServeStats, SessionId, SessionStats, TickReport,
};
pub use truth::{SnapshotState, TruthReader, TruthSnapshot};

use crowd_stream::StreamError;
use std::fmt;

/// Errors raised by the service layer.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration was rejected.
    BadConfig {
        /// What was wrong.
        detail: String,
    },
    /// The session id is not (or no longer) registered.
    UnknownSession(SessionId),
    /// The session was poisoned by a panic during an earlier converge and
    /// refuses further work; evict it to reclaim the slot.
    SessionPoisoned(SessionId),
    /// The owning shard's ingest queue is full — backpressure. The batch
    /// was **not** enqueued; retry after a drain tick.
    Backpressure {
        /// The session whose batch was rejected.
        session: SessionId,
        /// The owning shard.
        shard: usize,
        /// Answers currently queued on that shard.
        queued_answers: usize,
        /// The shard's queue capacity in answers.
        capacity: usize,
    },
    /// The underlying streaming engine rejected the session or a record.
    Stream(StreamError),
    /// A durability operation failed: the WAL could not be created,
    /// appended to, or is wedged (an earlier torn/failed write left the
    /// on-disk log behind the in-memory engine). The submit that
    /// triggered it was **not** enqueued.
    Durability {
        /// The affected session (`None` for service-wide failures such
        /// as an unreadable durability directory).
        session: Option<SessionId>,
        /// What failed.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadConfig { detail } => write!(f, "bad service config: {detail}"),
            Self::UnknownSession(sid) => write!(f, "unknown session {sid}"),
            Self::SessionPoisoned(sid) => {
                write!(f, "session {sid} is poisoned by an earlier panic")
            }
            Self::Backpressure {
                session,
                shard,
                queued_answers,
                capacity,
            } => write!(
                f,
                "backpressure on session {session}: shard {shard} queue holds \
                 {queued_answers}/{capacity} answers"
            ),
            Self::Stream(e) => write!(f, "stream error: {e}"),
            Self::Durability { session, detail } => match session {
                Some(sid) => write!(f, "durability failure on session {sid}: {detail}"),
                None => write!(f, "durability failure: {detail}"),
            },
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        Self::Stream(e)
    }
}
