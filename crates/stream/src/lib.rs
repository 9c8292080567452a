//! # crowd-stream — incremental truth inference over live answer streams
//!
//! The benchmark paper treats truth inference as a static batch problem;
//! its future-work section (§7(6)) asks what happens when answers
//! *arrive over time*. This crate is that answer, built on the sharded
//! inference substrate:
//!
//! - **An arrival log plus counters** ([`StreamEngine::push`]): each
//!   accepted answer is appended to a plain arrival-order log and bumps
//!   its task's label count and its worker's answer count — `O(1)`
//!   amortised, with live per-task pluralities read straight from the
//!   counts between converges.
//! - **Warm-start re-convergence** ([`StreamEngine`]): each batch brings
//!   the session's `ShardedView` up to date, rebuilding only the task
//!   ranges that received answers, and re-converges the method from the
//!   previous converged posteriors and worker-quality parameters
//!   (`crowd_core::WarmStart`) instead of from majority vote, via the
//!   view entry point `crowd_core::TruthInference::infer_sharded` — no
//!   dataset materialisation, no cold restart. The canonical worker
//!   order of the view makes every converge independent of the shard
//!   count and of how answers to different tasks interleave. On the paper's
//!   categorical datasets warm starts cut a replayed stream's EM iterations
//!   up to ~3× (D&S on S_Rel at scale 0.1: 2,766 warm vs 7,706 cold).
//! - **Typed errors** ([`StreamError`]): malformed answers are rejected
//!   per record, leaving the engine state untouched.
//!
//! The stream *source* lives in `crowd-data`
//! ([`StreamSession`](crowd_data::StreamSession) replays simulated
//! collection runs as timed batches); the accuracy-vs-answers-seen sweep
//! lives in `crowd-experiments`; `crowd-bench` ships the
//! `crowd-stream-bench` binary that times warm against cold converges.
//!
//! ```
//! use crowd_core::Method;
//! use crowd_data::{datasets::PaperDataset, StreamSession};
//! use crowd_stream::{StreamConfig, StreamEngine};
//!
//! let d = PaperDataset::DPosSent.generate(0.05, 7);
//! let mut engine = StreamEngine::new(StreamConfig::new(
//!     Method::Ds,
//!     d.task_type(),
//!     d.num_tasks(),
//!     d.num_workers(),
//! ))
//! .unwrap();
//! for batch in StreamSession::from_dataset(&d, 250) {
//!     engine.push_batch(&batch.records).unwrap();
//!     let report = engine.converge().unwrap();
//!     assert!(report.result.converged);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;

pub use engine::{
    ConvergeBudget, EngineCheckpoint, EngineSummary, StreamConfig, StreamEngine, StreamReport,
};

use crowd_core::InferenceError;
use crowd_data::TaskType;
use std::fmt;

/// Errors raised by the streaming subsystem.
#[derive(Debug)]
pub enum StreamError {
    /// An answer referenced a task outside the session's universe.
    TaskOutOfRange {
        /// The offending task index.
        task: usize,
        /// Tasks in the session.
        num_tasks: usize,
    },
    /// An answer referenced a worker outside the session's universe.
    WorkerOutOfRange {
        /// The offending worker index.
        worker: usize,
        /// Workers in the session.
        num_workers: usize,
    },
    /// A categorical answer used a label outside `0..ℓ`.
    LabelOutOfRange {
        /// The offending label.
        label: u8,
        /// Number of choices ℓ.
        num_choices: usize,
    },
    /// The same worker answered the same task twice.
    DuplicateAnswer {
        /// The task index.
        task: usize,
        /// The worker index.
        worker: usize,
    },
    /// An answer's kind did not match the stream's task type.
    AnswerKindMismatch {
        /// What was wrong.
        detail: String,
    },
    /// The session's task type has no streaming path.
    UnsupportedTaskType {
        /// The offending task type.
        task_type: TaskType,
    },
    /// The method has no streaming (warm-start) path.
    UnsupportedMethod {
        /// The method's display name.
        method: &'static str,
    },
    /// `converge` was called before any answer arrived.
    EmptyStream,
    /// A checkpoint was installed onto an engine holding a different
    /// answer-log prefix (see
    /// [`StreamEngine::restore_checkpoint`](crate::StreamEngine::restore_checkpoint)).
    CheckpointMismatch {
        /// Answers the checkpoint was taken over.
        checkpoint_answers: usize,
        /// Answers the engine has absorbed.
        engine_answers: usize,
    },
    /// The underlying inference run failed.
    Inference(InferenceError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TaskOutOfRange { task, num_tasks } => {
                write!(f, "task {task} out of range (session has {num_tasks})")
            }
            Self::WorkerOutOfRange {
                worker,
                num_workers,
            } => {
                write!(
                    f,
                    "worker {worker} out of range (session has {num_workers})"
                )
            }
            Self::LabelOutOfRange { label, num_choices } => {
                write!(f, "label {label} out of range (ℓ = {num_choices})")
            }
            Self::DuplicateAnswer { task, worker } => {
                write!(f, "worker {worker} already answered task {task}")
            }
            Self::AnswerKindMismatch { detail } => write!(f, "answer kind mismatch: {detail}"),
            Self::UnsupportedTaskType { task_type } => {
                write!(f, "no streaming path for task type {task_type:?}")
            }
            Self::UnsupportedMethod { method } => {
                write!(f, "method {method} has no streaming (warm-start) path")
            }
            Self::EmptyStream => write!(f, "stream has no answers yet"),
            Self::CheckpointMismatch {
                checkpoint_answers,
                engine_answers,
            } => write!(
                f,
                "checkpoint over {checkpoint_answers} answers cannot be installed on an \
                 engine holding {engine_answers}"
            ),
            Self::Inference(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Inference(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InferenceError> for StreamError {
    fn from(e: InferenceError) -> Self {
        Self::Inference(e)
    }
}
