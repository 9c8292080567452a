//! Error type for dataset construction and IO.

use std::fmt;

/// Errors raised while building, validating, or loading datasets.
#[derive(Debug)]
pub enum DataError {
    /// An answer referenced a task index outside `0..num_tasks`.
    TaskOutOfRange {
        /// The offending task index.
        task: usize,
        /// The number of tasks in the dataset.
        num_tasks: usize,
    },
    /// An answer referenced a worker index outside `0..num_workers`.
    WorkerOutOfRange {
        /// The offending worker index.
        worker: usize,
        /// The number of workers in the dataset.
        num_workers: usize,
    },
    /// A categorical answer or truth used a label outside `0..num_choices`.
    LabelOutOfRange {
        /// The offending label.
        label: u8,
        /// The number of choices in the task type.
        num_choices: u8,
    },
    /// An answer's kind (label vs numeric) did not match the task type.
    AnswerKindMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The same worker answered the same task twice.
    DuplicateAnswer {
        /// The task index.
        task: usize,
        /// The worker index.
        worker: usize,
    },
    /// The requested operation does not support this configuration
    /// (e.g. the assignment simulator on a numeric task universe).
    Unsupported {
        /// What was asked and why it cannot be served.
        detail: String,
    },
    /// A malformed line or value in a TSV file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// An underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TaskOutOfRange { task, num_tasks } => {
                write!(
                    f,
                    "task index {task} out of range (dataset has {num_tasks} tasks)"
                )
            }
            Self::WorkerOutOfRange {
                worker,
                num_workers,
            } => {
                write!(
                    f,
                    "worker index {worker} out of range (dataset has {num_workers} workers)"
                )
            }
            Self::LabelOutOfRange { label, num_choices } => {
                write!(
                    f,
                    "label {label} out of range (task type has {num_choices} choices)"
                )
            }
            Self::AnswerKindMismatch { detail } => write!(f, "answer kind mismatch: {detail}"),
            Self::DuplicateAnswer { task, worker } => {
                write!(f, "worker {worker} answered task {task} more than once")
            }
            Self::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            Self::Parse { line, detail } => write!(f, "parse error at line {line}: {detail}"),
            Self::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
