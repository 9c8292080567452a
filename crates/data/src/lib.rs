//! # crowd-data — data model and dataset substrate for truth inference
//!
//! The benchmark paper evaluates on five real crowdsourcing answer logs
//! (Table 5). This crate provides:
//!
//! - the **data model** (tasks, workers, answers, ground truth) with the
//!   adjacency structure the methods iterate over — the paper's `V`,
//!   `W_i` (workers that answered task `t_i`) and `T^w` (tasks answered
//!   by worker `w`), indexed by one `crowd_stats::Csr` of record
//!   indices per axis;
//! - a configurable **crowd simulator** ([`generator`]) that produces
//!   answer logs with controlled worker-quality distributions, long-tail
//!   worker participation (Figure 2) and class-conditional error structure;
//! - **statistically matched stand-ins** for the paper's five datasets
//!   ([`datasets`]) — the real logs are no longer downloadable, so each
//!   module bakes in the published marginals (task counts, worker counts,
//!   redundancy, truth balance, worker-accuracy distributions);
//! - **golden-task machinery** ([`golden`]): qualification-test bootstrap
//!   (Section 6.3.2) and hidden-test splits (Section 6.3.3);
//! - the paper's **redundancy sub-sampling** protocol ([`redundancy`],
//!   Section 6.3.1);
//! - **TSV IO** ([`io`]) compatible with the authors' published format, so
//!   the real data drops in when available;
//! - the paper's **running example** ([`toy`], Tables 1–2).
//!
//! Construction allocates per dataset, not per task or per answer: the
//! builder, the simulator, `Dataset::with_records` and the redundancy
//! sampler each make a fixed number of heap allocations whatever the
//! task count (pinned by `tests/alloc_shape.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod builder;
pub mod datasets;
pub mod error;
pub mod generator;
pub mod golden;
pub mod io;
pub mod model;
pub mod redundancy;
pub mod toy;

pub use assignment::{collect, AssignmentStrategy, CollectionRun, StreamBatch, StreamSession};
pub use builder::DatasetBuilder;
pub use error::DataError;
pub use generator::{CrowdSimulator, HardTaskMode, SimulatorConfig, StreamSim, WorkerModel};
pub use golden::{bootstrap_qualification, GoldenSplit, QualificationResult};
pub use model::{Answer, AnswerRecord, Dataset, TaskType};
pub use redundancy::subsample_redundancy;
