//! # crowd-truth — Truth Inference in Crowdsourcing
//!
//! A Rust reproduction of the VLDB 2017 benchmark *"Truth Inference in
//! Crowdsourcing: Is the Problem Solved?"* (Zheng, Li, Li, Shan, Cheng —
//! PVLDB 10(5):541–552): seventeen truth-inference algorithms behind one
//! trait, statistically matched simulators for the paper's five datasets,
//! the paper's evaluation metrics, and an experiment harness that
//! regenerates every table and figure.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`stats`] — numerical substrate (special functions, chi-squared
//!   quantiles, samplers, histograms, convergence tracking)
//! - [`data`] — task/worker/answer data model, dataset simulators, golden
//!   tasks, TSV IO
//! - [`core`] — the 17 inference methods and the [`core::TruthInference`]
//!   trait
//! - [`stream`] — incremental inference over live answer streams
//!   (delta-buffered CSR views, warm-start re-convergence)
//! - [`serve`] — multi-session service core: sharded stream engines
//!   behind a bounded async-style ingest front, drained on the worker
//!   pool with budgeted re-convergence
//! - [`metrics`] — Accuracy, F1, MAE, RMSE, consistency, worker statistics
//! - [`experiments`] — runners for Tables 5–7 and Figures 2–9
//!
//! # Quickstart
//!
//! ```
//! use crowd_truth::prelude::*;
//!
//! // The paper's running example (Tables 1–2): six entity-resolution
//! // tasks answered by three workers.
//! let dataset = crowd_truth::data::toy::paper_example();
//!
//! // Run PM (the method walked through in Section 3 of the paper).
//! let result = Pm::default().infer(&dataset, &InferenceOptions::default()).unwrap();
//!
//! // PM recovers the ground truth: t1 and t6 are true, the rest false.
//! let acc = accuracy(&dataset, &result.truths);
//! assert!((acc - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use crowd_core as core;
pub use crowd_data as data;
pub use crowd_experiments as experiments;
pub use crowd_metrics as metrics;
pub use crowd_serve as serve;
pub use crowd_stats as stats;
pub use crowd_stream as stream;

/// Commonly used items: the inference trait, every method, the dataset
/// type, and the headline metrics.
pub mod prelude {
    pub use crowd_core::methods::{
        Bcc, Catd, Cbcc, Ds, Glad, Kos, Lfc, LfcN, MeanAgg, MedianAgg, Minimax, Multi, Mv, Pm,
        ViBp, ViMf, Zc,
    };
    pub use crowd_core::{
        registry, InferenceOptions, InferenceResult, Method, TruthInference, WarmStart,
        WorkerQuality,
    };
    pub use crowd_data::{Answer, Dataset, DatasetBuilder, StreamSession, TaskType};
    pub use crowd_metrics::{accuracy, f1_score, mae, rmse};
    pub use crowd_serve::{CrowdServe, ServeConfig, SessionId};
    pub use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine};
}
