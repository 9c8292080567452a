//! # crowd-metrics — the paper's evaluation metrics
//!
//! Accuracy (Equation 3), F1-score on the positive class (Equation 4),
//! MAE and RMSE (Equation 5), the data-consistency statistic `C` of
//! Section 6.2.1 (entropy-based for categorical tasks, median-deviation
//! for numeric tasks), and per-worker statistics (redundancy, Figure 2;
//! quality, Figure 3).
//!
//! All task-level metrics skip tasks without ground truth (S_Rel and
//! S_Adult publish truth only for a subset) and accept an optional
//! evaluation mask so the hidden-test experiments (§6.3.3) can score only
//! the non-golden tasks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consistency;
pub mod scores;
pub mod worker;

pub use consistency::{consistency_categorical, consistency_numeric};
pub use scores::{accuracy, accuracy_on, f1_score, f1_score_on, mae, mae_on, rmse, rmse_on};
pub use worker::{worker_accuracies, worker_redundancies, worker_rmses};
