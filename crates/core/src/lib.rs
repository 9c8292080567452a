//! # crowd-core — seventeen truth-inference algorithms behind one trait
//!
//! This crate implements every method compared in the VLDB 2017 benchmark
//! *"Truth Inference in Crowdsourcing: Is the Problem Solved?"* (Table 4):
//!
//! **Direct computation** — [`methods::Mv`], [`methods::MeanAgg`],
//! [`methods::MedianAgg`].
//!
//! **Optimization** — [`methods::Pm`] (worker probability, Li et al. /
//! Aydin et al.), [`methods::Catd`] (confidence-aware, Li et al.),
//! [`methods::Minimax`] (minimax entropy, Zhou et al.).
//!
//! **Probabilistic graphical models** — [`methods::Zc`] (ZenCrowd EM),
//! [`methods::Glad`] (task difficulty, Whitehill et al.), [`methods::Ds`]
//! (Dawid–Skene), [`methods::Lfc`] (D&S with priors, Raykar et al.),
//! [`methods::LfcN`] (numeric Gaussian variant), [`methods::Bcc`]
//! (Bayesian classifier combination via Gibbs, Kim & Ghahramani),
//! [`methods::Cbcc`] (community BCC, Venanzi et al.), [`methods::Kos`]
//! (belief propagation, Karger–Oh–Shah), [`methods::ViBp`] /
//! [`methods::ViMf`] (variational inference, Liu–Peng–Ihler), and
//! [`methods::Multi`] (multidimensional wisdom of crowds, Welinder et
//! al.).
//!
//! All methods implement [`TruthInference`] and run under the paper's
//! Algorithm 1 regime: iterate truth inference and worker-quality
//! estimation until the parameter change drops below a tolerance
//! (default `1e-3`) or an iteration cap (default 100) is hit. The 14
//! categorical methods share one answer view,
//! [`views::ShardedView`], and one view entry point,
//! [`TruthInference::infer_sharded`]; `infer` runs it on the dataset's
//! one-shard view. Methods
//! additionally support, where the paper says they do,
//! **qualification-test initialisation** (Section 6.3.2) via
//! [`QualityInit::Qualification`] and **hidden-test golden tasks**
//! (Section 6.3.3) via [`InferenceOptions::golden`].

#![warn(missing_docs)]
// The estimators update several same-length parameter arrays in lockstep
// (posteriors, confusion matrices, multipliers); explicit index loops are
// the clearer idiom there.
#![allow(clippy::needless_range_loop)]

pub mod exec;
mod framework;
pub mod methods;
pub mod registry;
pub mod views;

pub use crowd_stats::DMat;
pub use framework::{
    InferenceError, InferenceOptions, InferenceResult, QualityInit, TruthInference, WarmStart,
    WorkerQuality,
};
pub use registry::Method;
