//! # crowd-experiments — the benchmark harness
//!
//! One runner per table/figure of the paper's evaluation (Section 6):
//!
//! | Runner | Paper artefact |
//! |---|---|
//! | [`stats_tables::table5`] | Table 5 — dataset statistics |
//! | [`stats_tables::consistency_report`] | §6.2.1 — consistency `C` |
//! | [`stats_tables::fig2_worker_redundancy`] | Figure 2 — redundancy histograms |
//! | [`stats_tables::fig3_worker_quality`] | Figure 3 — quality histograms |
//! | [`sweep::redundancy_sweep`] | Figures 4–6 — quality vs redundancy `r` |
//! | [`full_eval::table6`] | Table 6 — quality & running time, complete data |
//! | [`qualification::table7`] | Table 7 — qualification-test benefit |
//! | [`hidden::hidden_sweep`] | Figures 7–9 — quality vs golden fraction `p%` |
//! | [`extensions::assignment_comparison`] | §7(6) extension — assignment strategies at equal answer budget |
//! | [`streaming::streaming_curve`] | §7(6) extension — accuracy vs answers seen, warm vs cold |
//!
//! All runners are deterministic given an [`ExpConfig`] (scale, repeat
//! count, base seed) and return plain data structures; the `crowd-repro`
//! binary renders them as the same tables/series the paper prints.
//!
//! Every grid — Figures 4–6, Table 6, Table 7, Figures 7–9, the
//! streaming setup and the assignment extension —
//! executes on the async **sweep runner** ([`runner::SweepRunner`]):
//! budgeted concurrency on the worker pool's owned-job queue, streaming
//! per-cell progress, cooperative cancellation, and per-cell panic
//! isolation — with outputs bit-identical to a sequential reference and
//! across thread counts (pinned in `tests/sweep_runner.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extensions;
pub mod full_eval;
pub mod hidden;
pub mod qualification;
pub mod report;
pub mod run;
pub mod runner;
pub mod stats_tables;
pub mod streaming;
pub mod sweep;

pub use run::{evaluate, EvalOutcome};

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Dataset scale in `(0, 1]` — 1.0 reproduces Table 5's sizes.
    pub scale: f64,
    /// Repeats per configuration (the paper: 30 for redundancy sweeps,
    /// 100 for qualification/hidden tests).
    pub repeats: usize,
    /// Base seed. The datasets are generated from it and Table 6's
    /// repeat `k` runs with `seed + k`; the redundancy, hidden-test,
    /// qualification and assignment grids derive one stream per cell and
    /// purpose from it with [`sweep::cell_seed`].
    pub seed: u64,
    /// Concurrency budget of the sweep runner: at most this many grid
    /// cells run at once. Outputs do not depend on it.
    pub threads: usize,
}

impl ExpConfig {
    /// Fast smoke configuration (~seconds): 5% scale, 2 repeats.
    pub fn quick() -> Self {
        Self {
            scale: 0.05,
            repeats: 2,
            seed: 7,
            threads: default_threads(),
        }
    }

    /// Default configuration (~minutes): 20% scale, 5 repeats.
    pub fn standard() -> Self {
        Self {
            scale: 0.2,
            repeats: 5,
            seed: 7,
            threads: default_threads(),
        }
    }

    /// Paper-faithful configuration: full scale, 30 repeats.
    pub fn full() -> Self {
        Self {
            scale: 1.0,
            repeats: 30,
            seed: 7,
            threads: default_threads(),
        }
    }
}

fn default_threads() -> usize {
    crowd_core::exec::default_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_ordered_by_cost() {
        assert!(ExpConfig::quick().scale < ExpConfig::standard().scale);
        assert!(ExpConfig::standard().scale < ExpConfig::full().scale);
        assert!(ExpConfig::quick().repeats <= ExpConfig::standard().repeats);
    }
}
