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
//! | [`streaming::streaming_curve`] | §7(6) extension — accuracy vs answers seen, warm vs cold |
//! | [`multi_tenant::multi_tenant_replay`] | service extension — every categorical dataset as one tenant of a shared `crowd-serve` |
//!
//! All runners are deterministic given an [`ExpConfig`] (scale, repeat
//! count, base seed) and return plain data structures; the `crowd-repro`
//! binary renders them as the same tables/series the paper prints.
//!
//! The heavyweight grids (Figures 4–6, Table 6, streaming/multi-tenant
//! setup) execute on the async **sweep runner** ([`runner::SweepRunner`]):
//! budgeted concurrency on the shared worker-pool substrate, streaming
//! per-cell progress, cooperative cancellation, and per-cell panic
//! isolation — with outputs bit-identical to the sequential blocking
//! reference (pinned in `tests/sweep_runner.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extensions;
pub mod full_eval;
pub mod hidden;
pub mod multi_tenant;
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
    /// Base seed; repeat `k` of any experiment uses `seed + k`.
    pub seed: u64,
    /// Worker threads for repeat-level parallelism.
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

/// Repeat/sweep-level fan-out, delegated to the workspace-wide execution
/// backend in [`crowd_core::exec`] so the method hot loops, the harness,
/// and the bench crate all share one parallel substrate.
pub(crate) use crowd_core::exec::parallel_map;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..32usize).map(|i| Box::new(move || i * i) as _).collect();
        let out = parallel_map(4, jobs);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![];
        assert!(parallel_map(4, empty).is_empty());
        let one: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![Box::new(|| 42)];
        assert_eq!(parallel_map(8, one), vec![42]);
    }

    #[test]
    fn configs_are_ordered_by_cost() {
        assert!(ExpConfig::quick().scale < ExpConfig::standard().scale);
        assert!(ExpConfig::standard().scale < ExpConfig::full().scale);
        assert!(ExpConfig::quick().repeats <= ExpConfig::standard().repeats);
    }
}
