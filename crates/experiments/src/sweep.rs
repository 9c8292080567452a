//! Redundancy sweeps — Figures 4, 5 and 6 (§6.3.1).
//!
//! For each redundancy `r`, sub-sample `r` answers per task, run every
//! applicable method, and average quality over repeated draws (the paper
//! repeats 30 times).
//!
//! The grid runs on the async [`SweepRunner`] (budgeted concurrency,
//! streaming progress, cooperative cancellation); aggregation happens in
//! grid order, so the result is bit-identical to running the cells one
//! after another — pinned by `tests/sweep_runner.rs` against a
//! sequential reference.

use std::sync::Arc;

use crowd_core::{InferenceOptions, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::{subsample_redundancy, Dataset};

use crate::runner::{CancelToken, CellOutcome, SweepCell, SweepProgress, SweepRunner};
use crate::{run::evaluate, EvalOutcome, ExpConfig};

/// One method's quality curve over redundancy values.
///
/// A point with **zero successful cells** is `f64::NAN`, not `0.0` — a
/// missing measurement must stay distinguishable from a genuinely zero
/// score; `failures` says how many of the repeats went missing.
#[derive(Debug, Clone)]
pub struct SweepCurve {
    /// The method.
    pub method: Method,
    /// Mean accuracy per redundancy point (categorical) — empty for
    /// numeric datasets.
    pub accuracy: Vec<f64>,
    /// Mean F1 per redundancy point (decision-making only).
    pub f1: Vec<f64>,
    /// Mean MAE per redundancy point (numeric only).
    pub mae: Vec<f64>,
    /// Mean RMSE per redundancy point (numeric only).
    pub rmse: Vec<f64>,
    /// Per redundancy point: repeats that produced **no** outcome for
    /// this method (failed or cancelled cells). `0` everywhere on a
    /// clean sweep.
    pub failures: Vec<usize>,
}

/// Result of a full redundancy sweep on one dataset.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The dataset swept.
    pub dataset: PaperDataset,
    /// The redundancy values (x axis).
    pub redundancies: Vec<usize>,
    /// One curve per applicable method, Table 4 order.
    pub curves: Vec<SweepCurve>,
}

/// The independent RNG streams an experiment cell needs. A raw cell seed
/// must never feed two consumers: before this split, the data-sampling
/// RNG (sub-sample / golden split / bootstrap / collection) and every
/// method's init RNG were *identical streams*.
#[derive(Debug, Clone, Copy)]
pub enum SeedPurpose {
    /// Which `r` answers per task survive sub-sampling (Figures 4–6).
    Subsample = 1,
    /// Method initialisation (`InferenceOptions::seeded`).
    Inference = 2,
    /// Which tasks become golden in a hidden-test split (Figures 7–9).
    GoldenSplit = 3,
    /// The bootstrap qualification-test sample (Table 7).
    Bootstrap = 4,
    /// A simulated collection run (assignment comparison).
    Collection = 5,
}

/// SplitMix64 finaliser — the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for one `(base, rep, r_idx, purpose)` cell stream by
/// chaining SplitMix64 over the coordinates. Distinct purposes (and
/// distinct cells) get decorrelated streams; same inputs reproduce.
pub fn cell_seed(base: u64, rep: usize, r_idx: usize, purpose: SeedPurpose) -> u64 {
    let mut h = splitmix64(base);
    h = splitmix64(h ^ rep as u64);
    h = splitmix64(h ^ r_idx as u64);
    splitmix64(h ^ purpose as u64)
}

/// One grid cell's outputs: all methods on one `(rep, r)` sub-sample.
struct Cell {
    r_idx: usize,
    outcomes: Vec<Option<EvalOutcome>>,
}

/// One grid cell's computation: sub-sample, then every method on it.
fn run_cell(
    dataset: &Dataset,
    methods: &[Method],
    base_seed: u64,
    rep: usize,
    r_idx: usize,
    r: usize,
) -> Cell {
    let sub = subsample_redundancy(
        dataset,
        r,
        cell_seed(base_seed, rep, r_idx, SeedPurpose::Subsample),
    );
    let opts = InferenceOptions::seeded(cell_seed(base_seed, rep, r_idx, SeedPurpose::Inference));
    let outcomes = methods
        .iter()
        .map(|&m| evaluate(m, &sub, &opts, None))
        .collect();
    Cell { r_idx, outcomes }
}

/// Aggregate cells (in grid order) into per-method mean curves. Cells
/// that did not complete are `None` and count as failures at their
/// redundancy point.
fn aggregate(
    dataset_id: PaperDataset,
    redundancies: Vec<usize>,
    methods: &[Method],
    repeats: usize,
    cells: &[Option<Cell>],
) -> SweepResult {
    let nr = redundancies.len();
    let nm = methods.len();
    let mut acc = vec![vec![0.0; nr]; nm];
    let mut f1 = vec![vec![0.0; nr]; nm];
    let mut mae = vec![vec![0.0; nr]; nm];
    let mut rmse = vec![vec![0.0; nr]; nm];
    let mut counts = vec![vec![0usize; nr]; nm];
    for cell in cells.iter().flatten() {
        for (m_idx, outcome) in cell.outcomes.iter().enumerate() {
            if let Some(o) = outcome {
                acc[m_idx][cell.r_idx] += o.accuracy;
                f1[m_idx][cell.r_idx] += o.f1;
                mae[m_idx][cell.r_idx] += o.mae;
                rmse[m_idx][cell.r_idx] += o.rmse;
                counts[m_idx][cell.r_idx] += 1;
            }
        }
    }
    let curves = methods
        .iter()
        .enumerate()
        .map(|(m_idx, &method)| {
            let norm = |v: &[f64]| {
                v.iter()
                    .zip(&counts[m_idx])
                    .map(|(&x, &c)| if c > 0 { x / c as f64 } else { f64::NAN })
                    .collect::<Vec<f64>>()
            };
            SweepCurve {
                method,
                accuracy: norm(&acc[m_idx]),
                f1: norm(&f1[m_idx]),
                mae: norm(&mae[m_idx]),
                rmse: norm(&rmse[m_idx]),
                failures: counts[m_idx].iter().map(|&c| repeats - c).collect(),
            }
        })
        .collect();

    SweepResult {
        dataset: dataset_id,
        redundancies,
        curves,
    }
}

/// Run the redundancy sweep of Figures 4–6 on one dataset, on the async
/// [`SweepRunner`] at `config.threads` budgeted concurrency.
///
/// `redundancies` defaults (when `None`) to the paper's x-axes:
/// `1..=3` for D_Product, `1..=20` for D_PosSent, `1..=5` / `1..=9` for
/// S_Rel / S_Adult, `1..=10` for N_Emotion.
pub fn redundancy_sweep(
    dataset_id: PaperDataset,
    redundancies: Option<Vec<usize>>,
    config: &ExpConfig,
) -> SweepResult {
    let runner = SweepRunner::new(config.threads);
    redundancy_sweep_observed(
        dataset_id,
        redundancies,
        config,
        &runner,
        &CancelToken::new(),
        |_| {},
    )
}

/// [`redundancy_sweep`] with the runner, cancellation token, and
/// progress stream exposed: one [`SweepProgress`] event per grid cell in
/// completion order (cell labels are `"rep {k} r={r}"`). Cancelled or
/// panicked cells surface as NaN points / `failures` counts in the
/// aggregated curves instead of poisoning the sweep.
pub fn redundancy_sweep_observed(
    dataset_id: PaperDataset,
    redundancies: Option<Vec<usize>>,
    config: &ExpConfig,
    runner: &SweepRunner,
    token: &CancelToken,
    on_progress: impl FnMut(&SweepProgress),
) -> SweepResult {
    let methods = Method::for_task_type(dataset_id.task_type());
    sweep_methods(
        dataset_id,
        redundancies,
        methods,
        config,
        runner,
        token,
        on_progress,
    )
}

/// [`redundancy_sweep`] on the default axis over only `methods` (those
/// that apply to the dataset, in Table 4 order). Each cell runs every
/// method on the same sub-sample with the same options, whichever others
/// are listed, so each curve is bit-equal to that method's curve in the
/// full sweep.
pub fn redundancy_sweep_of(
    dataset_id: PaperDataset,
    methods: &[Method],
    config: &ExpConfig,
) -> SweepResult {
    let mut swept = Method::for_task_type(dataset_id.task_type());
    swept.retain(|m| methods.contains(m));
    let runner = SweepRunner::new(config.threads);
    sweep_methods(
        dataset_id,
        None,
        swept,
        config,
        &runner,
        &CancelToken::new(),
        |_| {},
    )
}

/// The sweep body, over `methods` (each applicable to the dataset).
fn sweep_methods(
    dataset_id: PaperDataset,
    redundancies: Option<Vec<usize>>,
    methods: Vec<Method>,
    config: &ExpConfig,
    runner: &SweepRunner,
    token: &CancelToken,
    on_progress: impl FnMut(&SweepProgress),
) -> SweepResult {
    let dataset = dataset_id.generate(config.scale, config.seed);
    // Clip the x-axis by the true per-task maximum, not the rounded mean
    // redundancy — on ragged logs the mean rounds below the largest
    // answer count and silently truncated the axis.
    let max_r = dataset.max_task_degree();
    let redundancies = redundancies.unwrap_or_else(|| default_redundancies(dataset_id, max_r));
    let methods = Arc::new(methods);
    let dataset = Arc::new(dataset);

    // One cell per (repeat, redundancy); each runs all methods on the
    // same sub-sample so methods are compared on identical data, exactly
    // as in the paper.
    let mut cells: Vec<SweepCell<Cell>> = Vec::new();
    for rep in 0..config.repeats {
        for (r_idx, &r) in redundancies.iter().enumerate() {
            let dataset = Arc::clone(&dataset);
            let methods = Arc::clone(&methods);
            let base_seed = config.seed;
            cells.push(SweepCell::new(format!("rep {rep} r={r}"), move || {
                run_cell(&dataset, &methods, base_seed, rep, r_idx, r)
            }));
        }
    }
    let outcome = runner.run(cells, token, on_progress);
    let cells: Vec<Option<Cell>> = outcome.cells.into_iter().map(CellOutcome::ok).collect();
    aggregate(dataset_id, redundancies, &methods, config.repeats, &cells)
}

/// The paper's per-dataset x-axes, clipped to the available redundancy
/// (`max_r` = the dataset's **maximum** per-task answer count).
pub fn default_redundancies(dataset: PaperDataset, max_r: usize) -> Vec<usize> {
    let upper = match dataset {
        PaperDataset::DProduct => 3,
        PaperDataset::DPosSent => 20,
        PaperDataset::SRel => 5,
        PaperDataset::SAdult => 9,
        PaperDataset::NEmotion => 10,
    };
    (1..=upper.min(max_r.max(1))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExpConfig {
        ExpConfig {
            scale: 0.03,
            repeats: 2,
            seed: 5,
            threads: 4,
        }
    }

    #[test]
    fn decision_sweep_shape() {
        let res = redundancy_sweep(PaperDataset::DProduct, Some(vec![1, 3]), &tiny_config());
        assert_eq!(res.redundancies, vec![1, 3]);
        assert_eq!(res.curves.len(), 14, "Figure 4 compares 14 methods");
        for c in &res.curves {
            assert_eq!(c.accuracy.len(), 2);
            assert!(c.accuracy.iter().all(|&a| (0.0..=1.0).contains(&a)));
            assert_eq!(c.failures, vec![0, 0], "clean sweep has no failures");
        }
    }

    #[test]
    fn method_restricted_sweep_is_bit_equal_to_the_full_sweep() {
        let cfg = tiny_config();
        for (id, methods) in [
            (PaperDataset::DProduct, &[Method::Mv, Method::Ds][..]),
            (PaperDataset::NEmotion, &[Method::Mean][..]),
        ] {
            let full = redundancy_sweep(id, None, &cfg);
            let only = redundancy_sweep_of(id, methods, &cfg);
            assert_eq!(only.redundancies, full.redundancies);
            let swept: Vec<Method> = only.curves.iter().map(|c| c.method).collect();
            assert_eq!(swept, methods, "{}", id.name());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for curve in &only.curves {
                let twin = full.curves.iter().find(|c| c.method == curve.method);
                let twin = twin.expect("the full sweep has every method");
                assert_eq!(bits(&curve.accuracy), bits(&twin.accuracy));
                assert_eq!(bits(&curve.f1), bits(&twin.f1));
                assert_eq!(bits(&curve.mae), bits(&twin.mae));
                assert_eq!(bits(&curve.rmse), bits(&twin.rmse));
                assert_eq!(curve.failures, twin.failures);
            }
        }
    }

    #[test]
    fn quality_increases_with_redundancy_for_mv() {
        let cfg = ExpConfig {
            scale: 0.1,
            repeats: 3,
            seed: 5,
            threads: 4,
        };
        let res = redundancy_sweep(PaperDataset::DPosSent, Some(vec![1, 9]), &cfg);
        let mv = res.curves.iter().find(|c| c.method == Method::Mv).unwrap();
        assert!(
            mv.accuracy[1] > mv.accuracy[0] + 0.02,
            "MV accuracy should rise with r: {:?}",
            mv.accuracy
        );
    }

    #[test]
    fn numeric_sweep_reports_errors() {
        let cfg = ExpConfig {
            scale: 0.2,
            repeats: 2,
            seed: 5,
            threads: 4,
        };
        let res = redundancy_sweep(PaperDataset::NEmotion, Some(vec![2, 8]), &cfg);
        assert_eq!(res.curves.len(), 5, "Figure 6 compares 5 methods");
        for c in &res.curves {
            assert!(c.mae.iter().all(|&e| e > 0.0));
            assert!(c.rmse.iter().zip(&c.mae).all(|(r, m)| r >= m));
        }
        // Errors should shrink with more answers for Mean.
        let mean = res
            .curves
            .iter()
            .find(|c| c.method == Method::Mean)
            .unwrap();
        assert!(
            mean.mae[1] < mean.mae[0],
            "Mean MAE should fall with r: {:?}",
            mean.mae
        );
    }

    #[test]
    fn default_axes_match_paper() {
        assert_eq!(
            default_redundancies(PaperDataset::DProduct, 3),
            vec![1, 2, 3]
        );
        assert_eq!(default_redundancies(PaperDataset::DPosSent, 20).len(), 20);
        assert_eq!(default_redundancies(PaperDataset::NEmotion, 10).len(), 10);
        // Clipped when the log has fewer answers.
        assert_eq!(
            default_redundancies(PaperDataset::SAdult, 4),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn axis_clips_by_max_task_degree_not_rounded_mean() {
        // Regression: `default_redundancies` used to receive the *rounded
        // mean* redundancy. On a ragged log the mean rounds below the
        // largest per-task answer count and truncated the x-axis; the
        // sweep must reach every redundancy some task actually has.
        for id in PaperDataset::ALL {
            let cfg = tiny_config();
            let d = id.generate(cfg.scale, cfg.seed);
            let max_deg = d.max_task_degree();
            let mean_r = d.redundancy().round() as usize;
            assert!(
                max_deg >= mean_r,
                "{}: degree stats inconsistent",
                id.name()
            );
            let axis = default_redundancies(id, max_deg);
            let paper_upper = match id {
                PaperDataset::DProduct => 3,
                PaperDataset::DPosSent => 20,
                PaperDataset::SRel => 5,
                PaperDataset::SAdult => 9,
                PaperDataset::NEmotion => 10,
            };
            assert_eq!(
                *axis.last().unwrap(),
                paper_upper.min(max_deg.max(1)),
                "{}: axis must extend to the true max degree",
                id.name()
            );
        }
    }

    #[test]
    fn subsample_and_inference_seeds_are_decorrelated() {
        // Regression: both consumers used to receive the *same* seed, so
        // the sub-sampling RNG and every method's init RNG were identical
        // streams. The purpose-split streams must differ for every cell,
        // and cells must not collide with each other.
        let purposes = [
            SeedPurpose::Subsample,
            SeedPurpose::Inference,
            SeedPurpose::GoldenSplit,
            SeedPurpose::Bootstrap,
            SeedPurpose::Collection,
        ];
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 5, 7, u64::MAX] {
            for rep in 0..30 {
                for r_idx in 0..20 {
                    for purpose in purposes {
                        let s = cell_seed(base, rep, r_idx, purpose);
                        assert!(
                            seen.insert(s),
                            "stream collision at ({base},{rep},{r_idx},{purpose:?})"
                        );
                    }
                }
            }
        }
        // Deterministic: same coordinates, same seed.
        assert_eq!(
            cell_seed(7, 3, 4, SeedPurpose::Subsample),
            cell_seed(7, 3, 4, SeedPurpose::Subsample)
        );
    }

    #[test]
    fn empty_points_are_nan_with_failure_counts() {
        // Regression: a redundancy point with zero successful cells used
        // to aggregate to 0.0 — indistinguishable from a genuinely zero
        // score. Feed the aggregator a grid where every cell of one
        // column is missing.
        let methods = vec![Method::Mv, Method::Ds];
        let repeats = 3;
        let cells: Vec<Option<Cell>> = (0..repeats)
            .flat_map(|_| {
                vec![
                    Some(Cell {
                        r_idx: 0,
                        outcomes: vec![
                            Some(EvalOutcome {
                                accuracy: 0.5,
                                f1: 0.5,
                                mae: 0.0,
                                rmse: 0.0,
                                seconds: 0.0,
                                iterations: 1,
                                converged: true,
                            }),
                            None,
                        ],
                    }),
                    None, // the whole r_idx=1 column failed
                ]
            })
            .collect();
        let res = aggregate(
            PaperDataset::DProduct,
            vec![1, 2],
            &methods,
            repeats,
            &cells,
        );
        let mv = &res.curves[0];
        assert_eq!(mv.accuracy[0], 0.5);
        assert!(mv.accuracy[1].is_nan(), "missing point must be NaN, not 0");
        assert_eq!(mv.failures, vec![0, repeats]);
        // A method with no outcomes anywhere: NaN at every point, full
        // failure counts.
        let ds = &res.curves[1];
        assert!(ds.accuracy.iter().all(|a| a.is_nan()));
        assert_eq!(ds.failures, vec![repeats, repeats]);
    }
}
