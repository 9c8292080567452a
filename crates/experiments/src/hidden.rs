//! Hidden-test sweeps — Figures 7, 8 and 9 (§6.3.3).
//!
//! Reveal the truth of a random `p%` of tasks to the method (golden
//! tasks) and evaluate on the rest, sweeping `p ∈ {0, 10, …, 50}` and
//! averaging over repeated random splits (the paper repeats 100 times).
//! The (repeat × fraction) grid runs on the [`SweepRunner`].

use std::sync::Arc;

use crowd_core::{InferenceOptions, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::GoldenSplit;

use crate::runner::{CancelToken, CellOutcome, SweepCell, SweepRunner};
use crate::sweep::{cell_seed, SeedPurpose};
use crate::{run::evaluate, ExpConfig};

/// One method's curve over golden-task fractions.
///
/// A point with **zero successful repeats** is `f64::NAN`, not `0.0` —
/// a missing measurement must stay distinguishable from a genuinely
/// zero score; `failures` says how many repeats went missing.
#[derive(Debug, Clone)]
pub struct HiddenCurve {
    /// The method.
    pub method: Method,
    /// Mean headline quality per `p` (accuracy, or MAE for numeric).
    pub quality: Vec<f64>,
    /// Mean secondary quality per `p` (F1, or RMSE for numeric).
    pub quality2: Vec<f64>,
    /// Per fraction point: repeats with no outcome for this method.
    pub failures: Vec<usize>,
}

/// Result of a hidden-test sweep on one dataset.
#[derive(Debug, Clone)]
pub struct HiddenResult {
    /// The dataset.
    pub dataset: PaperDataset,
    /// The golden fractions swept (e.g. 0.0, 0.1, …, 0.5).
    pub fractions: Vec<f64>,
    /// One curve per golden-capable method.
    pub curves: Vec<HiddenCurve>,
}

/// The 9 methods that can incorporate golden tasks (§6.3.3).
pub fn golden_methods() -> Vec<Method> {
    Method::ALL
        .iter()
        .copied()
        .filter(|m| m.build().supports_golden())
        .collect()
}

/// Run the hidden-test sweep on one dataset, one [`SweepRunner`] cell per
/// (repeat, fraction) at `config.threads` budgeted concurrency.
/// `fractions` defaults to the paper's `0%..50%` in steps of 10. A lost
/// cell (a panic) counts in its point's `failures`.
pub fn hidden_sweep(
    dataset_id: PaperDataset,
    fractions: Option<Vec<f64>>,
    config: &ExpConfig,
) -> HiddenResult {
    let dataset = Arc::new(dataset_id.generate(config.scale, config.seed));
    let fractions = fractions.unwrap_or_else(|| vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
    let methods: Arc<Vec<Method>> = Arc::new(
        golden_methods()
            .into_iter()
            .filter(|m| m.supports(dataset.task_type()))
            .collect(),
    );

    struct Slot {
        f_idx: usize,
        outcomes: Vec<Option<crate::EvalOutcome>>,
    }
    let mut cells: Vec<SweepCell<Slot>> = Vec::new();
    for rep in 0..config.repeats {
        for (f_idx, &p) in fractions.iter().enumerate() {
            let dataset = Arc::clone(&dataset);
            let methods = Arc::clone(&methods);
            // Purpose-split streams: the golden-split RNG and the method
            // init RNG must never be the same sequence (they were, before
            // the sweep-path seed fix).
            let split_seed = cell_seed(config.seed, rep, f_idx, SeedPurpose::GoldenSplit);
            let infer_seed = cell_seed(config.seed, rep, f_idx, SeedPurpose::Inference);
            cells.push(SweepCell::new(format!("rep {rep} p={p}"), move || {
                let split = GoldenSplit::sample(&dataset, p, split_seed);
                let opts = InferenceOptions {
                    golden: if p > 0.0 {
                        Some(split.revealed.clone())
                    } else {
                        None
                    },
                    ..InferenceOptions::seeded(infer_seed)
                };
                let outcomes = methods
                    .iter()
                    .map(|&m| evaluate(m, &dataset, &opts, Some(&split.eval)))
                    .collect();
                Slot { f_idx, outcomes }
            }));
        }
    }
    let runner = SweepRunner::new(config.threads);
    let outcome = runner.run(cells, &CancelToken::new(), |_| {});
    let slots = outcome.cells.into_iter().filter_map(CellOutcome::ok);

    let categorical = dataset.task_type().is_categorical();
    let nf = fractions.len();
    let nm = methods.len();
    let mut q1 = vec![vec![0.0; nf]; nm];
    let mut q2 = vec![vec![0.0; nf]; nm];
    let mut counts = vec![vec![0usize; nf]; nm];
    for s in slots {
        for (m_idx, o) in s.outcomes.iter().enumerate() {
            if let Some(o) = o {
                q1[m_idx][s.f_idx] += if categorical { o.accuracy } else { o.mae };
                q2[m_idx][s.f_idx] += if categorical { o.f1 } else { o.rmse };
                counts[m_idx][s.f_idx] += 1;
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
            HiddenCurve {
                method,
                quality: norm(&q1[m_idx]),
                quality2: norm(&q2[m_idx]),
                failures: counts[m_idx].iter().map(|&c| config.repeats - c).collect(),
            }
        })
        .collect();

    HiddenResult {
        dataset: dataset_id,
        fractions,
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_methods_support_golden() {
        let ms = golden_methods();
        assert_eq!(ms.len(), 9);
        // The paper's list: ZC, GLAD, D&S, Minimax, LFC, CATD, PM,
        // VI-MF, LFC_N.
        for expected in [
            Method::Zc,
            Method::Glad,
            Method::Ds,
            Method::Minimax,
            Method::Lfc,
            Method::Catd,
            Method::Pm,
            Method::ViMf,
            Method::LfcN,
        ] {
            assert!(ms.contains(&expected), "{} missing", expected.name());
        }
    }

    #[test]
    fn sweep_shape_on_decision_data() {
        let cfg = ExpConfig {
            scale: 0.03,
            repeats: 2,
            seed: 13,
            threads: 4,
        };
        let res = hidden_sweep(PaperDataset::DProduct, Some(vec![0.0, 0.3]), &cfg);
        // 8 golden-capable methods apply to decision-making (all but
        // LFC_N).
        assert_eq!(res.curves.len(), 8);
        for c in &res.curves {
            assert_eq!(c.quality.len(), 2);
            assert!(c.quality.iter().all(|&q| (0.0..=1.0).contains(&q)));
            assert_eq!(c.failures, vec![0, 0], "clean sweep has no failures");
        }
    }

    #[test]
    fn golden_tasks_never_hurt_much_and_generally_help() {
        let cfg = ExpConfig {
            scale: 0.08,
            repeats: 3,
            seed: 13,
            threads: 4,
        };
        let res = hidden_sweep(PaperDataset::SRel, Some(vec![0.0, 0.5]), &cfg);
        // On average across methods, quality at p=50% should be at least
        // quality at p=0 minus noise (the paper: "generally the quality
        // of methods increase with p").
        let avg0: f64 =
            res.curves.iter().map(|c| c.quality[0]).sum::<f64>() / res.curves.len() as f64;
        let avg5: f64 =
            res.curves.iter().map(|c| c.quality[1]).sum::<f64>() / res.curves.len() as f64;
        assert!(
            avg5 > avg0 - 0.02,
            "golden tasks hurt: p0 {avg0} vs p50 {avg5}"
        );
    }

    #[test]
    fn numeric_sweep_uses_errors() {
        let cfg = ExpConfig {
            scale: 0.2,
            repeats: 2,
            seed: 13,
            threads: 4,
        };
        let res = hidden_sweep(PaperDataset::NEmotion, Some(vec![0.0, 0.4]), &cfg);
        // CATD, PM, LFC_N (Figure 9's three methods).
        assert_eq!(res.curves.len(), 3);
        for c in &res.curves {
            assert!(c.quality.iter().all(|&e| e > 0.0), "{:?}", c.quality);
        }
    }
}
