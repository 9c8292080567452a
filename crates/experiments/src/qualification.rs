//! Table 7 — the effect of qualification-test initialisation (§6.3.2).
//!
//! For each of the 8 methods that can initialise worker qualities, run
//! once without initialisation (`c`) and `repeats` times with a
//! bootstrap-simulated qualification test (`c̃`, 20 sampled answers per
//! worker as in the paper), and report both and the benefit `Δ = c̃ − c`.
//! Each method is one [`SweepRunner`] cell.

use std::sync::Arc;

use crowd_core::{InferenceOptions, Method, QualityInit};
use crowd_data::bootstrap_qualification;
use crowd_data::datasets::PaperDataset;

use crate::runner::{CancelToken, SweepCell, SweepRunner};
use crate::sweep::{cell_seed, SeedPurpose};
use crate::{run::evaluate, ExpConfig};

/// Number of golden tasks in the simulated qualification test (paper: 20).
pub const QUALIFICATION_TEST_SIZE: usize = 20;

/// One row of Table 7 for one dataset.
#[derive(Debug, Clone)]
pub struct QualRow {
    /// The method.
    pub method: Method,
    /// Quality without qualification test (accuracy, or MAE for numeric).
    pub baseline: f64,
    /// Quality with qualification test (mean over repeats).
    pub with_qual: f64,
    /// Secondary metric without (F1 or RMSE).
    pub baseline2: f64,
    /// Secondary metric with.
    pub with_qual2: f64,
}

impl QualRow {
    /// The benefit `Δ` on the headline metric.
    pub fn delta(&self) -> f64 {
        self.with_qual - self.baseline
    }
}

/// The 8 methods that support qualification-test initialisation.
pub fn qualification_methods() -> Vec<Method> {
    Method::ALL
        .iter()
        .copied()
        .filter(|m| m.build().supports_qualification())
        .collect()
}

/// Run the Table 7 experiment on one dataset, one [`SweepRunner`] cell
/// per method at `config.threads` budgeted concurrency.
///
/// # Panics
/// Re-raises a cell's panic message: a row has no field to report a
/// lost cell in.
pub fn table7(dataset_id: PaperDataset, config: &ExpConfig) -> Vec<QualRow> {
    let dataset = Arc::new(dataset_id.generate(config.scale, config.seed));
    let methods: Vec<Method> = qualification_methods()
        .into_iter()
        .filter(|m| m.supports(dataset.task_type()))
        .collect();

    let rows: Vec<Option<QualRow>> = {
        let mut cells: Vec<SweepCell<Option<QualRow>>> = Vec::new();
        for &method in &methods {
            let dataset = Arc::clone(&dataset);
            let repeats = config.repeats;
            let base_seed = config.seed;
            cells.push(SweepCell::new(method.name(), move || {
                let dataset = &*dataset;
                let baseline =
                    evaluate(method, dataset, &InferenceOptions::seeded(base_seed), None)?;
                let mut q1 = 0.0;
                let mut q2 = 0.0;
                for rep in 0..repeats {
                    // Purpose-split per-repeat streams (shared across
                    // methods so every method sees the same simulated
                    // qualification test): the bootstrap RNG and the
                    // method init RNG must not be the same sequence.
                    let qual_seed = cell_seed(base_seed, rep, 0, SeedPurpose::Bootstrap);
                    let infer_seed = cell_seed(base_seed, rep, 0, SeedPurpose::Inference);
                    let qual = bootstrap_qualification(dataset, QUALIFICATION_TEST_SIZE, qual_seed);
                    let opts = InferenceOptions {
                        quality_init: QualityInit::Qualification(qual.accuracy),
                        ..InferenceOptions::seeded(infer_seed)
                    };
                    let o = evaluate(method, dataset, &opts, None)?;
                    let categorical = dataset.task_type().is_categorical();
                    q1 += if categorical { o.accuracy } else { o.mae };
                    q2 += if categorical { o.f1 } else { o.rmse };
                }
                let categorical = dataset.task_type().is_categorical();
                Some(QualRow {
                    method,
                    baseline: if categorical {
                        baseline.accuracy
                    } else {
                        baseline.mae
                    },
                    baseline2: if categorical {
                        baseline.f1
                    } else {
                        baseline.rmse
                    },
                    with_qual: q1 / repeats as f64,
                    with_qual2: q2 / repeats as f64,
                })
            }));
        }
        SweepRunner::new(config.threads)
            .run(cells, &CancelToken::new(), |_| {})
            .into_values()
    };
    rows.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_methods_accept_qualification() {
        let ms = qualification_methods();
        assert_eq!(ms.len(), 8);
        // The paper's list: ZC, GLAD, D&S, LFC, CATD, PM, VI-MF, LFC_N.
        for expected in [
            Method::Zc,
            Method::Glad,
            Method::Ds,
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
    fn table7_rows_for_decision_dataset() {
        let cfg = ExpConfig {
            scale: 0.03,
            repeats: 2,
            seed: 11,
            threads: 4,
        };
        let rows = table7(PaperDataset::DProduct, &cfg);
        // 7 of the 8 apply to decision-making (LFC_N is numeric-only).
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.baseline));
            assert!((0.0..=1.0).contains(&r.with_qual));
            // Benefits are small either way (the paper's Δ is within a
            // few points).
            assert!(
                r.delta().abs() < 0.25,
                "{}: Δ {}",
                r.method.name(),
                r.delta()
            );
        }
    }

    #[test]
    fn table7_numeric_dataset_uses_errors() {
        let cfg = ExpConfig {
            scale: 0.2,
            repeats: 2,
            seed: 11,
            threads: 4,
        };
        let rows = table7(PaperDataset::NEmotion, &cfg);
        // CATD, PM, LFC_N apply.
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.baseline > 0.0, "MAE should be positive");
            assert!(r.baseline2 >= r.baseline, "RMSE >= MAE");
        }
    }
}
