//! Extension experiments beyond the paper's evaluation, implementing the
//! future directions of Section 7:
//!
//! - [`assignment_comparison`] — §7(6) *Task Assignment*: how do
//!   collection strategies (uniform / quality-focused / uncertainty-
//!   adaptive) change downstream truth-inference quality at equal answer
//!   budget?
//! - [`recommend_redundancy`] — §7(3) *Data Redundancy*: estimate the
//!   redundancy `r̂` beyond which quality stabilises.
//! - [`ablation_sweeps`] — quality/time sensitivity of the design choices
//!   DESIGN.md calls out (LFC prior strength, BCC sample count, GLAD
//!   gradient steps, Multi latent dimensions).

use crowd_core::methods::{Bcc, Glad, Lfc, Multi};
use crowd_core::{InferenceOptions, Method, TruthInference};
use crowd_data::assignment::{collect, AssignmentStrategy};
use crowd_data::datasets::PaperDataset;
use crowd_metrics::accuracy;

use crate::runner::{CancelToken, SweepCell, SweepRunner};
use crate::sweep::{cell_seed, SeedPurpose, SweepResult};
use crate::ExpConfig;

/// One row of the assignment comparison: strategy × method → accuracy.
#[derive(Debug, Clone)]
pub struct AssignmentRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Mean per-answer accuracy of the collected log.
    pub answer_accuracy: f64,
    /// Mean accuracy per inference method (paired with `methods`).
    pub method_accuracy: Vec<f64>,
}

/// The strategies compared, with their display labels.
fn strategies() -> Vec<(&'static str, AssignmentStrategy)> {
    vec![
        ("uniform", AssignmentStrategy::Uniform),
        (
            "quality-focused",
            AssignmentStrategy::QualityFocused { explore: 0.1 },
        ),
        (
            "uncertainty-adaptive",
            AssignmentStrategy::UncertaintyAdaptive { base: 2 },
        ),
    ]
}

/// Compare assignment strategies at a fixed answer budget on a simulated
/// decision-making crowd, averaging over `config.repeats` seeds. Every
/// (strategy, repeat) pair is one [`SweepRunner`] cell at
/// `config.threads` budgeted concurrency; a strategy with no completed
/// repeat reports `NaN`, not a fake zero.
///
/// Returns `(methods, rows)` — methods give the column order.
///
/// # Panics
/// Re-raises a cell's panic message: a row has no field to report a
/// lost cell in.
pub fn assignment_comparison(config: &ExpConfig) -> (Vec<Method>, Vec<AssignmentRow>) {
    let methods = vec![Method::Mv, Method::Ds, Method::Lfc, Method::Zc];
    // A mid-size decision-making universe with diverse workers: the
    // regime where assignment policy matters.
    let mut sim_cfg = PaperDataset::DProduct.config(config.scale.max(0.05));
    sim_cfg.spammer_fraction = 0.15; // assignment has something to avoid
    let budget = sim_cfg.num_tasks * 5;

    let mut cells: Vec<SweepCell<(f64, Vec<f64>)>> = Vec::new();
    for (label, strategy) in strategies() {
        for rep in 0..config.repeats {
            let sim_cfg = sim_cfg.clone();
            let methods = methods.clone();
            // Purpose-split streams: the collection simulation and the
            // method init RNGs must not share a sequence.
            let collect_seed = cell_seed(config.seed, rep, 0, SeedPurpose::Collection);
            let infer_seed = cell_seed(config.seed, rep, 0, SeedPurpose::Inference);
            cells.push(SweepCell::new(format!("{label} rep {rep}"), move || {
                let run = collect(&sim_cfg, strategy, budget, collect_seed)
                    .expect("decision-making config is categorical");
                let d = &run.dataset;
                let mut correct = 0usize;
                for r in d.records() {
                    if Some(r.answer) == d.truth(r.task) {
                        correct += 1;
                    }
                }
                let answer_acc = correct as f64 / d.num_answers().max(1) as f64;
                let method_acc = methods
                    .iter()
                    .map(|m| {
                        let r = m
                            .build()
                            .infer(d, &InferenceOptions::seeded(infer_seed))
                            .expect("decision-making supported");
                        accuracy(d, &r.truths)
                    })
                    .collect();
                (answer_acc, method_acc)
            }));
        }
    }
    let results = SweepRunner::new(config.threads)
        .run(cells, &CancelToken::new(), |_| {})
        .into_values();

    // Grid order is strategy-major, so each strategy's repeats are one
    // contiguous run, summed in repeat order.
    let rows = strategies()
        .into_iter()
        .enumerate()
        .map(|(s_idx, (label, _))| {
            let reps = &results[s_idx * config.repeats..(s_idx + 1) * config.repeats];
            let k = reps.len() as f64;
            // 0/0: no completed repeat is NaN.
            let answer_accuracy = reps.iter().map(|(a, _)| a).sum::<f64>() / k;
            let method_accuracy = (0..methods.len())
                .map(|i| {
                    if reps.is_empty() {
                        return f64::NAN;
                    }
                    reps.iter().fold(0.0, |sum, (_, accs)| sum + accs[i] / k)
                })
                .collect();
            AssignmentRow {
                strategy: label,
                answer_accuracy,
                method_accuracy,
            }
        })
        .collect();

    (methods, rows)
}

/// §7(3): the smallest redundancy after which a method's marginal quality
/// gain stays below `epsilon` — the paper's "how to estimate the data
/// redundancy with stable quality?".
///
/// Works on a [`SweepResult`] curve (categorical: accuracy; numeric:
/// negated MAE so "gain" is improvement in both cases). Returns `None`
/// when the curve never stabilises within the swept range.
pub fn recommend_redundancy(result: &SweepResult, method: Method, epsilon: f64) -> Option<usize> {
    let curve = result.curves.iter().find(|c| c.method == method)?;
    let quality: Vec<f64> = if curve.accuracy.iter().any(|&a| a > 0.0) {
        curve.accuracy.clone()
    } else {
        curve.mae.iter().map(|&e| -e).collect()
    };
    // r̂ = first r whose *remaining* gains (to every later point) are all
    // below epsilon — a single flat step must not fool the advisor.
    // Sweep curves mark failed/empty points `NaN`: `f64::max` skips them
    // in the future-max fold, and a NaN candidate point never satisfies
    // the `< epsilon` comparison, so missing measurements are never
    // recommended.
    for (i, &r) in result.redundancies.iter().enumerate() {
        let future_max = quality[i..]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if future_max - quality[i] < epsilon {
            return Some(r);
        }
    }
    None
}

/// One ablation point: hyperparameter value → (accuracy, seconds).
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Hyperparameter value (displayed).
    pub value: f64,
    /// Accuracy on the ablation dataset.
    pub accuracy: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// A named ablation curve.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What is being ablated, e.g. `"LFC diagonal prior"`.
    pub name: &'static str,
    /// The measured points.
    pub points: Vec<AblationPoint>,
}

/// Sweep the design choices DESIGN.md calls out, on a simulated
/// D_Product instance.
pub fn ablation_sweeps(config: &ExpConfig) -> Vec<Ablation> {
    let dataset = PaperDataset::DProduct.generate(config.scale.max(0.05), config.seed);
    let opts = InferenceOptions::seeded(config.seed);

    let run = |m: &dyn TruthInference| -> (f64, f64) {
        let start = std::time::Instant::now();
        let r = m.infer(&dataset, &opts).expect("runs on decision data");
        (accuracy(&dataset, &r.truths), start.elapsed().as_secs_f64())
    };

    let mut ablations = Vec::new();

    // 1. LFC prior strength: 0 recovers D&S, large drowns the data.
    let mut points = Vec::new();
    for diag in [0.01, 1.0, 4.0, 16.0, 64.0] {
        let (acc, secs) = run(&Lfc {
            diag_prior: diag,
            off_prior: diag / 4.0,
        });
        points.push(AblationPoint {
            value: diag,
            accuracy: acc,
            seconds: secs,
        });
    }
    ablations.push(Ablation {
        name: "LFC diagonal prior",
        points,
    });

    // 2. BCC retained Gibbs samples: quality vs time.
    let mut points = Vec::new();
    for samples in [5usize, 20, 60, 150] {
        let (acc, secs) = run(&Bcc {
            samples,
            ..Bcc::default()
        });
        points.push(AblationPoint {
            value: samples as f64,
            accuracy: acc,
            seconds: secs,
        });
    }
    ablations.push(Ablation {
        name: "BCC Gibbs samples",
        points,
    });

    // 3. GLAD gradient steps per M-step.
    let mut points = Vec::new();
    for steps in [2usize, 6, 12, 24] {
        let (acc, secs) = run(&Glad {
            gradient_steps: steps,
            ..Glad::default()
        });
        points.push(AblationPoint {
            value: steps as f64,
            accuracy: acc,
            seconds: secs,
        });
    }
    ablations.push(Ablation {
        name: "GLAD gradient steps",
        points,
    });

    // 4. Multi latent dimensions (the paper: more model ≠ more quality).
    let mut points = Vec::new();
    for dims in [1usize, 2, 4, 8] {
        let (acc, secs) = run(&Multi {
            dims,
            ..Multi::default()
        });
        points.push(AblationPoint {
            value: dims as f64,
            accuracy: acc,
            seconds: secs,
        });
    }
    ablations.push(Ablation {
        name: "Multi latent dimensions",
        points,
    });

    ablations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::redundancy_sweep;

    #[test]
    fn assignment_comparison_shapes() {
        let cfg = ExpConfig {
            scale: 0.03,
            repeats: 2,
            seed: 5,
            threads: 4,
        };
        let (methods, rows) = assignment_comparison(&cfg);
        assert_eq!(methods.len(), 4);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.answer_accuracy));
            assert_eq!(row.method_accuracy.len(), 4);
        }
        // Quality-focused collection must raise per-answer accuracy over
        // uniform (the whole point of the strategy).
        let uniform = rows.iter().find(|r| r.strategy == "uniform").unwrap();
        let quality = rows
            .iter()
            .find(|r| r.strategy == "quality-focused")
            .unwrap();
        assert!(
            quality.answer_accuracy > uniform.answer_accuracy,
            "quality-focused {} should beat uniform {}",
            quality.answer_accuracy,
            uniform.answer_accuracy
        );
    }

    #[test]
    fn assignment_without_repeats_reports_nan_not_zero() {
        // With no completed repeat there is nothing to average: every
        // accuracy must read NaN (as Table 7 and the sweep points do),
        // not a fake 0.00%.
        let cfg = ExpConfig {
            scale: 0.03,
            repeats: 0,
            seed: 5,
            threads: 2,
        };
        let (methods, rows) = assignment_comparison(&cfg);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.answer_accuracy.is_nan(), "{}", row.strategy);
            assert_eq!(row.method_accuracy.len(), methods.len());
            assert!(
                row.method_accuracy.iter().all(|a| a.is_nan()),
                "{}: {:?}",
                row.strategy,
                row.method_accuracy
            );
        }
    }

    #[test]
    fn redundancy_advisor_finds_saturation() {
        let cfg = ExpConfig {
            scale: 0.15,
            repeats: 2,
            seed: 5,
            threads: 4,
        };
        let res = redundancy_sweep(
            PaperDataset::DPosSent,
            Some(vec![1, 2, 4, 8, 12, 16, 20]),
            &cfg,
        );
        let r_hat = recommend_redundancy(&res, Method::Ds, 0.01).expect("saturates");
        assert!(
            (4..=20).contains(&r_hat),
            "D&S on D_PosSent should saturate between r=4 and r=20, got {r_hat}"
        );
        // A tiny epsilon may never be satisfied before the last point —
        // the advisor must return the last point or None, not panic.
        let strict = recommend_redundancy(&res, Method::Ds, 1e-9);
        if let Some(r) = strict {
            assert!(res.redundancies.contains(&r));
        }
    }

    #[test]
    fn advisor_never_recommends_nan_points() {
        use crate::sweep::SweepCurve;
        // A curve whose middle point failed (NaN, one lost repeat): the
        // advisor must not pick r=2, and must not let the NaN poison the
        // future-max scan for the later points.
        let res = SweepResult {
            dataset: PaperDataset::DProduct,
            redundancies: vec![1, 2, 3],
            curves: vec![SweepCurve {
                method: Method::Mv,
                accuracy: vec![0.70, f64::NAN, 0.90],
                f1: vec![0.0; 3],
                mae: vec![0.0; 3],
                rmse: vec![0.0; 3],
                failures: vec![0, 1, 0],
            }],
        };
        assert_eq!(recommend_redundancy(&res, Method::Mv, 0.01), Some(3));
        // All-NaN curve: nothing to recommend.
        let all_nan = SweepResult {
            dataset: PaperDataset::DProduct,
            redundancies: vec![1, 2],
            curves: vec![SweepCurve {
                method: Method::Mv,
                accuracy: vec![f64::NAN; 2],
                f1: vec![f64::NAN; 2],
                mae: vec![f64::NAN; 2],
                rmse: vec![f64::NAN; 2],
                failures: vec![1, 1],
            }],
        };
        assert_eq!(recommend_redundancy(&all_nan, Method::Mv, 0.01), None);
    }

    #[test]
    fn advisor_rejects_unknown_method() {
        let cfg = ExpConfig {
            scale: 0.1,
            repeats: 1,
            seed: 5,
            threads: 2,
        };
        let res = redundancy_sweep(PaperDataset::NEmotion, Some(vec![2, 6, 10]), &cfg);
        assert!(recommend_redundancy(&res, Method::Kos, 0.01).is_none());
        // Numeric curves work through negated MAE.
        let r_hat = recommend_redundancy(&res, Method::Mean, 5.0);
        assert!(r_hat.is_some());
    }

    #[test]
    fn ablations_produce_curves() {
        let cfg = ExpConfig {
            scale: 0.05,
            repeats: 1,
            seed: 5,
            threads: 2,
        };
        let abl = ablation_sweeps(&cfg);
        assert_eq!(abl.len(), 4);
        for a in &abl {
            assert!(a.points.len() >= 4, "{}", a.name);
            for p in &a.points {
                assert!((0.0..=1.0).contains(&p.accuracy), "{}: {p:?}", a.name);
                assert!(p.seconds >= 0.0);
            }
        }
        // BCC accuracy should not collapse at the high-sample end (the
        // quality/time tradeoff is flat-to-rising; wall-clock growth is
        // left unasserted, since test timings are noisy).
        let bcc = abl.iter().find(|a| a.name == "BCC Gibbs samples").unwrap();
        let first = bcc.points.first().unwrap().accuracy;
        let last = bcc.points.last().unwrap().accuracy;
        assert!(
            last >= first - 0.05,
            "BCC quality collapsed with more samples: {first} → {last}"
        );
    }
}
