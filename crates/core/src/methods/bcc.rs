//! BCC — Bayesian Classifier Combination (Kim & Ghahramani, AISTATS 2012).
//!
//! Confusion-matrix worker model with full Bayesian treatment: the target
//! is the posterior joint probability (Section 5.3(2)), sampled with
//! collapsed Gibbs sampling:
//!
//! - `z_i | rest ∝ p(z_i) Π_{w∈W_i} π^w[z_i][v_i^w]`
//! - `π^w[j] | rest ~ Dirichlet(α_j + counts of w's answers on tasks with
//!   z = j)`
//! - `p ~ Dirichlet(β + class counts)`
//!
//! The chain runs `burn_in + samples` sweeps; per-task posteriors are the
//! empirical label frequencies over the retained sweeps. This is also why
//! BCC costs ~10× D&S in Table 6 — many sweeps versus a few EM steps.

use crowd_data::TaskType;
use crowd_stats::dist::{sample_categorical, sample_dirichlet};
use crowd_stats::DMat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// Gibbs-sampled Bayesian classifier combination.
#[derive(Debug, Clone, Copy)]
pub struct Bcc {
    /// Discarded warm-up sweeps.
    pub burn_in: usize,
    /// Retained sweeps for the posterior estimate.
    pub samples: usize,
    /// Dirichlet prior pseudo-count on diagonal confusion cells.
    pub diag_prior: f64,
    /// Dirichlet prior pseudo-count on off-diagonal cells.
    pub off_prior: f64,
}

impl Default for Bcc {
    fn default() -> Self {
        Self {
            burn_in: 20,
            samples: 60,
            diag_prior: 2.0,
            off_prior: 1.0,
        }
    }
}

impl TruthInference for Bcc {
    fn name(&self) -> &'static str {
        "BCC"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
    }

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let l = view.l;
        let mut rng = StdRng::seed_from_u64(options.seed);

        // Initialise z from majority vote.
        let post0 = view.majority_posteriors();
        let mut z: Vec<u8> = view.decode(&post0, &mut rng);

        let mut tally = vec![vec![0u32; l]; view.n];
        let mut confusion_acc = vec![vec![vec![0.0f64; l]; l]; view.m];
        // Truth-sampling weight row, reused across tasks and sweeps.
        let mut weights = vec![0.0f64; l];

        for sweep in 0..self.burn_in + self.samples {
            // Sample confusion matrices given z.
            let mut confusion = vec![vec![vec![0.0f64; l]; l]; view.m];
            for w in 0..view.m {
                let mut counts = vec![vec![0.0f64; l]; l];
                view.worker(w).for_each(|(task, label)| {
                    counts[z[task] as usize][label as usize] += 1.0;
                });
                for j in 0..l {
                    let alpha: Vec<f64> = (0..l)
                        .map(|k| {
                            counts[j][k]
                                + if j == k {
                                    self.diag_prior
                                } else {
                                    self.off_prior
                                }
                        })
                        .collect();
                    confusion[w][j] = sample_dirichlet(&mut rng, &alpha);
                }
            }

            // Sample the class prior given z.
            let mut class_counts = vec![1.0f64; l]; // Dirichlet(1) prior
            for &zi in &z {
                class_counts[zi as usize] += 1.0;
            }
            let prior = sample_dirichlet(&mut rng, &class_counts);

            // Sample z given confusion matrices and prior.
            for task in 0..view.n {
                weights.copy_from_slice(&prior);
                for &(worker, label) in view.task_row(task) {
                    for (j, wgt) in weights.iter_mut().enumerate() {
                        *wgt *= confusion[worker as usize][j][label as usize].max(1e-12);
                    }
                }
                // Rescale to avoid underflow on high-degree tasks.
                let max = weights.iter().copied().fold(0.0f64, f64::max);
                if max > 0.0 {
                    weights.iter_mut().for_each(|w| *w /= max);
                }
                z[task] = sample_categorical(&mut rng, &weights) as u8;
            }

            if sweep >= self.burn_in {
                for (task, &zi) in z.iter().enumerate() {
                    tally[task][zi as usize] += 1;
                }
                for w in 0..view.m {
                    for j in 0..l {
                        for k in 0..l {
                            confusion_acc[w][j][k] += confusion[w][j][k];
                        }
                    }
                }
            }
        }

        let post = tally_posteriors(&tally, l);
        let mean_confusion: Vec<Vec<Vec<f64>>> = confusion_acc
            .into_iter()
            .map(|rows| {
                rows.into_iter()
                    .map(|row| row.into_iter().map(|c| c / self.samples as f64).collect())
                    .collect()
            })
            .collect();

        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality: mean_confusion
                .into_iter()
                .map(WorkerQuality::Confusion)
                .collect(),
            iterations: self.burn_in + self.samples,
            converged: true,
            posteriors: Some(Arc::new(post)),
        })
    }
}

/// Posterior estimates from per-task Gibbs label tallies: each row is
/// the task's sample frequencies (all zero for a task never sampled).
pub(super) fn tally_posteriors(tally: &[Vec<u32>], l: usize) -> DMat {
    let mut post = DMat::zeros(tally.len(), l);
    for (task, counts) in tally.iter().enumerate() {
        let total: u32 = counts.iter().sum();
        for (p, &c) in post.row_mut(task).iter_mut().zip(counts) {
            *p = c as f64 / total.max(1) as f64;
        }
    }
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy_example() {
        let d = toy();
        let r = Bcc::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn strong_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Bcc::default(), &d, 0.85);
    }

    #[test]
    fn works_on_single_choice() {
        let d = small_single();
        let r = Bcc::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.35, "BCC single-choice accuracy {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let d = small_decision();
        let a = Bcc::default()
            .infer(&d, &InferenceOptions::seeded(8))
            .unwrap();
        let b = Bcc::default()
            .infer(&d, &InferenceOptions::seeded(8))
            .unwrap();
        assert_eq!(a.truths, b.truths);
    }

    #[test]
    fn confusion_rows_are_stochastic() {
        let d = toy();
        let r = Bcc::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        for q in &r.worker_quality {
            let WorkerQuality::Confusion(m) = q else {
                panic!()
            };
            for row in m {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-6, "row sums to {s}");
            }
        }
    }
}
