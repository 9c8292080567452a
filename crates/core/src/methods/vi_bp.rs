//! VI-BP — Variational inference with belief propagation (Liu, Peng &
//! Ihler, NIPS 2012).
//!
//! The belief-propagation counterpart of [`super::ViMf`]: messages flow on
//! the task–worker factor graph, and each worker factor integrates the
//! worker's confusion parameters under their Dirichlet prior. Exact
//! integration of the worker factor requires summing over all joint
//! configurations of the worker's other tasks; like Liu et al.'s AMF
//! connection, we approximate that integral with *expected counts* under
//! the cavity (leave-one-out) beliefs — the message a worker sends about
//! task `i` is computed from Dirichlet parameters that exclude task `i`'s
//! own belief:
//!
//! ```text
//! m_{w→i}(j) ∝ exp( ψ(α̂^{−i}_{j,v_iw}) − ψ(Σ_k α̂^{−i}_{j,k}) )
//! b_i(j)     ∝ Π_{w∈W_i} m_{w→i}(j)
//! ```
//!
//! The leave-one-out structure is what distinguishes BP from mean field
//! (KOS is recovered under a Haldane prior). The paper finds VI-BP
//! unstable on imbalanced data (64.6% accuracy on D_Product, Table 6);
//! this implementation retains that failure mode — see the regression
//! test pinning it below. The substitution is recorded in DESIGN.md §5.

use crowd_data::TaskType;
use crowd_stats::special::digamma;
use crowd_stats::{dist::log_normalize, ConvergenceTracker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// Belief-propagation variational inference (two-coin Dirichlet model).
#[derive(Debug, Clone, Copy)]
pub struct ViBp {
    /// Dirichlet prior pseudo-count on diagonal cells.
    pub diag_prior: f64,
    /// Dirichlet prior pseudo-count on off-diagonal cells.
    pub off_prior: f64,
}

impl Default for ViBp {
    fn default() -> Self {
        Self {
            diag_prior: 2.0,
            off_prior: 1.0,
        }
    }
}

impl TruthInference for ViBp {
    fn name(&self) -> &'static str {
        "VI-BP"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type == TaskType::DecisionMaking
    }

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let l = view.l;

        let mut beliefs = view.majority_posteriors();
        // Double-buffered beliefs plus the variational Dirichlet
        // parameters, all pre-allocated outside the loop.
        let mut next = crowd_stats::DMat::zeros(view.n, l);
        let mut alpha_hat = vec![vec![vec![0.0f64; l]; l]; view.m];
        let mut logp = vec![0.0f64; l];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            // Full expected counts per worker.
            for (w, alpha_w) in alpha_hat.iter_mut().enumerate() {
                for (j, row) in alpha_w.iter_mut().enumerate() {
                    for (k, cell) in row.iter_mut().enumerate() {
                        *cell = if j == k {
                            self.diag_prior
                        } else {
                            self.off_prior
                        };
                    }
                }
                view.worker(w).for_each(|(task, label)| {
                    for j in 0..l {
                        alpha_w[j][label as usize] += beliefs.row(task)[j];
                    }
                });
            }

            // New beliefs from cavity messages.
            for task in 0..view.n {
                if view.task_len(task) == 0 {
                    next.row_mut(task).copy_from_slice(beliefs.row(task));
                    continue;
                }
                logp.fill(0.0);
                for &(worker, label) in view.task_row(task) {
                    let worker = worker as usize;
                    for (j, lp) in logp.iter_mut().enumerate() {
                        // Leave task `task`'s own contribution out of the
                        // Dirichlet parameters (the BP cavity).
                        let own = beliefs.row(task)[j];
                        let a_jv = alpha_hat[worker][j][label as usize] - own;
                        let row_total: f64 = alpha_hat[worker][j].iter().sum::<f64>() - own;
                        *lp += digamma(a_jv.max(1e-6)) - digamma(row_total.max(1e-6));
                    }
                }
                log_normalize(&mut logp);
                next.row_mut(task).copy_from_slice(&logp);
            }
            std::mem::swap(&mut beliefs, &mut next);

            if tracker.step(beliefs.data()) {
                break;
            }
        }

        // Report posterior-mean confusions from final beliefs.
        let mut confusion = vec![vec![vec![0.0f64; l]; l]; view.m];
        for (w, conf_w) in confusion.iter_mut().enumerate() {
            for (j, row) in conf_w.iter_mut().enumerate() {
                for (k, cell) in row.iter_mut().enumerate() {
                    *cell = if j == k {
                        self.diag_prior
                    } else {
                        self.off_prior
                    };
                }
            }
            view.worker(w).for_each(|(task, label)| {
                for j in 0..l {
                    conf_w[j][label as usize] += beliefs.row(task)[j];
                }
            });
            for row in conf_w.iter_mut() {
                let total: f64 = row.iter().sum();
                row.iter_mut().for_each(|c| *c /= total);
            }
        }

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&beliefs, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality: confusion
                .into_iter()
                .map(WorkerQuality::Confusion)
                .collect(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(beliefs)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy() {
        let d = toy();
        let r = ViBp::default()
            .infer(&d, &InferenceOptions::seeded(4))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn strong_on_balanced_decision_data() {
        // The paper: VI-BP ties the confusion-matrix pack at 96% on the
        // balanced D_PosSent.
        let d = crowd_data::datasets::PaperDataset::DPosSent.generate(0.2, 13);
        assert_accuracy_at_least(&ViBp::default(), &d, 0.88);
    }

    #[test]
    fn can_trail_ds_on_imbalanced_data() {
        // Table 6 regression: VI-BP (64.6% accuracy) far below D&S
        // (93.7%) on D_Product. Our simulated D_Product is milder, so we
        // only pin the direction: VI-BP must not beat D&S.
        use crate::methods::Ds;
        let d = small_decision();
        let bp = ViBp::default()
            .infer(&d, &InferenceOptions::seeded(6))
            .unwrap();
        let ds = Ds.infer(&d, &InferenceOptions::seeded(6)).unwrap();
        assert!(accuracy(&d, &bp) <= accuracy(&d, &ds) + 0.02);
    }

    #[test]
    fn rejects_single_choice_and_numeric() {
        assert!(ViBp::default()
            .infer(&small_single(), &InferenceOptions::default())
            .is_err());
        assert!(ViBp::default()
            .infer(&small_numeric(), &InferenceOptions::default())
            .is_err());
    }
}
