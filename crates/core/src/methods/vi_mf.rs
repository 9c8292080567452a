//! VI-MF — Variational inference with mean field (Liu, Peng & Ihler,
//! NIPS 2012).
//!
//! Decision-making tasks (Table 4). Unlike ZC/D&S, which point-estimate
//! worker parameters, VI methods are *Bayesian estimators* (Section
//! 5.3(1), Equation 2): they integrate over worker confusion matrices
//! under Dirichlet priors. Mean field approximates the joint posterior as
//! `q(z) Π_i q(z_i) Π_w q(π^w)` with closed-form coordinate updates:
//!
//! - `q(π^w_j) = Dirichlet(α_j + expected counts of w's answers given
//!   truth j)`;
//! - `q(z_i = j) ∝ exp( Σ_{w∈W_i} E[ln π^w_j,v_iw] )` where
//!   `E[ln π_jk] = ψ(α̂_jk) − ψ(Σ_k α̂_jk)`.

use crowd_data::TaskType;
use crowd_stats::special::digamma;
use crowd_stats::{fused_posterior_rows, fused_two_term_rows, ln_map_into, ConvergenceTracker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{initial_accuracy, label_answers, ShardedView};

use super::ds::posterior_bases;
use super::zc::two_term_answers;

/// Mean-field variational inference over the confusion-matrix model.
#[derive(Debug, Clone, Copy)]
pub struct ViMf {
    /// Dirichlet prior pseudo-count on diagonal cells.
    pub diag_prior: f64,
    /// Dirichlet prior pseudo-count on off-diagonal cells.
    pub off_prior: f64,
}

impl Default for ViMf {
    fn default() -> Self {
        // The "workers are better than chance" prior used by Liu et al.
        Self {
            diag_prior: 2.0,
            off_prior: 1.0,
        }
    }
}

impl TruthInference for ViMf {
    fn name(&self) -> &'static str {
        "VI-MF"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type == TaskType::DecisionMaking
    }

    fn supports_qualification(&self) -> bool {
        true
    }

    fn supports_golden(&self) -> bool {
        true
    }

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let l = view.l;

        // Initial posteriors: majority vote, possibly sharpened by
        // qualification-test accuracies via one weighted-vote pass.
        let mut post = view.majority_posteriors();
        if let crate::framework::QualityInit::Qualification(_) = &options.quality_init {
            let acc = initial_accuracy(options, view.m, 0.7);
            // Per-worker correct/wrong log terms, tabulated once as two
            // fused fill-and-ln maps (elementwise identical to the old
            // per-answer `p.max(1e-9).ln()`), instead of ℓ `ln`s per
            // answer.
            let mut ln_correct = vec![0.0f64; view.m];
            let mut ln_wrong = vec![0.0f64; view.m];
            ln_map_into(&mut ln_correct, |w| acc[w].max(1e-9));
            ln_map_into(&mut ln_wrong, |w| {
                ((1.0 - acc[w]) / (l - 1) as f64).max(1e-9)
            });
            fused_two_term_rows(post.data_mut(), l, |task| {
                two_term_answers(
                    view.golden()[task],
                    view.task_row(task),
                    &ln_correct,
                    &ln_wrong,
                )
            });
            view.clamp_golden(&mut post);
        }

        // Variational Dirichlet parameters per worker row, flat: worker
        // `w`, truth row `j` at DMat row `w·ℓ + j`. `eln` holds the
        // expected log-confusions in the same layout. Both update in
        // place — the loop below allocates nothing per iteration.
        let mut alpha_hat = crowd_stats::DMat::zeros(view.m * l, l);
        let mut eln = crowd_stats::DMat::zeros(view.m * l, l);
        let zero_prior = vec![0.0f64; l];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            // Update q(π^w): prior + expected counts.
            for w in 0..view.m {
                for j in 0..l {
                    let row = alpha_hat.row_mut(w * l + j);
                    row.fill(self.off_prior);
                    row[j] = self.diag_prior;
                }
                view.worker(w).for_each(|(task, label)| {
                    let post_row = post.row(task);
                    for j in 0..l {
                        alpha_hat.row_mut(w * l + j)[label as usize] += post_row[j];
                    }
                });
            }

            // Expected log-confusions.
            for r in 0..view.m * l {
                let a_row = alpha_hat.row(r);
                let total: f64 = a_row.iter().sum();
                let d_total = digamma(total);
                let e_row = eln.row_mut(r);
                for (e, &a) in e_row.iter_mut().zip(a_row) {
                    *e = digamma(a) - d_total;
                }
            }

            // Update q(z_i): one fused posterior-row pass over the tasks
            // — zero init, table gather against `eln` walking each
            // worker's ℓ×ℓ block column `label` by stride (the same
            // access pattern as the D&S E-step), log-sum-exp and
            // normalize, written straight into the posterior rows.
            let el = eln.data();
            {
                let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
                let fused_rows = fused_posterior_rows(post.data_mut(), &zero_prior, el, |task| {
                    posterior_bases(l, view.golden()[task], view.task_row(task))
                });
                crate::methods::obs_fused_rows().add(fused_rows);
            }
            view.clamp_golden(&mut post);

            if tracker.step(post.data()) {
                break;
            }
        }

        // Posterior-mean confusion matrices for reporting.
        let confusion: Vec<Vec<Vec<f64>>> = (0..view.m)
            .map(|w| {
                (0..l)
                    .map(|j| {
                        let row = alpha_hat.row(w * l + j);
                        let total: f64 = row.iter().sum();
                        row.iter().map(|&a| a / total).collect()
                    })
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality: confusion
                .into_iter()
                .map(WorkerQuality::Confusion)
                .collect(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(post)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy_example() {
        let d = toy();
        let r = ViMf::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn strong_on_balanced_decision_data() {
        let d = crowd_data::datasets::PaperDataset::DPosSent.generate(0.2, 31);
        assert_accuracy_at_least(&ViMf::default(), &d, 0.90);
    }

    #[test]
    fn reasonable_on_imbalanced_data() {
        // Table 6 shape: VI-MF (83.9%) lands *below* MV (89.7%) on the
        // imbalanced D_Product; our simulator reproduces that gap (the
        // bar is "clearly above chance, clearly below MV", and the exact
        // margin depends on the simulated instance).
        let d = small_decision();
        assert_accuracy_at_least(&ViMf::default(), &d, 0.60);
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.25, 2);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(2)
        };
        let r = ViMf::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn rejects_single_choice() {
        // Table 4 lists VI methods under decision-making only.
        let d = small_single();
        assert!(ViMf::default()
            .infer(&d, &InferenceOptions::default())
            .is_err());
    }
}
