//! CBCC — Community BCC (Venanzi et al., WWW 2014).
//!
//! Extends [`super::Bcc`] with worker *communities*: "each worker belongs
//! to one community, where each community has a representative confusion
//! matrix, and workers in the same community share very similar confusion
//! matrices" (Section 5.3(2)). The community structure pools statistical
//! strength across sparse workers.
//!
//! Gibbs sweeps sample: community assignments `c_w`, community confusion
//! matrices `π^c` (from the pooled counts of member workers), the class
//! prior, and truths `z_i`. Worker matrices are tied to their community
//! matrix (the hard-sharing variant of the model; Venanzi et al. also
//! explore soft per-worker perturbations, which the pooled Dirichlet
//! posterior subsumes for benchmark purposes).

use crowd_data::TaskType;
use crowd_stats::dist::{sample_categorical, sample_dirichlet};
use crowd_stats::kernels::{exp_slice, safe_ln_slice};
use crowd_stats::DMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

use super::bcc::tally_posteriors;

/// Community-based Bayesian classifier combination.
#[derive(Debug, Clone, Copy)]
pub struct Cbcc {
    /// Number of communities `M` (Venanzi et al. use small values).
    pub communities: usize,
    /// Discarded warm-up sweeps.
    pub burn_in: usize,
    /// Retained sweeps.
    pub samples: usize,
    /// Dirichlet prior pseudo-count on diagonal confusion cells.
    pub diag_prior: f64,
    /// Dirichlet prior pseudo-count on off-diagonal cells.
    pub off_prior: f64,
}

impl Default for Cbcc {
    fn default() -> Self {
        Self {
            communities: 4,
            burn_in: 20,
            samples: 60,
            diag_prior: 2.0,
            off_prior: 1.0,
        }
    }
}

impl TruthInference for Cbcc {
    fn name(&self) -> &'static str {
        "CBCC"
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
        let mc = self.communities.max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);

        let post0 = view.majority_posteriors();
        let mut z: Vec<u8> = view.decode(&post0, &mut rng);
        let mut community: Vec<usize> = (0..view.m).map(|_| rng.gen_range(0..mc)).collect();

        let mut tally = vec![vec![0u32; l]; view.n];
        let mut comm_tally = vec![vec![0u32; mc]; view.m];
        let mut confusion_acc = vec![vec![vec![0.0f64; l]; l]; mc];
        // Log-domain community confusion tables, refreshed once per sweep
        // with one batched safe_ln sweep (community `c`, truth row `j` at
        // DMat row `c·ℓ + j`): the worker-assignment loop then adds table
        // entries instead of paying a clamped `ln` per (answer, community).
        let mut log_pi = DMat::zeros(mc * l, l);
        let mut log_rho = vec![0.0f64; mc];
        let mut logw = vec![0.0f64; mc];
        let mut comm_weights = vec![0.0f64; mc];
        let mut weights = vec![0.0f64; l];

        for sweep in 0..self.burn_in + self.samples {
            // 1. Sample community confusion matrices from pooled counts.
            let mut pooled = vec![vec![vec![0.0f64; l]; l]; mc];
            for w in 0..view.m {
                let c = community[w];
                view.worker(w).for_each(|(task, label)| {
                    pooled[c][z[task] as usize][label as usize] += 1.0;
                });
            }
            let mut pi = vec![vec![vec![0.0f64; l]; l]; mc];
            for (c, pool) in pooled.iter().enumerate() {
                for j in 0..l {
                    let alpha: Vec<f64> = (0..l)
                        .map(|k| {
                            pool[j][k]
                                + if j == k {
                                    self.diag_prior
                                } else {
                                    self.off_prior
                                }
                        })
                        .collect();
                    pi[c][j] = sample_dirichlet(&mut rng, &alpha);
                }
            }

            // 2. Sample community sizes prior and worker assignments.
            // The log tables refresh once per sweep: `ln ρ_c` and every
            // `ln π^c[j][k]` (clamped at 1e-12, batched) — elementwise
            // identical to the per-answer clamp-and-ln the loop below
            // used to pay.
            let mut comm_counts = vec![1.0f64; mc];
            for &c in &community {
                comm_counts[c] += 1.0;
            }
            let rho = sample_dirichlet(&mut rng, &comm_counts);
            log_rho.copy_from_slice(&rho);
            safe_ln_slice(&mut log_rho);
            for (c, pc) in pi.iter().enumerate() {
                for (j, row) in pc.iter().enumerate() {
                    log_pi.row_mut(c * l + j).copy_from_slice(row);
                }
            }
            safe_ln_slice(log_pi.data_mut());
            let lp = log_pi.data();
            let stride = l * l;
            for w in 0..view.m {
                // log-likelihood of w's answers under each community:
                // walk the flat table at fixed (truth, label) offset,
                // community-major.
                logw.copy_from_slice(&log_rho);
                view.worker(w).for_each(|(task, label)| {
                    let mut idx = z[task] as usize * l + label as usize;
                    for lw in logw.iter_mut() {
                        *lw += lp[idx];
                        idx += stride;
                    }
                });
                let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for (wt, &x) in comm_weights.iter_mut().zip(&logw) {
                    *wt = x - max;
                }
                exp_slice(&mut comm_weights);
                community[w] = sample_categorical(&mut rng, &comm_weights);
            }

            // 3. Sample the class prior and truths.
            let mut class_counts = vec![1.0f64; l];
            for &zi in &z {
                class_counts[zi as usize] += 1.0;
            }
            let prior = sample_dirichlet(&mut rng, &class_counts);
            for task in 0..view.n {
                weights.copy_from_slice(&prior);
                for &(worker, label) in view.task_row(task) {
                    let c = community[worker as usize];
                    for (j, wgt) in weights.iter_mut().enumerate() {
                        *wgt *= pi[c][j][label as usize].max(1e-12);
                    }
                }
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
                for (w, &c) in community.iter().enumerate() {
                    comm_tally[w][c] += 1;
                }
                for c in 0..mc {
                    for j in 0..l {
                        for k in 0..l {
                            confusion_acc[c][j][k] += pi[c][j][k];
                        }
                    }
                }
            }
        }

        let post = tally_posteriors(&tally, l);

        // Report each worker's modal community matrix (posterior mean).
        let worker_quality: Vec<WorkerQuality> = (0..view.m)
            .map(|w| {
                let c = comm_tally[w]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &n)| n)
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                let m: Vec<Vec<f64>> = confusion_acc[c]
                    .iter()
                    .map(|row| row.iter().map(|&x| x / self.samples as f64).collect())
                    .collect();
                WorkerQuality::Confusion(m)
            })
            .collect();

        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality,
            iterations: self.burn_in + self.samples,
            converged: true,
            posteriors: Some(Arc::new(post)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn solves_toy_example() {
        let d = toy();
        let r = Cbcc::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn strong_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Cbcc::default(), &d, 0.82);
    }

    #[test]
    fn community_count_one_still_works() {
        let d = small_decision();
        let m = Cbcc {
            communities: 1,
            ..Default::default()
        };
        let r = m.infer(&d, &InferenceOptions::seeded(4)).unwrap();
        let acc = accuracy(&d, &r);
        assert!(acc > 0.8, "single-community CBCC accuracy {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let d = small_decision();
        let a = Cbcc::default()
            .infer(&d, &InferenceOptions::seeded(8))
            .unwrap();
        let b = Cbcc::default()
            .infer(&d, &InferenceOptions::seeded(8))
            .unwrap();
        assert_eq!(a.truths, b.truths);
    }

    #[test]
    fn works_on_single_choice() {
        let d = small_single();
        let r = Cbcc::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        assert_result_sane(&d, &r);
    }
}
