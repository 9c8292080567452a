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
//!
//! The sweeps share BCC's flat tables and passes (`bcc::draw_confusion`,
//! `bcc::sample_truths`), with one `M·ℓ²` community table in place of
//! BCC's `m·ℓ²` worker table. Cost in perfbench's table6 (scale 0.1,
//! one thread, median of ten runs on a 2-core container): 24.3 ms on
//! S_Rel, 17.4 ms on S_Adult, 5.7 ms on D_Product and 3.3 ms on
//! D_PosSent, against 13.9, 2.6, 3.1 and 0.16 ms for D&S.

use crowd_data::TaskType;
use crowd_stats::dist::{sample_categorical, sample_dirichlet_into};
use crowd_stats::kernels::{exp_slice, safe_ln_slice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference,
};
use crate::views::{label_answers, ShardedView};

use super::bcc::{
    check_samples, draw_confusion, mean_confusion, sample_truths, tally_labels, tally_posteriors,
};

/// Community-based Bayesian classifier combination.
#[derive(Debug, Clone, Copy)]
pub struct Cbcc {
    /// Number of communities `M` (Venanzi et al. use small values).
    pub communities: usize,
    /// Discarded warm-up sweeps.
    pub burn_in: usize,
    /// Retained sweeps (at least one).
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

/// What a finished chain hands back: the retained label tallies
/// (`n·ℓ`), each worker's community tallies (`m·M`), and the sum of the
/// retained community confusion draws (`M·ℓ²`).
struct Chain {
    tally: Vec<u32>,
    comm_tally: Vec<u32>,
    confusion_acc: Vec<f64>,
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
        check_samples(self.samples)?;
        let l = view.l;
        let mc = self.communities.max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);

        let post0 = view.majority_posteriors();
        let mut z: Vec<u8> = view.decode(&post0, &mut rng);
        let mut community: Vec<usize> = (0..view.m).map(|_| rng.gen_range(0..mc)).collect();

        let chain = match l {
            2 => self.chain::<2>(view, &mut z, &mut community, &mut rng, l),
            4 => self.chain::<4>(view, &mut z, &mut community, &mut rng, l),
            _ => self.chain::<0>(view, &mut z, &mut community, &mut rng, l),
        };

        let post = tally_posteriors(&chain.tally, l);

        // Report each worker's modal community matrix (posterior mean).
        let worker_quality = chain
            .comm_tally
            .chunks_exact(mc)
            .map(|counts| {
                let c = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &n)| n)
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                mean_confusion(&chain.confusion_acc[c * l * l..][..l * l], self.samples, l)
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

impl Cbcc {
    /// Every sweep of the chain at width `L` (`L = 0`: the runtime `l`),
    /// on buffers allocated once.
    fn chain<const L: usize>(
        &self,
        view: &ShardedView,
        z: &mut [u8],
        community: &mut [usize],
        rng: &mut StdRng,
        l: usize,
    ) -> Chain {
        let l = if L == 0 { l } else { L };
        let mc = self.communities.max(1);
        let stride = l * l;
        let mut tally = vec![0u32; view.n * l];
        let mut comm_tally = vec![0u32; view.m * mc];
        let mut confusion_acc = vec![0.0f64; mc * stride];
        // Community confusion tables, flat: row `j` of community `c` at
        // `(c·ℓ + j)·ℓ`, as drawn and in the log domain — the latter
        // refreshed once per sweep with one batched safe_ln sweep, so
        // the worker-assignment loop adds table entries instead of
        // paying a clamped `ln` per (answer, community).
        let mut pi = vec![0.0f64; mc * stride];
        let mut log_pi = vec![0.0f64; mc * stride];
        let mut comm_counts = vec![0.0f64; mc];
        let mut log_rho = vec![0.0f64; mc];
        let mut logw = vec![0.0f64; mc];
        let mut comm_weights = vec![0.0f64; mc];
        let mut class_counts = vec![0.0f64; l];
        let mut prior = vec![0.0f64; l];
        let mut scratch = vec![0.0f64; l];

        for sweep in 0..self.burn_in + self.samples {
            // 1. Sample community confusion matrices from pooled counts.
            pi.fill(0.0);
            for w in 0..view.m {
                let pooled = &mut pi[community[w] * stride..][..stride];
                view.worker(w).for_each(|(task, label)| {
                    pooled[z[task] as usize * l + label as usize] += 1.0;
                });
            }
            draw_confusion::<L>(
                rng,
                &mut pi,
                &mut scratch,
                (self.diag_prior, self.off_prior),
                l,
            );

            // 2. Sample community sizes prior and worker assignments.
            comm_counts.fill(1.0);
            for &c in community.iter() {
                comm_counts[c] += 1.0;
            }
            sample_dirichlet_into(rng, &comm_counts, &mut log_rho);
            safe_ln_slice(&mut log_rho);
            log_pi.copy_from_slice(&pi);
            safe_ln_slice(&mut log_pi);
            for (w, cw) in community.iter_mut().enumerate() {
                // log-likelihood of w's answers under each community:
                // walk the flat table at fixed (truth, label) offset,
                // community-major.
                logw.copy_from_slice(&log_rho);
                view.worker(w).for_each(|(task, label)| {
                    let mut idx = z[task] as usize * l + label as usize;
                    for lw in logw.iter_mut() {
                        *lw += log_pi[idx];
                        idx += stride;
                    }
                });
                let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for (wt, &x) in comm_weights.iter_mut().zip(&logw) {
                    *wt = x - max;
                }
                exp_slice(&mut comm_weights);
                *cw = sample_categorical(rng, &comm_weights);
            }

            // 3. Sample the class prior and truths.
            class_counts.fill(1.0);
            for &zi in z.iter() {
                class_counts[zi as usize] += 1.0;
            }
            sample_dirichlet_into(rng, &class_counts, &mut prior);
            sample_truths::<L>(view, rng, &prior, &pi, |w| community[w], z, &mut scratch);

            if sweep >= self.burn_in {
                tally_labels(&mut tally, z, l);
                for (counts, &c) in comm_tally.chunks_exact_mut(mc).zip(community.iter()) {
                    counts[c] += 1;
                }
                for (acc, &p) in confusion_acc.iter_mut().zip(&pi) {
                    *acc += p;
                }
            }
        }
        Chain {
            tally,
            comm_tally,
            confusion_acc,
        }
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
    fn rejects_zero_samples() {
        // No retained sweep: the posteriors would be all-zero rows and
        // the mean confusion matrices NaN.
        let m = Cbcc {
            samples: 0,
            ..Default::default()
        };
        let r = m.infer(&small_decision(), &InferenceOptions::seeded(7));
        assert!(matches!(r, Err(InferenceError::BadOptions { .. })), "{r:?}");
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
