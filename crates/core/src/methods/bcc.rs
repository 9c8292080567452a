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
//! empirical label frequencies over the retained sweeps. Each sweep
//! draws `m·ℓ` Dirichlet rows and one truth per task, on flat tables
//! allocated once per call. Its cost in perfbench's table6 (scale 0.1,
//! one thread, median of ten runs on a 2-core container): 25.3 ms on
//! S_Rel and 20.4 ms on S_Adult against 13.9 and 2.6 ms for D&S, and
//! 4.1 and 2.2 ms on D_Product and D_PosSent against 3.1 and 0.16 ms —
//! 80 sweeps versus a few EM steps.

use crowd_data::TaskType;
use crowd_stats::dist::{sample_categorical, sample_dirichlet_into};
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
    /// Retained sweeps for the posterior estimate (at least one).
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
        check_samples(self.samples)?;
        let l = view.l;
        let mut rng = StdRng::seed_from_u64(options.seed);

        // Initialise z from majority vote.
        let post0 = view.majority_posteriors();
        let mut z: Vec<u8> = view.decode(&post0, &mut rng);

        let (tally, confusion_acc) = match l {
            2 => self.chain::<2>(view, &mut z, &mut rng, l),
            4 => self.chain::<4>(view, &mut z, &mut rng, l),
            _ => self.chain::<0>(view, &mut z, &mut rng, l),
        };

        let post = tally_posteriors(&tally, l);
        let worker_quality = confusion_acc
            .chunks_exact(l * l)
            .map(|acc| mean_confusion(acc, self.samples, l))
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

impl Bcc {
    /// Every sweep of the chain at width `L` (`L = 0`: the runtime `l`),
    /// on buffers allocated once. Returns the retained label tallies
    /// (`n·ℓ`) and the sum of the retained confusion draws (`m·ℓ²`).
    fn chain<const L: usize>(
        &self,
        view: &ShardedView,
        z: &mut [u8],
        rng: &mut StdRng,
        l: usize,
    ) -> (Vec<u32>, Vec<f64>) {
        let l = if L == 0 { l } else { L };
        let mut tally = vec![0u32; view.n * l];
        let mut confusion = vec![0.0f64; view.m * l * l];
        let mut confusion_acc = vec![0.0f64; view.m * l * l];
        let mut class_counts = vec![0.0f64; l];
        let mut prior = vec![0.0f64; l];
        let mut scratch = vec![0.0f64; l];

        for sweep in 0..self.burn_in + self.samples {
            // Sample confusion matrices given z: count each worker's
            // answers into its own table, then draw the table in place.
            confusion.fill(0.0);
            for w in 0..view.m {
                let counts = &mut confusion[w * l * l..][..l * l];
                view.worker(w).for_each(|(task, label)| {
                    counts[z[task] as usize * l + label as usize] += 1.0;
                });
            }
            draw_confusion::<L>(
                rng,
                &mut confusion,
                &mut scratch,
                (self.diag_prior, self.off_prior),
                l,
            );

            // Sample the class prior given z (Dirichlet(1) prior).
            class_counts.fill(1.0);
            for &zi in z.iter() {
                class_counts[zi as usize] += 1.0;
            }
            sample_dirichlet_into(rng, &class_counts, &mut prior);

            // Sample z given confusion matrices and prior.
            sample_truths::<L>(view, rng, &prior, &confusion, |w| w, z, &mut scratch);

            if sweep >= self.burn_in {
                tally_labels(&mut tally, z, l);
                for (acc, &c) in confusion_acc.iter_mut().zip(&confusion) {
                    *acc += c;
                }
            }
        }
        (tally, confusion_acc)
    }
}

/// `samples = 0` retains no sweep: every posterior row would be zero
/// and every mean confusion matrix NaN.
pub(super) fn check_samples(samples: usize) -> Result<(), InferenceError> {
    if samples == 0 {
        return Err(InferenceError::BadOptions {
            detail: "a Gibbs chain needs at least one retained sample".into(),
        });
    }
    Ok(())
}

/// Turn a flat table of answer counts into confusion matrices drawn in
/// place from their Dirichlet posteriors. Row `j` of matrix `t` sits at
/// `(t·ℓ + j)·ℓ` and draws from `Dirichlet(counts + prior)`, with the
/// diagonal pseudo-count `priors.0` and the off-diagonal `priors.1`;
/// rows draw in table order. `alpha` is `ℓ` cells of scratch.
pub(super) fn draw_confusion<const L: usize>(
    rng: &mut StdRng,
    table: &mut [f64],
    alpha: &mut [f64],
    priors: (f64, f64),
    l: usize,
) {
    let l = if L == 0 { l } else { L };
    let alpha = &mut alpha[..l];
    for row in table.chunks_exact_mut(l * l) {
        for (j, dist) in row.chunks_exact_mut(l).enumerate() {
            for (k, (a, &count)) in alpha.iter_mut().zip(&*dist).enumerate() {
                *a = count + if j == k { priors.0 } else { priors.1 };
            }
            sample_dirichlet_into(rng, alpha, dist);
        }
    }
}

/// Resample every task's truth from the class prior (`ℓ` cells) times
/// the confusion entries of its answers, floored at 1e-12: worker `w`'s
/// answer `label` under hypothesis `j` reads `confusion[(table(w)·ℓ +
/// j)·ℓ + label]`. `weights` is `ℓ` cells of scratch.
pub(super) fn sample_truths<const L: usize>(
    view: &ShardedView,
    rng: &mut StdRng,
    prior: &[f64],
    confusion: &[f64],
    table: impl Fn(usize) -> usize,
    z: &mut [u8],
    weights: &mut [f64],
) {
    let l = if L == 0 { prior.len() } else { L };
    let weights = &mut weights[..l];
    for (task, zi) in z.iter_mut().enumerate() {
        weights.copy_from_slice(&prior[..l]);
        for &(worker, label) in view.task_row(task) {
            let cells = &confusion[table(worker as usize) * l * l + label as usize..];
            for (j, wgt) in weights.iter_mut().enumerate() {
                *wgt *= cells[j * l].max(1e-12);
            }
        }
        // Rescale to avoid underflow on high-degree tasks.
        let max = weights.iter().copied().fold(0.0f64, f64::max);
        if max > 0.0 {
            weights.iter_mut().for_each(|w| *w /= max);
        }
        *zi = sample_categorical(rng, weights) as u8;
    }
}

/// Count one retained sweep's labels into the flat `n·ℓ` tallies.
pub(super) fn tally_labels(tally: &mut [u32], z: &[u8], l: usize) {
    for (counts, &zi) in tally.chunks_exact_mut(l).zip(z) {
        counts[zi as usize] += 1;
    }
}

/// The posterior-mean confusion matrix of one flat `ℓ²` sum of
/// `samples` draws.
pub(super) fn mean_confusion(acc: &[f64], samples: usize, l: usize) -> WorkerQuality {
    WorkerQuality::Confusion(
        acc.chunks_exact(l)
            .map(|row| row.iter().map(|&c| c / samples as f64).collect())
            .collect(),
    )
}

/// Posterior estimates from flat `n·ℓ` Gibbs label tallies: each row is
/// the task's label frequencies over the retained sweeps.
pub(super) fn tally_posteriors(tally: &[u32], l: usize) -> DMat {
    let mut post = DMat::zeros(tally.len() / l, l);
    for (row, counts) in post
        .data_mut()
        .chunks_exact_mut(l)
        .zip(tally.chunks_exact(l))
    {
        let total: u32 = counts.iter().sum();
        for (p, &c) in row.iter_mut().zip(counts) {
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
    fn rejects_zero_samples() {
        // No retained sweep: the posteriors would be all-zero rows and
        // the mean confusion matrices NaN.
        let m = Bcc {
            samples: 0,
            ..Default::default()
        };
        let r = m.infer(&small_decision(), &InferenceOptions::seeded(7));
        assert!(matches!(r, Err(InferenceError::BadOptions { .. })), "{r:?}");
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
