//! Multi — The Multidimensional Wisdom of Crowds (Welinder, Branson,
//! Perona & Belongie, NIPS 2010).
//!
//! Decision-making tasks (Table 4). The richest worker model in the
//! benchmark: each task is a latent vector `x_i ∈ ℝ^K` (latent topics /
//! image-formation factors), each worker a weight vector `w_w ∈ ℝ^K`
//! (diverse skills / attention to each factor) plus a decision threshold
//! `τ_w` (worker bias); the answer is a noisy linear classification:
//!
//! ```text
//! Pr(v_i^w = 'T') = σ( ⟨w_w, x_i⟩ − τ_w )
//! ```
//!
//! MAP inference by alternating gradient ascent on `x`, `w`, `τ` under
//! Gaussian priors. The estimated truth is the sign of the task's
//! projection onto the crowd's consensus direction (the mean worker
//! vector), offset by the mean threshold.
//!
//! The paper's finding — the extra machinery does *not* beat confusion
//! matrices on these datasets and costs more time (§6.3.4) — is
//! reproduced in the experiment harness. Each gradient step scores the
//! whole answer log, runs one batched sigmoid over it and accumulates
//! the gradients, at a compile-time `K` for the default `dims = 3`. In
//! perfbench's table6 (scale 0.1, one thread, median of ten runs on a
//! 2-core container) one inference takes 66.5 ms on D_Product and
//! 45.4 ms on D_PosSent, against 3.1 and 0.16 ms for D&S.

use crowd_data::TaskType;
use crowd_stats::dist::sample_gaussian;
use crowd_stats::kernels::sigmoid_slice;
use crowd_stats::{ConvergenceTracker, DMat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// Welinder et al.'s multidimensional worker/task model.
#[derive(Debug, Clone, Copy)]
pub struct Multi {
    /// Latent dimensionality `K`.
    pub dims: usize,
    /// Gradient-ascent learning rate.
    pub learning_rate: f64,
    /// Gradient steps per outer iteration.
    pub gradient_steps: usize,
    /// Precision of the Gaussian priors on `x`, `w`, `τ`.
    pub prior_precision: f64,
}

impl Default for Multi {
    fn default() -> Self {
        Self {
            dims: 3,
            learning_rate: 0.3,
            gradient_steps: 10,
            prior_precision: 0.05,
        }
    }
}

impl TruthInference for Multi {
    fn name(&self) -> &'static str {
        "Multi"
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
        let k = self.dims.max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);

        // Task embeddings: axis 0 initialised from the majority-vote
        // signal (+1 for 'T'-leaning, −1 for 'F'-leaning), other axes
        // small noise. Worker vectors start at e_0 + noise, thresholds 0.
        // Both live in flat row-major matrices (`n × K`, `m × K`) so the
        // gradient sweeps read contiguous memory; the RNG draw order
        // matches the old nested-`Vec` initialisation exactly.
        let post0 = view.majority_posteriors();
        let mut x = DMat::zeros(view.n, k);
        for i in 0..view.n {
            let row = x.row_mut(i);
            row[0] = 2.0 * post0.row(i)[0] - 1.0;
            for d in row.iter_mut().skip(1) {
                *d = sample_gaussian(&mut rng, 0.0, 0.1);
            }
        }
        let mut w = DMat::zeros(view.m, k);
        for i in 0..view.m {
            let row = w.row_mut(i);
            for d in row.iter_mut() {
                *d = sample_gaussian(&mut rng, 0.0, 0.1);
            }
            row[0] += 1.0;
        }
        let mut tau = vec![0.0f64; view.m];

        let tracker = match k {
            3 => self.ascend::<3>(view, options, x.data_mut(), w.data_mut(), &mut tau, k),
            _ => self.ascend::<0>(view, options, x.data_mut(), w.data_mut(), &mut tau, k),
        };

        // Consensus direction: mean worker vector and threshold.
        let mut u = vec![0.0f64; k];
        for wk in 0..view.m {
            for (ud, &wd) in u.iter_mut().zip(w.row(wk)) {
                *ud += wd;
            }
        }
        u.iter_mut().for_each(|d| *d /= view.m.max(1) as f64);
        let tau_bar: f64 = tau.iter().sum::<f64>() / view.m.max(1) as f64;

        // Final decode: one batched sigmoid over all task scores.
        let mut truths = vec![0u8; view.n];
        let mut scores = vec![0.0f64; view.n];
        for (task, s) in scores.iter_mut().enumerate() {
            *s = x.row(task).iter().zip(&u).map(|(a, b)| a * b).sum::<f64>() - tau_bar;
        }
        sigmoid_slice(&mut scores);
        let mut post = DMat::zeros(view.n, 2);
        for (task, &p) in scores.iter().enumerate() {
            truths[task] = if p >= 0.5 { 0 } else { 1 };
            post.row_mut(task).copy_from_slice(&[p, 1.0 - p]);
        }

        let worker_quality: Vec<WorkerQuality> = (0..view.m)
            .map(|wk| {
                // Report the skill vector; the threshold is the bias entry
                // appended so diagnostics can reconstruct the model.
                let mut s = w.row(wk).to_vec();
                s.push(tau[wk]);
                WorkerQuality::Skills(s)
            })
            .collect();

        Ok(InferenceResult {
            truths: label_answers(&truths),
            worker_quality,
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(post)),
        })
    }
}

impl Multi {
    /// Alternating gradient ascent on `x` (`n·K`), `w` (`m·K`) and `τ`
    /// until the tracker stops it, at width `K` (`K = 0`: the runtime
    /// `k`), on scratch allocated once.
    fn ascend<const K: usize>(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
        x: &mut [f64],
        w: &mut [f64],
        tau: &mut [f64],
        k: usize,
    ) -> ConvergenceTracker {
        let k = if K == 0 { k } else { K };
        let mut gx = vec![0.0f64; view.n * k];
        let mut gw = vec![0.0f64; view.m * k];
        let mut gt = vec![0.0f64; view.m];
        let mut params: Vec<f64> = Vec::with_capacity(x.len() + w.len() + tau.len());
        // One score per answer, answer-major (task rows in task order).
        let mut sig = vec![0.0f64; view.num_answers()];

        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        // Degree normalisers keep per-step movement independent of how
        // many answers an entity has — heavy workers would otherwise take
        // steps of magnitude lr·|T^w| and oscillate into clamp corners.
        let task_deg: Vec<f64> = (0..view.n)
            .map(|t| view.task_len(t).max(1) as f64)
            .collect();
        let worker_deg: Vec<f64> = (0..view.m)
            .map(|w| view.worker_len(w).max(1) as f64)
            .collect();

        loop {
            for _ in 0..self.gradient_steps {
                gx.fill(0.0);
                gw.fill(0.0);
                gt.fill(0.0);

                // Two passes over the log: the dot-product scores go
                // through one batched sigmoid sweep, then the error
                // terms accumulate in the original answer order.
                let mut scores = sig.iter_mut();
                for (task, x_row) in x.chunks_exact(k).enumerate() {
                    for (&(worker, _), s) in view.task_row(task).iter().zip(&mut scores) {
                        let worker = worker as usize;
                        let w_row = &w[worker * k..][..k];
                        *s = x_row.iter().zip(w_row).map(|(a, b)| a * b).sum::<f64>() - tau[worker];
                    }
                }
                sigmoid_slice(&mut sig);
                let mut scores = sig.iter();
                for (task, (x_row, gx_row)) in
                    x.chunks_exact(k).zip(gx.chunks_exact_mut(k)).enumerate()
                {
                    for (&(worker, label), &s) in view.task_row(task).iter().zip(&mut scores) {
                        let worker = worker as usize;
                        let target = if label == 0 { 1.0 } else { 0.0 };
                        let err = target - s;
                        let w_row = &w[worker * k..][..k];
                        for (gx_d, &w_d) in gx_row.iter_mut().zip(w_row) {
                            *gx_d += err * w_d;
                        }
                        let gw_row = &mut gw[worker * k..][..k];
                        for (gw_d, &x_d) in gw_row.iter_mut().zip(x_row) {
                            *gw_d += err * x_d;
                        }
                        gt[worker] -= err;
                    }
                }

                let lr = self.learning_rate;
                let lam = self.prior_precision;
                for ((xi, gi), &deg) in x.chunks_exact_mut(k).zip(gx.chunks_exact(k)).zip(&task_deg)
                {
                    for (x_d, &g_d) in xi.iter_mut().zip(gi) {
                        *x_d += lr * (g_d / deg - lam * *x_d);
                        *x_d = x_d.clamp(-6.0, 6.0);
                    }
                }
                // The worker prior is centred at e_0 (a competent,
                // unbiased worker); it also anchors the global sign
                // symmetry (x, w) → (−x, −w) to the MV-aligned branch.
                for ((wi, gi), &deg) in w
                    .chunks_exact_mut(k)
                    .zip(gw.chunks_exact(k))
                    .zip(&worker_deg)
                {
                    for (d, (w_d, &g_d)) in wi.iter_mut().zip(gi).enumerate() {
                        let prior_mean = if d == 0 { 1.0 } else { 0.0 };
                        *w_d += lr * (g_d / deg - lam * (*w_d - prior_mean));
                        *w_d = w_d.clamp(-6.0, 6.0);
                    }
                }
                for ((ti, gi), &deg) in tau.iter_mut().zip(&gt).zip(&worker_deg) {
                    *ti += lr * (-gi / deg - lam * *ti);
                    *ti = ti.clamp(-4.0, 4.0);
                }
            }

            params.clear();
            params.extend_from_slice(x);
            params.extend_from_slice(w);
            params.extend_from_slice(tau);
            if tracker.step(&params) {
                break;
            }
        }
        tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy() {
        let d = toy();
        let r = Multi::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn good_on_balanced_decision_data() {
        let d = crowd_data::datasets::PaperDataset::DPosSent.generate(0.2, 19);
        assert_accuracy_at_least(&Multi::default(), &d, 0.85);
    }

    #[test]
    fn acceptable_on_imbalanced_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Multi::default(), &d, 0.75);
    }

    #[test]
    fn skill_vectors_have_dims_plus_bias() {
        let d = toy();
        let m = Multi {
            dims: 4,
            ..Default::default()
        };
        let r = m.infer(&d, &InferenceOptions::seeded(0)).unwrap();
        for q in &r.worker_quality {
            let WorkerQuality::Skills(s) = q else {
                panic!()
            };
            assert_eq!(s.len(), 5);
        }
    }

    #[test]
    fn rejects_single_choice_and_numeric() {
        assert!(Multi::default()
            .infer(&small_single(), &InferenceOptions::default())
            .is_err());
        assert!(Multi::default()
            .infer(&small_numeric(), &InferenceOptions::default())
            .is_err());
    }
}
