//! Minimax — minimax entropy (Zhou, Basu, Mao & Platt, NIPS 2012).
//!
//! The optimization method with *diverse skills* (Table 4): the answers
//! worker `w` gives on task `i` are modelled by a per-(task, worker)
//! distribution from an exponential family with task multipliers `τ_i[k]`
//! and worker multipliers `σ_w[j][k]` (given truth `j`):
//!
//! ```text
//! π_iw^j(k) ∝ exp( τ_i[k] + σ_w[j][k] )
//! ```
//!
//! Minimax entropy chooses the truth distribution minimising the maximum
//! entropy of the answer model subject to moment constraints — per task,
//! the expected counts of each choice match the observed counts, and per
//! worker, the expected (truth, answer) counts match (Section 5.2(3)).
//! We implement the regularised dual: alternating between
//!
//! 1. updating the truth posterior `q_i(j) ∝ exp( Σ_{w∈W_i}
//!    ln π_iw^j(v_i^w) )`, and
//! 2. dual gradient ascent on `τ` and `σ` matching observed to expected
//!    counts (with L2 regularisation, as in the authors' "regularised
//!    minimax conditional entropy" follow-up).

use crowd_data::TaskType;
use crowd_stats::kernels::{self, log_normalize, log_normalize_rows_flat, log_sum_exp_rows_flat};
use crowd_stats::{ConvergenceTracker, DMat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// Minimax entropy truth inference.
#[derive(Debug, Clone, Copy)]
pub struct Minimax {
    /// Dual gradient-ascent learning rate.
    pub learning_rate: f64,
    /// Gradient steps per outer iteration.
    pub gradient_steps: usize,
    /// L2 regularisation on the per-task multipliers `τ`. Must be strong:
    /// a task sees only `r` answers, so an unregularised `τ_i` can absorb
    /// the observed counts entirely and wipe out the worker signal (the
    /// slack the regularised minimax-entropy formulation introduces on
    /// the task constraints).
    pub l2_tau: f64,
    /// L2 regularisation on the per-worker multipliers `σ`.
    pub l2_sigma: f64,
}

impl Default for Minimax {
    fn default() -> Self {
        Self {
            learning_rate: 0.3,
            gradient_steps: 10,
            l2_tau: 2.0,
            l2_sigma: 0.05,
        }
    }
}

impl TruthInference for Minimax {
    fn name(&self) -> &'static str {
        "Minimax"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
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

        // Flat-memory multipliers: τ is `n × ℓ`, σ packs every worker's
        // `ℓ × ℓ` block as rows `w·ℓ + j` of one `(m·ℓ) × ℓ` matrix —
        // the same layout the D&S confusion tables use. The gradient
        // matrices are allocated once and refilled per step; the old
        // nested-`Vec` form allocated `n + m·(ℓ+1)` vectors per gradient
        // step and one ℓ-vector per (answer, j) model evaluation, which
        // dominated Minimax's wall time.
        let mut tau = DMat::zeros(view.n, l);
        let mut sigma = DMat::zeros(view.m * l, l);
        // Break the label-permutation symmetry: seed σ diagonals positive.
        for w in 0..view.m {
            for j in 0..l {
                sigma[(w * l + j, j)] = 1.0;
            }
        }
        let mut grad_tau = DMat::zeros(view.n, l);
        let mut grad_sigma = DMat::zeros(view.m * l, l);
        // Per-task list of the truth hypotheses with non-negligible
        // posterior mass, as `(j, q_i(j))` in ascending-`j` order. The
        // posterior is fixed for the whole dual-ascent pass, so the
        // `q_i(j) < 1e-9` skip the old code evaluated per (answer, j)
        // is hoisted here and rebuilt once per outer iteration — the
        // surviving (answer, j) pairs and their visit order are
        // unchanged.
        let mut active: Vec<(u8, f64)> = Vec::with_capacity(view.n * l);
        let mut active_off: Vec<usize> = vec![0; view.n + 1];
        // Flat batch of ℓ-wide model rows (one per (answer, hypothesis)
        // pair) and their log-sum-exps: the hot passes gather many rows
        // into this scratch and softmax/lse them with one batched
        // kernel call instead of one dispatch per row. Sized once for
        // the largest flush ([`ROW_BLOCK`] rows, or one task's worth if
        // a task alone exceeds the block).
        let task_rows = l * view.max_task_degree();
        let mut row_buf = vec![0.0; ROW_BLOCK.max(task_rows) * l];
        let mut lse_buf = vec![0.0; task_rows];

        let mut post = view.majority_posteriors();
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        // Degree normalisers: keep step sizes independent of how many
        // answers a task/worker has.
        let task_deg: Vec<f64> = (0..view.n)
            .map(|t| view.task_len(t).max(1) as f64)
            .collect();
        let worker_deg: Vec<f64> = (0..view.m)
            .map(|w| view.worker_len(w).max(1) as f64)
            .collect();

        let mut st = State {
            tau: &mut tau,
            sigma: &mut sigma,
            grad_tau: &mut grad_tau,
            grad_sigma: &mut grad_sigma,
            post: &mut post,
            active: &mut active,
            active_off: &mut active_off,
            task_deg: &task_deg,
            worker_deg: &worker_deg,
            row_buf: &mut row_buf,
            lse_buf: &mut lse_buf,
        };
        loop {
            // Rebuild the active-hypothesis lists under the current
            // posterior (see `active` above).
            st.active.clear();
            for task in 0..view.n {
                for (j, &qj) in st.post.row(task).iter().enumerate() {
                    if qj >= 1e-9 {
                        st.active.push((j as u8, qj));
                    }
                }
                st.active_off[task + 1] = st.active.len();
            }

            // ℓ = 4 gets a constant width: S_Rel and S_Adult, the two
            // slowest Minimax cells of table6, run measurably faster with
            // it than at `L = 0`. Every other ℓ, the paper's ℓ = 2
            // included, runs the same bodies at `L = 0`: an ℓ = 2 arm
            // moved its cells by less than their run-to-run spread.
            match l {
                4 => {
                    dual_ascent::<4>(self, view, &mut st);
                    truth_update::<4>(view, &mut st);
                }
                _ => {
                    dual_ascent::<0>(self, view, &mut st);
                    truth_update::<0>(view, &mut st);
                }
            }
            view.clamp_golden(st.post);

            if tracker.step(st.post.data()) {
                break;
            }
        }

        // Worker quality: the diagonal pull of σ (diverse-skill summary).
        let worker_quality: Vec<WorkerQuality> = (0..view.m)
            .map(|w| {
                let skills: Vec<f64> = (0..l).map(|j| sigma.row(w * l + j)[j]).collect();
                WorkerQuality::Skills(skills)
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality,
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(post)),
        })
    }
}

/// The mutable EM state threaded through the hot passes, one struct so
/// the borrow checker still sees disjoint fields inside them.
struct State<'a> {
    tau: &'a mut DMat,
    sigma: &'a mut DMat,
    grad_tau: &'a mut DMat,
    grad_sigma: &'a mut DMat,
    post: &'a mut DMat,
    active: &'a mut Vec<(u8, f64)>,
    active_off: &'a mut [usize],
    task_deg: &'a [f64],
    worker_deg: &'a [f64],
    row_buf: &'a mut [f64],
    lse_buf: &'a mut [f64],
}

/// Rows gathered per batched-softmax flush in the dual ascent. Large
/// enough to amortise the kernel dispatch and make the sub-vector
/// remainder negligible, small enough to stay L1-resident (512 rows ×
/// 4 lanes × 8 B = 16 KB).
const ROW_BLOCK: usize = 512;

/// The regularised multiplier updates after one gradient accumulation
/// (cold relative to the accumulation itself, so not width-generic).
fn update_multipliers(mm: &Minimax, view: &ShardedView, st: &mut State) {
    let l = st.tau.cols();
    for t in 0..view.n {
        let g = st.grad_tau.row(t);
        let deg = st.task_deg[t];
        let tau_row = st.tau.row_mut(t);
        for k in 0..l {
            tau_row[k] += mm.learning_rate * (g[k] / deg - mm.l2_tau * tau_row[k]);
            tau_row[k] = tau_row[k].clamp(-6.0, 6.0);
        }
    }
    for w in 0..view.m {
        let deg = st.worker_deg[w];
        for j in 0..l {
            let g = st.grad_sigma.row(w * l + j);
            let sig_row = st.sigma.row_mut(w * l + j);
            for k in 0..l {
                sig_row[k] += mm.learning_rate * (g[k] / deg - mm.l2_sigma * sig_row[k]);
                sig_row[k] = sig_row[k].clamp(-6.0, 6.0);
            }
        }
    }
}

/// One dual-ascent pass (`gradient_steps` accumulate/update rounds) at
/// width `L` (`L = 0`: the runtime ℓ).
///
/// Tasks are processed in blocks whose (answer, hypothesis) model rows
/// fill [`ROW_BLOCK`]; each block is softmaxed with one
/// [`log_normalize_rows_flat`] call, which gives every row the bits it
/// would get alone, so the gradient accumulation matches a
/// softmax-per-pair loop exactly while the kernel dispatch (and under
/// `fast-math-avx2` the `#[target_feature]` region, with the per-row
/// `ln` vectorised across rows) is paid once per block.
fn dual_ascent<const L: usize>(mm: &Minimax, view: &ShardedView, st: &mut State) {
    let l = if L == 0 { st.tau.cols() } else { L };
    for _ in 0..mm.gradient_steps {
        st.grad_tau.fill(0.0);
        st.grad_sigma.fill(0.0);

        let mut start = 0;
        while start < view.n {
            // A task whose rows alone exceed the block is a block of its
            // own (the scratch was sized for it in `infer_sharded`).
            let mut rows = 0usize;
            let mut end = start;
            while end < view.n {
                let need = (st.active_off[end + 1] - st.active_off[end]) * view.task_len(end);
                if rows > 0 && rows + need > ROW_BLOCK {
                    break;
                }
                rows += need;
                end += 1;
            }

            let block = &mut st.row_buf[..rows * l];
            let mut out = block.chunks_exact_mut(l);
            for task in start..end {
                let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
                let tau_row = &st.tau.row(task)[..l];
                for &(worker, _) in view.task_row(task) {
                    let base = worker as usize * l;
                    for &(j, _) in acts {
                        // Model distribution for this (i, w, j).
                        let sig_row = &st.sigma.row(base + j as usize)[..l];
                        let row = out.next().expect("one scratch row per pair");
                        for ((x, &t), &s) in row.iter_mut().zip(tau_row).zip(sig_row) {
                            *x = t + s;
                        }
                    }
                }
            }
            log_normalize_rows_flat(l, block); // now probabilities

            let mut probs = block.chunks_exact(l);
            for task in start..end {
                let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
                let gt_row = &mut st.grad_tau.row_mut(task)[..l];
                for &(worker, label) in view.task_row(task) {
                    let base = worker as usize * l;
                    for &(j, qj) in acts {
                        let row = probs.next().expect("one row per (answer, hypothesis) pair");
                        let gs_row = &mut st.grad_sigma.row_mut(base + j as usize)[..l];
                        for (k, ((&p, gt), gs)) in
                            row.iter().zip(gt_row.iter_mut()).zip(gs_row).enumerate()
                        {
                            let obs = if k == label as usize { 1.0 } else { 0.0 };
                            let diff = qj * (obs - p);
                            *gt += diff;
                            *gs += diff;
                        }
                    }
                }
            }

            start = end;
        }

        update_multipliers(mm, view, st);
    }
}

/// Truth update at width `L` (`L = 0`: the runtime ℓ). Only the
/// answered label's model probability is needed, so per (answer, j) the
/// pass evaluates the log-sum-exp of the model row once and
/// exponentiates a single element — the same values the full
/// row-normalise produced, minus ℓ−1 unused `exp`s and `ln`s per row.
fn truth_update<const L: usize>(view: &ShardedView, st: &mut State) {
    let l = if L == 0 { st.tau.cols() } else { L };
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    let mut fused_rows = 0u64;
    for task in 0..view.n {
        if view.golden()[task].is_some() || view.task_len(task) == 0 {
            continue;
        }
        fused_rows += 1;
        let answers = view.task_row(task);
        let tau_row = &st.tau.row(task)[..l];
        // Gather the ℓ model rows of every answer into one flat batch
        // and log-sum-exp them in a single kernel call. The scratch was
        // sized in `infer_sharded` for the largest task.
        let rows = answers.len() * l;
        let block = &mut st.row_buf[..rows * l];
        let mut out = block.chunks_exact_mut(l);
        for &(worker, _) in answers {
            let base = worker as usize * l;
            for j in 0..l {
                let sig_row = &st.sigma.row(base + j)[..l];
                let row = out.next().expect("one scratch row per (answer, j)");
                for ((x, &t), &s) in row.iter_mut().zip(tau_row).zip(sig_row) {
                    *x = t + s;
                }
            }
        }
        let lses = &mut st.lse_buf[..rows];
        log_sum_exp_rows_flat(l, block, lses);

        let logp = &mut st.post.row_mut(task)[..l];
        logp.fill(0.0);
        for (r, &(_, label)) in answers.iter().enumerate() {
            for (j, lp) in logp.iter_mut().enumerate() {
                let lse = lses[r * l + j];
                // Mirror log_normalize's degenerate-input branch
                // (all -inf → uniform mass).
                let p = if lse.is_finite() {
                    kernels::exp(block[(r * l + j) * l + label as usize] - lse)
                } else {
                    1.0 / l as f64
                };
                *lp += kernels::safe_ln(p);
            }
        }
        log_normalize(logp);
    }
    crate::methods::obs_fused_rows().add(fused_rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;

    #[test]
    fn reasonable_on_toy() {
        let d = toy();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn decent_on_decision_data() {
        // Table 6 shape: Minimax is the weakest non-VI method on the
        // imbalanced D_Product (84.1% vs MV's 89.7%); the simulated
        // dataset reproduces a Minimax < MV gap.
        let d = small_decision();
        assert_accuracy_at_least(&Minimax::default(), &d, 0.62);
    }

    #[test]
    fn handles_single_choice() {
        let d = small_single();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.30, "Minimax single-choice accuracy {acc}");
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.2, 5);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(5)
        };
        let r = Minimax::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn six_choice_fallback_runs() {
        // ℓ = 6 has no width arm of its own, so this runs the `L = 0`
        // bodies end to end.
        use crowd_data::{DatasetBuilder, TaskType};
        let mut b = DatasetBuilder::new("six", TaskType::SingleChoice { choices: 6 }, 12, 5);
        for t in 0..12usize {
            let truth = (t % 6) as u8;
            b.set_truth_label(t, truth).unwrap();
            for w in 0..5usize {
                let noisy = if (t + w) % 4 == 0 {
                    (truth + 1) % 6
                } else {
                    truth
                };
                b.add_label(t, w, noisy).unwrap();
            }
        }
        let d = b.build();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(9))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.5, "6-choice accuracy {acc}");
    }

    #[test]
    fn skills_reported_per_class() {
        let d = small_single();
        let r = Minimax::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        for q in &r.worker_quality {
            let WorkerQuality::Skills(s) = q else {
                panic!("expected skills")
            };
            assert_eq!(s.len(), 4);
        }
    }
}
