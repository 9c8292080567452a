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

use crowd_data::{Dataset, TaskType};
use crowd_stats::kernels::{self, log_normalize, log_normalize_rows_flat, log_sum_exp_rows_flat};
use crowd_stats::{ConvergenceTracker, DMat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_common, InferenceError, InferenceOptions, InferenceResult, TruthInference,
    WorkerQuality,
};
use crate::views::Cat;

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

    fn infer(
        &self,
        dataset: &Dataset,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_common(
            self.name(),
            dataset,
            options,
            self.supports(dataset.task_type()),
        )?;
        let cat = Cat::build(self.name(), dataset, options, true)?;
        let l = cat.l;

        // Flat-memory multipliers: τ is `n × ℓ`, σ packs every worker's
        // `ℓ × ℓ` block as rows `w·ℓ + j` of one `(m·ℓ) × ℓ` matrix —
        // the same layout the D&S confusion tables use. The gradient
        // matrices are allocated once and refilled per step; the old
        // nested-`Vec` form allocated `n + m·(ℓ+1)` vectors per gradient
        // step and one ℓ-vector per (answer, j) model evaluation, which
        // dominated Minimax's wall time.
        let mut tau = DMat::zeros(cat.n, l);
        let mut sigma = DMat::zeros(cat.m * l, l);
        // Break the label-permutation symmetry: seed σ diagonals positive.
        for w in 0..cat.m {
            for j in 0..l {
                sigma[(w * l + j, j)] = 1.0;
            }
        }
        let mut grad_tau = DMat::zeros(cat.n, l);
        let mut grad_sigma = DMat::zeros(cat.m * l, l);
        // Scratch for one posterior row (dynamic-width fallback).
        let mut logp = vec![0.0f64; l];
        // Per-task list of the truth hypotheses with non-negligible
        // posterior mass, as `(j, q_i(j))` in ascending-`j` order. The
        // posterior is fixed for the whole dual-ascent pass, so the
        // `q_i(j) < 1e-9` skip the old code evaluated per (answer, j)
        // is hoisted here and rebuilt once per outer iteration — the
        // surviving (answer, j) pairs and their visit order are
        // unchanged.
        let mut active: Vec<(u8, f64)> = Vec::with_capacity(cat.n * l);
        let mut active_off: Vec<usize> = vec![0; cat.n + 1];
        // Flat batch of ℓ-wide model rows (one per (answer, hypothesis)
        // pair) and their log-sum-exps: the hot passes gather many rows
        // into this scratch and softmax/lse them with one batched
        // kernel call instead of one dispatch per row. Sized once for
        // the largest flush ([`ROW_BLOCK`] rows, or one task's worth if
        // a task alone exceeds the block).
        let max_task_len = (0..cat.n).map(|t| cat.task_len(t)).max().unwrap_or(0);
        let mut row_buf: Vec<f64> = vec![0.0; ROW_BLOCK.max(l * max_task_len) * l];
        let mut lse_buf: Vec<f64> = vec![0.0; l * max_task_len];

        let mut post = cat.majority_posteriors();
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        // Degree normalisers: keep step sizes independent of how many
        // answers a task/worker has.
        let task_deg: Vec<f64> = (0..cat.n).map(|t| cat.task_len(t).max(1) as f64).collect();
        let worker_deg: Vec<f64> = (0..cat.m)
            .map(|w| cat.worker_len(w).max(1) as f64)
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
            for task in 0..cat.n {
                for (j, &qj) in st.post.row(task).iter().enumerate() {
                    if qj >= 1e-9 {
                        st.active.push((j as u8, qj));
                    }
                }
                st.active_off[task + 1] = st.active.len();
            }

            // The two hot passes are specialised by ℓ so the model rows
            // live in fixed-size stack arrays (no bounds checks, unrolled
            // lanes); every dataset in the benchmark has ℓ ∈ {2, 3, 4}.
            // The dynamic fallback performs the identical operations in
            // the identical order on slices for any other ℓ (exercised by
            // the `six_choice_fallback_runs` test).
            match l {
                2 => {
                    dual_ascent::<2>(self, &cat, &mut st);
                    truth_update::<2>(&cat, &mut st);
                }
                3 => {
                    dual_ascent::<3>(self, &cat, &mut st);
                    truth_update::<3>(&cat, &mut st);
                }
                4 => {
                    dual_ascent::<4>(self, &cat, &mut st);
                    truth_update::<4>(&cat, &mut st);
                }
                _ => {
                    dual_ascent_dyn(self, &cat, &mut st);
                    truth_update_dyn(&cat, &mut st, &mut logp);
                }
            }
            cat.clamp_golden(st.post);

            if tracker.step(st.post.data()) {
                break;
            }
        }

        // Worker quality: the diagonal pull of σ (diverse-skill summary).
        let worker_quality: Vec<WorkerQuality> = (0..cat.m)
            .map(|w| {
                let skills: Vec<f64> = (0..l).map(|j| sigma.row(w * l + j)[j]).collect();
                WorkerQuality::Skills(skills)
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = cat.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: Cat::answers(&labels),
            worker_quality,
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(post)),
        })
    }
}

/// The mutable EM state threaded through the hot passes. Keeping the
/// matrices behind one struct lets the specialised and dynamic passes
/// share a signature while the borrow checker still sees disjoint
/// fields.
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
    row_buf: &'a mut Vec<f64>,
    lse_buf: &'a mut Vec<f64>,
}

/// Rows gathered per batched-softmax flush in the specialised hot
/// passes. Large enough to amortise the kernel dispatch and make the
/// sub-vector remainder negligible, small enough to stay L1-resident
/// (512 rows × 4 lanes × 8 B = 16 KB).
const ROW_BLOCK: usize = 512;

/// The regularised multiplier updates after one gradient accumulation
/// (cold relative to the accumulation itself, so kept dynamic and
/// shared by both paths).
fn update_multipliers(mm: &Minimax, cat: &Cat, st: &mut State) {
    let l = st.tau.cols();
    for t in 0..cat.n {
        let g = st.grad_tau.row(t);
        let deg = st.task_deg[t];
        let tau_row = st.tau.row_mut(t);
        for k in 0..l {
            tau_row[k] += mm.learning_rate * (g[k] / deg - mm.l2_tau * tau_row[k]);
            tau_row[k] = tau_row[k].clamp(-6.0, 6.0);
        }
    }
    for w in 0..cat.m {
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

/// One dual-ascent pass (`gradient_steps` accumulate/update rounds),
/// specialised by ℓ: model rows are `[f64; L]` stack arrays and every
/// row borrow is a checked-once fixed-width conversion. Arithmetic and
/// evaluation order match [`dual_ascent_dyn`] exactly.
///
/// Per task, the (answer, hypothesis) model rows are gathered into one
/// flat batch and softmaxed with a single
/// [`log_normalize_rows_flat`] call — the values and the gradient
/// accumulation order are exactly those of the old softmax-per-pair
/// loop, but the kernel dispatch (and under `fast-math-avx2` the
/// whole `#[target_feature]` region, with the per-row `ln` vectorised
/// across rows) is paid once per task instead of once per pair.
fn dual_ascent<const L: usize>(mm: &Minimax, cat: &Cat, st: &mut State) {
    for _ in 0..mm.gradient_steps {
        st.grad_tau.fill(0.0);
        st.grad_sigma.fill(0.0);

        // Tasks are processed in blocks whose model rows fill
        // [`ROW_BLOCK`] (the scratch was sized in `infer`): one batched
        // softmax per block amortises the kernel dispatch over ~hundreds
        // of rows and leaves at most 3 sub-vector remainder rows per
        // flush instead of per task.
        let mut start = 0;
        while start < cat.n {
            let mut rows = 0usize;
            let mut end = start;
            while end < cat.n {
                let need = (st.active_off[end + 1] - st.active_off[end]) * cat.task_len(end);
                if rows > 0 && rows + need > ROW_BLOCK {
                    break;
                }
                rows += need;
                end += 1;
            }

            let mut out = st.row_buf[..rows * L].chunks_exact_mut(L);
            for task in start..end {
                let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
                let tau_row: &[f64; L] = st.tau.row(task).try_into().expect("row width ℓ");
                for &(worker, _) in cat.task_row(task) {
                    let base = worker as usize * L;
                    for &(j, _) in acts.iter() {
                        // Model distribution for this (i, w, j).
                        let sig_row: &[f64; L] = st
                            .sigma
                            .row(base + j as usize)
                            .try_into()
                            .expect("row width ℓ");
                        let row: &mut [f64; L] = out
                            .next()
                            .expect("scratch row")
                            .try_into()
                            .expect("width ℓ");
                        for k in 0..L {
                            row[k] = tau_row[k] + sig_row[k];
                        }
                    }
                }
            }
            log_normalize_rows_flat(L, &mut st.row_buf[..rows * L]); // now probabilities

            let mut lps = st.row_buf[..rows * L].chunks_exact(L);
            for task in start..end {
                let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
                let gt_row: &mut [f64; L] =
                    st.grad_tau.row_mut(task).try_into().expect("row width ℓ");
                for &(worker, label) in cat.task_row(task) {
                    let base = worker as usize * L;
                    for &(j, qj) in acts.iter() {
                        let lp: &[f64; L] = lps
                            .next()
                            .expect("one row per (answer, hypothesis) pair")
                            .try_into()
                            .expect("row width ℓ");
                        let gs_row: &mut [f64; L] = st
                            .grad_sigma
                            .row_mut(base + j as usize)
                            .try_into()
                            .expect("row width ℓ");
                        for k in 0..L {
                            let obs = if k == label as usize { 1.0 } else { 0.0 };
                            let diff = qj * (obs - lp[k]);
                            gt_row[k] += diff;
                            gs_row[k] += diff;
                        }
                    }
                }
            }

            start = end;
        }

        update_multipliers(mm, cat, st);
    }
}

/// Dynamic-width fallback for [`dual_ascent`] (ℓ outside the
/// specialised range): same operations, same order, slice-based.
fn dual_ascent_dyn(mm: &Minimax, cat: &Cat, st: &mut State) {
    let l = st.tau.cols();
    for _ in 0..mm.gradient_steps {
        st.grad_tau.fill(0.0);
        st.grad_sigma.fill(0.0);

        for task in 0..cat.n {
            let acts = &st.active[st.active_off[task]..st.active_off[task + 1]];
            let answers = cat.task_row(task);
            if acts.is_empty() || answers.is_empty() {
                continue;
            }
            let tau_row = st.tau.row(task);
            st.row_buf.clear();
            st.row_buf.reserve(answers.len() * acts.len() * l);
            for &(worker, _) in answers {
                let base = worker as usize * l;
                for &(j, _) in acts.iter() {
                    let sig_row = st.sigma.row(base + j as usize);
                    for (&t, &s) in tau_row.iter().zip(sig_row) {
                        st.row_buf.push(t + s);
                    }
                }
            }
            log_normalize_rows_flat(l, st.row_buf); // now probabilities

            let gt_row = st.grad_tau.row_mut(task);
            let mut rows = st.row_buf.chunks_exact(l);
            for &(worker, label) in answers {
                let base = worker as usize * l;
                for &(j, qj) in acts.iter() {
                    let lp = rows.next().expect("one row per (answer, hypothesis) pair");
                    let gs_row = st.grad_sigma.row_mut(base + j as usize);
                    for (k, ((&p, gt), gs)) in lp
                        .iter()
                        .zip(gt_row.iter_mut())
                        .zip(gs_row.iter_mut())
                        .enumerate()
                    {
                        let obs = if k == label as usize { 1.0 } else { 0.0 };
                        let diff = qj * (obs - p);
                        *gt += diff;
                        *gs += diff;
                    }
                }
            }
        }

        update_multipliers(mm, cat, st);
    }
}

/// Truth update, specialised by ℓ. Only the answered label's model
/// probability is needed, so per (answer, j) the pass evaluates the
/// log-sum-exp of the model row once and exponentiates a single
/// element — the same values the full row-normalise produced, minus
/// ℓ−1 unused `exp`s and `ln`s per row.
fn truth_update<const L: usize>(cat: &Cat, st: &mut State) {
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    let mut fused_rows = 0u64;
    for task in 0..cat.n {
        if cat.golden[task].is_some() || cat.task_len(task) == 0 {
            continue;
        }
        fused_rows += 1;
        let answers = cat.task_row(task);
        let tau_row: &[f64; L] = st.tau.row(task).try_into().expect("row width ℓ");
        // Gather the ℓ model rows of every answer into one flat batch
        // and log-sum-exp them in a single kernel call; only the
        // answered label's probability is read out afterwards. The
        // scratch was sized in `infer` for the largest task.
        let rows = answers.len() * L;
        let mut out = st.row_buf[..rows * L].chunks_exact_mut(L);
        for &(worker, _) in answers {
            let base = worker as usize * L;
            for j in 0..L {
                let sig_row: &[f64; L] = st.sigma.row(base + j).try_into().expect("row width ℓ");
                let row: &mut [f64; L] = out
                    .next()
                    .expect("scratch row")
                    .try_into()
                    .expect("width ℓ");
                for k in 0..L {
                    row[k] = tau_row[k] + sig_row[k];
                }
            }
        }
        log_sum_exp_rows_flat(L, &st.row_buf[..rows * L], &mut st.lse_buf[..rows]);

        let mut logp = [0.0f64; L];
        for (r, &(_, label)) in answers.iter().enumerate() {
            for (j, lp) in logp.iter_mut().enumerate() {
                let lse = st.lse_buf[r * L + j];
                // Mirror log_normalize's degenerate-input branch
                // (all -inf → uniform mass).
                let p = if lse.is_finite() {
                    kernels::exp(st.row_buf[(r * L + j) * L + label as usize] - lse)
                } else {
                    1.0 / L as f64
                };
                *lp += kernels::safe_ln(p);
            }
        }
        log_normalize(&mut logp);
        st.post.row_mut(task).copy_from_slice(&logp);
    }
    crate::methods::obs_fused_rows().add(fused_rows);
}

/// Dynamic-width fallback for [`truth_update`].
fn truth_update_dyn(cat: &Cat, st: &mut State, logp: &mut [f64]) {
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    let mut fused_rows = 0u64;
    let l = st.tau.cols();
    for task in 0..cat.n {
        if cat.golden[task].is_some() || cat.task_len(task) == 0 {
            continue;
        }
        fused_rows += 1;
        let answers = cat.task_row(task);
        let tau_row = st.tau.row(task);
        st.row_buf.clear();
        st.row_buf.reserve(answers.len() * l * l);
        for &(worker, _) in answers {
            let base = worker as usize * l;
            for j in 0..l {
                let sig_row = st.sigma.row(base + j);
                for (&t, &s) in tau_row.iter().zip(sig_row) {
                    st.row_buf.push(t + s);
                }
            }
        }
        st.lse_buf.clear();
        st.lse_buf.resize(answers.len() * l, 0.0);
        log_sum_exp_rows_flat(l, st.row_buf, st.lse_buf);

        logp.fill(0.0);
        for (r, &(_, label)) in answers.iter().enumerate() {
            for (j, lp) in logp.iter_mut().enumerate() {
                let lse = st.lse_buf[r * l + j];
                let p = if lse.is_finite() {
                    kernels::exp(st.row_buf[(r * l + j) * l + label as usize] - lse)
                } else {
                    1.0 / l as f64
                };
                *lp += kernels::safe_ln(p);
            }
        }
        log_normalize(logp);
        st.post.row_mut(task).copy_from_slice(logp);
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
        // ℓ = 6 is outside the specialised dispatch range, so this
        // exercises the dynamic-width passes end to end.
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
        assert!(acc > 0.5, "6-choice fallback accuracy {acc}");
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
