//! GLAD — Whitehill et al. (NIPS 2009): "Whose vote should count more".
//!
//! The only method in the benchmark with a *task model* besides Minimax:
//! each task has a difficulty `1/β_i` (`β_i > 0`, larger = easier) and
//! each worker an ability `α_w ∈ ℝ`; the probability a worker answers
//! correctly is `σ(α_w · β_i)` (Section 4.1.1). Errors spread uniformly
//! over the remaining `ℓ − 1` choices (the standard multi-class
//! generalisation). Inference is EM with gradient ascent in the M-step —
//! which is also why GLAD is orders of magnitude slower than D&S in
//! Table 6.

use crowd_data::{Dataset, TaskType};
use crowd_stats::kernels;
use crowd_stats::{
    exp_map_into, fused_two_term_rows, ln_map_into, sigmoid_map_into, ConvergenceTracker,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_common, InferenceError, InferenceOptions, InferenceResult, TruthInference,
    WorkerQuality,
};
use crate::views::{initial_accuracy, Cat, ShardedView};

/// GLAD: worker ability × task difficulty EM.
///
/// ## Iteration cap at benchmark scale
///
/// At `CROWD_BENCH_SCALE=0.1`, GLAD reports `converged: false` at the
/// 100-iteration cap on the larger datasets (D_Product, S_Rel,
/// S_Adult) while converging on the small D_PosSent. This is expected,
/// not a defect: the shared [`ConvergenceTracker`] watches the mean
/// absolute change of the full parameter vector `(α, ln β)`, and with
/// thousands of per-task difficulties each nudged by
/// `learning_rate · ∂Q/∂ln β` every M-step under only a weak Gaussian
/// pull (`prior_precision = 0.01`), the mean parameter motion decays
/// slowly — `ln β` keeps creeping long after the label posteriors have
/// stabilised (the labels at the cap are pinned by the equivalence
/// fixtures). A larger step size makes the gradient ascent oscillate
/// against the ±8/±4 clamps instead of settling, and a smaller one
/// converges even later, so the cap is the documented operating point;
/// the bench artifact records the cap (`max_iterations`) and the
/// regression gate fails any row that *was* converging and stops
/// (`crowd-bench-check`'s converged-flip rule), which fences this
/// documented state from silently spreading.
#[derive(Debug, Clone, Copy)]
pub struct Glad {
    /// Gradient-ascent learning rate in the M-step.
    pub learning_rate: f64,
    /// Gradient steps per M-step.
    pub gradient_steps: usize,
    /// Gaussian prior precision pulling `α_w` toward 1 and `ln β_i`
    /// toward 0 (regularisation used in the reference implementation).
    pub prior_precision: f64,
}

impl Default for Glad {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            gradient_steps: 12,
            prior_precision: 0.01,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + kernels::exp(-x))
    } else {
        let e = kernels::exp(x);
        e / (1.0 + e)
    }
}

/// The [`fused_two_term_rows`] terms of one task row, read from the
/// row's slices `lc`/`lw` of the answer-major correct/wrong log tables:
/// `None` for a golden task (stays clamped) or an unanswered one (stays
/// uniform), else `(label, lc[i], lw[i])` per answer.
fn answer_terms<'a>(
    golden: Option<u8>,
    answers: &'a [(u32, u8)],
    lc: &'a [f64],
    lw: &'a [f64],
) -> Option<impl Iterator<Item = (usize, f64, f64)> + 'a> {
    if golden.is_some() || answers.is_empty() {
        return None;
    }
    Some(
        answers
            .iter()
            .zip(lc.iter().zip(lw))
            .map(|(&(_, label), (&c, &w))| (label as usize, c, w)),
    )
}

impl TruthInference for Glad {
    fn name(&self) -> &'static str {
        "GLAD"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
    }

    fn supports_qualification(&self) -> bool {
        true
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
        let view = ShardedView::build(self.name(), dataset, options, true)?;
        self.infer_sharded(&view, options)
    }
}

impl Glad {
    /// Run GLAD on a prebuilt flat view: [`Self::infer_sharded`] on its
    /// one-shard copy (see `Ds::infer_view`).
    pub fn infer_view(
        &self,
        cat: &Cat,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.infer_sharded(&ShardedView::from_cat(cat, 1), options)
    }

    /// Run GLAD on a task-range sharded view. GLAD is task-major
    /// throughout — the E-step posterior accumulation, the σ table
    /// fills, and the M-step gradient scatter all walk task rows in
    /// ascending task order and never a worker row — so iterating shards
    /// in ascending order with a global answer cursor (the shard's
    /// [`ShardedView::shard_entry_offset`]) visits every answer in the
    /// same order at any shard count. The per-shard E/M passes are timed
    /// into the `core.shard.*` histograms.
    ///
    /// A warm start resumes the worker abilities `α_w` (recovered from
    /// the previous run's reported `σ(α_w)`); task difficulties `β_i`
    /// restart at 1 — they are not part of the reported state — so GLAD
    /// re-converges warm on the worker side only.
    pub fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        if view.num_answers() == 0 {
            return Err(InferenceError::EmptyDataset);
        }
        crate::framework::validate_view_options(view.m, options)?;
        let lm1 = (view.l - 1).max(1) as f64;

        // α_w from qualification accuracy via the inverse of σ at β = 1
        // (log-odds against uniform error), else 1.0.
        let init_acc = initial_accuracy(options, view.m, sigmoid(1.0));
        let mut alpha: Vec<f64> = init_acc
            .iter()
            .map(|&a| kernels::ln(a / (1.0 - a)).clamp(-4.0, 4.0))
            .collect();
        if let Some(warm) = &options.warm_start {
            for (w, a) in alpha.iter_mut().enumerate() {
                if let Some(p) = warm.worker_quality.get(w).and_then(WorkerQuality::scalar) {
                    // σ⁻¹ round-trips the reported quality back to α; the
                    // wider clamp matches the loop's own ±8 bound.
                    let p = p.clamp(1e-4, 1.0 - 1e-4);
                    *a = kernels::ln(p / (1.0 - p)).clamp(-8.0, 8.0);
                }
            }
        }
        // ln β_i = 0 (difficulty 1).
        let mut log_beta = vec![0.0f64; view.n];

        let mut post = view.majority_posteriors();
        // Pre-allocated scratch: M-step gradients, the convergence
        // parameter vector, the per-task difficulty table `beta`, and the
        // answer-major batch buffers (`sig` holds every answer's
        // σ(α_w·β_i); `lc`/`lw` the correct/wrong log terms). Batching
        // runs over the *whole answer log* in task-major order, which
        // keeps the kernel sweeps long even when individual tasks have
        // only a handful of answers. The loop below allocates nothing
        // per iteration.
        let mut grad_alpha = vec![0.0f64; view.m];
        let mut grad_logbeta = vec![0.0f64; view.n];
        let mut beta = vec![0.0f64; view.n];
        let num_answers = view.num_answers();
        let mut sig = vec![0.0f64; num_answers];
        let mut lc = vec![0.0f64; num_answers];
        let mut lw = vec![0.0f64; num_answers];
        // Flat gather indices in the shard-concatenated task-major order,
        // built once (the order never changes), so the σ∘(α·β) refresh
        // runs as one fused fill-and-squash pass.
        let mut answer_workers = Vec::with_capacity(num_answers);
        let mut answer_tasks = Vec::with_capacity(num_answers);
        for s in 0..view.num_shards() {
            let range = view.shard_tasks(s);
            for task in range.clone() {
                for &(worker, _) in view.shard_task_row(s, task - range.start) {
                    answer_workers.push(worker);
                    answer_tasks.push(task as u32);
                }
            }
        }
        let mut params: Vec<f64> = Vec::with_capacity(view.m + view.n);
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        // Fill `sig` with σ(α_w·β_i) for every answer (task-major) as one
        // fused gather-multiply-sigmoid pass. Values are bit-identical to
        // the per-answer scalar `sigmoid(alpha[w] * beta)`.
        fn fill_sigmoids(
            sig: &mut [f64],
            beta: &[f64],
            alpha: &[f64],
            answer_workers: &[u32],
            answer_tasks: &[u32],
        ) {
            sigmoid_map_into(sig, |i| {
                alpha[answer_workers[i] as usize] * beta[answer_tasks[i] as usize]
            });
        }

        loop {
            // E-step: Pr(z | answers, α, β). The difficulty table and
            // every answer's correctness probability refresh as fused
            // whole-log sweeps (one exp pass, one sigmoid pass, two ln
            // passes); each posterior row is then one fused two-term
            // accumulate + normalize.
            exp_map_into(&mut beta, |i| log_beta[i]);
            fill_sigmoids(&mut sig, &beta, &alpha, &answer_workers, &answer_tasks);
            ln_map_into(&mut lc, |i| sig[i].clamp(1e-9, 1.0 - 1e-9));
            ln_map_into(&mut lw, |i| (1.0 - sig[i].clamp(1e-9, 1.0 - 1e-9)) / lm1);
            {
                let _timer = crate::views::obs_estep_seconds().start_timer();
                let _ktimer = crate::methods::obs_kernel_estep_seconds().start_timer();
                let l = view.l;
                let mut fused_rows = 0u64;
                for s in 0..view.num_shards() {
                    let range = view.shard_tasks(s);
                    let mut cursor = view.shard_entry_offset(s);
                    let block = &mut post.data_mut()[range.start * l..range.end * l];
                    fused_rows += fused_two_term_rows(block, l, |local| {
                        let row = view.shard_task_row(s, local);
                        let at = cursor;
                        cursor += row.len();
                        let golden = view.golden()[range.start + local];
                        answer_terms(golden, row, &lc[at..cursor], &lw[at..cursor])
                    });
                }
                crate::methods::obs_fused_rows().add(fused_rows);
            }
            view.clamp_golden(&mut post);

            // M-step: gradient ascent on the expected complete-data
            // log-likelihood Q(α, ln β).
            //
            // With p_iw = Pr(worker w correct on i | posterior) =
            // post[i][v_iw], and s = σ(α_w β_i):
            //   ∂Q/∂α_w    = Σ_i β_i (p_iw − s_iw) − λ(α_w − 1)
            //   ∂Q/∂ln β_i = β_i Σ_w α_w (p_iw − s_iw) − λ ln β_i
            {
                let _timer = crate::views::obs_reduce_seconds().start_timer();
                for step in 0..self.gradient_steps {
                    grad_alpha.fill(0.0);
                    grad_logbeta.fill(0.0);
                    // The E-step filled `beta` and `sig` from this α and
                    // ln β; only later steps see updated parameters.
                    if step > 0 {
                        exp_map_into(&mut beta, |i| log_beta[i]);
                        fill_sigmoids(&mut sig, &beta, &alpha, &answer_workers, &answer_tasks);
                    }
                    for s in 0..view.num_shards() {
                        let mut cursor = view.shard_entry_offset(s);
                        let range = view.shard_tasks(s);
                        for task in range.clone() {
                            let b = beta[task];
                            let post_row = post.row(task);
                            let row = view.shard_task_row(s, task - range.start);
                            let mut g_beta = 0.0;
                            for (&(worker, label), &sv) in
                                row.iter().zip(&sig[cursor..cursor + row.len()])
                            {
                                let worker = worker as usize;
                                let p = post_row[label as usize];
                                grad_alpha[worker] += b * (p - sv);
                                g_beta += b * alpha[worker] * (p - sv);
                            }
                            grad_logbeta[task] += g_beta;
                            cursor += row.len();
                        }
                    }
                    for (w, g) in grad_alpha.iter().enumerate() {
                        alpha[w] +=
                            self.learning_rate * (g - self.prior_precision * (alpha[w] - 1.0));
                        alpha[w] = alpha[w].clamp(-8.0, 8.0);
                    }
                    for (t, g) in grad_logbeta.iter().enumerate() {
                        log_beta[t] +=
                            self.learning_rate * (g - self.prior_precision * log_beta[t]);
                        log_beta[t] = log_beta[t].clamp(-4.0, 4.0);
                    }
                }
            }

            params.clear();
            params.extend_from_slice(&alpha);
            params.extend_from_slice(&log_beta);
            if tracker.step(&params) {
                break;
            }
        }

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: Cat::answers(&labels),
            // Report σ(α) — the worker's correctness probability on a
            // difficulty-1 task — as the scalar quality.
            worker_quality: alpha
                .into_iter()
                .map(|a| WorkerQuality::Probability(sigmoid(a)))
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
        let r = Glad::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn good_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Glad::default(), &d, 0.77);
    }

    #[test]
    fn ranks_better_workers_higher() {
        let d = small_decision();
        let r = Glad::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        // Correlate estimated quality with empirical accuracy.
        let mut pairs = Vec::new();
        for w in 0..d.num_workers() {
            let mut total = 0usize;
            let mut correct = 0usize;
            for rec in d.answers_by_worker(w) {
                if let Some(t) = d.truth(rec.task) {
                    total += 1;
                    if rec.answer == t {
                        correct += 1;
                    }
                }
            }
            if total >= 10 {
                let emp = correct as f64 / total as f64;
                pairs.push((r.worker_quality[w].scalar().unwrap(), emp));
            }
        }
        // Spearman-ish check: split on empirical median, compare means.
        let med = {
            let mut e: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            e.sort_by(|a, b| a.partial_cmp(b).unwrap());
            e[e.len() / 2]
        };
        let hi: Vec<f64> = pairs.iter().filter(|p| p.1 > med).map(|p| p.0).collect();
        let lo: Vec<f64> = pairs.iter().filter(|p| p.1 <= med).map(|p| p.0).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&hi) > mean(&lo),
            "estimated quality not ordered: hi {} lo {}",
            mean(&hi),
            mean(&lo)
        );
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.25, 8);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(8)
        };
        let r = Glad::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn warm_start_keeps_fixed_point_and_does_not_slow_down() {
        use crate::framework::WarmStart;
        let d = small_decision();
        let cold = Glad::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        let opts = InferenceOptions {
            warm_start: Some(WarmStart::from_result(&cold)),
            ..InferenceOptions::seeded(2)
        };
        let warm = Glad::default().infer(&d, &opts).unwrap();
        // GLAD resumes only the worker side (β restarts at 1) and its
        // gradient M-step often exhausts the iteration cap rather than
        // converging, so the guarantee is weaker than the D&S family's:
        // high label agreement and matching quality, with no extra
        // iterations.
        let agree = warm
            .truths
            .iter()
            .zip(&cold.truths)
            .filter(|(a, b)| a == b)
            .count() as f64
            / cold.truths.len() as f64;
        assert!(agree >= 0.93, "label agreement {agree}");
        let (aw, ac) = (accuracy(&d, &warm), accuracy(&d, &cold));
        assert!(aw >= ac - 0.02, "warm accuracy {aw} vs cold {ac}");
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn rejects_numeric() {
        let d = small_numeric();
        assert!(Glad::default()
            .infer(&d, &InferenceOptions::default())
            .is_err());
    }
}
