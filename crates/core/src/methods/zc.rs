//! ZC — ZenCrowd (Demartini, Difallah, Cudré-Mauroux, WWW 2012).
//!
//! The basic worker-probability PGM (Section 5.3(1)): each worker is a
//! single reliability `q^w ∈ [0, 1]`; a correct answer is emitted with
//! probability `q^w` and errors spread uniformly over the other `ℓ − 1`
//! choices. Truths are latent; the likelihood `Pr(V | {q^w})` (Equation 1)
//! is maximised with EM.
//!
//! Supports qualification-test initialisation (`q^w` ← test accuracy) and
//! hidden-test golden tasks (posterior clamped at the revealed truth),
//! matching the paper's §6.3.2–6.3.3 method lists.

use crowd_data::{Dataset, TaskType};
use crowd_stats::{fused_two_term_rows, safe_ln_map_into, ConvergenceTracker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::exec;
use crate::framework::{
    validate_common, InferenceError, InferenceOptions, InferenceResult, TruthInference,
    WorkerQuality,
};
use crate::views::{initial_accuracy, Cat, ShardedView};

/// ZenCrowd: EM over one-probability workers.
#[derive(Debug, Clone, Copy)]
pub struct Zc {
    /// Pseudo-count smoothing of the M-step (Beta(α, α) prior on `q^w`);
    /// keeps qualities off the 0/1 boundary.
    pub smoothing: f64,
}

impl Default for Zc {
    fn default() -> Self {
        Self { smoothing: 1.0 }
    }
}

impl TruthInference for Zc {
    fn name(&self) -> &'static str {
        "ZC"
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

impl Zc {
    /// Run ZC on a prebuilt flat view: [`Self::infer_sharded`] on its
    /// one-shard copy (see `Ds::infer_view`).
    pub fn infer_view(
        &self,
        cat: &Cat,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.infer_sharded(&ShardedView::from_cat(cat, 1), options)
    }

    /// Run ZC on a task-range sharded view. The E-step fans out over row
    /// blocks (every task row is computed independently, so posteriors
    /// are bit-identical at any shard and thread count). The M-step
    /// folds each worker's per-shard adjacency rows in ascending shard
    /// order: the canonical task-ascending row order makes the
    /// expected-correct sum independent of the shard count and of how
    /// records interleaved across tasks.
    ///
    /// `options.warm_start` resumes the per-worker reliabilities from the
    /// previous run (any [`WorkerQuality`] that collapses to a
    /// probability-like scalar); the posterior side of a warm start is
    /// implicit, since the first E-step recomputes every posterior from
    /// the warmed reliabilities.
    pub fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        if view.num_answers() == 0 {
            return Err(InferenceError::EmptyDataset);
        }
        crate::framework::validate_view_options(view.m, options)?;
        let l = view.l;
        let lm1 = (l - 1).max(1) as f64;

        let mut quality = initial_accuracy(options, view.m, 0.7);
        if let Some(warm) = &options.warm_start {
            for (w, q) in quality.iter_mut().enumerate() {
                if let Some(prev) = warm.worker_quality.get(w).and_then(WorkerQuality::scalar) {
                    // Converged ZC reliabilities already sit strictly
                    // inside (0, 1); the clamp only guards foreign warm
                    // states (e.g. unbounded weights).
                    *q = prev.clamp(1e-6, 1.0 - 1e-6);
                }
            }
        }
        let mut post = view.majority_posteriors();
        // Per-worker log tables refreshed once per iteration (2m `ln`
        // calls instead of |V|·ℓ): exactly the `p.max(1e-12).ln()` terms
        // the per-answer form computes, so the posterior sums are
        // bit-identical. The serial loop allocates nothing per iteration.
        let mut ln_correct = vec![0.0f64; view.m];
        let mut ln_wrong = vec![0.0f64; view.m];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        let thread_budget = options.threads.unwrap_or_else(exec::default_threads).max(1);
        let estep_work = view.num_answers() * l + 3 * view.n * l;
        let estep_threads = if estep_work >= super::ds::PARALLEL_ESTEP_MIN_WORK {
            thread_budget
        } else {
            1
        };
        let golden = view.golden();

        loop {
            // E-step: posterior over each task's truth under current q.
            // The per-worker log tables refresh as two fused
            // fill-and-safe_ln maps (elementwise identical to the scalar
            // clamp idiom); each task row is one fused two-term
            // accumulate + normalize written straight into the posterior.
            safe_ln_map_into(&mut ln_correct, |w| quality[w]);
            safe_ln_map_into(&mut ln_wrong, |w| (1.0 - quality[w]) / lm1);
            {
                let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
                let (ln_correct, ln_wrong) = (&ln_correct, &ln_wrong);
                view.for_each_row_block(post.data_mut(), l, estep_threads, |s, first, rows| {
                    let _timer = crate::views::obs_estep_seconds().start_timer();
                    let start = view.shard_tasks(s).start;
                    let fused_rows = fused_two_term_rows(rows, l, |offset| {
                        let local = first + offset;
                        two_term_answers(
                            golden[start + local],
                            view.shard_task_row(s, local),
                            ln_correct,
                            ln_wrong,
                        )
                    });
                    crate::methods::obs_fused_rows().add(fused_rows);
                });
            }
            view.clamp_golden(&mut post);

            // M-step: expected fraction of correct answers per worker,
            // smoothed by a symmetric Beta prior — a per-worker
            // continuation fold, shards ascending.
            {
                let _timer = crate::views::obs_reduce_seconds().start_timer();
                for (w, q) in quality.iter_mut().enumerate() {
                    let mut expected_correct = 0.0;
                    for s in 0..view.num_shards() {
                        for &(task, label) in view.shard_worker_row(s, w) {
                            expected_correct += post.row(task as usize)[label as usize];
                        }
                    }
                    let denom = view.worker_len(w) as f64 + 2.0 * self.smoothing;
                    *q = (expected_correct + self.smoothing) / denom;
                }
            }

            if tracker.step(&quality) {
                break;
            }
        }

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: Cat::answers(&labels),
            worker_quality: quality
                .into_iter()
                .map(WorkerQuality::Probability)
                .collect(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: Some(Arc::new(post)),
        })
    }
}

/// The [`fused_two_term_rows`] terms of one task row under per-worker
/// correct/wrong log tables: `None` for a golden task (stays clamped) or
/// an unanswered one (stays uniform), else `(label, ln_correct[w],
/// ln_wrong[w])` per answer.
pub(super) fn two_term_answers<'a>(
    golden: Option<u8>,
    answers: &'a [(u32, u8)],
    ln_correct: &'a [f64],
    ln_wrong: &'a [f64],
) -> Option<impl Iterator<Item = (usize, f64, f64)> + 'a> {
    if golden.is_some() || answers.is_empty() {
        return None;
    }
    Some(answers.iter().map(|&(worker, label)| {
        let w = worker as usize;
        (label as usize, ln_correct[w], ln_wrong[w])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::QualityInit;
    use crate::methods::test_support::*;
    use crowd_data::{Answer, GoldenSplit};

    #[test]
    fn reasonable_on_toy_example() {
        // The 6-task example admits a second EM optimum (treating w2 as
        // the oracle); the paper only demonstrates exact recovery for PM.
        // ZC must at least match majority-vote quality and recover t1 as
        // 'T' (it breaks the tie through worker weighting).
        let d = toy();
        let r = Zc::default()
            .infer(&d, &InferenceOptions::seeded(5))
            .unwrap();
        assert_result_sane(&d, &r);
        assert_eq!(r.truths[0], Answer::Label(0), "t1 should resolve to T");
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn quality_estimates_track_empirical_accuracy() {
        let d = small_decision();
        let r = Zc::default()
            .infer(&d, &InferenceOptions::seeded(5))
            .unwrap();
        // Workers with high empirical accuracy should get high estimated
        // quality (compare top and bottom halves).
        let mut pairs = Vec::new();
        for w in 0..d.num_workers() {
            let (mut total, mut correct) = (0usize, 0usize);
            for rec in d.answers_by_worker(w) {
                if let Some(t) = d.truth(rec.task) {
                    total += 1;
                    if rec.answer == t {
                        correct += 1;
                    }
                }
            }
            if total >= 10 {
                pairs.push((
                    r.worker_quality[w].scalar().unwrap(),
                    correct as f64 / total as f64,
                ));
            }
        }
        pairs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let half = pairs.len() / 2;
        let lo: f64 = pairs[..half].iter().map(|p| p.0).sum::<f64>() / half as f64;
        let hi: f64 = pairs[half..].iter().map(|p| p.0).sum::<f64>() / (pairs.len() - half) as f64;
        assert!(hi > lo, "estimated quality not ordered: hi {hi} lo {lo}");
    }

    #[test]
    fn beats_mv_on_small_decision_sim() {
        let d = small_decision();
        let zc = assert_accuracy_at_least(&Zc::default(), &d, 0.80);
        assert!(zc.converged, "ZC did not converge in 100 iterations");
    }

    #[test]
    fn qualification_initialisation_is_accepted_and_sane() {
        let d = small_decision();
        let q = crowd_data::bootstrap_qualification(&d, 20, 3);
        let opts = InferenceOptions {
            quality_init: QualityInit::Qualification(q.accuracy),
            ..InferenceOptions::seeded(3)
        };
        let r = Zc::default().infer(&d, &opts).unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.8, "accuracy with qualification {acc}");
    }

    #[test]
    fn golden_tasks_are_clamped_and_help() {
        let d = small_single();
        let split = GoldenSplit::sample(&d, 0.3, 9);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(9)
        };
        let r = Zc::default().infer(&d, &opts).unwrap();
        // Golden truths must come back verbatim.
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t), "golden task {t} not clamped");
        }
    }

    #[test]
    fn warm_start_reaches_cold_fixed_point_faster() {
        use crate::framework::WarmStart;
        let d = small_decision();
        // Warm state from a default-tolerance run; the fixed-point
        // comparison is made at a tight tolerance where the trajectory
        // has settled (see the D&S warm-start test).
        let seed_state = Zc::default()
            .infer(&d, &InferenceOptions::seeded(5))
            .unwrap();
        let tight = InferenceOptions {
            tolerance: 1e-9,
            max_iterations: 500,
            ..InferenceOptions::seeded(5)
        };
        let cold = Zc::default().infer(&d, &tight).unwrap();
        let opts = InferenceOptions {
            warm_start: Some(WarmStart::from_result(&seed_state)),
            ..tight.clone()
        };
        let warm = Zc::default().infer(&d, &opts).unwrap();
        assert!(warm.converged);
        assert_eq!(warm.truths, cold.truths, "warm fixed point moved labels");
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn rejects_bad_qualification_length() {
        let d = toy();
        let opts = InferenceOptions {
            quality_init: QualityInit::Qualification(vec![Some(0.9)]),
            ..Default::default()
        };
        assert!(matches!(
            Zc::default().infer(&d, &opts),
            Err(InferenceError::BadOptions { .. })
        ));
    }

    #[test]
    fn rejects_numeric() {
        let d = small_numeric();
        assert!(Zc::default()
            .infer(&d, &InferenceOptions::default())
            .is_err());
    }
}
