//! CATD — Confidence-Aware Truth Discovery (Li et al., PVLDB 2014).
//!
//! Models worker probability *plus confidence* (Section 4.2.4): a worker
//! who answered only a few tasks gets an uncertain quality estimate, so
//! the estimate is scaled by the chi-squared quantile
//! `X²(0.975, |T^w|)` — the more tasks answered, the larger the factor.
//! The two coordinate-descent steps are:
//!
//! - quality: `q^w = X²(0.975, |T^w|) / Σ_{t_i∈T^w} d(v_i^w, v*_i)`;
//! - truth: `q`-weighted vote (categorical) or weighted mean (numeric,
//!   variance-normalised distances as in the original paper).
//!
//! Supports decision-making, single-choice and numeric tasks (Table 4),
//! qualification initialisation, and golden tasks.

use crowd_data::{Dataset, TaskType};
use crowd_stats::chi2::chi2_quantile_975;
use crowd_stats::summary::variance;
use crowd_stats::ConvergenceTracker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::framework::{
    validate_common, validate_view, InferenceError, InferenceOptions, InferenceResult,
    TruthInference, WorkerQuality,
};
use crate::views::{initial_accuracy, label_answers, Num, ShardedView};

/// CATD: chi-squared-scaled reliability weights.
#[derive(Debug, Clone, Copy)]
pub struct Catd {
    /// Additive distance floor preventing division by zero for perfect
    /// workers.
    pub epsilon: f64,
}

impl Default for Catd {
    fn default() -> Self {
        Self { epsilon: 0.1 }
    }
}

impl TruthInference for Catd {
    fn name(&self) -> &'static str {
        "CATD"
    }

    fn supports(&self, _task_type: TaskType) -> bool {
        true
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
        validate_common(self.name(), dataset, options, true)?;
        if dataset.task_type().is_categorical() {
            let view = ShardedView::build(self.name(), dataset, options, true)?;
            self.infer_sharded(&view, options)
        } else {
            self.infer_numeric(dataset, options)
        }
    }

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let mut rng = StdRng::seed_from_u64(options.seed);
        let chi: Vec<f64> = (0..view.m)
            .map(|w| chi2_quantile_975(view.worker_len(w)))
            .collect();

        let mut quality: Vec<f64> = match &options.quality_init {
            crate::framework::QualityInit::Uniform => vec![1.0; view.m],
            _ => initial_accuracy(options, view.m, 0.7),
        };
        let mut truths: Vec<u8> = vec![0; view.n];
        // Pre-allocated scratch: vote scores, tie list, and the
        // convergence vector — the loop allocates nothing per iteration.
        let mut scores = vec![0.0f64; view.l];
        let mut ties: Vec<u8> = Vec::with_capacity(view.l);
        let mut params = vec![0.0f64; view.n];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);
        let golden = view.golden();

        loop {
            for task in 0..view.n {
                if let Some(g) = golden[task] {
                    truths[task] = g;
                    continue;
                }
                scores.fill(0.0);
                for &(worker, label) in view.task_row(task) {
                    scores[label as usize] += quality[worker as usize];
                }
                let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ties.clear();
                ties.extend(
                    scores
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| (s - best).abs() < 1e-12)
                        .map(|(i, _)| i as u8),
                );
                truths[task] = if ties.len() == 1 {
                    ties[0]
                } else {
                    ties[rng.gen_range(0..ties.len())]
                };
            }

            for w in 0..view.m {
                let mistakes = view
                    .worker(w)
                    .filter(|&(task, label)| truths[task] != label)
                    .count() as f64;
                quality[w] = chi[w] / (mistakes + self.epsilon);
            }
            // Normalise so the weight scale (and the convergence check)
            // stays comparable across iterations.
            let max_q = quality.iter().copied().fold(0.0f64, f64::max).max(1e-12);
            quality.iter_mut().for_each(|q| *q /= max_q);

            for (p, &t) in params.iter_mut().zip(&truths) {
                *p = t as f64;
            }
            if tracker.step(&params) {
                break;
            }
        }

        Ok(InferenceResult {
            truths: label_answers(&truths),
            worker_quality: quality.into_iter().map(WorkerQuality::Weight).collect(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: None,
        })
    }
}

impl Catd {
    fn infer_numeric(
        &self,
        dataset: &Dataset,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        let num = Num::build("CATD", dataset, options, true)?;
        let chi: Vec<f64> = (0..num.m)
            .map(|w| chi2_quantile_975(num.worker_len(w)))
            .collect();
        let mut vs: Vec<f64> = Vec::new();
        let task_var: Vec<f64> = (0..num.n)
            .map(|t| {
                vs.clear();
                vs.extend(num.task(t).map(|(_, v)| v));
                variance(&vs).max(1e-6)
            })
            .collect();

        let mut quality: Vec<f64> = match &options.quality_init {
            crate::framework::QualityInit::Uniform => vec![1.0; num.m],
            _ => initial_accuracy(options, num.m, 0.7),
        };
        let mut truths = num.mean_estimates();
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            for task in 0..num.n {
                if let Some(g) = num.golden[task] {
                    truths[task] = g;
                    continue;
                }
                if num.task_len(task) == 0 {
                    continue;
                }
                let mut wsum = 0.0;
                let mut vsum = 0.0;
                for (worker, v) in num.task(task) {
                    wsum += quality[worker];
                    vsum += quality[worker] * v;
                }
                if wsum > 0.0 {
                    truths[task] = vsum / wsum;
                }
            }

            for w in 0..num.m {
                let dist: f64 = num
                    .worker(w)
                    .map(|(task, v)| (v - truths[task]).powi(2) / task_var[task])
                    .sum();
                quality[w] = chi[w] / (dist + self.epsilon);
            }
            let max_q = quality.iter().copied().fold(0.0f64, f64::max).max(1e-12);
            quality.iter_mut().for_each(|q| *q /= max_q);

            if tracker.step(&truths) {
                break;
            }
        }

        Ok(InferenceResult {
            truths: Num::answers(&truths),
            worker_quality: quality.into_iter().map(WorkerQuality::Weight).collect(),
            iterations: tracker.iterations(),
            converged: tracker.converged(),
            posteriors: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;
    use crowd_data::{DatasetBuilder, TaskType};

    #[test]
    fn solves_toy_example() {
        let d = toy();
        let r = Catd::default()
            .infer(&d, &InferenceOptions::seeded(3))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 5.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn good_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Catd::default(), &d, 0.80);
    }

    #[test]
    fn confidence_scaling_favours_prolific_workers() {
        // Two workers with identical *rates* of error, one with 10× the
        // answers: the prolific one must end up with the larger weight.
        let mut b = DatasetBuilder::new("conf", TaskType::DecisionMaking, 40, 3);
        // Worker 0 answers 40 tasks, worker 1 answers 4, both perfectly
        // agreeing with worker 2 (so distances are 0 and weights are
        // driven purely by the chi-squared factor).
        for t in 0..40 {
            b.add_label(t, 0, (t % 2) as u8).unwrap();
            b.add_label(t, 2, (t % 2) as u8).unwrap();
        }
        for t in 0..4 {
            b.add_label(t, 1, (t % 2) as u8).unwrap();
        }
        let d = b.build();
        let r = Catd::default()
            .infer(&d, &InferenceOptions::seeded(0))
            .unwrap();
        let q0 = r.worker_quality[0].scalar().unwrap();
        let q1 = r.worker_quality[1].scalar().unwrap();
        assert!(
            q0 > q1,
            "prolific worker should outweigh sparse one: {q0} vs {q1}"
        );
    }

    #[test]
    fn numeric_runs_and_is_reasonable() {
        let d = small_numeric();
        let r = Catd::default()
            .infer(&d, &InferenceOptions::seeded(2))
            .unwrap();
        assert_result_sane(&d, &r);
        let e = rmse(&d, &r);
        assert!(e < 18.0, "CATD numeric RMSE {e}");
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.2, 3);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(3)
        };
        let r = Catd::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }
}
