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

use crowd_data::TaskType;
use crowd_stats::chi2::chi2_quantile_975;
use crowd_stats::ConvergenceTracker;

use super::pm::{initial_quality, mistakes, normalised_distance, task_variances, WeightedVote};
use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, Num, ShardedView};

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

    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let chi = chi_weights(view.m, |w| view.worker_len(w));
        let mut quality = initial_quality(options, view.m);
        let mut truths: Vec<u8> = vec![0; view.n];
        // Pre-allocated scratch: the vote and the convergence vector —
        // the loop allocates nothing per iteration.
        let mut vote = WeightedVote::new(view.l, options.seed);
        let mut params = vec![0.0f64; view.n];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            vote.run(view, &quality, &mut truths);
            self.chi_quality(&chi, &mut quality, |w| mistakes(view, &truths, w));

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

    fn infer_numeric(
        &self,
        num: &Num,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, num, options)?;
        let chi = chi_weights(num.m, |w| num.worker_len(w));
        let task_var = task_variances(num);
        let mut quality = initial_quality(options, num.m);
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
            self.chi_quality(&chi, &mut quality, |w| {
                normalised_distance(num, &truths, &task_var, w)
            });

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

impl Catd {
    /// The quality step, `q^w = X²(0.975, |T^w|) / (d_w + ε)`, normalised
    /// by the largest weight so the weight scale (and the convergence
    /// check) stays comparable across iterations.
    fn chi_quality(&self, chi: &[f64], quality: &mut [f64], dist: impl Fn(usize) -> f64) {
        for (w, q) in quality.iter_mut().enumerate() {
            *q = chi[w] / (dist(w) + self.epsilon);
        }
        let max_q = quality.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        quality.iter_mut().for_each(|q| *q /= max_q);
    }
}

/// The confidence factor `X²(0.975, |T^w|)` of each of `m` workers.
fn chi_weights(m: usize, worker_len: impl Fn(usize) -> usize) -> Vec<f64> {
    (0..m).map(|w| chi2_quantile_975(worker_len(w))).collect()
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
