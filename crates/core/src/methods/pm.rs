//! PM — the optimization method of Li et al. (SIGMOD 2014, "CRH") and
//! Aydin et al. (AAAI 2014), as presented in Section 3 of the paper.
//!
//! Minimises `f({q^w}, {v*}) = Σ_w q^w Σ_{i ∈ T^w} d(v_i^w, v*_i)` by
//! coordinate descent:
//!
//! - **Step 1** `v*_i = argmax_v Σ_{w∈W_i} q^w · 1{v = v_i^w}` for
//!   categorical tasks (weighted vote), or the `q`-weighted mean for
//!   numeric tasks (squared loss);
//! - **Step 2** `q^w = −log( Σ_{t_i∈T^w} d(v_i^w, v*_i) / max_{w'} Σ d )`.
//!
//! Numeric distances are variance-normalised per task (the CRH
//! normalisation) so quality weights are scale-free.

use crowd_data::{Dataset, TaskType};
use crowd_stats::kernels::safe_ln;
use crowd_stats::summary::variance;
use crowd_stats::ConvergenceTracker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::framework::{
    validate_common, validate_view, InferenceError, InferenceOptions, InferenceResult,
    TruthInference, WorkerQuality,
};
use crate::views::{initial_accuracy, label_answers, Num, ShardedView};

/// PM: conflict-resolution by joint optimisation.
#[derive(Debug, Clone, Copy)]
pub struct Pm {
    /// Small constant keeping the log argument away from 0 (a worker who
    /// agrees with every inferred truth would otherwise get infinite
    /// weight).
    pub epsilon: f64,
}

impl Default for Pm {
    fn default() -> Self {
        Self { epsilon: 1e-4 }
    }
}

impl TruthInference for Pm {
    fn name(&self) -> &'static str {
        "PM"
    }

    fn supports(&self, _task_type: TaskType) -> bool {
        true // decision-making, single-choice, and numeric (Table 4)
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

        // Initial qualities: uniform 1 (paper) or scaled test accuracy.
        let mut quality: Vec<f64> = match &options.quality_init {
            crate::framework::QualityInit::Uniform => vec![1.0; view.m],
            _ => initial_accuracy(options, view.m, 0.7),
        };

        let mut truths: Vec<u8> = vec![0; view.n];
        // Pre-allocated scratch: vote scores, tie list, per-worker
        // distances, and the convergence vector — the loop allocates
        // nothing per iteration.
        let mut scores = vec![0.0f64; view.l];
        let mut ties: Vec<u8> = Vec::with_capacity(view.l);
        let mut dist = vec![0.0f64; view.m];
        let mut params = vec![0.0f64; view.n];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);
        let golden = view.golden();

        loop {
            // Step 1: weighted vote.
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

            // Step 2: q^w = −log(Σd / max Σd).
            for (w, d) in dist.iter_mut().enumerate() {
                *d = view
                    .worker(w)
                    .filter(|&(task, label)| truths[task] != label)
                    .count() as f64;
            }
            let max_d = dist
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                .max(self.epsilon);
            for (w, d) in dist.iter().enumerate() {
                quality[w] = -safe_ln((d + self.epsilon) / (max_d + self.epsilon));
            }

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

impl Pm {
    fn infer_numeric(
        &self,
        dataset: &Dataset,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        let num = Num::build("PM", dataset, options, true)?;

        // Per-task answer variance for scale-free distances.
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
        // Pre-allocated distance scratch: the loop allocates nothing per
        // iteration.
        let mut dist = vec![0.0f64; num.m];
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            // Step 1: weighted mean per task (squared loss minimiser).
            for task in 0..num.n {
                if let Some(g) = num.golden[task] {
                    truths[task] = g;
                    continue;
                }
                let len = num.task_len(task);
                if len == 0 {
                    continue;
                }
                let mut wsum = 0.0;
                let mut vsum = 0.0;
                for (worker, v) in num.task(task) {
                    let q = quality[worker].max(0.0);
                    wsum += q;
                    vsum += q * v;
                }
                if wsum > 0.0 {
                    truths[task] = vsum / wsum;
                } else {
                    truths[task] = num.task(task).map(|(_, v)| v).sum::<f64>() / len as f64;
                }
            }

            // Step 2: normalised squared distances.
            for (w, d) in dist.iter_mut().enumerate() {
                *d = num
                    .worker(w)
                    .map(|(task, v)| (v - truths[task]).powi(2) / task_var[task])
                    .sum::<f64>();
            }
            let max_d = dist
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                .max(self.epsilon);
            for (w, d) in dist.iter().enumerate() {
                quality[w] = -safe_ln((d + self.epsilon) / (max_d + self.epsilon));
            }

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
    use crowd_data::Answer;

    #[test]
    fn solves_toy_example_like_section_3() {
        // Section 3 walks PM through Table 2 and reports converged truths
        // v*_1 = v*_6 = T with the rest F, and w3 the best worker.
        let d = toy();
        let r = Pm::default()
            .infer(&d, &InferenceOptions::seeded(11))
            .unwrap();
        assert_result_sane(&d, &r);
        assert_eq!(r.truths[0], Answer::Label(0), "t1 should be T");
        assert_eq!(r.truths[5], Answer::Label(0), "t6 should be T");
        for t in 1..5 {
            assert_eq!(r.truths[t], Answer::Label(1), "t{} should be F", t + 1);
        }
        let q: Vec<f64> = r
            .worker_quality
            .iter()
            .map(|x| x.scalar().unwrap())
            .collect();
        assert!(
            q[2] > q[1] && q[1] > q[0],
            "qualities should order w3 > w2 > w1: {q:?}"
        );
    }

    #[test]
    fn first_iteration_matches_paper_quality_ratios() {
        // After step 1 with uniform weights the mistake counts are 3, 2, 1
        // giving q = [−ln(3/3), −ln(2/3), −ln(1/3)] ≈ [0, 0.41, 1.10].
        // We can't observe iteration 1 directly, but converged weights
        // must preserve that strict ordering with w1 pinned at ~0.
        let d = toy();
        let r = Pm::default()
            .infer(&d, &InferenceOptions::seeded(11))
            .unwrap();
        let q0 = r.worker_quality[0].scalar().unwrap();
        assert!(
            q0.abs() < 0.05,
            "worst worker weight should be ≈ 0, got {q0}"
        );
    }

    #[test]
    fn good_on_decision_data() {
        // Table 6 shape: PM (89.8%) sits below the confusion-matrix
        // methods (~93.7%) on D_Product; the simulated fixture shows the
        // same gap.
        let d = small_decision();
        assert_accuracy_at_least(&Pm::default(), &d, 0.75);
    }

    #[test]
    fn numeric_beats_nothing_catastrophically() {
        let d = small_numeric();
        let r = Pm::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let e = rmse(&d, &r);
        assert!(e < 18.0, "PM numeric RMSE {e}");
    }

    #[test]
    fn golden_clamped_categorical_and_numeric() {
        use crowd_data::GoldenSplit;
        for d in [small_decision(), small_numeric()] {
            let split = GoldenSplit::sample(&d, 0.3, 6);
            let opts = InferenceOptions {
                golden: Some(split.revealed.clone()),
                ..InferenceOptions::seeded(6)
            };
            let r = Pm::default().infer(&d, &opts).unwrap();
            for &t in &split.golden {
                assert_eq!(Some(r.truths[t]), d.truth(t), "dataset {}", d.name());
            }
        }
    }

    #[test]
    fn supports_all_task_types() {
        let pm = Pm::default();
        assert!(pm.supports(TaskType::DecisionMaking));
        assert!(pm.supports(TaskType::SingleChoice { choices: 4 }));
        assert!(pm.supports(TaskType::Numeric));
    }
}
