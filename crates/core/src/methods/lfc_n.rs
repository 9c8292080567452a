//! LFC_N — the numeric variant of Learning From Crowds (Raykar et al.,
//! JMLR 2010, §Section "regression").
//!
//! Worker model: answers are Gaussian around the truth with per-worker
//! variance, `v_i^w ~ N(v*_i, σ_w²)` (Section 4.2.3 with zero bias; the
//! bias-aware variant lives in the crowd simulator). EM alternates:
//!
//! - truth: precision-weighted mean `v*_i = Σ_w v_i^w/σ_w² / Σ_w 1/σ_w²`;
//! - variance: `σ_w² = mean_i (v_i^w − v*_i)²`, smoothed by an
//!   inverse-gamma prior so single-answer workers stay finite.

use crowd_data::TaskType;
use crowd_stats::ConvergenceTracker;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, QualityInit, TruthInference,
    WorkerQuality,
};
use crate::views::Num;

/// Gaussian worker-variance EM for numeric tasks.
#[derive(Debug, Clone, Copy)]
pub struct LfcN {
    /// Inverse-gamma prior shape (pseudo observation count).
    pub prior_count: f64,
    /// Inverse-gamma prior scale (pseudo sum of squares).
    pub prior_ss: f64,
}

impl Default for LfcN {
    fn default() -> Self {
        Self {
            prior_count: 2.0,
            prior_ss: 2.0,
        }
    }
}

impl TruthInference for LfcN {
    fn name(&self) -> &'static str {
        "LFC_N"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type == TaskType::Numeric
    }

    fn supports_qualification(&self) -> bool {
        true
    }

    fn supports_golden(&self) -> bool {
        true
    }

    fn infer_numeric(
        &self,
        num: &Num,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, num, options)?;

        // Initial variances: uniform, or derived from qualification RMSE
        // (the accuracy proxy a = 1/(1 + rmse/10) inverts to rmse).
        let mut var: Vec<f64> = match &options.quality_init {
            QualityInit::Uniform => vec![1.0; num.m],
            QualityInit::Qualification(q) => q
                .iter()
                .map(|s| match s {
                    Some(a) if *a > 0.0 => {
                        let rmse = 10.0 * (1.0 / a - 1.0);
                        (rmse * rmse).max(1e-3)
                    }
                    _ => 1.0,
                })
                .collect(),
        };

        let mut truths = num.mean_estimates();
        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);

        loop {
            // Truth step: precision-weighted means. Everything updates in
            // place over the CSR view — no allocation per iteration.
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
                    let prec = 1.0 / var[worker].max(1e-9);
                    wsum += prec;
                    vsum += prec * v;
                }
                truths[task] = vsum / wsum;
            }

            // Variance step with inverse-gamma smoothing.
            for wkr in 0..num.m {
                let ss: f64 = num.worker(wkr).map(|(t, v)| (v - truths[t]).powi(2)).sum();
                var[wkr] = (ss + self.prior_ss) / (num.worker_len(wkr) as f64 + self.prior_count);
            }

            if tracker.step(&truths) {
                break;
            }
        }

        Ok(InferenceResult {
            truths: Num::answers(&truths),
            worker_quality: var.into_iter().map(WorkerQuality::Variance).collect(),
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
    fn downweights_noisy_worker() {
        // Worker 2 is wildly noisy; LFC_N should learn a large variance
        // for them and land nearer the two consistent workers.
        let mut b = DatasetBuilder::new("n", TaskType::Numeric, 8, 3);
        let truths = [10.0, -5.0, 3.0, 7.0, 0.0, 12.0, -2.0, 4.0];
        for (t, &tr) in truths.iter().enumerate() {
            b.add_numeric(t, 0, tr + 0.5).unwrap();
            b.add_numeric(t, 1, tr - 0.4).unwrap();
            b.add_numeric(t, 2, tr + if t % 2 == 0 { 25.0 } else { -25.0 })
                .unwrap();
            b.set_truth_numeric(t, tr).unwrap();
        }
        let d = b.build();
        let r = LfcN::default()
            .infer(&d, &InferenceOptions::seeded(0))
            .unwrap();
        let vars: Vec<f64> = r
            .worker_quality
            .iter()
            .map(|q| match q {
                WorkerQuality::Variance(v) => *v,
                _ => panic!("expected variance"),
            })
            .collect();
        assert!(vars[2] > 10.0 * vars[0], "noisy worker variance {vars:?}");
        let e = rmse(&d, &r);
        assert!(
            e < 2.0,
            "LFC_N RMSE {e} should be far below the noisy worker's 25"
        );
    }

    #[test]
    fn reasonable_on_emotion_sim() {
        let d = small_numeric();
        let r = LfcN::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let e = rmse(&d, &r);
        assert!(e < 18.0, "LFC_N RMSE {e}");
    }

    #[test]
    fn golden_clamped() {
        use crowd_data::GoldenSplit;
        let d = small_numeric();
        let split = GoldenSplit::sample(&d, 0.3, 4);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(4)
        };
        let r = LfcN::default().infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn qualification_init_shapes_variances() {
        let d = small_numeric();
        let q = crowd_data::bootstrap_qualification(&d, 20, 2);
        let opts = InferenceOptions {
            quality_init: QualityInit::Qualification(q.accuracy),
            ..InferenceOptions::seeded(2)
        };
        let r = LfcN::default().infer(&d, &opts).unwrap();
        assert_result_sane(&d, &r);
    }

    #[test]
    fn rejects_categorical() {
        let d = toy();
        assert!(LfcN::default()
            .infer(&d, &InferenceOptions::default())
            .is_err());
    }
}
