//! Median — the robust direct baseline for numeric tasks (Section 5.1).

use crowd_data::TaskType;
use crowd_stats::summary::median_in_place;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::Num;

/// Per-task median of workers' answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianAgg;

impl TruthInference for MedianAgg {
    fn name(&self) -> &'static str {
        "Median"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type == TaskType::Numeric
    }

    fn infer_numeric(
        &self,
        num: &Num,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, num, options)?;
        // One sort buffer, sized for the busiest task and reused by all.
        let mut values = Vec::with_capacity((0..num.n).map(|t| num.task_len(t)).max().unwrap_or(0));
        let estimates: Vec<f64> = (0..num.n)
            .map(|t| {
                values.clear();
                values.extend(num.task(t).map(|(_, v)| v));
                median_in_place(&mut values)
            })
            .collect();
        Ok(InferenceResult {
            truths: Num::answers(&estimates),
            worker_quality: vec![WorkerQuality::Unmodeled; num.m],
            iterations: 1,
            converged: true,
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
    fn robust_to_one_outlier() {
        let mut b = DatasetBuilder::new("m", TaskType::Numeric, 1, 3);
        b.add_numeric(0, 0, 10.0).unwrap();
        b.add_numeric(0, 1, 11.0).unwrap();
        b.add_numeric(0, 2, 1000.0).unwrap();
        let d = b.build();
        let r = MedianAgg.infer(&d, &InferenceOptions::default()).unwrap();
        assert!((r.truths[0].numeric().unwrap() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn reasonable_on_emotion_sim() {
        let d = small_numeric();
        let r = MedianAgg.infer(&d, &InferenceOptions::default()).unwrap();
        assert_result_sane(&d, &r);
        let e = rmse(&d, &r);
        assert!(e < 19.0, "Median RMSE {e}");
    }

    #[test]
    fn rejects_categorical() {
        let d = toy();
        assert!(MedianAgg.infer(&d, &InferenceOptions::default()).is_err());
    }
}
