//! Mean — the direct baseline for numeric tasks (Section 5.1).
//!
//! Notably, the paper finds Mean *wins* on N_Emotion (Table 6): the
//! sophisticated numeric methods fail to estimate worker qualities well
//! enough to beat the flat average.

use crowd_data::TaskType;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::Num;

/// Per-task arithmetic mean of workers' answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanAgg;

impl TruthInference for MeanAgg {
    fn name(&self) -> &'static str {
        "Mean"
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
        Ok(InferenceResult {
            truths: Num::answers(&num.mean_estimates()),
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
    fn averages_exactly() {
        let mut b = DatasetBuilder::new("m", TaskType::Numeric, 2, 3);
        b.add_numeric(0, 0, 1.0).unwrap();
        b.add_numeric(0, 1, 2.0).unwrap();
        b.add_numeric(0, 2, 6.0).unwrap();
        b.add_numeric(1, 0, -4.0).unwrap();
        let d = b.build();
        let r = MeanAgg.infer(&d, &InferenceOptions::default()).unwrap();
        assert!((r.truths[0].numeric().unwrap() - 3.0).abs() < 1e-12);
        assert!((r.truths[1].numeric().unwrap() + 4.0).abs() < 1e-12);
    }

    #[test]
    fn tracks_truth_on_emotion_sim() {
        let d = small_numeric();
        let r = MeanAgg.infer(&d, &InferenceOptions::default()).unwrap();
        assert_result_sane(&d, &r);
        let e = rmse(&d, &r);
        // Workers have RMSE ≳ 20; averaging 10 of them should land
        // well under that.
        assert!(e < 20.0, "Mean RMSE {e}");
    }

    #[test]
    fn rejects_categorical() {
        let d = toy();
        assert!(matches!(
            MeanAgg.infer(&d, &InferenceOptions::default()),
            Err(InferenceError::UnsupportedTaskType { .. })
        ));
    }
}
