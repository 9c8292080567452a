//! Majority Voting (MV) — the baseline direct method.
//!
//! "Regards the choice answered by majority workers as the truth"
//! (Section 5.1). Ties break uniformly at random, which is why MV has a
//! 50% chance of getting `t1` of the running example wrong.

use crowd_data::TaskType;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, TruthInference, WorkerQuality,
};
use crate::views::{label_answers, ShardedView};

/// Majority Voting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mv;

impl Mv {
    /// A forward to [`TruthInference::infer_sharded`], kept for callers
    /// written against the flat-view API (perfbench's views probe).
    pub fn infer_view(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.infer_sharded(view, options)
    }
}

impl TruthInference for Mv {
    fn name(&self) -> &'static str {
        "MV"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
    }

    /// The majority posteriors plus the seeded tie-breaking decode. MV
    /// is its own fixed point, so there is no warm state to resume.
    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        let post = view.majority_posteriors();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality: vec![WorkerQuality::Unmodeled; view.m],
            iterations: 1,
            converged: true,
            posteriors: Some(Arc::new(post)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;
    use crowd_data::Answer;

    #[test]
    fn toy_example_majority_behaviour() {
        // MV gets t6 wrong (majority said F, truth is T) and flips a coin
        // on the t1 tie — exactly the failure mode motivating the paper.
        let d = toy();
        let r = Mv.infer(&d, &InferenceOptions::seeded(3)).unwrap();
        assert_result_sane(&d, &r);
        assert_eq!(
            r.truths[5],
            Answer::Label(1),
            "t6 must follow the majority (F)"
        );
        for task in 1..5 {
            assert_eq!(r.truths[task], Answer::Label(1));
        }
    }

    #[test]
    fn tie_breaking_is_seeded() {
        let d = toy();
        let a = Mv.infer(&d, &InferenceOptions::seeded(0)).unwrap();
        let b = Mv.infer(&d, &InferenceOptions::seeded(0)).unwrap();
        assert_eq!(a.truths, b.truths);
        // Across many seeds, t1 should come out both ways.
        let mut saw = [false; 2];
        for seed in 0..64 {
            let r = Mv.infer(&d, &InferenceOptions::seeded(seed)).unwrap();
            saw[r.truths[0].label().unwrap() as usize] = true;
        }
        assert!(saw[0] && saw[1], "tie on t1 never broke both ways");
    }

    #[test]
    fn decent_on_small_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Mv, &d, 0.80);
    }

    #[test]
    fn works_on_single_choice() {
        let d = small_single();
        let r = Mv.infer(&d, &InferenceOptions::seeded(1)).unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc > 0.35, "MV accuracy {acc} on 4-choice data");
    }

    #[test]
    fn rejects_numeric() {
        let d = small_numeric();
        assert!(matches!(
            Mv.infer(&d, &InferenceOptions::default()),
            Err(InferenceError::UnsupportedTaskType { .. })
        ));
    }
}
