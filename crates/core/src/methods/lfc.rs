//! LFC — Learning From Crowds (Raykar et al., JMLR 2010).
//!
//! Extends D&S by placing priors on the worker model: each confusion-
//! matrix row is drawn from a Dirichlet whose pseudo-counts favour the
//! diagonal (the Beta-prior sensitivity/specificity model of the original
//! two-class formulation, generalised to `ℓ` classes). The paper groups
//! LFC with D&S/BCC as the consistently strong trio (§6.3.1, Table 6).

use crowd_data::{Dataset, TaskType};

use crate::framework::{
    validate_common, InferenceError, InferenceOptions, InferenceResult, TruthInference,
};
use crate::methods::ds::DsEngine;
use crate::views::{Cat, ShardedView};

/// LFC: MAP Dawid–Skene with diagonal-favouring Dirichlet priors.
#[derive(Debug, Clone, Copy)]
pub struct Lfc {
    /// Pseudo-count on diagonal confusion cells (`Pr(correct)` prior mass).
    pub diag_prior: f64,
    /// Pseudo-count on off-diagonal cells.
    pub off_prior: f64,
}

impl Default for Lfc {
    fn default() -> Self {
        // Matches a Beta(4, 2)-per-row belief that workers are better
        // than chance — the shape Raykar et al. recommend.
        Self {
            diag_prior: 4.0,
            off_prior: 1.0,
        }
    }
}

impl Lfc {
    fn engine(&self) -> DsEngine {
        DsEngine {
            diag_prior: self.diag_prior,
            off_prior: self.off_prior,
        }
    }

    /// Run LFC on a prebuilt flat view: [`Self::infer_sharded`] on its
    /// one-shard copy (see `Ds::infer_view`).
    pub fn infer_view(
        &self,
        view: &Cat,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.infer_sharded(&ShardedView::from_cat(view, 1), options)
    }

    /// Run LFC on a task-range sharded view — bit-identical at any shard
    /// count; see `DsEngine::run`. `options.warm_start` resumes from a
    /// previous run's state.
    pub fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.engine().run(view, options)
    }
}

impl TruthInference for Lfc {
    fn name(&self) -> &'static str {
        "LFC"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;
    use crate::methods::Ds;
    use crate::WorkerQuality;

    #[test]
    fn reasonable_on_toy_example() {
        let d = toy();
        let r = Lfc::default()
            .infer(&d, &InferenceOptions::seeded(1))
            .unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn strong_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Lfc::default(), &d, 0.85);
    }

    #[test]
    fn priors_pull_sparse_workers_toward_competence() {
        // A worker with a single answer: D&S's near-ML estimate is extreme,
        // LFC's prior keeps the diagonal near the prior mean.
        use crowd_data::{DatasetBuilder, TaskType};
        let mut b = DatasetBuilder::new("sparse", TaskType::DecisionMaking, 4, 4);
        // Three dense workers answering everything correctly-ish.
        for t in 0..4 {
            for w in 0..3 {
                b.add_label(t, w, (t % 2) as u8).unwrap();
            }
        }
        // Worker 3 answers one task, wrongly.
        b.add_label(0, 3, 1).unwrap();
        let d = b.build();
        let lfc = Lfc::default()
            .infer(&d, &InferenceOptions::seeded(0))
            .unwrap();
        let ds = Ds.infer(&d, &InferenceOptions::seeded(0)).unwrap();
        let diag = |q: &WorkerQuality| match q {
            WorkerQuality::Confusion(m) => (m[0][0] + m[1][1]) / 2.0,
            _ => panic!("expected confusion"),
        };
        let lfc_d = diag(&lfc.worker_quality[3]);
        let ds_d = diag(&ds.worker_quality[3]);
        assert!(
            lfc_d > ds_d + 0.05,
            "prior should lift the sparse worker: LFC {lfc_d} vs D&S {ds_d}"
        );
    }

    #[test]
    fn close_to_ds_on_dense_data() {
        let d = small_decision();
        let a = accuracy(
            &d,
            &Lfc::default()
                .infer(&d, &InferenceOptions::seeded(3))
                .unwrap(),
        );
        let b = accuracy(&d, &Ds.infer(&d, &InferenceOptions::seeded(3)).unwrap());
        assert!(
            (a - b).abs() < 0.05,
            "LFC {a} vs D&S {b} diverged on dense data"
        );
    }

    #[test]
    fn rejects_numeric() {
        let d = small_numeric();
        assert!(Lfc::default()
            .infer(&d, &InferenceOptions::default())
            .is_err());
    }
}
