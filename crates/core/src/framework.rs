//! The inference trait, options, results, and errors shared by all
//! seventeen methods.

use crowd_data::{Answer, Dataset, TaskType};
use crowd_stats::DMat;
use std::fmt;
use std::sync::Arc;

use crate::views::ShardedView;

/// How a method initialises worker qualities (line 1 of Algorithm 1).
#[derive(Debug, Clone, Default)]
pub enum QualityInit {
    /// Every worker starts at the method's default quality.
    #[default]
    Uniform,
    /// Initialise from a qualification test: per-worker accuracy in
    /// `[0, 1]` (`None` for workers without a test score, who fall back
    /// to the default). For numeric methods the value is the accuracy
    /// proxy produced by `crowd_data::bootstrap_qualification`.
    Qualification(Vec<Option<f64>>),
}

/// Converged state carried from one inference run into the next — the
/// substrate of incremental/streaming re-convergence (`crowd-stream`).
///
/// When answers arrive over time, re-running EM from the majority-vote
/// initialisation discards everything the previous run learned. A warm
/// start reuses the previous run's **posteriors** and **worker quality
/// parameters** (confusion matrices for the D&S family, correctness
/// probabilities for ZC/GLAD) as the starting point, so the loop only has
/// to absorb the new answers' evidence. At an unchanged answer log the
/// warmed loop re-converges at the same fixed point as a cold run
/// (labels exactly, parameters within the convergence tolerance — see
/// the `crowd-stream` equivalence tests).
///
/// Rows and vectors are indexed by the *previous* run's task/worker ids;
/// entries past the end (tasks or workers that appeared since) fall back
/// to the method's cold initialisation. Methods that do not support warm
/// starts ignore the field.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Per-task posterior over the `ℓ` choices from the previous run
    /// (`InferenceResult::posteriors`, shared, not copied); `None` for
    /// methods that did not produce one.
    pub posteriors: Option<Arc<DMat>>,
    /// Per-worker quality from the previous run
    /// (`InferenceResult::worker_quality`).
    pub worker_quality: Vec<WorkerQuality>,
}

impl WarmStart {
    /// Capture the warm-startable state of a finished run. The
    /// posteriors are shared with `result` (one `Arc` clone).
    pub fn from_result(result: &InferenceResult) -> Self {
        Self {
            posteriors: result.posteriors.clone(),
            worker_quality: result.worker_quality.clone(),
        }
    }
}

/// Options shared by every method.
#[derive(Debug, Clone)]
pub struct InferenceOptions {
    /// Iteration cap for the outer two-step loop (paper default: enough
    /// to converge; we cap at 100).
    pub max_iterations: usize,
    /// Convergence tolerance on the mean absolute parameter change
    /// (paper example: 1e-3).
    pub tolerance: f64,
    /// Seed for any stochastic component (tie breaking, Gibbs sampling,
    /// message initialisation). Same seed ⇒ same output.
    pub seed: u64,
    /// Worker-quality initialisation.
    pub quality_init: QualityInit,
    /// Hidden-test golden tasks: a full-length truth vector with `Some`
    /// exactly at tasks whose truth the method may use (Section 6.3.3).
    /// Methods that support golden tasks clamp these truths in their
    /// truth-inference step and use them in their quality-estimation
    /// step; others ignore the field.
    pub golden: Option<Vec<Option<Answer>>>,
    /// Cap for a method's *internal* parallel fan-out (the size-gated
    /// E/M-step fan-out of the D&S family). `None` = use the machine's
    /// available parallelism. Callers that already fan out at a higher
    /// level (e.g. the experiment harness running repeats in parallel)
    /// should set `Some(1)` to avoid oversubscribing the machine. Thread
    /// count never changes results — per-task/per-worker updates are
    /// independent, so outputs are bit-identical at any setting.
    pub threads: Option<usize>,
    /// Resume from a previous run's converged state instead of the cold
    /// initialisation (majority vote / uniform qualities). Supported by
    /// the EM-family categorical methods (D&S, LFC, ZC, GLAD); others
    /// ignore it. Takes precedence over `quality_init` when both are
    /// set.
    pub warm_start: Option<WarmStart>,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-3,
            seed: 0,
            quality_init: QualityInit::Uniform,
            golden: None,
            threads: None,
            warm_start: None,
        }
    }
}

impl InferenceOptions {
    /// Options with a specific seed, otherwise defaults.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// A method's estimate of one worker's quality, in whatever shape the
/// method models it (Section 4.2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerQuality {
    /// Probability of answering correctly, in `[0, 1]`.
    Probability(f64),
    /// Unbounded reliability weight (PM, CATD).
    Weight(f64),
    /// Row-stochastic confusion matrix, `q[j][k] = Pr(answer k | truth j)`.
    Confusion(Vec<Vec<f64>>),
    /// Numeric answer variance (LFC_N); smaller is better.
    Variance(f64),
    /// Bias and variance of a numeric worker (Multi-style models).
    BiasVariance {
        /// Additive bias.
        bias: f64,
        /// Noise variance.
        variance: f64,
    },
    /// Per-topic skill vector (Multi, Minimax-style diverse skills).
    Skills(Vec<f64>),
    /// The method does not model workers (MV, Mean, Median).
    Unmodeled,
}

impl WorkerQuality {
    /// Collapse to a scalar "higher is better" score where possible, for
    /// reporting and histograms.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Self::Probability(p) => Some(*p),
            Self::Weight(w) => Some(*w),
            Self::Confusion(m) => {
                // Mean diagonal: average per-class accuracy. A ragged or
                // short row has no diagonal entry to read — report "no
                // scalar" instead of panicking on malformed input.
                let l = m.len();
                if l == 0 || m.iter().enumerate().any(|(j, row)| row.len() <= j) {
                    return None;
                }
                Some(m.iter().enumerate().map(|(j, row)| row[j]).sum::<f64>() / l as f64)
            }
            Self::Variance(v) => Some(1.0 / (1.0 + v)),
            Self::BiasVariance { bias, variance } => {
                Some(1.0 / (1.0 + bias.abs() + variance.sqrt()))
            }
            Self::Skills(s) => {
                if s.is_empty() {
                    None
                } else {
                    Some(s.iter().sum::<f64>() / s.len() as f64)
                }
            }
            Self::Unmodeled => None,
        }
    }
}

/// Output of one inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Inferred truth per task (always full length; tasks with no answers
    /// get the method's prior guess).
    pub truths: Vec<Answer>,
    /// Estimated quality per worker.
    pub worker_quality: Vec<WorkerQuality>,
    /// Outer iterations executed (1 for direct methods).
    pub iterations: usize,
    /// Whether the convergence criterion was met (always true for direct
    /// methods).
    pub converged: bool,
    /// For categorical tasks: the `n × ℓ` per-task posterior over the
    /// `ℓ` choices (row `t` is task `t`), when the method computes one.
    /// It is the method's own matrix, handed over without a copy and
    /// shared by `Arc` with any warm start or snapshot built from it.
    pub posteriors: Option<Arc<DMat>>,
}

/// Errors a method can raise.
#[derive(Debug)]
pub enum InferenceError {
    /// The method does not handle this task type (Table 4's "Task Types"
    /// column; e.g. KOS is decision-making only).
    UnsupportedTaskType {
        /// The method name.
        method: &'static str,
        /// The offending task type.
        task_type: TaskType,
    },
    /// The dataset has no answers.
    EmptyDataset,
    /// An option vector had the wrong length (e.g. a qualification vector
    /// not matching the worker count).
    BadOptions {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnsupportedTaskType { method, task_type } => {
                write!(f, "{method} does not support task type {task_type:?}")
            }
            Self::EmptyDataset => write!(f, "dataset contains no answers"),
            Self::BadOptions { detail } => write!(f, "bad options: {detail}"),
        }
    }
}

impl std::error::Error for InferenceError {}

/// The unifying interface: every method in Table 4 implements this.
pub trait TruthInference {
    /// The method's name as used in the paper (e.g. `"D&S"`).
    fn name(&self) -> &'static str;

    /// Whether the method can run on datasets of this task type.
    fn supports(&self, task_type: TaskType) -> bool;

    /// Whether worker qualities can be initialised from a qualification
    /// test (the paper finds 8 such methods, §6.3.2).
    fn supports_qualification(&self) -> bool {
        false
    }

    /// Whether hidden-test golden tasks can be incorporated (the paper
    /// finds 9 such methods, §6.3.3).
    fn supports_golden(&self) -> bool {
        false
    }

    /// Run inference over the answer set. The provided body serves every
    /// categorical method: it validates the dataset and options, builds
    /// the one-shard view (golden clamps when the method supports golden
    /// tasks) and runs [`Self::infer_sharded`]. Methods with a numeric
    /// path override it.
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
        let view = ShardedView::build(self.name(), dataset, options, self.supports_golden())?;
        self.infer_sharded(&view, options)
    }

    /// Run inference on a prebuilt categorical view at any shard count
    /// (the entry point `crowd-stream` converges through). Golden clamps
    /// come from the view, not `options.golden`; `options.warm_start`
    /// resumes the methods that support it. Outputs are bit-identical at
    /// every shard count and on every arrival order that keeps each
    /// task's own answer sequence.
    ///
    /// A view with `ℓ = 2` counts as decision-making. The provided body
    /// is for methods without a categorical path: it rejects every view.
    fn infer_sharded(
        &self,
        view: &ShardedView,
        _options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        Err(InferenceError::UnsupportedTaskType {
            method: self.name(),
            task_type: view_task_type(view),
        })
    }
}

/// The task type a categorical view stands for: decision-making at
/// `ℓ = 2`, single-choice otherwise.
fn view_task_type(view: &ShardedView) -> TaskType {
    match view.l {
        2 => TaskType::DecisionMaking,
        l => TaskType::SingleChoice {
            choices: u8::try_from(l).unwrap_or(u8::MAX),
        },
    }
}

/// The typed errors `infer` would return, for a prebuilt view: the task
/// type the view stands for must be supported, the view must hold
/// answers, and a qualification vector must match its worker count.
pub(crate) fn validate_view<M: TruthInference + ?Sized>(
    method: &M,
    view: &ShardedView,
    options: &InferenceOptions,
) -> Result<(), InferenceError> {
    let task_type = view_task_type(view);
    if !method.supports(task_type) {
        return Err(InferenceError::UnsupportedTaskType {
            method: method.name(),
            task_type,
        });
    }
    if view.num_answers() == 0 {
        return Err(InferenceError::EmptyDataset);
    }
    validate_qualification(view.m, options)
}

/// A qualification vector must match the worker count, or the
/// per-worker init loops would index past its end.
fn validate_qualification(
    num_workers: usize,
    options: &InferenceOptions,
) -> Result<(), InferenceError> {
    if let QualityInit::Qualification(q) = &options.quality_init {
        if q.len() != num_workers {
            return Err(InferenceError::BadOptions {
                detail: format!(
                    "qualification vector has {} entries for {} workers",
                    q.len(),
                    num_workers
                ),
            });
        }
    }
    Ok(())
}

/// Validate the parts of [`InferenceOptions`] that are method-independent
/// (shared by every implementation). Golden truths must be well-formed
/// answers for the dataset's task type — a label in range, or a finite
/// number — under the same rule the dataset builder applies to answers.
pub(crate) fn validate_common(
    method: &'static str,
    dataset: &Dataset,
    options: &InferenceOptions,
    supports: bool,
) -> Result<(), InferenceError> {
    if !supports {
        return Err(InferenceError::UnsupportedTaskType {
            method,
            task_type: dataset.task_type(),
        });
    }
    if dataset.num_answers() == 0 {
        return Err(InferenceError::EmptyDataset);
    }
    validate_qualification(dataset.num_workers(), options)?;
    if let Some(g) = &options.golden {
        if g.len() != dataset.num_tasks() {
            return Err(InferenceError::BadOptions {
                detail: format!(
                    "golden vector has {} entries for {} tasks",
                    g.len(),
                    dataset.num_tasks()
                ),
            });
        }
        for (task, truth) in g.iter().enumerate() {
            if let Some(truth) = truth {
                dataset.task_type().check_answer(truth).map_err(|e| {
                    InferenceError::BadOptions {
                        detail: format!("golden truth of task {task}: {e}"),
                    }
                })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_scalar_shapes() {
        assert_eq!(WorkerQuality::Probability(0.7).scalar(), Some(0.7));
        assert_eq!(WorkerQuality::Weight(2.5).scalar(), Some(2.5));
        let conf = WorkerQuality::Confusion(vec![vec![0.8, 0.2], vec![0.4, 0.6]]);
        assert_eq!(conf.scalar(), Some(0.7));
        assert_eq!(WorkerQuality::Unmodeled.scalar(), None);
        let v = WorkerQuality::Variance(3.0).scalar().unwrap();
        assert!((v - 0.25).abs() < 1e-12);
    }

    #[test]
    fn malformed_confusion_yields_none_instead_of_panicking() {
        // Empty matrix.
        assert_eq!(WorkerQuality::Confusion(vec![]).scalar(), None);
        // Ragged: second row too short to hold its diagonal entry.
        let ragged = WorkerQuality::Confusion(vec![vec![0.9, 0.1], vec![0.3]]);
        assert_eq!(ragged.scalar(), None);
        // Uniformly short rows (no row reaches its diagonal column).
        let short = WorkerQuality::Confusion(vec![vec![1.0], vec![1.0]]);
        assert_eq!(short.scalar(), None);
        // A square-but-wider matrix still works.
        let wide = WorkerQuality::Confusion(vec![vec![0.6, 0.4, 0.0], vec![0.2, 0.8, 0.0]]);
        assert_eq!(wide.scalar(), Some(0.7));
    }

    /// The error variant of a run, or `"ok"`.
    fn outcome(r: Result<InferenceResult, InferenceError>) -> &'static str {
        match r {
            Ok(_) => "ok",
            Err(InferenceError::UnsupportedTaskType { .. }) => "unsupported task type",
            Err(InferenceError::EmptyDataset) => "empty dataset",
            Err(InferenceError::BadOptions { .. }) => "bad options",
        }
    }

    #[test]
    fn malformed_golden_truths_are_bad_options() {
        use crowd_data::datasets::PaperDataset;
        let product = PaperDataset::DProduct.generate(0.02, 3); // ℓ = 2
        let emotion = PaperDataset::NEmotion.generate(0.1, 3);
        let cases = [
            (&product, Answer::Label(5)),
            (&product, Answer::Numeric(1.0)),
            (&emotion, Answer::Label(0)),
            (&emotion, Answer::Numeric(f64::NAN)),
        ];
        for method in crate::Method::ALL.map(|m| m.build()) {
            if !method.supports_golden() {
                continue;
            }
            for (d, truth) in cases.iter().filter(|(d, _)| method.supports(d.task_type())) {
                let mut golden = vec![None; d.num_tasks()];
                golden[1] = Some(*truth);
                let options = InferenceOptions {
                    golden: Some(golden),
                    ..InferenceOptions::seeded(1)
                };
                assert_eq!(
                    outcome(method.infer(d, &options)),
                    "bad options",
                    "{} with golden {truth:?} on {}",
                    method.name(),
                    d.name()
                );
            }
        }
    }

    #[test]
    fn infer_sharded_returns_the_typed_errors_of_infer() {
        use crowd_data::datasets::PaperDataset;
        use crowd_data::DatasetBuilder;
        let bad_qualification = InferenceOptions {
            quality_init: QualityInit::Qualification(vec![Some(0.9)]),
            ..InferenceOptions::default()
        };
        let unanswered = DatasetBuilder::new("unanswered", TaskType::DecisionMaking, 3, 2).build();
        let cases = [
            (PaperDataset::DProduct.generate(0.02, 3), &bad_qualification),
            (PaperDataset::SRel.generate(0.02, 3), &bad_qualification),
            (unanswered, &InferenceOptions::default()),
        ];
        for method in crate::Method::ALL.map(|m| m.build()) {
            for (d, options) in &cases {
                let view = ShardedView::build("test", d, options, false).expect("categorical");
                let expected = outcome(method.infer(d, options));
                assert_ne!(expected, "ok", "{} on {}", method.name(), d.name());
                assert_eq!(
                    outcome(method.infer_sharded(&view, options)),
                    expected,
                    "{} on {}",
                    method.name(),
                    d.name()
                );
            }
        }
    }

    #[test]
    fn default_options_match_paper() {
        let o = InferenceOptions::default();
        assert_eq!(o.max_iterations, 100);
        assert!((o.tolerance - 1e-3).abs() < 1e-15);
        assert!(o.golden.is_none());
    }
}
