//! The core data model: tasks, workers, answers, and ground truth.
//!
//! Notation follows Table 3 of the paper: a dataset holds the answer set
//! `V = {v_i^w}`, and exposes `W_i` (workers that answered task `t_i`) and
//! `T^w` (tasks answered by worker `w`) through two record-index
//! [`Csr`] indexes, one per axis, built once per dataset by a counting
//! sort: each task's and each worker's answers are a contiguous slice of
//! record indices in log order, with no heap block per task or worker.

use crowd_stats::Csr;

use crate::error::DataError;

/// The kind of tasks a dataset contains (Definition 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskType {
    /// Two-choice true/false tasks (label 0 = 'T', label 1 = 'F' by the
    /// convention used throughout this workspace).
    DecisionMaking,
    /// Single-choice tasks with a fixed number of candidate choices.
    SingleChoice {
        /// Number of candidate choices (the paper's `ℓ`).
        choices: u8,
    },
    /// Tasks answered with a real number (e.g. N_Emotion's score in
    /// `[-100, 100]`).
    Numeric,
}

impl TaskType {
    /// Number of categorical choices, or `None` for numeric tasks.
    pub fn num_choices(&self) -> Option<u8> {
        match self {
            Self::DecisionMaking => Some(2),
            Self::SingleChoice { choices } => Some(*choices),
            Self::Numeric => None,
        }
    }

    /// Whether answers are categorical labels.
    pub fn is_categorical(&self) -> bool {
        !matches!(self, Self::Numeric)
    }

    /// Check that `answer` is a valid answer (or truth) for this task
    /// type: a label below the choice count for categorical tasks, a
    /// finite number for numeric ones.
    pub fn check_answer(&self, answer: &Answer) -> Result<(), DataError> {
        match (self, answer) {
            (Self::Numeric, Answer::Numeric(v)) => {
                if v.is_finite() {
                    Ok(())
                } else {
                    Err(DataError::AnswerKindMismatch {
                        detail: format!("non-finite numeric answer {v}"),
                    })
                }
            }
            (Self::Numeric, Answer::Label(_)) => Err(DataError::AnswerKindMismatch {
                detail: "label answer on a numeric dataset".into(),
            }),
            (t, Answer::Label(l)) => {
                let choices = t.num_choices().expect("categorical task type");
                if *l < choices {
                    Ok(())
                } else {
                    Err(DataError::LabelOutOfRange {
                        label: *l,
                        num_choices: choices,
                    })
                }
            }
            (_, Answer::Numeric(_)) => Err(DataError::AnswerKindMismatch {
                detail: "numeric answer on a categorical dataset".into(),
            }),
        }
    }
}

/// One answer value (Definition 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    /// A categorical choice, `0 ≤ label < ℓ`. For decision-making tasks
    /// label 0 is 'T' (the positive class for F1) and label 1 is 'F'.
    Label(u8),
    /// A numeric value.
    Numeric(f64),
}

impl Answer {
    /// The label if categorical.
    pub fn label(&self) -> Option<u8> {
        match self {
            Self::Label(l) => Some(*l),
            Self::Numeric(_) => None,
        }
    }

    /// The numeric value if numeric.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Self::Numeric(v) => Some(*v),
            Self::Label(_) => None,
        }
    }
}

/// The positive-class label ('T') for decision-making tasks.
pub const LABEL_TRUE: u8 = 0;
/// The negative-class label ('F') for decision-making tasks.
pub const LABEL_FALSE: u8 = 1;

/// One row of the answer log: worker `worker` answered task `task` with
/// `answer` (the paper's `v_i^w`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerRecord {
    /// Dense task index in `0..num_tasks`.
    pub task: usize,
    /// Dense worker index in `0..num_workers`.
    pub worker: usize,
    /// The answer value.
    pub answer: Answer,
}

/// An immutable crowdsourcing dataset: the answer log plus its per-task
/// and per-worker index and (possibly partial) ground truth.
///
/// Construct via [`crate::DatasetBuilder`], the simulators in
/// [`crate::datasets`], or [`crate::io::read_tsv`].
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    task_type: TaskType,
    num_tasks: usize,
    num_workers: usize,
    records: Vec<AnswerRecord>,
    /// Indices into `records`, grouped by task (the paper's `W_i`), in
    /// log order.
    by_task: Csr<()>,
    /// Indices into `records`, grouped by worker (the paper's `T^w`), in
    /// log order.
    by_worker: Csr<()>,
    /// Ground truth per task; `None` where unknown (S_Rel and S_Adult
    /// publish truth only for a subset of tasks).
    truths: Vec<Option<Answer>>,
    /// Cached `max_i |W_i|` — computed once at build so sweep planners
    /// and shard sizers don't re-scan the adjacency per call.
    max_task_degree: usize,
    /// Cached `|V|/n` (0 for the empty-task-universe degenerate case).
    redundancy: f64,
}

impl Dataset {
    /// Internal constructor used by the builder (which has already
    /// validated everything).
    ///
    /// # Panics
    /// Panics if the log holds more records than a `u32` index can name,
    /// or a record's task or worker is outside the universe.
    pub(crate) fn from_parts(
        name: String,
        task_type: TaskType,
        num_tasks: usize,
        num_workers: usize,
        records: Vec<AnswerRecord>,
        truths: Vec<Option<Answer>>,
    ) -> Self {
        assert!(
            u32::try_from(records.len()).is_ok(),
            "answer log exceeds the u32 record index"
        );
        let by_task = Csr::from_triples(
            num_tasks,
            records
                .iter()
                .enumerate()
                .map(|(idx, r)| (r.task, idx as u32, ())),
        );
        let by_worker = Csr::from_triples(
            num_workers,
            records
                .iter()
                .enumerate()
                .map(|(idx, r)| (r.worker, idx as u32, ())),
        );
        let max_task_degree = by_task.max_row_len();
        let redundancy = if num_tasks == 0 {
            0.0
        } else {
            records.len() as f64 / num_tasks as f64
        };
        Self {
            name,
            task_type,
            num_tasks,
            num_workers,
            records,
            by_task,
            by_worker,
            truths,
            max_task_degree,
            redundancy,
        }
    }

    /// Dataset name (e.g. `"D_Product"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task type.
    pub fn task_type(&self) -> TaskType {
        self.task_type
    }

    /// Number of categorical choices `ℓ`, or `None` for numeric datasets.
    pub fn num_choices(&self) -> Option<u8> {
        self.task_type.num_choices()
    }

    /// Number of tasks `n`.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// Number of workers `|W|`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of collected answers `|V|`.
    pub fn num_answers(&self) -> usize {
        self.records.len()
    }

    /// Average answers per task, the paper's `|V|/n` (Table 5).
    /// Cached at build time — O(1).
    pub fn redundancy(&self) -> f64 {
        self.redundancy
    }

    /// The full answer log.
    pub fn records(&self) -> &[AnswerRecord] {
        &self.records
    }

    /// Answers for task `i` (the paper's `{v_i^w : w ∈ W_i}`).
    pub fn answers_for_task(&self, task: usize) -> impl Iterator<Item = &AnswerRecord> + '_ {
        self.by_task
            .row(task)
            .iter()
            .map(move |&(idx, ())| &self.records[idx as usize])
    }

    /// Answers by worker `w` (the paper's `{v_i^w : t_i ∈ T^w}`).
    pub fn answers_by_worker(&self, worker: usize) -> impl Iterator<Item = &AnswerRecord> + '_ {
        self.by_worker
            .row(worker)
            .iter()
            .map(move |&(idx, ())| &self.records[idx as usize])
    }

    /// Number of workers that answered task `i` (`|W_i|`).
    pub fn task_degree(&self, task: usize) -> usize {
        self.by_task.row_len(task)
    }

    /// Number of tasks worker `w` answered (`|T^w|`).
    pub fn worker_degree(&self, worker: usize) -> usize {
        self.by_worker.row_len(worker)
    }

    /// The largest `|W_i|` over all tasks — the true upper bound of a
    /// redundancy sweep's x-axis. On ragged logs this exceeds the
    /// *rounded mean* redundancy ([`Dataset::redundancy`]), which would
    /// silently truncate the axis. Cached at build time — O(1).
    pub fn max_task_degree(&self) -> usize {
        self.max_task_degree
    }

    /// Ground truth of task `i`, if known.
    pub fn truth(&self, task: usize) -> Option<Answer> {
        self.truths[task]
    }

    /// All ground truths (indexed by task; `None` = unknown).
    pub fn truths(&self) -> &[Option<Answer>] {
        &self.truths
    }

    /// Number of tasks with known ground truth (Table 5's `#truth`).
    pub fn num_truths(&self) -> usize {
        self.truths.iter().filter(|t| t.is_some()).count()
    }

    /// Produce a copy of this dataset that keeps only the given answer
    /// records (used by the redundancy sub-sampling protocol). Ground
    /// truth, task/worker universe and name are preserved.
    pub fn with_records(&self, records: Vec<AnswerRecord>) -> Self {
        Self::from_parts(
            self.name.clone(),
            self.task_type,
            self.num_tasks,
            self.num_workers,
            records,
            self.truths.clone(),
        )
    }

    /// Produce a copy with a different truth vector (used by hidden-test
    /// experiments to blank out truths that should not be visible).
    ///
    /// # Panics
    /// Panics if `truths.len() != num_tasks`.
    pub fn with_truths(&self, truths: Vec<Option<Answer>>) -> Self {
        assert_eq!(truths.len(), self.num_tasks, "truth vector length mismatch");
        let mut copy = self.clone();
        copy.truths = truths;
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;

    fn tiny() -> Dataset {
        let mut b = DatasetBuilder::new("tiny", TaskType::DecisionMaking, 3, 2);
        b.add_label(0, 0, 0).unwrap();
        b.add_label(0, 1, 1).unwrap();
        b.add_label(1, 0, 1).unwrap();
        b.add_label(2, 1, 0).unwrap();
        b.set_truth_label(0, 0).unwrap();
        b.set_truth_label(1, 1).unwrap();
        b.build()
    }

    #[test]
    fn adjacency_matches_log() {
        let d = tiny();
        assert_eq!(d.num_answers(), 4);
        assert_eq!(d.task_degree(0), 2);
        assert_eq!(d.task_degree(1), 1);
        assert_eq!(d.task_degree(2), 1);
        assert_eq!(d.worker_degree(0), 2);
        assert_eq!(d.worker_degree(1), 2);
        let w_for_t0: Vec<usize> = d.answers_for_task(0).map(|r| r.worker).collect();
        assert_eq!(w_for_t0, vec![0, 1]);
        let t_for_w1: Vec<usize> = d.answers_by_worker(1).map(|r| r.task).collect();
        assert_eq!(t_for_w1, vec![0, 2]);
    }

    #[test]
    fn redundancy_is_answers_over_tasks() {
        let d = tiny();
        assert!((d.redundancy() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_task_degree_exceeds_rounded_mean_on_ragged_logs() {
        // Degrees 2/1/1: mean 4/3 rounds to 1, but one task has 2
        // answers — the sweep x-axis must reach 2, not 1.
        let d = tiny();
        assert_eq!(d.max_task_degree(), 2);
        assert_eq!(d.redundancy().round() as usize, 1);
        // Degenerate: a dataset with no answers.
        let empty = DatasetBuilder::new("e", TaskType::DecisionMaking, 2, 1).build();
        assert_eq!(empty.max_task_degree(), 0);
    }

    #[test]
    fn cached_degree_stats_pinned_on_ragged_log() {
        // The cached values must equal the scan-on-demand results they
        // replaced: degrees 2/1/1 → max 2, |V|/n = 4/3; and derived
        // copies must refresh (with_records) or preserve (with_truths)
        // them correctly.
        let d = tiny();
        assert_eq!(d.max_task_degree(), 2);
        assert!((d.redundancy() - 4.0 / 3.0).abs() < 1e-15);
        let sub = d.with_records(d.records()[..1].to_vec());
        assert_eq!(sub.max_task_degree(), 1);
        assert!((sub.redundancy() - 1.0 / 3.0).abs() < 1e-15);
        let blanked = d.with_truths(vec![None; 3]);
        assert_eq!(blanked.max_task_degree(), 2);
        assert!((blanked.redundancy() - 4.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn partial_truth_counted() {
        let d = tiny();
        assert_eq!(d.num_truths(), 2);
        assert_eq!(d.truth(0), Some(Answer::Label(0)));
        assert_eq!(d.truth(2), None);
    }

    #[test]
    fn check_answer_enforces_kinds_and_ranges() {
        let t = tiny().task_type();
        assert!(t.check_answer(&Answer::Label(1)).is_ok());
        assert!(matches!(
            t.check_answer(&Answer::Label(2)),
            Err(DataError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            t.check_answer(&Answer::Numeric(1.0)),
            Err(DataError::AnswerKindMismatch { .. })
        ));
        let numeric = TaskType::Numeric;
        assert!(numeric.check_answer(&Answer::Numeric(-3.5)).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                numeric.check_answer(&Answer::Numeric(bad)),
                Err(DataError::AnswerKindMismatch { .. })
            ));
        }
        assert!(matches!(
            numeric.check_answer(&Answer::Label(0)),
            Err(DataError::AnswerKindMismatch { .. })
        ));
    }

    #[test]
    fn with_records_preserves_universe() {
        let d = tiny();
        let kept: Vec<AnswerRecord> = d
            .records()
            .iter()
            .filter(|r| r.worker == 0)
            .copied()
            .collect();
        let sub = d.with_records(kept);
        assert_eq!(sub.num_tasks(), 3);
        assert_eq!(sub.num_workers(), 2);
        assert_eq!(sub.num_answers(), 2);
        assert_eq!(sub.truth(0), Some(Answer::Label(0)));
    }

    #[test]
    fn task_type_choices() {
        assert_eq!(TaskType::DecisionMaking.num_choices(), Some(2));
        assert_eq!(TaskType::SingleChoice { choices: 4 }.num_choices(), Some(4));
        assert_eq!(TaskType::Numeric.num_choices(), None);
        assert!(TaskType::DecisionMaking.is_categorical());
        assert!(!TaskType::Numeric.is_categorical());
    }
}
