//! Validated construction of [`Dataset`]s.

use std::collections::HashSet;

use crate::error::DataError;
use crate::model::{Answer, AnswerRecord, Dataset, TaskType};

/// Incrementally assembles a [`Dataset`], validating every answer and
/// truth assignment against the task type as it goes.
#[derive(Debug)]
pub struct DatasetBuilder {
    name: String,
    task_type: TaskType,
    num_tasks: usize,
    num_workers: usize,
    records: Vec<AnswerRecord>,
    seen: HashSet<(usize, usize)>,
    truths: Vec<Option<Answer>>,
}

impl DatasetBuilder {
    /// Start a dataset with a fixed task/worker universe.
    pub fn new(
        name: impl Into<String>,
        task_type: TaskType,
        num_tasks: usize,
        num_workers: usize,
    ) -> Self {
        Self {
            name: name.into(),
            task_type,
            num_tasks,
            num_workers,
            records: Vec::new(),
            seen: HashSet::new(),
            truths: vec![None; num_tasks],
        }
    }

    fn check_indices(&self, task: usize, worker: usize) -> Result<(), DataError> {
        if task >= self.num_tasks {
            return Err(DataError::TaskOutOfRange {
                task,
                num_tasks: self.num_tasks,
            });
        }
        if worker >= self.num_workers {
            // Reuse the task error shape for workers to keep the enum small;
            // callers mostly care that construction failed loudly.
            return Err(DataError::TaskOutOfRange {
                task: worker,
                num_tasks: self.num_workers,
            });
        }
        Ok(())
    }

    /// Record `worker`'s answer for `task`.
    pub fn add_answer(
        &mut self,
        task: usize,
        worker: usize,
        answer: Answer,
    ) -> Result<(), DataError> {
        self.check_indices(task, worker)?;
        self.task_type.check_answer(&answer)?;
        if !self.seen.insert((task, worker)) {
            return Err(DataError::DuplicateAnswer { task, worker });
        }
        self.records.push(AnswerRecord {
            task,
            worker,
            answer,
        });
        Ok(())
    }

    /// Convenience: record a categorical answer.
    pub fn add_label(&mut self, task: usize, worker: usize, label: u8) -> Result<(), DataError> {
        self.add_answer(task, worker, Answer::Label(label))
    }

    /// Convenience: record a numeric answer.
    pub fn add_numeric(&mut self, task: usize, worker: usize, value: f64) -> Result<(), DataError> {
        self.add_answer(task, worker, Answer::Numeric(value))
    }

    /// Set the ground truth of a task.
    pub fn set_truth(&mut self, task: usize, truth: Answer) -> Result<(), DataError> {
        if task >= self.num_tasks {
            return Err(DataError::TaskOutOfRange {
                task,
                num_tasks: self.num_tasks,
            });
        }
        self.task_type.check_answer(&truth)?;
        self.truths[task] = Some(truth);
        Ok(())
    }

    /// Convenience: set a categorical ground truth.
    pub fn set_truth_label(&mut self, task: usize, label: u8) -> Result<(), DataError> {
        self.set_truth(task, Answer::Label(label))
    }

    /// Convenience: set a numeric ground truth.
    pub fn set_truth_numeric(&mut self, task: usize, value: f64) -> Result<(), DataError> {
        self.set_truth(task, Answer::Numeric(value))
    }

    /// Number of answers recorded so far.
    pub fn num_answers(&self) -> usize {
        self.records.len()
    }

    /// Snapshot of the categorical answers recorded so far as
    /// `(task, worker, label)` triples (numeric answers are skipped).
    /// Used by online collection policies that need to re-score interim
    /// answers.
    pub fn snapshot_records(&self) -> Vec<(usize, usize, u8)> {
        self.records
            .iter()
            .filter_map(|r| r.answer.label().map(|l| (r.task, r.worker, l)))
            .collect()
    }

    /// Finish and produce the immutable [`Dataset`].
    pub fn build(self) -> Dataset {
        Dataset::from_parts(
            self.name,
            self.task_type,
            self.num_tasks,
            self.num_workers,
            self.records,
            self.truths,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicate_answers() {
        let mut b = DatasetBuilder::new("d", TaskType::DecisionMaking, 2, 2);
        b.add_label(0, 0, 0).unwrap();
        assert!(matches!(
            b.add_label(0, 0, 1),
            Err(DataError::DuplicateAnswer { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_task_and_worker() {
        let mut b = DatasetBuilder::new("d", TaskType::DecisionMaking, 2, 2);
        assert!(b.add_label(2, 0, 0).is_err());
        assert!(b.add_label(0, 5, 0).is_err());
    }

    #[test]
    fn rejects_label_out_of_range() {
        let mut b = DatasetBuilder::new("d", TaskType::SingleChoice { choices: 3 }, 1, 1);
        assert!(b.add_label(0, 0, 2).is_ok());
        let mut b2 = DatasetBuilder::new("d", TaskType::SingleChoice { choices: 3 }, 1, 1);
        assert!(matches!(
            b2.add_label(0, 0, 3),
            Err(DataError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_kind_mismatch() {
        let mut b = DatasetBuilder::new("d", TaskType::Numeric, 1, 1);
        assert!(b.add_label(0, 0, 0).is_err());
        assert!(b.add_numeric(0, 0, 3.5).is_ok());
        let mut b2 = DatasetBuilder::new("d", TaskType::Numeric, 1, 1);
        assert!(b2.add_numeric(0, 0, f64::NAN).is_err());
    }

    #[test]
    fn truth_validation() {
        let mut b = DatasetBuilder::new("d", TaskType::DecisionMaking, 2, 1);
        assert!(b.set_truth_label(0, 1).is_ok());
        assert!(b.set_truth_label(0, 9).is_err());
        assert!(b.set_truth_label(7, 0).is_err());
        assert!(b.set_truth_numeric(1, 1.0).is_err());
    }

    #[test]
    fn build_produces_consistent_dataset() {
        let mut b = DatasetBuilder::new("d", TaskType::Numeric, 2, 2);
        b.add_numeric(0, 0, 1.0).unwrap();
        b.add_numeric(0, 1, 3.0).unwrap();
        b.add_numeric(1, 0, -2.0).unwrap();
        b.set_truth_numeric(0, 2.0).unwrap();
        let d = b.build();
        assert_eq!(d.name(), "d");
        assert_eq!(d.num_answers(), 3);
        assert_eq!(d.num_truths(), 1);
        assert_eq!(d.truth(0), Some(Answer::Numeric(2.0)));
    }
}
