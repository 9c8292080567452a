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
    /// `(task, worker)` pairs answered so far, keyed `task << 32 | worker`.
    /// The default (keyed) hasher stays: `read_tsv` feeds file input here.
    seen: HashSet<u64>,
    truths: Vec<Option<Answer>>,
}

impl DatasetBuilder {
    /// Start a dataset with a fixed task/worker universe.
    ///
    /// # Panics
    /// Panics if either universe has more than `2^32` members (the
    /// dataset index names tasks, workers and records by `u32`).
    pub fn new(
        name: impl Into<String>,
        task_type: TaskType,
        num_tasks: usize,
        num_workers: usize,
    ) -> Self {
        Self::with_capacity(name, task_type, num_tasks, num_workers, 0)
    }

    /// [`DatasetBuilder::new`] with room for `answers` answers, for
    /// callers that know the log's size: the record log and the
    /// duplicate set are then sized once instead of growing by doubling.
    ///
    /// # Panics
    /// As [`DatasetBuilder::new`].
    pub fn with_capacity(
        name: impl Into<String>,
        task_type: TaskType,
        num_tasks: usize,
        num_workers: usize,
        answers: usize,
    ) -> Self {
        let fits = |count: usize| count as u64 <= 1 << 32;
        assert!(
            fits(num_tasks) && fits(num_workers),
            "task and worker universes must fit u32 indices"
        );
        Self {
            name: name.into(),
            task_type,
            num_tasks,
            num_workers,
            records: Vec::with_capacity(answers),
            seen: HashSet::with_capacity(answers),
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
            return Err(DataError::WorkerOutOfRange {
                worker,
                num_workers: self.num_workers,
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
        if !self.seen.insert((task as u64) << 32 | worker as u64) {
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
    fn out_of_range_worker_has_its_own_error() {
        let mut b = DatasetBuilder::new("d", TaskType::DecisionMaking, 2, 2);
        let err = b.add_label(0, 5, 0).unwrap_err();
        assert!(
            matches!(
                err,
                DataError::WorkerOutOfRange {
                    worker: 5,
                    num_workers: 2
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "worker index 5 out of range (dataset has 2 workers)"
        );
    }

    #[test]
    fn duplicate_key_separates_task_and_worker_bits() {
        // Every (task, worker) pair of a 3 × 3 grid is its own key:
        // `(1, 0)` and `(0, 1)` must not collide once packed.
        let mut b = DatasetBuilder::with_capacity("d", TaskType::DecisionMaking, 3, 3, 9);
        for t in 0..3 {
            for w in 0..3 {
                b.add_label(t, w, 0).unwrap();
            }
        }
        assert_eq!(b.num_answers(), 9);
        assert!(matches!(
            b.add_label(2, 1, 1),
            Err(DataError::DuplicateAnswer { task: 2, worker: 1 })
        ));
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
