//! The paper's redundancy sub-sampling protocol (§6.3.1).
//!
//! "We vary the data redundancy r, where for each specific r, we randomly
//! select r out of the collected answers for each task, and construct a
//! dataset with the selected answers."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{AnswerRecord, Dataset};

/// Construct a copy of `dataset` keeping at most `r` randomly chosen
/// answers per task. Tasks with fewer than `r` answers keep everything
/// (matching the paper's protocol on ragged logs).
///
/// Allocates per dataset, not per task: the kept log is sized exactly up
/// front, and every task is shuffled in one reused scratch vector.
pub fn subsample_redundancy(dataset: &Dataset, r: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = dataset.num_tasks();
    let mut kept: Vec<AnswerRecord> =
        Vec::with_capacity((0..n).map(|t| dataset.task_degree(t).min(r)).sum());
    let mut answers: Vec<AnswerRecord> = Vec::with_capacity(dataset.max_task_degree());
    for task in 0..n {
        answers.clear();
        answers.extend(dataset.answers_for_task(task).copied());
        if answers.len() > r {
            // Partial Fisher–Yates: the first r slots become a uniform
            // sample without replacement.
            for i in 0..r {
                let j = rng.gen_range(i..answers.len());
                answers.swap(i, j);
            }
            answers.truncate(r);
        }
        kept.extend_from_slice(&answers);
    }
    dataset.with_records(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::toy::paper_example;

    #[test]
    fn caps_every_task_at_r() {
        let d = datasets::d_possent(0.1, 3); // redundancy 20
        for r in [1, 5, 10] {
            let sub = subsample_redundancy(&d, r, 7);
            for task in 0..sub.num_tasks() {
                assert_eq!(sub.task_degree(task), r, "task {task} at r={r}");
            }
            assert_eq!(sub.num_answers(), r * sub.num_tasks());
        }
    }

    #[test]
    fn keeps_all_when_r_exceeds_degree() {
        let d = paper_example(); // degrees 2..3
        let sub = subsample_redundancy(&d, 10, 1);
        assert_eq!(sub.num_answers(), d.num_answers());
    }

    #[test]
    fn sample_is_a_subset_of_original() {
        let d = datasets::d_possent(0.05, 9);
        let sub = subsample_redundancy(&d, 3, 2);
        for r in sub.records() {
            assert!(
                d.answers_for_task(r.task)
                    .any(|o| o.worker == r.worker && o.answer == r.answer),
                "record {r:?} not in original"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let d = datasets::d_possent(0.05, 9);
        let a = subsample_redundancy(&d, 3, 1);
        let b = subsample_redundancy(&d, 3, 2);
        assert_ne!(a.records(), b.records());
        // Same seed reproduces.
        let a2 = subsample_redundancy(&d, 3, 1);
        assert_eq!(a.records(), a2.records());
    }

    #[test]
    fn truth_preserved() {
        let d = paper_example();
        let sub = subsample_redundancy(&d, 1, 5);
        assert_eq!(sub.truths(), d.truths());
    }
}
