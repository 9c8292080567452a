//! Golden-task machinery: qualification tests and hidden tests.
//!
//! Section 6.3.2 of the paper initializes worker qualities from a
//! *qualification test*: for each worker, bootstrap-sample 20 of her
//! answers (with replacement), assume those tasks' truths are known, and
//! score her. Section 6.3.3 evaluates a *hidden test*: reveal the truth of
//! a random p% of tasks to the method and evaluate on the remainder.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Answer, Dataset};

/// Result of simulating a qualification test for every worker.
#[derive(Debug, Clone)]
pub struct QualificationResult {
    /// Per-worker fraction of the sampled golden tasks answered correctly
    /// (`None` for workers with no scorable answers).
    pub accuracy: Vec<Option<f64>>,
    /// For numeric datasets, the per-worker RMSE over the sampled golden
    /// tasks (`None` where unscorable).
    pub rmse: Vec<Option<f64>>,
    /// Number of golden tasks sampled per worker.
    pub test_size: usize,
}

/// Simulate a qualification test via bootstrap sampling, exactly as in
/// §6.3.2: for each worker draw `test_size` of her (answer, truth) pairs
/// with replacement — only answers whose task has known truth participate
/// — and compute her score. A test of size 0 scores nobody.
pub fn bootstrap_qualification(
    dataset: &Dataset,
    test_size: usize,
    seed: u64,
) -> QualificationResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accuracy = vec![None; dataset.num_workers()];
    let mut rmse = vec![None; dataset.num_workers()];

    for w in 0..dataset.num_workers() {
        let scorable: Vec<(&Answer, Answer)> = dataset
            .answers_by_worker(w)
            .filter_map(|r| dataset.truth(r.task).map(|t| (&r.answer, t)))
            .collect();
        if scorable.is_empty() || test_size == 0 {
            continue;
        }
        let mut correct = 0usize;
        let mut sq_err = 0.0;
        let mut numeric = false;
        for _ in 0..test_size {
            let (ans, truth) = scorable[rng.gen_range(0..scorable.len())];
            match (ans, truth) {
                (Answer::Label(a), Answer::Label(t)) if a == &t => {
                    correct += 1;
                }
                (Answer::Numeric(a), Answer::Numeric(t)) => {
                    numeric = true;
                    sq_err += (a - t).powi(2);
                }
                _ => {}
            }
        }
        if numeric {
            rmse[w] = Some((sq_err / test_size as f64).sqrt());
            // A numeric "accuracy" proxy in (0, 1]: shrink with error so
            // methods that expect a probability can still be initialized.
            let r = (sq_err / test_size as f64).sqrt();
            accuracy[w] = Some(1.0 / (1.0 + r / 10.0));
        } else {
            accuracy[w] = Some(correct as f64 / test_size as f64);
        }
    }

    QualificationResult {
        accuracy,
        rmse,
        test_size,
    }
}

/// A hidden-test split: the tasks whose truth is revealed to the method,
/// and the evaluation set (everything else with known truth).
#[derive(Debug, Clone)]
pub struct GoldenSplit {
    /// Task indices whose truth the method may see.
    pub golden: Vec<usize>,
    /// Task indices held out for evaluation.
    pub eval: Vec<usize>,
    /// Truth vector with only golden tasks revealed (input to methods).
    pub revealed: Vec<Option<Answer>>,
}

impl GoldenSplit {
    /// Sample a hidden-test split revealing `fraction` of the tasks with
    /// known truth (the paper's p%, §6.3.3).
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn sample(dataset: &Dataset, fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction in [0,1], got {fraction}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let with_truth: Vec<usize> = (0..dataset.num_tasks())
            .filter(|&t| dataset.truth(t).is_some())
            .collect();
        let mut shuffled = with_truth;
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        let k = (fraction * shuffled.len() as f64).round() as usize;
        let golden: Vec<usize> = shuffled[..k].to_vec();
        let eval: Vec<usize> = shuffled[k..].to_vec();

        let mut revealed = vec![None; dataset.num_tasks()];
        for &t in &golden {
            revealed[t] = dataset.truth(t);
        }
        Self {
            golden,
            eval,
            revealed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::toy::paper_example;

    #[test]
    fn qualification_scores_toy_workers_in_order() {
        let d = paper_example();
        let q = bootstrap_qualification(&d, 200, 42);
        // Ground-truth accuracies are w1: 2/6, w2: 2/5, w3: 6/6; the
        // bootstrap estimate should preserve the ordering.
        let a: Vec<f64> = q.accuracy.iter().map(|x| x.unwrap()).collect();
        assert!(a[2] > a[1] && a[1] > a[0], "got {a:?}");
        assert!((a[2] - 1.0).abs() < 1e-9, "w3 is perfect: {}", a[2]);
    }

    #[test]
    fn empty_qualification_test_scores_nobody() {
        for d in [datasets::d_product(0.05, 7), datasets::n_emotion(0.2, 7)] {
            let q = bootstrap_qualification(&d, 0, 5);
            assert_eq!(q.accuracy, vec![None; d.num_workers()], "{}", d.name());
            assert_eq!(q.rmse, vec![None; d.num_workers()], "{}", d.name());
        }
    }

    #[test]
    fn qualification_handles_numeric() {
        let d = datasets::n_emotion(0.2, 7);
        let q = bootstrap_qualification(&d, 20, 1);
        let scored = q.rmse.iter().flatten().count();
        assert!(scored > 0);
        for r in q.rmse.iter().flatten() {
            assert!(*r >= 0.0);
        }
        for a in q.accuracy.iter().flatten() {
            assert!(*a > 0.0 && *a <= 1.0);
        }
    }

    #[test]
    fn golden_split_partitions_truth_tasks() {
        let d = datasets::d_possent(0.3, 3);
        let split = GoldenSplit::sample(&d, 0.3, 5);
        let total = d.num_truths();
        assert_eq!(split.golden.len() + split.eval.len(), total);
        assert!((split.golden.len() as f64 / total as f64 - 0.3).abs() < 0.01);
        // Revealed vector shows truth exactly on golden tasks.
        for &t in &split.golden {
            assert!(split.revealed[t].is_some());
        }
        for &t in &split.eval {
            assert!(split.revealed[t].is_none());
        }
    }

    #[test]
    fn golden_split_zero_and_full() {
        let d = paper_example();
        let none = GoldenSplit::sample(&d, 0.0, 1);
        assert!(none.golden.is_empty());
        assert_eq!(none.eval.len(), 6);
        let all = GoldenSplit::sample(&d, 1.0, 1);
        assert_eq!(all.golden.len(), 6);
        assert!(all.eval.is_empty());
    }

    #[test]
    fn golden_split_only_uses_known_truth() {
        let d = datasets::s_rel(0.05, 11); // partial truth
        let split = GoldenSplit::sample(&d, 0.5, 2);
        for &t in split.golden.iter().chain(&split.eval) {
            assert!(d.truth(t).is_some());
        }
    }
}
