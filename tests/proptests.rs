#![allow(clippy::needless_range_loop)]

//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use crowd_truth::core::{InferenceOptions, Method, WorkerQuality};
use crowd_truth::data::{Answer, DatasetBuilder, TaskType};
use crowd_truth::metrics::{accuracy, f1_score, mae, rmse};
use crowd_truth::stats::{chi2_cdf, chi2_inv_cdf, log_sum_exp, weighted_mean, weighted_median};

/// Every scalar a worker-quality estimate carries.
fn quality_scalars(q: &WorkerQuality) -> Vec<f64> {
    match q {
        WorkerQuality::Probability(x) | WorkerQuality::Weight(x) | WorkerQuality::Variance(x) => {
            vec![*x]
        }
        WorkerQuality::Confusion(rows) => rows.iter().flatten().copied().collect(),
        WorkerQuality::BiasVariance { bias, variance } => vec![*bias, *variance],
        WorkerQuality::Skills(skills) => skills.clone(),
        WorkerQuality::Unmodeled => Vec::new(),
    }
}

/// A random single-choice answer log with `2 ≤ ℓ ≤ 16` choices.
fn categorical_dataset(
    max_tasks: usize,
    max_workers: usize,
) -> impl Strategy<Value = crowd_truth::data::Dataset> {
    (2usize..max_tasks, 2usize..max_workers, 2u8..17)
        .prop_flat_map(|(n, m, l)| answer_log(TaskType::SingleChoice { choices: l }, n, m))
}

/// A random yes/no answer log — the only task type KOS, Multi, VI-BP
/// and VI-MF accept.
fn decision_dataset(
    max_tasks: usize,
    max_workers: usize,
) -> impl Strategy<Value = crowd_truth::data::Dataset> {
    (2usize..max_tasks, 2usize..max_workers)
        .prop_flat_map(|(n, m)| answer_log(TaskType::DecisionMaking, n, m))
}

/// Arbitrary answers (in arbitrary order, duplicates dropped) and
/// partial truths over `n` tasks and `m` workers of a categorical type.
fn answer_log(
    task_type: TaskType,
    n: usize,
    m: usize,
) -> impl Strategy<Value = crowd_truth::data::Dataset> {
    let l = task_type.num_choices().expect("categorical task type");
    let edges = proptest::collection::vec((0..n, 0..m, 0..l), 1..(n * m).min(300));
    let truths = proptest::collection::vec(proptest::option::of(0..l), n);
    (edges, truths).prop_map(move |(edges, truths)| {
        let mut b = DatasetBuilder::new("prop", task_type, n, m);
        let mut seen = std::collections::HashSet::new();
        for (t, w, a) in edges {
            if seen.insert((t, w)) {
                b.add_label(t, w, a).expect("valid by construction");
            }
        }
        for (t, truth) in truths.into_iter().enumerate() {
            if let Some(tr) = truth {
                b.set_truth_label(t, tr).expect("valid by construction");
            }
        }
        b.build()
    })
}

/// A random numeric answer log: arbitrary answers (duplicates dropped)
/// and partial truths over up to `max_tasks` tasks and `max_workers`
/// workers. Each value is drawn either from a wide range or from a few
/// integers, so exact agreement — a worker or a task with zero spread —
/// is common.
fn numeric_dataset(
    max_tasks: usize,
    max_workers: usize,
) -> impl Strategy<Value = crowd_truth::data::Dataset> {
    (2usize..max_tasks, 2usize..max_workers).prop_flat_map(|(n, m)| {
        let value =
            (0u8..2, -1.0e6f64..1.0e6, -2i32..3)
                .prop_map(|(wide, x, k)| if wide == 0 { x } else { f64::from(k) });
        let edges = proptest::collection::vec((0..n, 0..m, value), 1..(n * m).min(200));
        let truths = proptest::collection::vec(proptest::option::of(-100.0f64..100.0), n);
        (edges, truths).prop_map(move |(edges, truths)| {
            let mut b = DatasetBuilder::new("prop", TaskType::Numeric, n, m);
            let mut seen = std::collections::HashSet::new();
            for (t, w, v) in edges {
                if seen.insert((t, w)) {
                    b.add_numeric(t, w, v).expect("valid by construction");
                }
            }
            for (t, truth) in truths.into_iter().enumerate() {
                if let Some(tr) = truth {
                    b.set_truth_numeric(t, tr).expect("valid by construction");
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every numeric method (LFC_N, CATD, PM, Mean, Median) returns
    /// finite estimates and finite worker qualities of the right lengths
    /// on arbitrary numeric answer logs — unanswered tasks, one-answer
    /// workers and zero-spread answers included.
    #[test]
    fn methods_are_total_on_arbitrary_numeric_logs(
        dataset in numeric_dataset(12, 8),
        seed in 0u64..1000,
    ) {
        for method in Method::for_task_type(TaskType::Numeric) {
            let name = method.name();
            let result = method.build().infer(&dataset, &InferenceOptions::seeded(seed)).unwrap();
            prop_assert_eq!(result.truths.len(), dataset.num_tasks());
            prop_assert_eq!(result.worker_quality.len(), dataset.num_workers());
            for t in &result.truths {
                let v = t.numeric().unwrap();
                prop_assert!(v.is_finite(), "{}: non-finite estimate {}", name, v);
            }
            for q in &result.worker_quality {
                prop_assert!(
                    quality_scalars(q).iter().all(|x| x.is_finite()),
                    "{}: non-finite worker quality {:?}", name, q
                );
            }
        }
    }

    /// Every method that accepts the dataset returns structurally valid
    /// results on arbitrary single-choice and decision-making answer
    /// logs — no panics, right lengths, `n × ℓ` normalized and finite
    /// posteriors, finite worker qualities, labels in range. The
    /// generators emit answers in arbitrary order, so the logs
    /// interleave tasks freely.
    #[test]
    fn methods_are_total_on_arbitrary_categorical_logs(
        single in categorical_dataset(12, 8),
        seed in 0u64..1000,
        decision in decision_dataset(12, 8),
    ) {
        for dataset in [single, decision] {
            if dataset.num_answers() == 0 {
                continue;
            }
            for method in Method::ALL {
                let instance = method.build();
                if !instance.supports(dataset.task_type()) {
                    continue;
                }
                let name = method.name();
                let result = instance.infer(&dataset, &InferenceOptions::seeded(seed)).unwrap();
                prop_assert_eq!(result.truths.len(), dataset.num_tasks());
                prop_assert_eq!(result.worker_quality.len(), dataset.num_workers());
                let l = dataset.num_choices().unwrap();
                for t in &result.truths {
                    prop_assert!(t.label().unwrap() < l);
                }
                for q in &result.worker_quality {
                    prop_assert!(
                        quality_scalars(q).iter().all(|x| x.is_finite()),
                        "{}: non-finite worker quality {:?}", name, q
                    );
                }
                if let Some(post) = &result.posteriors {
                    prop_assert_eq!(post.rows(), dataset.num_tasks(), "{}: posterior rows", name);
                    prop_assert_eq!(post.cols(), l as usize, "{}: posterior cols", name);
                    for t in 0..post.rows() {
                        let p = post.row(t);
                        prop_assert!(p.iter().all(|x| x.is_finite()), "{}: posterior {:?}", name, p);
                        let s: f64 = p.iter().sum();
                        prop_assert!((s - 1.0).abs() < 1e-6, "{}: posterior sum {}", name, s);
                    }
                }
            }
        }
    }

    /// Metrics stay in their documented ranges on arbitrary inputs: in
    /// `[0, 1]` when anything is evaluable, `NaN` (never a fake `0.0`)
    /// when the log has no ground truth at all.
    #[test]
    fn metrics_stay_in_range(
        dataset in categorical_dataset(15, 6),
        seed in 0u64..100,
    ) {
        if dataset.num_answers() == 0 {
            return Ok(());
        }
        let r = Method::Mv.build().infer(&dataset, &InferenceOptions::seeded(seed)).unwrap();
        let a = accuracy(&dataset, &r.truths);
        let f = f1_score(&dataset, &r.truths);
        if dataset.truths().iter().any(|t| t.is_some()) {
            prop_assert!((0.0..=1.0).contains(&a));
            prop_assert!((0.0..=1.0).contains(&f));
        } else {
            prop_assert!(a.is_nan());
            prop_assert!(f.is_nan());
        }
    }

    /// MV is invariant under worker relabelling: only counts matter.
    #[test]
    fn mv_depends_only_on_counts(
        dataset in categorical_dataset(10, 6),
        seed in 0u64..50,
    ) {
        if dataset.num_answers() == 0 {
            return Ok(());
        }
        // Rebuild with reversed worker ids.
        let m = dataset.num_workers();
        let mut b = DatasetBuilder::new(
            "perm", dataset.task_type(), dataset.num_tasks(), m,
        );
        for rec in dataset.records() {
            b.add_answer(rec.task, m - 1 - rec.worker, rec.answer).unwrap();
        }
        for (t, truth) in dataset.truths().iter().enumerate() {
            if let Some(tr) = truth {
                b.set_truth(t, *tr).unwrap();
            }
        }
        let permuted = b.build();
        let a = Method::Mv.build().infer(&dataset, &InferenceOptions::seeded(seed)).unwrap();
        let b = Method::Mv.build().infer(&permuted, &InferenceOptions::seeded(seed)).unwrap();
        // Posteriors (pre-tie-break) must be identical per task.
        prop_assert_eq!(a.posteriors.unwrap(), b.posteriors.unwrap());
    }

    /// Numeric aggregation brackets: Mean/Median estimates lie within the
    /// per-task answer range.
    #[test]
    fn numeric_estimates_stay_in_answer_hull(
        values in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 1..6), 1..10
        ),
    ) {
        let n = values.len();
        let m = values.iter().map(|v| v.len()).max().unwrap();
        let mut b = DatasetBuilder::new("hull", TaskType::Numeric, n, m);
        for (t, vs) in values.iter().enumerate() {
            for (w, &v) in vs.iter().enumerate() {
                b.add_numeric(t, w, v).unwrap();
            }
        }
        let d = b.build();
        for method in [Method::Mean, Method::Median] {
            let r = method.build().infer(&d, &InferenceOptions::seeded(0)).unwrap();
            for (t, vs) in values.iter().enumerate() {
                let est = r.truths[t].numeric().unwrap();
                let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9,
                    "{} estimate {} outside [{}, {}]", method.name(), est, lo, hi);
            }
        }
    }

    /// RMSE dominates MAE on any estimate vector.
    #[test]
    fn rmse_dominates_mae(
        truths in proptest::collection::vec(-50.0f64..50.0, 2..20),
        noise in proptest::collection::vec(-10.0f64..10.0, 2..20),
    ) {
        let n = truths.len().min(noise.len());
        let mut b = DatasetBuilder::new("rm", TaskType::Numeric, n, 1);
        for t in 0..n {
            b.add_numeric(t, 0, truths[t]).unwrap();
            b.set_truth_numeric(t, truths[t]).unwrap();
        }
        let d = b.build();
        let estimates: Vec<Answer> =
            (0..n).map(|t| Answer::Numeric(truths[t] + noise[t])).collect();
        prop_assert!(rmse(&d, &estimates) >= mae(&d, &estimates) - 1e-12);
    }

    /// Chi-squared inverse CDF round-trips through the CDF.
    #[test]
    fn chi2_quantile_roundtrip(k in 1.0f64..500.0, p in 0.001f64..0.999) {
        let x = chi2_inv_cdf(k, p);
        prop_assert!(x > 0.0);
        prop_assert!((chi2_cdf(k, x) - p).abs() < 1e-6);
    }

    /// log_sum_exp equals the naive computation where the naive one is
    /// representable, and never overflows where it is not.
    #[test]
    fn log_sum_exp_matches_naive(xs in proptest::collection::vec(-30.0f64..30.0, 1..20)) {
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        prop_assert!((log_sum_exp(&xs) - naive).abs() < 1e-9);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 900.0).collect();
        prop_assert!(log_sum_exp(&shifted).is_finite());
    }

    /// Weighted mean/median reduce to the unweighted versions under
    /// uniform weights, and the weighted mean is translation-equivariant.
    #[test]
    fn weighted_aggregates_are_consistent(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..30),
        shift in -50.0f64..50.0,
    ) {
        let ws = vec![1.0; xs.len()];
        let wm = weighted_mean(&xs, &ws);
        let plain: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((wm - plain).abs() < 1e-9);

        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((weighted_mean(&shifted, &ws) - (wm + shift)).abs() < 1e-9);

        // Weighted median with uniform weights is an order statistic of xs.
        let med = weighted_median(&xs, &ws);
        prop_assert!(xs.iter().any(|&x| (x - med).abs() < 1e-12));
    }
}
