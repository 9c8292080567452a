//! Shard-invariance property tests: every categorical method on the
//! sharded substrate must be **bit-identical** — posteriors, truths,
//! worker quality, iteration count — at every shard count, including the
//! adversarial directory shapes (more shards than tasks, one task per
//! shard, empty shards from gap-heavy logs), and on every arrival order
//! that keeps each task's own answer sequence. The arrival-order test
//! has a numeric arm too: the five numeric methods, through `infer` and
//! `infer_numeric`, give the same bits on every such order.
//!
//! Why bit equality is the right bar (and achievable): E-steps are
//! per-task independent, so fanning them out per shard changes nothing;
//! every per-worker fold walks the *canonical* task-ascending worker
//! rows (`ShardedView::worker`, or each shard's rows in ascending shard
//! order, and `Num::worker`), so the non-associative f64 accumulation
//! visits answers in one order fixed by the per-task answer sequences
//! alone. `infer` runs the one-shard view, so comparing it with
//! `infer_sharded` pins shard-count invariance against the `S = 1`
//! baseline.

use crowd_core::methods::Ds;
use crowd_core::views::{Num, ShardedView};
use crowd_core::{InferenceOptions, InferenceResult, Method, TruthInference, WorkerQuality};
use crowd_data::{Answer, Dataset, DatasetBuilder, StreamSim, TaskType};
use proptest::prelude::*;

/// The tested shard counts: the required {1, 2, 7, 16} plus `n` (every
/// shard holds one task) and `n + 5` (tail shards are empty ranges).
fn shard_counts(n: usize) -> Vec<usize> {
    vec![1, 2, 7, 16, n, n + 5]
}

fn fixtures() -> Vec<(&'static str, Dataset)> {
    // A streamed synthetic log (task-major by construction)…
    let streamed = StreamSim::new(11, 60, 12, 3, 4).to_dataset("streamed");
    // …and a hand-built ragged log with answer gaps (tasks 3 and 7
    // empty) so some shards come out empty even at low shard counts.
    let mut b = DatasetBuilder::new("ragged", TaskType::DecisionMaking, 9, 5);
    for (t, w, l) in [
        (0usize, 0usize, 0u8),
        (0, 1, 1),
        (0, 2, 0),
        (1, 3, 1),
        (1, 4, 1),
        (2, 0, 0),
        (4, 1, 0),
        (4, 2, 1),
        (4, 3, 0),
        (5, 4, 0),
        (6, 0, 1),
        (6, 1, 1),
        (8, 2, 0),
        (8, 4, 1),
    ] {
        b.add_label(t, w, l).unwrap();
    }
    let ragged = b.build();
    vec![("streamed", streamed), ("ragged", ragged)]
}

/// `dataset`'s records, in record order, as a view over `shards`
/// task-range shards with no golden clamps.
fn view(d: &Dataset, shards: usize) -> ShardedView {
    ShardedView::from_records(
        d.num_tasks(),
        d.num_workers(),
        d.num_choices().unwrap() as usize,
        shards,
        d.records()
            .iter()
            .map(|r| (r.task as u32, r.worker as u32, r.answer.label().unwrap())),
        vec![None; d.num_tasks()],
    )
}

/// The posterior bits; empty for the methods that report none (CATD,
/// PM).
fn posterior_bits(r: &InferenceResult) -> Vec<u64> {
    r.posteriors
        .as_ref()
        .map_or_else(Vec::new, |p| p.data().iter().map(|x| x.to_bits()).collect())
}

/// The truths as bits: a label's index, a numeric truth's `f64` bits.
fn truth_bits(r: &InferenceResult) -> Vec<u64> {
    r.truths
        .iter()
        .map(|t| match t {
            Answer::Label(l) => u64::from(*l),
            Answer::Numeric(v) => v.to_bits(),
        })
        .collect()
}

fn quality_bits(r: &InferenceResult) -> Vec<u64> {
    r.worker_quality
        .iter()
        .flat_map(|q| match q {
            WorkerQuality::Probability(p)
            | WorkerQuality::Weight(p)
            | WorkerQuality::Variance(p) => vec![p.to_bits()],
            WorkerQuality::Confusion(m) => m
                .iter()
                .flatten()
                .map(|c| c.to_bits())
                .collect::<Vec<u64>>(),
            WorkerQuality::Skills(s) => s.iter().map(|x| x.to_bits()).collect(),
            WorkerQuality::Unmodeled => vec![],
            other => panic!("unexpected quality kind {other:?}"),
        })
        .collect()
}

fn assert_identical(name: &str, shards: usize, flat: &InferenceResult, sharded: &InferenceResult) {
    assert_eq!(
        flat.truths, sharded.truths,
        "{name}: truths diverged at {shards} shards"
    );
    assert_eq!(
        posterior_bits(flat),
        posterior_bits(sharded),
        "{name}: posteriors diverged at {shards} shards"
    );
    assert_eq!(
        quality_bits(flat),
        quality_bits(sharded),
        "{name}: worker quality diverged at {shards} shards"
    );
    assert_eq!(
        (flat.iterations, flat.converged),
        (sharded.iterations, sharded.converged),
        "{name}: trajectory diverged at {shards} shards"
    );
}

/// `method`'s `infer_sharded` at every shard count against its `infer`
/// (the one-shard view), on every fixture whose task type it accepts.
fn check_method(method: Method) {
    let inference = method.build();
    for (dataset_name, d) in fixtures() {
        if !method.supports(d.task_type()) {
            continue;
        }
        let options = InferenceOptions::seeded(17);
        let flat = inference.infer(&d, &options).unwrap();
        for shards in shard_counts(d.num_tasks()) {
            let sharded = inference
                .infer_sharded(&view(&d, shards), &options)
                .unwrap();
            let name = format!("{}/{dataset_name}", method.name());
            assert_identical(&name, shards, &flat, &sharded);
        }
    }
}

#[test]
fn every_categorical_method_bit_identical_across_shard_counts() {
    for method in Method::ALL {
        check_method(method);
    }
}

#[test]
fn ds_bit_identical_across_shard_counts() {
    check_method(Method::Ds);
}

#[test]
fn lfc_bit_identical_across_shard_counts() {
    check_method(Method::Lfc);
}

#[test]
fn zc_bit_identical_across_shard_counts() {
    check_method(Method::Zc);
}

#[test]
fn glad_bit_identical_across_shard_counts() {
    check_method(Method::Glad);
}

#[test]
fn mv_bit_identical_across_shard_counts() {
    check_method(Method::Mv);
}

#[test]
fn warm_started_sharded_runs_stay_bit_identical() {
    // Warm starts (the streaming resume path) must not break the
    // guarantee: resume flat-vs-sharded from the same previous state and
    // compare.
    let d = StreamSim::new(5, 40, 10, 2, 3).to_dataset("warm");
    let cold_options = InferenceOptions::seeded(3);
    let cold = Ds.infer(&d, &cold_options).unwrap();
    let warm_options = InferenceOptions {
        warm_start: Some(crowd_core::WarmStart::from_result(&cold)),
        ..InferenceOptions::seeded(3)
    };
    let flat = Ds.infer(&d, &warm_options).unwrap();
    for shards in [1usize, 2, 7, 16] {
        let sharded = Ds.infer_sharded(&view(&d, shards), &warm_options).unwrap();
        assert_identical("D&S-warm", shards, &flat, &sharded);
    }
}

#[test]
fn streamed_construction_matches_sliced_construction_end_to_end() {
    // A view streamed from the generator (`from_records` over
    // `sim.records()`) must be indistinguishable from one built from the
    // materialised dataset's records — run the full EM on both and
    // compare.
    let sim = StreamSim::new(29, 50, 9, 3, 3);
    let d = sim.to_dataset("stream-e2e");
    let options = InferenceOptions::seeded(8);
    for shards in [3usize, 8] {
        let sliced = view(&d, shards);
        let streamed = ShardedView::from_records(
            sim.num_tasks(),
            sim.num_workers(),
            sim.num_choices() as usize,
            shards,
            sim.records(),
            vec![None; sim.num_tasks()],
        );
        let a = Ds.infer_sharded(&sliced, &options).unwrap();
        let b = Ds.infer_sharded(&streamed, &options).unwrap();
        assert_identical("D&S-streamed", shards, &a, &b);
    }
}

/// One answer `(task, worker, label)` plus its interleaving key.
type KeyedAnswer = (usize, usize, u8, u32);

/// A random categorical log: shape `(n, m, ℓ)` plus unique `(task,
/// worker)` answers, each with an interleaving key. The answers are
/// returned task-grouped (stable in generation order, which is each
/// task's own answer sequence).
fn arb_log() -> impl Strategy<Value = (usize, usize, u8, Vec<KeyedAnswer>)> {
    (2usize..14, 2usize..9, 2u8..5).prop_flat_map(|(n, m, l)| {
        proptest::collection::vec((0..n, 0..m, 0..l, 0u32..1000), 1..(n * m).min(90)).prop_map(
            move |edges| {
                let mut seen = std::collections::HashSet::new();
                let mut unique: Vec<KeyedAnswer> = edges
                    .into_iter()
                    .filter(|&(t, w, _, _)| seen.insert((t, w)))
                    .collect();
                unique.sort_by_key(|&(t, _, _, _)| t);
                (n, m, l, unique)
            },
        )
    })
}

/// The same log in another arrival order: positions are shuffled by
/// key, then each task's positions are refilled with its answers in
/// their original order — answers to different tasks interleave, each
/// task's own sequence is untouched.
fn interleaved(grouped: &[KeyedAnswer]) -> Vec<KeyedAnswer> {
    let mut order: Vec<usize> = (0..grouped.len()).collect();
    order.sort_by_key(|&i| (grouped[i].3, i));
    let mut by_task: std::collections::HashMap<usize, std::collections::VecDeque<_>> =
        std::collections::HashMap::new();
    for &edge in grouped {
        by_task.entry(edge.0).or_default().push_back(edge);
    }
    order
        .iter()
        .map(|&i| {
            by_task
                .get_mut(&grouped[i].0)
                .and_then(|queue| queue.pop_front())
                .expect("one answer per position")
        })
        .collect()
}

/// The log as a dataset of `task_type`, labels folded into its range
/// (a decision-making copy keeps each label's parity). A numeric copy
/// answers `10·label + key/100`, so values spread within and across
/// tasks.
fn dataset(task_type: TaskType, n: usize, m: usize, log: &[KeyedAnswer]) -> Dataset {
    let mut b = DatasetBuilder::new("order", task_type, n, m);
    for &(t, w, label, key) in log {
        match task_type.num_choices() {
            Some(l) => b.add_label(t, w, label % l),
            None => b.add_numeric(t, w, f64::from(label) * 10.0 + f64::from(key) * 0.01),
        }
        .expect("unique valid answer");
    }
    b.build()
}

/// `infer` on `d`, then the view entry on views built from `d`'s
/// records: `infer_sharded` at 1, 2 and 7 shards, or `infer_numeric`.
fn runs(method: Method, d: &Dataset, options: &InferenceOptions) -> Vec<(String, InferenceResult)> {
    let inference = method.build();
    let mut out = vec![("infer".to_string(), inference.infer(d, options).unwrap())];
    if d.task_type().is_categorical() {
        for shards in [1usize, 2, 7] {
            let sharded = inference.infer_sharded(&view(d, shards), options);
            out.push((format!("{shards} shards"), sharded.unwrap()));
        }
    } else {
        let num = Num::build("test", d, options, false).unwrap();
        let numeric = inference.infer_numeric(&num, options);
        out.push(("numeric view".to_string(), numeric.unwrap()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival order is not an input: any permutation of a log that
    /// keeps each task's own answer order gives every method
    /// bit-identical posteriors, qualities, truths and iteration counts —
    /// through `infer`, at 1, 2 and 7 shards, and through
    /// `infer_numeric`. Each log also runs as a decision-making copy, the
    /// only task type KOS, Multi, VI-BP and VI-MF accept, and as a
    /// numeric copy for LFC_N, CATD, PM, Mean and Median.
    #[test]
    fn outputs_ignore_arrival_order_across_tasks((n, m, l, grouped) in arb_log()) {
        let permuted = interleaved(&grouped);
        let options = InferenceOptions::seeded(5);
        for task_type in [
            TaskType::SingleChoice { choices: l },
            TaskType::DecisionMaking,
            TaskType::Numeric,
        ] {
            let a = dataset(task_type, n, m, &grouped);
            let b = dataset(task_type, n, m, &permuted);
            for method in Method::ALL.into_iter().filter(|m| m.supports(task_type)) {
                let reference = &runs(method, &a, &options)[0].1;
                for (arrival, d) in [("grouped", &a), ("interleaved", &b)] {
                    for (path, r) in runs(method, d, &options) {
                        let at = format!("{} {task_type:?} {arrival} {path}", method.name());
                        prop_assert_eq!(truth_bits(reference), truth_bits(&r), "{}: truths", at);
                        prop_assert_eq!(posterior_bits(reference), posterior_bits(&r), "{}: posteriors", at);
                        prop_assert_eq!(quality_bits(reference), quality_bits(&r), "{}: quality", at);
                        prop_assert_eq!(
                            (reference.iterations, reference.converged),
                            (r.iterations, r.converged),
                            "{}: trajectory",
                            at
                        );
                    }
                }
            }
        }
    }
}
