//! Shard-invariance property tests: every method on the sharded
//! substrate must be **bit-identical** — posteriors, truths, worker
//! quality, iteration count — at every shard count, including the
//! adversarial directory shapes (more shards than tasks, one task per
//! shard, empty shards from gap-heavy logs), and on every arrival order
//! that keeps each task's own answer sequence.
//!
//! Why bit equality is the right bar (and achievable): E-steps are
//! per-task independent, so fanning them out per shard changes nothing;
//! the M-steps fold each worker's per-shard adjacency rows in ascending
//! shard order over the *canonical* task-ascending worker rows, so the
//! non-associative f64 accumulation visits answers in one order fixed by
//! the per-task answer sequences alone. GLAD never walks a worker row at
//! all. The `infer_view` entry points run the one-shard copy of a flat
//! view, so comparing them with `infer_sharded` pins shard-count
//! invariance against the `S = 1` baseline.

use crowd_core::methods::{Ds, Glad, Lfc, Mv, Zc};
use crowd_core::views::{Cat, ShardedView};
use crowd_core::{InferenceOptions, InferenceResult, Method, WorkerQuality};
use crowd_data::{AnswerRecord, Dataset, DatasetBuilder, StreamSim, TaskType};
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

fn posterior_bits(r: &InferenceResult) -> Vec<u64> {
    r.posteriors
        .as_ref()
        .expect("method reports posteriors")
        .data()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

fn quality_bits(r: &InferenceResult) -> Vec<u64> {
    r.worker_quality
        .iter()
        .flat_map(|q| match q {
            WorkerQuality::Probability(p) => vec![p.to_bits()],
            WorkerQuality::Confusion(m) => m
                .iter()
                .flatten()
                .map(|c| c.to_bits())
                .collect::<Vec<u64>>(),
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

fn check_method(
    name: &str,
    flat_run: impl Fn(&Cat, &InferenceOptions) -> InferenceResult,
    sharded_run: impl Fn(&ShardedView, &InferenceOptions) -> InferenceResult,
) {
    for (dataset_name, d) in fixtures() {
        let options = InferenceOptions::seeded(17);
        let cat = Cat::build("shard-test", &d, &options, true).unwrap();
        let flat = flat_run(&cat, &options);
        for shards in shard_counts(cat.n) {
            let view = ShardedView::from_cat(&cat, shards);
            let sharded = sharded_run(&view, &options);
            assert_identical(&format!("{name}/{dataset_name}"), shards, &flat, &sharded);
        }
    }
}

#[test]
fn ds_bit_identical_across_shard_counts() {
    check_method(
        "D&S",
        |cat, o| Ds.infer_view(cat, o).unwrap(),
        |view, o| Ds.infer_sharded(view, o).unwrap(),
    );
}

#[test]
fn lfc_bit_identical_across_shard_counts() {
    check_method(
        "LFC",
        |cat, o| Lfc::default().infer_view(cat, o).unwrap(),
        |view, o| Lfc::default().infer_sharded(view, o).unwrap(),
    );
}

#[test]
fn zc_bit_identical_across_shard_counts() {
    check_method(
        "ZC",
        |cat, o| Zc::default().infer_view(cat, o).unwrap(),
        |view, o| Zc::default().infer_sharded(view, o).unwrap(),
    );
}

#[test]
fn glad_bit_identical_across_shard_counts() {
    check_method(
        "GLAD",
        |cat, o| Glad::default().infer_view(cat, o).unwrap(),
        |view, o| Glad::default().infer_sharded(view, o).unwrap(),
    );
}

#[test]
fn mv_bit_identical_across_shard_counts() {
    check_method(
        "MV",
        |cat, o| Mv.infer_view(cat, o).unwrap(),
        |view, o| Mv.infer_sharded(view, o).unwrap(),
    );
}

#[test]
fn warm_started_sharded_runs_stay_bit_identical() {
    // Warm starts (the streaming resume path) must not break the
    // guarantee: resume flat-vs-sharded from the same previous state and
    // compare.
    let d = StreamSim::new(5, 40, 10, 2, 3).to_dataset("warm");
    let cold_options = InferenceOptions::seeded(3);
    let cat = Cat::build("shard-test", &d, &cold_options, true).unwrap();
    let cold = Ds.infer_view(&cat, &cold_options).unwrap();
    let warm_options = InferenceOptions {
        warm_start: Some(crowd_core::WarmStart::from_result(&cold)),
        ..InferenceOptions::seeded(3)
    };
    let flat = Ds.infer_view(&cat, &warm_options).unwrap();
    for shards in [1usize, 2, 7, 16] {
        let view = ShardedView::from_cat(&cat, shards);
        let sharded = Ds.infer_sharded(&view, &warm_options).unwrap();
        assert_identical("D&S-warm", shards, &flat, &sharded);
    }
}

#[test]
fn streamed_construction_matches_sliced_construction_end_to_end() {
    // `from_records` (single-pass streaming build) must be
    // indistinguishable from slicing the equivalent flat view — run the
    // full EM on both and compare.
    let sim = StreamSim::new(29, 50, 9, 3, 3);
    let d = sim.to_dataset("stream-e2e");
    let options = InferenceOptions::seeded(8);
    // The flat view keeps golden empty (use_golden=false ⇒ no clamps) so
    // the streamed build with no golden matches.
    let cat = Cat::build("shard-test", &d, &options, false).unwrap();
    for shards in [3usize, 8] {
        let sliced = ShardedView::from_cat(&cat, shards);
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

fn dataset(n: usize, m: usize, l: u8, log: &[KeyedAnswer]) -> Dataset {
    let mut b = DatasetBuilder::new("order", TaskType::SingleChoice { choices: l }, n, m);
    for &(t, w, label, _) in log {
        b.add_label(t, w, label).expect("unique valid answer");
    }
    b.build()
}

/// `infer` on `d`, then `infer_sharded` on views streamed from `d`'s
/// records at 1, 2 and 7 shards.
fn runs(method: Method, d: &Dataset, options: &InferenceOptions) -> Vec<(String, InferenceResult)> {
    let mut out = vec![(
        "infer".to_string(),
        method.build().infer(d, options).unwrap(),
    )];
    for shards in [1usize, 2, 7] {
        let view = ShardedView::from_records(
            d.num_tasks(),
            d.num_workers(),
            d.num_choices().unwrap() as usize,
            shards,
            d.records().iter().map(|r: &AnswerRecord| {
                (r.task as u32, r.worker as u32, r.answer.label().unwrap())
            }),
            vec![None; d.num_tasks()],
        );
        let sharded = match method {
            Method::Ds => Ds.infer_sharded(&view, options),
            Method::Lfc => Lfc::default().infer_sharded(&view, options),
            Method::Zc => Zc::default().infer_sharded(&view, options),
            Method::Glad => Glad::default().infer_sharded(&view, options),
            _ => Mv.infer_sharded(&view, options),
        };
        out.push((format!("{shards} shards"), sharded.unwrap()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arrival order is not an input: any permutation of a log that
    /// keeps each task's own answer order gives bit-identical posteriors,
    /// qualities, truths and iteration counts — through `infer` and at
    /// 1, 2 and 7 shards.
    #[test]
    fn outputs_ignore_arrival_order_across_tasks((n, m, l, grouped) in arb_log()) {
        let permuted = interleaved(&grouped);
        let (a, b) = (dataset(n, m, l, &grouped), dataset(n, m, l, &permuted));
        let options = InferenceOptions::seeded(5);
        for method in [Method::Ds, Method::Lfc, Method::Zc, Method::Glad, Method::Mv] {
            let reference = &runs(method, &a, &options)[0].1;
            for (arrival, d) in [("grouped", &a), ("interleaved", &b)] {
                for (path, r) in runs(method, d, &options) {
                    let at = format!("{} {arrival} {path}", method.name());
                    prop_assert_eq!(&reference.truths, &r.truths, "{}: truths", at);
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
