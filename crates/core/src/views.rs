//! Dense views of a dataset, shared by the method implementations — the
//! data layer of the inference substrate.
//!
//! Methods iterate the answer log thousands of times. These views extract
//! the labels/values once and store both adjacencies (per task `W_i`, per
//! worker `T^w`) in **CSR form** ([`Csr`], from `crowd-stats`, which the
//! dataset index uses too): one contiguous entry buffer plus a `u32`
//! offset array per dimension. A task's (or worker's) answers are a
//! contiguous slice — no pointer chasing, no per-row allocations — and
//! posteriors live in a row-major [`DMat`](crate::DMat), so the E/M hot
//! loops touch only flat memory.
//!
//! Two views exist, one per task kind: [`ShardedView`], which every
//! categorical method runs on, and [`Num`], the numeric view of LFC_N,
//! CATD, PM, Mean and Median. `infer` builds the one its dataset needs
//! (the categorical one with one shard; `crowd-stream` maintains it
//! incrementally with any number of shards). Both derive their worker
//! rows from their task rows through one helper, so a worker's answers
//! are always in the canonical task-ascending order and every output
//! depends only on each task's own answer sequence.

use crowd_data::{Answer, Dataset, TaskType};
pub use crowd_stats::Csr;
use rand::rngs::StdRng;
use rand::Rng;

use crate::framework::{AnswerSet, InferenceError, InferenceOptions};

mod sharded;

pub use sharded::ShardedView;
pub(crate) use sharded::{obs_estep_seconds, obs_reduce_seconds};

/// The categorical view's former name, kept as an alias of
/// [`ShardedView`] for callers written against it (perfbench's views
/// probe calls `Cat::build` and the `infer_view` forwards); new code
/// names `ShardedView`.
pub type Cat = ShardedView;

/// Decoded labels as `Answer`s.
pub(crate) fn label_answers(labels: &[u8]) -> Vec<Answer> {
    labels.iter().map(|&l| Answer::Label(l)).collect()
}

/// Worker rows derived from task rows: count each worker's answers, then
/// scatter the task rows in ascending task order (row `local` of
/// `task_adj` is global task `start + local`). Both views build their
/// worker rows here, so this is the one owner of the canonical
/// task-ascending worker order.
///
/// # Panics
/// Panics on a worker ≥ `m`.
pub(crate) fn worker_rows<V: Copy + Default>(start: usize, m: usize, task_adj: &Csr<V>) -> Csr<V> {
    let mut counts = vec![0u32; m];
    for &(worker, _) in task_adj.entries() {
        counts[worker as usize] += 1;
    }
    Csr::from_triples_counted(
        &counts,
        (0..task_adj.num_rows()).flat_map(|local| {
            task_adj
                .row(local)
                .iter()
                .map(move |&(worker, v)| (worker as usize, (start + local) as u32, v))
        }),
    )
}

/// MAP label of one posterior row with seeded uniform tie-breaking:
/// the labels within `1e-12` of the row maximum tie, and the RNG draws
/// only when there is more than one. Two passes and no allocation — the
/// first counts the ties, the second finds the chosen one.
///
/// A row with no finite maximum ties the labels equal to its maximum
/// (the `+inf` labels, or every label of an all-`-inf` row); a row with
/// nothing comparable at all (all NaN) ties every label, like a uniform
/// row.
fn decode_row(p: &[f64], rng: &mut StdRng) -> u8 {
    let best = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // `v == best` only decides for an infinite `best`, where `v − best`
    // is NaN; otherwise it implies the distance test.
    let near_best = |v: f64| v == best || (v - best).abs() < 1e-12;
    let ties = p.iter().filter(|&&v| near_best(v)).count();
    let every_label = ties == 0;
    let count = if every_label { p.len() } else { ties };
    let k = if count == 1 {
        0
    } else {
        rng.gen_range(0..count)
    };
    let (label, _) = p
        .iter()
        .enumerate()
        .filter(|&(_, &v)| every_label || near_best(v))
        .nth(k)
        .expect("k counts the ties");
    label as u8
}

/// Dense numeric view: `(worker, value)` task rows in record order and
/// `(task, value)` worker rows in task-ascending order, both in CSR form.
#[derive(Debug)]
pub struct Num {
    /// Number of tasks.
    pub n: usize,
    /// Number of workers.
    pub m: usize,
    /// Per-task CSR: row `t` holds `(worker, value)` pairs.
    task_adj: Csr<f64>,
    /// Per-worker CSR: row `w` holds `(task, value)` pairs.
    worker_adj: Csr<f64>,
    /// Golden clamp per task.
    pub golden: Vec<Option<f64>>,
}

impl Num {
    /// Build the view; fails on categorical datasets.
    pub fn build(
        method: &'static str,
        dataset: &Dataset,
        options: &InferenceOptions,
        use_golden: bool,
    ) -> Result<Self, InferenceError> {
        if dataset.task_type().is_categorical() {
            return Err(InferenceError::UnsupportedTaskType {
                method,
                task_type: dataset.task_type(),
            });
        }
        let n = dataset.num_tasks();
        let m = dataset.num_workers();
        let task_adj = Csr::from_triples(
            n,
            dataset.records().iter().map(|r| {
                (
                    r.task,
                    r.worker as u32,
                    r.answer.numeric().expect("numeric dataset"),
                )
            }),
        );
        let worker_adj = worker_rows(0, m, &task_adj);
        let golden = match (&options.golden, use_golden) {
            (Some(g), true) => g
                .iter()
                .map(|t| t.as_ref().and_then(Answer::numeric))
                .collect(),
            _ => vec![None; n],
        };
        Ok(Self {
            n,
            m,
            task_adj,
            worker_adj,
            golden,
        })
    }

    /// Total answers in the view (`|V|`).
    pub fn num_answers(&self) -> usize {
        self.task_adj.num_entries()
    }

    /// Answers on task `t` as `(worker, value)` pairs, in record order.
    #[inline]
    pub fn task(&self, t: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.task_adj.row(t).iter().map(|&(w, v)| (w as usize, v))
    }

    /// Number of answers on task `t`.
    #[inline]
    pub fn task_len(&self, t: usize) -> usize {
        self.task_adj.row_len(t)
    }

    /// Answers by worker `w` as `(task, value)` pairs, in ascending task
    /// order.
    #[inline]
    pub fn worker(&self, w: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.worker_adj.row(w).iter().map(|&(t, v)| (t as usize, v))
    }

    /// Number of answers by worker `w`.
    #[inline]
    pub fn worker_len(&self, w: usize) -> usize {
        self.worker_adj.row_len(w)
    }

    /// Per-task mean (0.0 for unanswered tasks), golden clamps applied.
    pub fn mean_estimates(&self) -> Vec<f64> {
        (0..self.n)
            .map(|t| {
                if let Some(g) = self.golden[t] {
                    return g;
                }
                let len = self.task_len(t);
                if len == 0 {
                    0.0
                } else {
                    self.task(t).map(|(_, v)| v).sum::<f64>() / len as f64
                }
            })
            .collect()
    }

    /// Convert estimates into `Answer`s.
    pub fn answers(estimates: &[f64]) -> Vec<Answer> {
        estimates.iter().map(|&v| Answer::Numeric(v)).collect()
    }
}

impl AnswerSet for Num {
    fn task_type(&self) -> TaskType {
        TaskType::Numeric
    }

    fn num_answers(&self) -> usize {
        Num::num_answers(self)
    }

    fn num_workers(&self) -> usize {
        self.m
    }
}

/// Initial per-worker accuracy from the options: qualification scores
/// where available, `default` elsewhere.
pub(crate) fn initial_accuracy(options: &InferenceOptions, m: usize, default: f64) -> Vec<f64> {
    match &options.quality_init {
        crate::framework::QualityInit::Uniform => vec![default; m],
        crate::framework::QualityInit::Qualification(q) => q
            .iter()
            .map(|s| s.unwrap_or(default).clamp(0.02, 0.98))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::{DatasetBuilder, TaskType};
    use proptest::prelude::*;

    /// A random categorical dataset as raw `(task, worker, label)` edges.
    fn arb_categorical() -> impl Strategy<Value = Dataset> {
        (2usize..14, 2usize..9, 2u8..5).prop_flat_map(|(n, m, l)| {
            proptest::collection::vec((0..n, 0..m, 0..l), 0..(n * m).min(120)).prop_map(
                move |edges| {
                    let mut b =
                        DatasetBuilder::new("csr", TaskType::SingleChoice { choices: l }, n, m);
                    let mut seen = std::collections::HashSet::new();
                    for (t, w, a) in edges {
                        if seen.insert((t, w)) {
                            b.add_label(t, w, a).expect("valid edge");
                        }
                    }
                    b.build()
                },
            )
        })
    }

    /// A random numeric dataset.
    fn arb_numeric() -> impl Strategy<Value = Dataset> {
        (2usize..12, 2usize..7).prop_flat_map(|(n, m)| {
            proptest::collection::vec((0..n, 0..m, -100.0f64..100.0), 0..(n * m).min(80)).prop_map(
                move |edges| {
                    let mut b = DatasetBuilder::new("csrn", TaskType::Numeric, n, m);
                    let mut seen = std::collections::HashSet::new();
                    for (t, w, v) in edges {
                        if seen.insert((t, w)) {
                            b.add_numeric(t, w, v).expect("valid edge");
                        }
                    }
                    b.build()
                },
            )
        })
    }

    /// `dataset`'s records as a view over `shards` task-range shards.
    fn sharded(dataset: &Dataset, shards: usize) -> ShardedView {
        ShardedView::from_records(
            dataset.num_tasks(),
            dataset.num_workers(),
            dataset.num_choices().unwrap() as usize,
            shards,
            dataset
                .records()
                .iter()
                .map(|r| (r.task as u32, r.worker as u32, r.answer.label().unwrap())),
            vec![None; dataset.num_tasks()],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The categorical view round-trips `Dataset::records()` at every
        /// shard count: each task row is that task's records in record
        /// order, and each worker's rows, concatenated across shards, are
        /// that worker's records sorted by task — with degrees intact.
        #[test]
        fn cat_csr_round_trips_records(dataset in arb_categorical()) {
            let mut by_task: Vec<Vec<(u32, u8)>> = vec![Vec::new(); dataset.num_tasks()];
            let mut by_worker: Vec<Vec<(usize, u8)>> = vec![Vec::new(); dataset.num_workers()];
            for r in dataset.records() {
                let label = r.answer.label().unwrap();
                by_task[r.task].push((r.worker as u32, label));
                by_worker[r.worker].push((r.task, label));
            }
            for row in &mut by_worker {
                row.sort_by_key(|&(task, _)| task);
            }
            let n = dataset.num_tasks();
            for shards in [1, 2, 3, n, n + 2] {
                let view = sharded(&dataset, shards);
                prop_assert_eq!(view.num_answers(), dataset.num_answers());
                for t in 0..n {
                    prop_assert_eq!(view.task_row(t), &by_task[t][..], "task {} at {} shards", t, shards);
                    prop_assert_eq!(view.task_len(t), dataset.task_degree(t));
                }
                for w in 0..dataset.num_workers() {
                    let row: Vec<(usize, u8)> = view.worker(w).collect();
                    prop_assert_eq!(&row, &by_worker[w], "worker {} at {} shards", w, shards);
                    prop_assert_eq!(view.worker_len(w), dataset.worker_degree(w));
                }
                prop_assert_eq!(view.max_task_degree(), (0..n).map(|t| dataset.task_degree(t)).max().unwrap_or(0));
            }
        }

        /// Majority posteriors over the view are proper distributions
        /// and match the per-task label counts.
        #[test]
        fn majority_posteriors_match_counts(dataset in arb_categorical()) {
            let view = ShardedView::build("test", &dataset, &InferenceOptions::default(), false).unwrap();
            let post = view.majority_posteriors();
            for t in 0..view.n {
                let row = post.row(t);
                let sum: f64 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "task {} sums to {}", t, sum);
                let deg = view.task_len(t);
                if deg > 0 {
                    for (label, &p) in row.iter().enumerate() {
                        let count =
                            view.task_row(t).iter().filter(|&&(_, a)| a as usize == label).count();
                        prop_assert!((p - count as f64 / deg as f64).abs() < 1e-9);
                    }
                }
            }
        }

        /// The numeric CSR view round-trips `Dataset::records()` too: task
        /// rows in record order, worker rows sorted by task.
        #[test]
        fn num_csr_round_trips_records(dataset in arb_numeric()) {
            let num = Num::build("test", &dataset, &InferenceOptions::default(), false).unwrap();
            let mut by_task: Vec<Vec<(usize, f64)>> = vec![Vec::new(); dataset.num_tasks()];
            let mut by_worker: Vec<Vec<(usize, f64)>> = vec![Vec::new(); dataset.num_workers()];
            for r in dataset.records() {
                let v = r.answer.numeric().unwrap();
                by_task[r.task].push((r.worker, v));
                by_worker[r.worker].push((r.task, v));
            }
            for row in &mut by_worker {
                row.sort_by_key(|&(task, _)| task);
            }
            for t in 0..dataset.num_tasks() {
                let row: Vec<(usize, f64)> = num.task(t).collect();
                prop_assert_eq!(&row, &by_task[t]);
                prop_assert_eq!(num.task_len(t), dataset.task_degree(t));
            }
            for w in 0..dataset.num_workers() {
                let row: Vec<(usize, f64)> = num.worker(w).collect();
                prop_assert_eq!(&row, &by_worker[w]);
                prop_assert_eq!(num.worker_len(w), dataset.worker_degree(w));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The single-pass counted constructor and the two-pass `Clone`
        /// constructor produce identical CSR buffers for identical
        /// triples — offsets, entry order, everything.
        #[test]
        fn counted_constructor_matches_two_pass(
            n in 1usize..12,
            edges in proptest::collection::vec((0usize..12, 0u32..9, 0u8..4), 0..60),
        ) {
            let triples: Vec<(usize, u32, u8)> =
                edges.into_iter().map(|(t, w, v)| (t % n, w, v)).collect();
            let two_pass = Csr::from_triples(n, triples.iter().copied());
            let mut counts = vec![0u32; n];
            for &(row, _, _) in &triples {
                counts[row] += 1;
            }
            let counted = Csr::from_triples_counted(&counts, triples.iter().copied());
            prop_assert_eq!(&two_pass, &counted);
        }
    }

    #[test]
    fn counted_constructor_rejects_miscounts() {
        let triples = [(0usize, 1u32, 7u8), (1, 2, 3)];
        // Undercounted row 1.
        let r = std::panic::catch_unwind(|| {
            Csr::from_triples_counted(&[1, 0], triples.iter().copied())
        });
        assert!(r.is_err(), "undercount must panic");
        // Overcounted total.
        let r = std::panic::catch_unwind(|| {
            Csr::from_triples_counted(&[2, 2], triples.iter().copied())
        });
        assert!(r.is_err(), "overcount must panic");
    }

    /// The tie-collecting decode `decode_row` replaced: same labels and
    /// the same RNG draws on every row with a finite maximum.
    fn collected_ties_decode(p: &[f64], rng: &mut StdRng) -> u8 {
        let best = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ties: Vec<u8> = p
            .iter()
            .enumerate()
            .filter(|(_, &v)| (v - best).abs() < 1e-12)
            .map(|(i, _)| i as u8)
            .collect();
        if ties.len() == 1 {
            ties[0]
        } else {
            ties[rng.gen_range(0..ties.len())]
        }
    }

    #[test]
    fn decode_row_matches_collected_ties_on_finite_rows() {
        use rand::SeedableRng;
        let rows: [&[f64]; 6] = [
            &[0.1, 0.7, 0.2],
            &[0.5, 0.5, 0.0],
            &[0.25, 0.25, 0.25, 0.25],
            &[0.4, 0.4 + 1e-13, 0.2],
            &[1.0],
            &[0.0, 0.3, 0.3, 0.3, 0.1],
        ];
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for _ in 0..50 {
            for p in rows {
                assert_eq!(
                    decode_row(p, &mut a),
                    collected_ties_decode(p, &mut b),
                    "{p:?}"
                );
            }
        }
        // Same number of draws: the streams are still in step.
        assert_eq!(a.gen_range(0..u32::MAX), b.gen_range(0..u32::MAX));
    }

    #[test]
    fn decode_row_defines_rows_without_a_finite_maximum() {
        use rand::SeedableRng;
        let inf = f64::INFINITY;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            // All -inf / all NaN: every label ties.
            assert!(decode_row(&[-inf; 3], &mut rng) < 3);
            assert!(decode_row(&[f64::NAN; 4], &mut rng) < 4);
            // +inf labels tie with each other only.
            assert!([0, 2].contains(&decode_row(&[inf, 1.0, inf], &mut rng)));
        }
        // A lone comparable maximum decodes without a draw.
        let mut fresh = StdRng::seed_from_u64(3);
        let before = fresh.clone();
        assert_eq!(decode_row(&[f64::NAN, -inf, f64::NAN], &mut fresh), 1);
        assert_eq!(decode_row(&[0.2, inf, f64::NAN], &mut fresh), 1);
        assert_eq!(
            fresh.gen_range(0..u32::MAX),
            before.clone().gen_range(0..u32::MAX)
        );
    }

    #[test]
    fn csr_handles_empty_rows_and_datasets() {
        let mut b = DatasetBuilder::new("gap", TaskType::DecisionMaking, 4, 3);
        b.add_label(0, 0, 0).unwrap();
        b.add_label(3, 2, 1).unwrap();
        // Tasks 1-2 and worker 1 receive nothing.
        let d = b.build();
        for shards in [1, 2, 4, 6] {
            let view = sharded(&d, shards);
            assert_eq!(view.task_len(1), 0);
            assert_eq!(view.task_len(2), 0);
            assert_eq!(view.worker_len(1), 0);
            assert_eq!(view.worker(1).count(), 0);
            assert!(view.task_row(1).is_empty());
            assert_eq!(view.task_row(0), &[(0u32, 0u8)]);
            assert_eq!(view.task_row(3), &[(2u32, 1u8)]);
            assert_eq!(view.worker(2).collect::<Vec<_>>(), vec![(3usize, 1u8)]);
        }
    }
}
