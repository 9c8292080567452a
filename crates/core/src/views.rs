//! Dense views of a dataset, shared by the method implementations — the
//! data layer of the inference substrate.
//!
//! Methods iterate the answer log thousands of times. These views extract
//! the labels/values once and store both adjacencies (per task `W_i`, per
//! worker `T^w`) in **CSR form**: one contiguous entry buffer plus a
//! `u32` offset array per dimension. A task's (or worker's) answers are a
//! contiguous slice — no pointer chasing, no per-row allocations — and
//! posteriors live in a row-major [`DMat`], so the E/M hot loops touch
//! only flat memory.
//!
//! Two categorical views exist. [`ShardedView`] is the one the EM loops
//! of D&S, LFC, ZC and GLAD (and MV) run on: `infer` builds it with one
//! shard, `crowd-stream` maintains it incrementally with any number of
//! shards, and its worker rows are always in the canonical
//! task-ascending order, so every output depends only on each task's own
//! answer sequence. [`Cat`] is the unsharded view the other categorical
//! methods build; [`Num`] is its numeric counterpart.

use crowd_data::{Answer, Dataset};
use crowd_stats::DMat;
use rand::rngs::StdRng;
use rand::Rng;

use crate::framework::{InferenceError, InferenceOptions};

mod sharded;

pub use sharded::ShardedView;
pub(crate) use sharded::{obs_estep_seconds, obs_reduce_seconds};

/// Compressed sparse rows: `entries` holds each row's items contiguously,
/// `offsets[i]..offsets[i+1]` delimits row `i`. Entry columns are `u32`
/// (tasks and workers both fit comfortably), keeping the buffer compact.
#[derive(Debug, Clone)]
pub struct Csr<V> {
    offsets: Vec<u32>,
    entries: Vec<(u32, V)>,
}

impl<V: Copy + Default> Csr<V> {
    /// Build from `(row, col, value)` triples, preserving the triple
    /// order within each row (a stable counting sort on the row index —
    /// two passes, no comparison sort).
    pub fn from_triples(
        num_rows: usize,
        triples: impl Iterator<Item = (usize, u32, V)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; num_rows + 1];
        // Internal iteration (`for_each`) lets nested sources such as
        // `flat_map` run as plain loops.
        triples
            .clone()
            .for_each(|(row, _, _)| offsets[row + 1] += 1);
        for i in 0..num_rows {
            offsets[i + 1] += offsets[i];
        }
        let mut entries = vec![(0, V::default()); offsets[num_rows] as usize];
        let mut cursor: Vec<u32> = offsets[..num_rows].to_vec();
        triples.for_each(|(row, col, v)| {
            let slot = &mut cursor[row];
            entries[*slot as usize] = (col, v);
            *slot += 1;
        });
        Self { offsets, entries }
    }

    /// Build from `(row, col, value)` triples in a **single pass**, for
    /// callers that already know each row's entry count (the sharded
    /// view derives its worker rows this way from counted task rows).
    /// Unlike [`Csr::from_triples`] the iterator is consumed once and
    /// needs no `Clone` bound.
    ///
    /// Triple order within each row is preserved (same stable
    /// counting-sort layout as the two-pass path, so the two
    /// constructors produce identical buffers for identical input).
    ///
    /// # Panics
    /// Panics if a triple's row is out of range or a row receives more
    /// or fewer entries than `row_counts` promised — a miscounted CSR
    /// would mis-slice every downstream hot loop. The check runs once
    /// per row after the scatter: any miscount leaves some row's cursor
    /// off its end (an entry past the end of the buffer panics on the
    /// index instead).
    pub fn from_triples_counted(
        row_counts: &[u32],
        triples: impl Iterator<Item = (usize, u32, V)>,
    ) -> Self {
        let num_rows = row_counts.len();
        let mut offsets = vec![0u32; num_rows + 1];
        for (i, &c) in row_counts.iter().enumerate() {
            offsets[i + 1] = offsets[i] + c;
        }
        let mut entries = vec![(0, V::default()); offsets[num_rows] as usize];
        let mut cursor: Vec<u32> = offsets[..num_rows].to_vec();
        triples.for_each(|(row, col, v)| {
            let slot = &mut cursor[row];
            entries[*slot as usize] = (col, v);
            *slot += 1;
        });
        assert!(
            cursor.iter().zip(&offsets[1..]).all(|(c, end)| c == end),
            "row counts disagree with the triples"
        );
        Self { offsets, entries }
    }

    /// Row `i` as a contiguous slice of `(col, value)` pairs.
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, V)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of entries in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Dense categorical view: every answer as `(task, worker, label)` plus
/// CSR adjacency in both directions and golden clamps.
#[derive(Debug)]
pub struct Cat {
    /// Number of tasks.
    pub n: usize,
    /// Number of workers.
    pub m: usize,
    /// Number of choices ℓ.
    pub l: usize,
    /// Per-task CSR: row `t` holds `(worker, label)` pairs.
    task_adj: Csr<u8>,
    /// Per-worker CSR: row `w` holds `(task, label)` pairs.
    worker_adj: Csr<u8>,
    /// Golden clamp per task (from `InferenceOptions::golden`).
    pub golden: Vec<Option<u8>>,
}

impl Cat {
    /// Build the view; fails on numeric datasets or malformed options.
    pub fn build(
        method: &'static str,
        dataset: &Dataset,
        options: &InferenceOptions,
        use_golden: bool,
    ) -> Result<Self, InferenceError> {
        let l = num_choices(method, dataset)?;
        let n = dataset.num_tasks();
        let m = dataset.num_workers();
        let records = dataset.records();
        let task_adj = Csr::from_triples(
            n,
            records.iter().map(|r| {
                (
                    r.task,
                    r.worker as u32,
                    r.answer.label().expect("categorical dataset"),
                )
            }),
        );
        let worker_adj = Csr::from_triples(
            m,
            records.iter().map(|r| {
                (
                    r.worker,
                    r.task as u32,
                    r.answer.label().expect("categorical dataset"),
                )
            }),
        );
        Ok(Self {
            n,
            m,
            l,
            task_adj,
            worker_adj,
            golden: golden_labels(options, use_golden, n),
        })
    }

    /// Total answers in the view (`|V|`).
    pub fn num_answers(&self) -> usize {
        self.task_adj.num_entries()
    }

    /// Answers on task `t` as `(worker, label)` pairs, in record order —
    /// a contiguous slice decoded on the fly.
    #[inline]
    pub fn task(&self, t: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.task_adj
            .row(t)
            .iter()
            .map(|&(w, label)| (w as usize, label))
    }

    /// Raw CSR row for task `t` — the tightest-loop form (one slice, no
    /// iterator adapter).
    #[inline]
    pub fn task_row(&self, t: usize) -> &[(u32, u8)] {
        self.task_adj.row(t)
    }

    /// Number of answers on task `t` (`|W_t|`).
    #[inline]
    pub fn task_len(&self, t: usize) -> usize {
        self.task_adj.row_len(t)
    }

    /// Answers by worker `w` as `(task, label)` pairs, in record order.
    #[inline]
    pub fn worker(&self, w: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.worker_adj
            .row(w)
            .iter()
            .map(|&(t, label)| (t as usize, label))
    }

    /// Raw CSR row for worker `w` — the allocation-free M-step form.
    #[inline]
    pub fn worker_row(&self, w: usize) -> &[(u32, u8)] {
        self.worker_adj.row(w)
    }

    /// Number of answers by worker `w` (`|T^w|`).
    #[inline]
    pub fn worker_len(&self, w: usize) -> usize {
        self.worker_adj.row_len(w)
    }

    /// Soft majority-vote posteriors: per-task normalized label counts
    /// (uniform when a task has no answers), with golden clamps applied.
    /// The standard initialisation for EM-style methods.
    pub fn majority_posteriors(&self) -> DMat {
        let mut post = DMat::zeros(self.n, self.l);
        for task in 0..self.n {
            if let Some(g) = self.golden[task] {
                post[(task, g as usize)] = 1.0;
                continue;
            }
            if self.task_len(task) == 0 {
                post.row_mut(task).fill(1.0 / self.l as f64);
                continue;
            }
            for (_, label) in self.task(task) {
                post[(task, label as usize)] += 1.0;
            }
            // Rows reaching here hold ≥ 1 count, so the normalize is a
            // plain division by the (positive) total.
            post.row_normalize(task);
        }
        post
    }

    /// Clamp golden tasks in a posterior matrix (delta at the truth).
    pub fn clamp_golden(&self, post: &mut DMat) {
        for (task, g) in self.golden.iter().enumerate() {
            if let Some(truth) = g {
                let row = post.row_mut(task);
                row.fill(0.0);
                row[*truth as usize] = 1.0;
            }
        }
    }

    /// Decode MAP labels from posteriors, breaking exact ties uniformly
    /// at random (the paper's MV behaviour on ties).
    pub fn decode(&self, post: &DMat, rng: &mut StdRng) -> Vec<u8> {
        (0..self.n)
            .map(|task| decode_row(post.row(task), rng))
            .collect()
    }

    /// Convert decoded labels into `Answer`s.
    pub fn answers(labels: &[u8]) -> Vec<Answer> {
        labels.iter().map(|&l| Answer::Label(l)).collect()
    }
}

/// ℓ of a categorical dataset; a typed error for numeric ones.
fn num_choices(method: &'static str, dataset: &Dataset) -> Result<usize, InferenceError> {
    dataset
        .num_choices()
        .map(usize::from)
        .ok_or(InferenceError::UnsupportedTaskType {
            method,
            task_type: dataset.task_type(),
        })
}

/// Golden clamp per task from `options.golden` (all `None` unless
/// `use_golden`).
fn golden_labels(options: &InferenceOptions, use_golden: bool, n: usize) -> Vec<Option<u8>> {
    match (&options.golden, use_golden) {
        (Some(g), true) => g
            .iter()
            .map(|t| t.as_ref().and_then(Answer::label))
            .collect(),
        _ => vec![None; n],
    }
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

/// Dense numeric view (CSR, like [`Cat`] with `f64` values).
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
        let records = dataset.records();
        let task_adj = Csr::from_triples(
            n,
            records.iter().map(|r| {
                (
                    r.task,
                    r.worker as u32,
                    r.answer.numeric().expect("numeric dataset"),
                )
            }),
        );
        let worker_adj = Csr::from_triples(
            m,
            records.iter().map(|r| {
                (
                    r.worker,
                    r.task as u32,
                    r.answer.numeric().expect("numeric dataset"),
                )
            }),
        );
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

    /// Answers by worker `w` as `(task, value)` pairs, in record order.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The CSR view round-trips `Dataset::records()`: walking the
        /// per-task rows in order recovers exactly the record log grouped
        /// by task (and likewise per worker), with degrees intact.
        #[test]
        fn cat_csr_round_trips_records(dataset in arb_categorical()) {
            let cat = Cat::build("test", &dataset, &InferenceOptions::default(), false).unwrap();
            prop_assert_eq!(cat.num_answers(), dataset.num_answers());

            // Per-task rows == records grouped by task, preserving order.
            let mut by_task: Vec<Vec<(usize, u8)>> = vec![Vec::new(); dataset.num_tasks()];
            let mut by_worker: Vec<Vec<(usize, u8)>> = vec![Vec::new(); dataset.num_workers()];
            for r in dataset.records() {
                let label = r.answer.label().unwrap();
                by_task[r.task].push((r.worker, label));
                by_worker[r.worker].push((r.task, label));
            }
            for t in 0..dataset.num_tasks() {
                let row: Vec<(usize, u8)> = cat.task(t).collect();
                prop_assert_eq!(&row, &by_task[t], "task {} row mismatch", t);
                prop_assert_eq!(cat.task_len(t), dataset.task_degree(t));
            }
            for w in 0..dataset.num_workers() {
                let row: Vec<(usize, u8)> = cat.worker(w).collect();
                prop_assert_eq!(&row, &by_worker[w], "worker {} row mismatch", w);
                prop_assert_eq!(cat.worker_len(w), dataset.worker_degree(w));
            }
        }

        /// Majority posteriors over the CSR view are proper distributions
        /// and match the per-task label counts.
        #[test]
        fn majority_posteriors_match_counts(dataset in arb_categorical()) {
            let cat = Cat::build("test", &dataset, &InferenceOptions::default(), false).unwrap();
            let post = cat.majority_posteriors();
            for t in 0..cat.n {
                let row = post.row(t);
                let sum: f64 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "task {} sums to {}", t, sum);
                let deg = cat.task_len(t);
                if deg > 0 {
                    for (label, &p) in row.iter().enumerate() {
                        let count =
                            cat.task(t).filter(|&(_, a)| a as usize == label).count();
                        prop_assert!((p - count as f64 / deg as f64).abs() < 1e-9);
                    }
                }
            }
        }

        /// The numeric CSR view round-trips `Dataset::records()` too.
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
            prop_assert_eq!(&two_pass.offsets, &counted.offsets);
            prop_assert_eq!(&two_pass.entries, &counted.entries);
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
        let cat = Cat::build("test", &d, &InferenceOptions::default(), false).unwrap();
        assert_eq!(cat.task_len(1), 0);
        assert_eq!(cat.task_len(2), 0);
        assert_eq!(cat.worker_len(1), 0);
        assert_eq!(cat.task(1).count(), 0);
        assert_eq!(cat.task(0).collect::<Vec<_>>(), vec![(0usize, 0u8)]);
        assert_eq!(cat.task(3).collect::<Vec<_>>(), vec![(2usize, 1u8)]);
    }
}
