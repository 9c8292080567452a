//! Task-range sharding of the categorical CSR view — the data layer of
//! every categorical method (see ARCHITECTURE.md §sharded substrate).
//! The unsharded case is one shard.
//!
//! A [`ShardedView`] splits the task axis into contiguous ranges
//! (the **shard directory**) and stores, per shard, both CSR
//! adjacencies restricted to that range:
//!
//! - `task_adj`: the shard's task rows (local row `i` = global task
//!   `start + i`), entries `(worker, label)` in record order;
//! - `worker_adj`: all `m` worker rows restricted to the shard's tasks,
//!   entries `(global task, label)` in **task-ascending order** (the
//!   canonical order — derived from the task rows, not from arrival
//!   order).
//!
//! The canonical worker-row order is the bit-identity keystone: walking
//! every shard's worker row in ascending shard order
//! ([`ShardedView::worker`]) visits a worker's answers in ascending task
//! order **regardless of the shard count and of how the records
//! interleave across tasks**, so any per-worker f64 fold over the view
//! depends only on each task's own answer sequence.
//!
//! Every constructor funnels through one flat task CSR built by the
//! two-pass [`Csr::from_triples`] (count, then scatter — no intermediate
//! copy of the log), split at the shard boundaries
//! ([`Csr::split_rows`]); each shard then
//! derives its worker rows from its task rows
//! ([`Csr::from_triples_counted`]). [`ShardedView::build`] is the
//! dataset entry point `infer` uses, and [`ShardedView::from_records`]
//! reads a re-iterable `(task, worker, label)` source (a streamed
//! generator or a stream's arrival log).

use crowd_data::{Answer, Dataset};
use crowd_stats::DMat;
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::OnceLock;

use super::{decode_row, Csr};
use crate::exec;
use crate::framework::{InferenceError, InferenceOptions};

/// Shards-rebuilt counter: incremented once per shard rebuild (the
/// streaming dirty-shard path calls [`ShardedView::rebuild_shard`] only
/// for shards that received answers since the last converge, so this
/// counts shards-dirty-per-converge in aggregate).
fn obs_dirty_rebuilds() -> &'static crowd_obs::Counter {
    static H: OnceLock<crowd_obs::Counter> = OnceLock::new();
    H.get_or_init(|| crowd_obs::counter("core.shard.dirty_rebuilds_total"))
}

/// E-step wall time per row block (one sample per block per EM
/// iteration; see [`ShardedView::for_each_row_block`]).
pub(crate) fn obs_estep_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.shard.estep_seconds"))
}

/// M-step partial-reduce wall time (one sample per EM iteration).
pub(crate) fn obs_reduce_seconds() -> &'static crowd_obs::Histogram {
    static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| crowd_obs::histogram("core.shard.reduce_seconds"))
}

/// The shard directory: `shard_count + 1` task boundaries splitting
/// `0..n` into contiguous ranges as evenly as possible (the first
/// `n % shard_count` shards hold one extra task; with more shards than
/// tasks the tail shards are empty ranges).
pub(crate) fn shard_starts(n: usize, shard_count: usize) -> Vec<usize> {
    let s = shard_count.max(1);
    let (base, extra) = (n / s, n % s);
    let mut starts = Vec::with_capacity(s + 1);
    let mut at = 0usize;
    starts.push(0);
    for i in 0..s {
        at += base + usize::from(i < extra);
        starts.push(at);
    }
    starts
}

/// One task-range shard: both adjacencies restricted to the range.
#[derive(Debug)]
struct ShardData {
    /// Local task rows (`(worker, label)` entries, record order).
    task_adj: Csr<u8>,
    /// All `m` worker rows over this range (`(global task, label)`
    /// entries, task-ascending — the canonical order).
    worker_adj: Csr<u8>,
}

impl ShardData {
    /// Derive the canonical worker adjacency from the shard's task rows:
    /// count per-worker degrees, then scatter the task rows in ascending
    /// task order. Every constructor and the rebuild path funnel through
    /// here, so the canonical-order invariant — and the range check on
    /// every entry (the EM loops index confusion tables by worker and
    /// label unchecked) — has one owner.
    fn from_task_adj(start: usize, m: usize, l: usize, task_adj: Csr<u8>) -> Self {
        // Indexing `counts` rejects a worker ≥ `m`; labels are checked
        // once, on their maximum, to keep the branch out of the loop.
        let mut counts = vec![0u32; m];
        let mut max_label = 0u8;
        for &(worker, label) in task_adj.entries() {
            counts[worker as usize] += 1;
            max_label = max_label.max(label);
        }
        assert!(
            task_adj.num_entries() == 0 || (max_label as usize) < l,
            "record label {max_label} ≥ {l}"
        );
        let worker_adj = Csr::from_triples_counted(
            &counts,
            (0..task_adj.num_rows()).flat_map(|local| {
                task_adj
                    .row(local)
                    .iter()
                    .map(move |&(worker, label)| (worker as usize, (start + local) as u32, label))
            }),
        );
        Self {
            task_adj,
            worker_adj,
        }
    }
}

/// A categorical answer view split into contiguous task-range shards —
/// the substrate every categorical method's
/// [`TruthInference::infer_sharded`](crate::TruthInference::infer_sharded)
/// runs on. See the module docs for the layout and order guarantees.
#[derive(Debug)]
pub struct ShardedView {
    /// Number of tasks.
    pub n: usize,
    /// Number of workers.
    pub m: usize,
    /// Number of choices ℓ.
    pub l: usize,
    /// Shard directory: task boundaries, `starts[s]..starts[s + 1]` is
    /// shard `s`'s global task range.
    starts: Vec<usize>,
    /// Global answer offset of each shard in canonical task-major order
    /// (`entry_offsets[s]..entry_offsets[s + 1]` indexes shard `s`'s
    /// answers in any answer-major buffer).
    entry_offsets: Vec<usize>,
    shards: Vec<ShardData>,
    /// Golden clamp per global task.
    golden: Vec<Option<u8>>,
}

impl ShardedView {
    /// The one-shard view of a categorical dataset — what `infer` runs
    /// every categorical method on. Fails on numeric datasets; golden
    /// clamps come from `options.golden` when `use_golden`.
    pub fn build(
        method: &'static str,
        dataset: &Dataset,
        options: &InferenceOptions,
        use_golden: bool,
    ) -> Result<Self, InferenceError> {
        let l = dataset
            .num_choices()
            .ok_or(InferenceError::UnsupportedTaskType {
                method,
                task_type: dataset.task_type(),
            })?;
        let n = dataset.num_tasks();
        let golden = match (&options.golden, use_golden) {
            (Some(g), true) => g
                .iter()
                .map(|t| t.as_ref().and_then(Answer::label))
                .collect(),
            _ => vec![None; n],
        };
        Ok(Self::from_records(
            n,
            dataset.num_workers(),
            usize::from(l),
            1,
            dataset.records().iter().map(|r| {
                (
                    r.task as u32,
                    r.worker as u32,
                    r.answer.label().expect("categorical dataset"),
                )
            }),
            golden,
        ))
    }

    /// Build from a `(task, worker, label)` record source in two passes
    /// over it — count, then scatter, cloning the iterator to re-read
    /// it — so the log is never copied into an intermediate buffer. A
    /// streamed generator is simply regenerated; a stream's arrival log
    /// is read in place.
    ///
    /// Within each task, record order is preserved, so the view depends
    /// only on each task's own answer sequence: any interleaving of the
    /// same per-task sequences builds an entry-identical view.
    ///
    /// # Panics
    /// Panics on any out-of-range record (task ≥ `n`, worker ≥ `m`,
    /// label ≥ `l`), a `golden` vector that is not `n` long, or a golden
    /// label ≥ `l`.
    pub fn from_records(
        n: usize,
        m: usize,
        l: usize,
        shard_count: usize,
        records: impl Iterator<Item = (u32, u32, u8)> + Clone,
        golden: Vec<Option<u8>>,
    ) -> Self {
        assert_eq!(golden.len(), n, "golden vector length");
        assert!(
            golden.iter().flatten().all(|&g| usize::from(g) < l),
            "golden label ≥ {l}"
        );
        let task_adj = Csr::from_triples(
            n,
            records.map(|(task, worker, label)| (task as usize, worker, label)),
        );
        Self::from_task_adj(m, l, shard_count, task_adj, golden)
    }

    /// Split a flat task CSR at the shard boundaries
    /// ([`Csr::split_rows`]) and derive each shard's worker rows.
    fn from_task_adj(
        m: usize,
        l: usize,
        shard_count: usize,
        task_adj: Csr<u8>,
        golden: Vec<Option<u8>>,
    ) -> Self {
        let n = task_adj.num_rows();
        let starts = shard_starts(n, shard_count);
        let shards = task_adj
            .split_rows(&starts)
            .into_iter()
            .zip(&starts)
            .map(|(part, &start)| ShardData::from_task_adj(start, m, l, part))
            .collect();
        let mut view = Self {
            n,
            m,
            l,
            starts,
            entry_offsets: Vec::new(),
            shards,
            golden,
        };
        view.refresh_entry_offsets();
        view
    }

    fn refresh_entry_offsets(&mut self) {
        self.entry_offsets.clear();
        self.entry_offsets.push(0);
        let mut at = 0usize;
        for shard in &self.shards {
            at += shard.task_adj.num_entries();
            self.entry_offsets.push(at);
        }
    }

    /// Rebuild one shard from its current records — the streaming
    /// dirty-shard path: `StreamEngine` rebuilds only the shards whose
    /// task ranges received answers since its last sync, leaving clean
    /// shards untouched. `records` must hold **every** answer in the
    /// shard's task range (global coordinates), in the desired
    /// within-task order.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or any record falls outside the
    /// shard's task range (or out of the view's worker/label ranges).
    pub fn rebuild_shard(&mut self, shard: usize, records: &[(u32, u32, u8)]) {
        let (start, end) = (self.starts[shard], self.starts[shard + 1]);
        let task_adj = Csr::from_triples(
            end - start,
            records.iter().map(|&(task, worker, label)| {
                let t = task as usize;
                assert!(
                    (start..end).contains(&t),
                    "record task {t} outside shard {shard} range {start}..{end}"
                );
                (t - start, worker, label)
            }),
        );
        self.shards[shard] = ShardData::from_task_adj(start, self.m, self.l, task_adj);
        self.refresh_entry_offsets();
        obs_dirty_rebuilds().inc();
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard directory: `num_shards() + 1` task boundaries.
    pub fn directory(&self) -> &[usize] {
        &self.starts
    }

    /// Shard `s`'s global task range.
    pub fn shard_tasks(&self, s: usize) -> Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard holding global task `t`.
    pub fn shard_for_task(&self, t: usize) -> usize {
        shard_of(&self.starts, t)
    }

    /// Answers in shard `s`.
    pub fn shard_num_answers(&self, s: usize) -> usize {
        self.shards[s].task_adj.num_entries()
    }

    /// Global answer offset of shard `s` in canonical task-major order —
    /// the cursor base for answer-major scratch buffers (GLAD's σ/log
    /// tables).
    pub fn shard_entry_offset(&self, s: usize) -> usize {
        self.entry_offsets[s]
    }

    /// Task row for **local** task `local` of shard `s` (`(worker,
    /// label)` entries, record order).
    #[inline]
    pub fn shard_task_row(&self, s: usize, local: usize) -> &[(u32, u8)] {
        self.shards[s].task_adj.row(local)
    }

    /// Worker `w`'s answers within shard `s` (`(global task, label)`
    /// entries, task-ascending).
    #[inline]
    pub fn shard_worker_row(&self, s: usize, w: usize) -> &[(u32, u8)] {
        self.shards[s].worker_adj.row(w)
    }

    /// Total answers in the view (`|V|`).
    pub fn num_answers(&self) -> usize {
        *self.entry_offsets.last().unwrap()
    }

    /// Answers on global task `t` as one contiguous slice of `(worker,
    /// label)` entries, in record order.
    #[inline]
    pub fn task_row(&self, t: usize) -> &[(u32, u8)] {
        // Every `infer` view has one shard, and Minimax and Multi read a
        // task row per task per gradient step: skip the directory there.
        match &self.shards[..] {
            [only] => only.task_adj.row(t),
            _ => {
                let s = self.shard_for_task(t);
                self.shards[s].task_adj.row(t - self.starts[s])
            }
        }
    }

    /// Number of answers on global task `t`.
    pub fn task_len(&self, t: usize) -> usize {
        self.task_row(t).len()
    }

    /// Worker `w`'s answers as `(task, label)` pairs: its per-shard rows
    /// concatenated in ascending shard order, which is ascending task
    /// order at any shard count. Internal iteration (`for_each`, `sum`,
    /// `count`) compiles to one plain loop per shard; hot loops use it
    /// rather than `for`, which pays the concatenation's bookkeeping on
    /// every answer.
    #[inline]
    pub fn worker(&self, w: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.shards.iter().flat_map(move |shard| {
            shard
                .worker_adj
                .row(w)
                .iter()
                .map(|&(task, label)| (task as usize, label))
        })
    }

    /// Number of answers by worker `w` (summed over shards).
    pub fn worker_len(&self, w: usize) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.worker_adj.row_len(w))
            .sum()
    }

    /// Golden clamps per global task.
    pub fn golden(&self) -> &[Option<u8>] {
        &self.golden
    }

    /// Maximum per-task answer count over every shard's task rows.
    pub fn max_task_degree(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.task_adj.max_row_len())
            .max()
            .unwrap_or(0)
    }

    /// Run `rows(shard, first_local_task, block)` over every shard's
    /// block of rows of a task-major buffer with `width` columns per task
    /// (a posterior matrix's data) — the E-step fan-out.
    ///
    /// With `threads <= 1` each shard's block is one call, in shard
    /// order, with no heap allocation (the allocation-free serial EM
    /// loops rely on this). Above that, every shard's block is cut into
    /// chunks of ⌈n / (4·threads)⌉ tasks that the calling thread and pool
    /// workers steal: one shard keeps the flat sweep's fan-out, and no
    /// chunk straddles a shard boundary. Callers compute each row
    /// independently, so the output never depends on the chunking.
    pub(crate) fn for_each_row_block(
        &self,
        data: &mut [f64],
        width: usize,
        threads: usize,
        rows: impl Fn(usize, usize, &mut [f64]) + Sync,
    ) {
        let mut rest = data;
        if threads <= 1 {
            for s in 0..self.num_shards() {
                let (block, tail) = rest.split_at_mut(self.shard_tasks(s).len() * width);
                rows(s, 0, block);
                rest = tail;
            }
            return;
        }
        let tasks_per_chunk = self.n.div_ceil(4 * threads).max(1);
        let mut chunks: Vec<(usize, usize, &mut [f64])> = Vec::new();
        for s in 0..self.num_shards() {
            let (mut block, tail) = rest.split_at_mut(self.shard_tasks(s).len() * width);
            rest = tail;
            let mut first = 0;
            while !block.is_empty() {
                let (chunk, more) = block.split_at_mut((tasks_per_chunk * width).min(block.len()));
                chunks.push((s, first, chunk));
                first += tasks_per_chunk;
                block = more;
            }
        }
        exec::parallel_chunks(threads, &mut chunks, 1, |_, chunk| {
            let (s, first, block) = &mut chunk[0];
            rows(*s, *first, block);
        });
    }

    /// Soft majority-vote posteriors: per-task normalized label counts
    /// (uniform when a task has no answers), with golden clamps applied —
    /// the standard initialisation for EM-style methods. Walked
    /// shard-by-shard; each row depends only on its task's answers, so
    /// the result is bit-identical at any shard count.
    pub fn majority_posteriors(&self) -> DMat {
        let mut post = DMat::zeros(self.n, self.l);
        for s in 0..self.num_shards() {
            let start = self.starts[s];
            for task in self.shard_tasks(s) {
                if let Some(g) = self.golden[task] {
                    post[(task, g as usize)] = 1.0;
                    continue;
                }
                let row = self.shard_task_row(s, task - start);
                if row.is_empty() {
                    post.row_mut(task).fill(1.0 / self.l as f64);
                    continue;
                }
                for &(_, label) in row {
                    post[(task, label as usize)] += 1.0;
                }
                post.row_normalize(task);
            }
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
    /// at random (the paper's MV behaviour on ties); the RNG draws only
    /// on tied rows, in task order.
    pub fn decode(&self, post: &DMat, rng: &mut StdRng) -> Vec<u8> {
        (0..self.n)
            .map(|task| decode_row(post.row(task), rng))
            .collect()
    }
}

/// Locate the shard containing task `t` in a monotone directory
/// (`partition_point` handles empty shards: the returned range always
/// contains `t`).
fn shard_of(starts: &[usize], t: usize) -> usize {
    debug_assert!(t < *starts.last().unwrap());
    starts.partition_point(|&s| s <= t) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ragged single-choice log (ℓ = 3) with uneven degrees and gaps
    /// (task 3 empty), filled task by task, over `shards` shards.
    fn ragged(shards: usize) -> ShardedView {
        let records = [
            (0u32, 0u32, 0u8),
            (0, 1, 1),
            (0, 2, 0),
            (1, 3, 2),
            (2, 0, 1),
            (2, 3, 1),
            (4, 1, 2),
            (5, 0, 0),
            (5, 2, 2),
            (6, 3, 0),
        ];
        ShardedView::from_records(7, 4, 3, shards, records.into_iter(), vec![None; 7])
    }

    #[test]
    fn directory_splits_evenly_and_handles_boundaries() {
        assert_eq!(shard_starts(7, 2), vec![0, 4, 7]);
        assert_eq!(shard_starts(7, 7), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // More shards than tasks: tail shards are empty ranges.
        assert_eq!(shard_starts(3, 5), vec![0, 1, 2, 3, 3, 3]);
        // Zero is clamped to one shard.
        assert_eq!(shard_starts(4, 0), vec![0, 4]);
        assert_eq!(shard_starts(0, 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn build_preserves_rows_and_canonicalizes_workers() {
        // The ragged log with tasks interleaved (task 2's answers arrive
        // before task 0's last one, task 5's before task 4's).
        let records = [
            (0u32, 0u32, 0u8),
            (2, 0, 1),
            (0, 1, 1),
            (1, 3, 2),
            (2, 3, 1),
            (0, 2, 0),
            (5, 0, 0),
            (4, 1, 2),
            (6, 3, 0),
            (5, 2, 2),
        ];
        for shards in [1, 2, 3, 7, 11] {
            let view =
                ShardedView::from_records(7, 4, 3, shards, records.into_iter(), vec![None; 7]);
            assert_eq!(view.num_answers(), records.len());
            assert_eq!(view.max_task_degree(), 3);
            // Task rows keep each task's answers in record order.
            for t in 0..7 {
                let row: Vec<(u32, u8)> = records
                    .iter()
                    .filter(|r| r.0 as usize == t)
                    .map(|&(_, w, label)| (w, label))
                    .collect();
                assert_eq!(view.task_row(t), &row[..], "task {t} at {shards} shards");
                assert_eq!(view.task_len(t), row.len());
            }
            // Concatenated worker rows are the task-ascending canonical
            // order, whatever the arrival order across tasks.
            for w in 0..4 {
                let mut row: Vec<(u32, u8)> = records
                    .iter()
                    .filter(|r| r.1 as usize == w)
                    .map(|&(t, _, label)| (t, label))
                    .collect();
                row.sort_by_key(|&(t, _)| t);
                let mut concat: Vec<(u32, u8)> = Vec::new();
                for s in 0..view.num_shards() {
                    concat.extend_from_slice(view.shard_worker_row(s, w));
                }
                assert_eq!(concat, row, "worker {w} at {shards} shards");
                assert_eq!(view.worker_len(w), row.len());
            }
        }
    }

    #[test]
    fn streamed_build_matches_sliced_build() {
        // A view built over S shards is the one-shard view sliced at the
        // directory: the same task rows, and each shard's worker rows are
        // the one-shard worker rows restricted to the shard's tasks.
        let flat = ragged(1);
        for shards in [1, 2, 5, 9] {
            let view = ragged(shards);
            assert_eq!(view.num_answers(), flat.num_answers());
            for t in 0..flat.n {
                assert_eq!(view.task_row(t), flat.task_row(t), "task {t}");
            }
            for s in 0..view.num_shards() {
                let range = view.shard_tasks(s);
                for w in 0..flat.m {
                    let restricted: Vec<(u32, u8)> = flat
                        .shard_worker_row(0, w)
                        .iter()
                        .copied()
                        .filter(|&(t, _)| range.contains(&(t as usize)))
                        .collect();
                    assert_eq!(view.shard_worker_row(s, w), &restricted[..]);
                }
            }
        }
    }

    #[test]
    fn majority_posteriors_bit_identical_to_flat() {
        let flat = ragged(1).majority_posteriors();
        for shards in [1, 2, 7, 16] {
            let sharded = ragged(shards).majority_posteriors();
            assert_eq!(
                flat.data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                sharded
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn rebuild_shard_swaps_one_range_only() {
        let flat = ragged(1);
        let mut view = ragged(3);
        // Shard 1 covers tasks 3..5 (ceil split of 7 into 3: [0,3,5,7]).
        let range = view.shard_tasks(1);
        // Replace shard 1's content: task 4 now has two answers.
        let records = vec![(4u32, 0u32, 1u8), (4, 3, 1)];
        assert!(records.iter().all(|r| range.contains(&(r.0 as usize))));
        view.rebuild_shard(1, &records);
        assert_eq!(view.task_len(4), 2);
        assert_eq!(view.task_len(3), 0);
        // Other shards untouched.
        assert_eq!(view.task_row(0), flat.task_row(0));
        assert_eq!(view.task_len(6), flat.task_len(6));
        // Entry offsets re-derived.
        assert_eq!(
            view.num_answers(),
            flat.num_answers() - flat.task_len(3) - flat.task_len(4) + 2
        );
        // Canonical worker rows reflect the swap.
        assert_eq!(view.shard_worker_row(1, 0), &[(4u32, 1u8)]);
    }

    #[test]
    #[should_panic(expected = "golden label")]
    fn from_records_rejects_out_of_range_golden_labels() {
        let mut golden = vec![None; 2];
        golden[0] = Some(3);
        ShardedView::from_records(2, 1, 3, 1, [(1u32, 0u32, 0u8)].into_iter(), golden);
    }

    #[test]
    #[should_panic(expected = "outside shard")]
    fn rebuild_shard_rejects_out_of_range_records() {
        let mut view = ragged(3);
        view.rebuild_shard(1, &[(0, 0, 0)]);
    }
}
