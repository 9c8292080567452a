//! The streaming inference engine: answer deltas in, warm re-converged
//! truth estimates out.

use crowd_core::views::ShardedView;
use crowd_core::{InferenceOptions, InferenceResult, Method, WarmStart, WorkerQuality};
use crowd_data::{Answer, AnswerRecord, TaskType};

use crate::StreamError;

// Cached `stream.engine.*` metric handles (see ARCHITECTURE.md §
// Observability for the naming scheme). Registration happens once per
// process; the hot paths below touch only atomics.
crowd_obs::handle!(obs_batches, counter, "stream.engine.batches_total");
crowd_obs::handle!(
    obs_batch_answers,
    counter,
    "stream.engine.batch_answers_total"
);
crowd_obs::handle!(
    obs_push_seconds,
    histogram,
    "stream.engine.batch_push_seconds"
);
crowd_obs::handle!(
    obs_converge_seconds,
    histogram,
    "stream.engine.converge_seconds"
);
crowd_obs::handle!(
    obs_converge_iterations,
    histogram,
    "stream.engine.converge_iterations"
);
crowd_obs::handle!(
    obs_warm_resumes,
    counter,
    "stream.engine.warm_resumes_total"
);
crowd_obs::handle!(
    obs_cold_converges,
    counter,
    "stream.engine.cold_converges_total"
);

/// Pseudo-count governing how fast warm worker state earns full trust:
/// a worker's warm quality keeps weight `c / (c + 12)` after `c`
/// answers (half trust at 12 answers, ~90% at 100).
pub const WARM_SHRINKAGE_PSEUDOCOUNT: f64 = 12.0;

/// Configuration of a streaming session: a fixed task/worker universe, a
/// method, and the inference options every converge reuses.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The inference method re-converged per batch, through its
    /// `TruthInference::infer_sharded`. Supported: the EM-family
    /// categorical methods with warm starts (`Ds`, `Lfc`, `Zc`, `Glad`)
    /// plus `Mv` (recomputed directly from the view): the five that
    /// the write-ahead log of `crowd-serve` has header tags for.
    pub method: Method,
    /// The task type (must be categorical).
    pub task_type: TaskType,
    /// Number of tasks `n` (fixed for the session).
    pub num_tasks: usize,
    /// Number of workers `m` (fixed for the session).
    pub num_workers: usize,
    /// Options forwarded to every converge (`warm_start` is managed by
    /// the engine and overwritten; `golden` is not supported and
    /// ignored).
    pub options: InferenceOptions,
    /// Task-range shards of the session's [`ShardedView`] (default `1`).
    /// Every converge runs `TruthInference::infer_sharded` on that view,
    /// rebuilding only the shards whose task ranges received answers
    /// since the previous sync. The knob sets the rebuild granularity
    /// and the working set per E-step block, never the output: results
    /// are bit-identical at any shard count, on any arrival order (see
    /// `tests` and `crowd_core::views::sharded`).
    pub shard_count: usize,
}

impl StreamConfig {
    /// A config with default options.
    pub fn new(method: Method, task_type: TaskType, num_tasks: usize, num_workers: usize) -> Self {
        Self {
            method,
            task_type,
            num_tasks,
            num_workers,
            options: InferenceOptions::default(),
            shard_count: 1,
        }
    }

    /// Converge over `shard_count` task-range shards (clamped to ≥ 1).
    pub fn with_shards(mut self, shard_count: usize) -> Self {
        self.shard_count = shard_count.max(1);
        self
    }
}

/// Iteration budget for one drain-tick converge (`crowd-serve`'s unit of
/// fairness): the EM loop runs at most this many outer iterations this
/// tick, and a session that runs out resumes from its warm state on the
/// next tick instead of monopolising a shard executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergeBudget {
    /// Outer-iteration cap for this converge (further capped by the
    /// session's own `options.max_iterations`; values of 0 are treated
    /// as 1 — a converge that cannot iterate is not a converge).
    pub max_iterations: usize,
}

impl ConvergeBudget {
    /// A budget of `max_iterations` outer iterations.
    pub fn iterations(max_iterations: usize) -> Self {
        Self { max_iterations }
    }
}

impl Default for ConvergeBudget {
    /// No effective cap beyond the session's own `max_iterations`.
    fn default() -> Self {
        Self {
            max_iterations: usize::MAX,
        }
    }
}

/// The warm-resumable state of a [`StreamEngine`] at a quiescent point —
/// everything recovery needs **besides** the answer log itself.
///
/// The answer log (and everything derived from it: sharded view, label
/// counts, seen set) is deliberately *not* part of a checkpoint: it is
/// cheap to rebuild by replaying pushes, and the write-ahead log in
/// `crowd-serve` already stores it durably. A checkpoint captures only the state that
/// is *expensive* to recompute — the converged warm posteriors and
/// worker qualities — plus the bookkeeping counters that make the
/// restored engine indistinguishable from the original
/// ([`needs_converge`](StreamEngine::needs_converge) answers the same,
/// resumed converges follow the same EM trajectory bit for bit).
///
/// Install with [`StreamEngine::restore_checkpoint`] **after** replaying
/// the same `answers_seen` answers into a fresh engine; the restore
/// validates the count so a checkpoint can never be spliced onto the
/// wrong log prefix.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Answers the engine had absorbed when the checkpoint was taken.
    pub answers_seen: usize,
    /// The warm state (post-shrinkage, exactly as the next converge
    /// would resume from it). `None` before the first converge.
    pub warm: Option<WarmStart>,
    /// Converges run so far.
    pub converges: usize,
    /// Answers accepted since the last converge.
    pub pending_answers: usize,
    /// Whether the last converge met the convergence criterion.
    pub last_converged: bool,
}

/// The engine's scalar counters, extracted in one call (see
/// [`StreamEngine::summary`]) so a caller assembling a published
/// snapshot reads them from a single instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSummary {
    /// Answers accepted so far.
    pub answers_seen: usize,
    /// Answers accepted since the last warm converge.
    pub pending_answers: usize,
    /// Converges run so far.
    pub converges: usize,
    /// Whether the next drain tick would re-converge this engine.
    pub needs_converge: bool,
}

/// What one converge produced.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The inference output over every answer seen so far.
    pub result: InferenceResult,
    /// Whether the run resumed from a warm state (false for the first
    /// converge and for [`StreamEngine::converge_cold`]).
    pub warm: bool,
    /// Answers incorporated in this converge.
    pub answers_seen: usize,
}

/// Duplicate guard over `(task, worker)` pairs: a bitmap for universes
/// that fit in a few MB, a hash set (proportional to answers actually
/// seen, not to `n × m`) beyond — a million-task × hundred-thousand-
/// worker session must not allocate gigabytes up front for a sparse
/// stream.
#[derive(Debug)]
enum SeenSet {
    Dense(Vec<u64>),
    Sparse(std::collections::HashSet<u64>),
}

/// Universe size (in pairs) up to which the dense bitmap is used: 2²⁶
/// bits = 8 MB.
const DENSE_SEEN_LIMIT: usize = 1 << 26;

impl SeenSet {
    fn new(n: usize, m: usize) -> Self {
        match n.checked_mul(m) {
            Some(bits) if bits <= DENSE_SEEN_LIMIT => Self::Dense(vec![0u64; bits.div_ceil(64)]),
            _ => Self::Sparse(std::collections::HashSet::new()),
        }
    }

    /// Record the pair; `false` if it was already present.
    fn insert(&mut self, key: u64) -> bool {
        match self {
            Self::Dense(words) => {
                let (slot, mask) = ((key / 64) as usize, 1u64 << (key % 64));
                if words[slot] & mask != 0 {
                    false
                } else {
                    words[slot] |= mask;
                    true
                }
            }
            Self::Sparse(set) => set.insert(key),
        }
    }
}

/// Incremental truth inference over a live answer stream.
///
/// Feed answers with [`push`](Self::push)/[`push_batch`](Self::push_batch)
/// (validated, `O(1)` amortised: an append to the arrival-order log plus
/// two counter bumps, with live pluralities served between converges by
/// [`current_estimates`](Self::current_estimates)), then call
/// [`converge`](Self::converge) per batch: the engine brings its
/// [`ShardedView`] up to date — rebuilding only the shards that received
/// answers — and re-converges the method **from the previous converged
/// state** (posteriors + worker quality), which takes a small fraction
/// of the cold iteration count once the stream has warmed up (see
/// `BENCH_stream.json`).
#[derive(Debug)]
pub struct StreamEngine {
    config: StreamConfig,
    /// Number of choices ℓ.
    l: usize,
    /// Every accepted answer `(task, worker, label)`, in arrival order.
    records: Vec<(u32, u32, u8)>,
    /// Per-task label counts, `n × ℓ` row-major — the live plurality.
    label_counts: Vec<u32>,
    /// Answers per worker — the warm-shrinkage weights.
    worker_counts: Vec<u32>,
    /// The view over `records[..synced]`, built by the first sync.
    view: Option<ShardedView>,
    synced: usize,
    /// Duplicate guard keyed by `task * m + worker`.
    seen: SeenSet,
    warm: Option<WarmStart>,
    converges: usize,
    /// Answers accepted since the last warm converge — the drain hook a
    /// shard uses to skip clean sessions.
    pending_answers: usize,
    /// Whether the last (possibly budgeted) warm converge actually met
    /// the convergence criterion; a budget-exhausted session stays dirty
    /// even with no new answers.
    last_converged: bool,
}

impl StreamEngine {
    /// Start a session. Fails on numeric task types and on methods
    /// without a streaming path.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        let Some(choices) = config.task_type.num_choices() else {
            return Err(StreamError::UnsupportedTaskType {
                task_type: config.task_type,
            });
        };
        if !matches!(
            config.method,
            Method::Ds | Method::Lfc | Method::Zc | Method::Glad | Method::Mv
        ) {
            return Err(StreamError::UnsupportedMethod {
                method: config.method.name(),
            });
        }
        let (n, m, l) = (config.num_tasks, config.num_workers, choices as usize);
        Ok(Self {
            l,
            records: Vec::new(),
            label_counts: vec![0; n * l],
            worker_counts: vec![0; m],
            view: None,
            synced: 0,
            seen: SeenSet::new(n, m),
            warm: None,
            converges: 0,
            pending_answers: 0,
            last_converged: true,
            config,
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Answers accepted so far.
    pub fn answers_seen(&self) -> usize {
        self.records.len()
    }

    /// Converges run so far.
    pub fn converges(&self) -> usize {
        self.converges
    }

    /// Answers accepted since the last warm converge.
    pub fn pending_answers(&self) -> usize {
        self.pending_answers
    }

    /// Whether a drain tick should (re-)converge this session: true when
    /// answers arrived since the last warm converge, or when the last
    /// budgeted converge ran out of iterations before meeting the
    /// convergence criterion.
    pub fn needs_converge(&self) -> bool {
        self.pending_answers > 0 || !self.last_converged
    }

    /// All scalar counters in one read — the cheap extraction hook for
    /// snapshot publication (`crowd-serve`'s truth snapshots): `O(1)`,
    /// no view state is cloned or rebuilt.
    pub fn summary(&self) -> EngineSummary {
        EngineSummary {
            answers_seen: self.answers_seen(),
            pending_answers: self.pending_answers,
            converges: self.converges,
            needs_converge: self.needs_converge(),
        }
    }

    /// Accept one answer. Rejects out-of-range indices, non-label
    /// answers, and duplicate `(task, worker)` pairs with typed errors;
    /// a rejected answer leaves the engine unchanged.
    pub fn push(&mut self, task: usize, worker: usize, answer: Answer) -> Result<(), StreamError> {
        let Some(label) = answer.label() else {
            return Err(StreamError::AnswerKindMismatch {
                detail: "numeric answer on a categorical stream".into(),
            });
        };
        // Validate ranges first (the seen-bit index needs them in range).
        if task >= self.config.num_tasks {
            return Err(StreamError::TaskOutOfRange {
                task,
                num_tasks: self.config.num_tasks,
            });
        }
        if worker >= self.config.num_workers {
            return Err(StreamError::WorkerOutOfRange {
                worker,
                num_workers: self.config.num_workers,
            });
        }
        if label as usize >= self.l {
            return Err(StreamError::LabelOutOfRange {
                label,
                num_choices: self.l,
            });
        }
        // The duplicate check is the last validation, and nothing after
        // it can fail: a rejected answer leaves no trace, which is what
        // the push_batch partial-apply contract promises.
        let key = task as u64 * self.config.num_workers as u64 + worker as u64;
        if !self.seen.insert(key) {
            return Err(StreamError::DuplicateAnswer { task, worker });
        }
        self.records.push((task as u32, worker as u32, label));
        self.label_counts[task * self.l + label as usize] += 1;
        self.worker_counts[worker] += 1;
        self.pending_answers += 1;
        Ok(())
    }

    /// Accept a batch of records (e.g. one
    /// [`crowd_data::StreamBatch`](crowd_data::assignment::StreamBatch)).
    /// Stops at the first invalid record, returning how many were
    /// accepted alongside the error.
    ///
    /// # Partial-apply contract
    ///
    /// On `Err((accepted, e))`, records `0..accepted` have been fully
    /// applied and `records[accepted]` (and everything after it) has
    /// left the engine **untouched**: each record is validated in full —
    /// ranges, answer kind, duplicate `(task, worker)` — before any
    /// engine structure is mutated, so the view, the seen-set, and the
    /// pending-answer counter always agree. The engine remains
    /// consistent and resumable: further pushes, converges, and reads
    /// behave exactly as if `records[..accepted]` had been pushed one by
    /// one, and replaying the same batch sequence into a fresh engine
    /// stops at the same record with the same error (the basis of
    /// deterministic WAL replay in `crowd-serve`). Note that re-pushing
    /// a half-applied batch into the *same* engine stops at record 0
    /// with a duplicate rejection — resubmission must slice off the
    /// accepted prefix.
    pub fn push_batch(&mut self, records: &[AnswerRecord]) -> Result<usize, (usize, StreamError)> {
        let timer = obs_push_seconds().start_timer();
        let mut accepted = 0usize;
        let out = (|| {
            for (i, r) in records.iter().enumerate() {
                self.push(r.task, r.worker, r.answer).map_err(|e| (i, e))?;
                accepted = i + 1;
            }
            Ok(records.len())
        })();
        timer.stop();
        obs_batches().inc();
        obs_batch_answers().add(accepted as u64);
        out
    }

    /// Live per-task plurality estimates over everything pushed so far —
    /// `O(n·ℓ)`, no EM, read from the per-task label counts `push`
    /// maintains. The cheap read between converges. `None` for
    /// unanswered tasks; exact ties go to the smallest label.
    pub fn current_estimates(&self) -> Vec<Option<u8>> {
        self.label_counts
            .chunks_exact(self.l)
            .map(|counts| {
                let mut best = 0usize;
                for (k, &c) in counts.iter().enumerate() {
                    if c > counts[best] {
                        best = k;
                    }
                }
                (counts[best] > 0).then_some(best as u8)
            })
            .collect()
    }

    /// Re-converge over every answer seen so far, resuming from the
    /// previous converge's state when one exists. Updates the warm state
    /// on success.
    pub fn converge(&mut self) -> Result<StreamReport, StreamError> {
        self.converge_budgeted(ConvergeBudget::default())
    }

    /// Re-converge under an iteration budget — the shard drain-tick path.
    ///
    /// Runs the method for at most `budget.max_iterations` outer
    /// iterations (never more than the session's own
    /// `options.max_iterations`). The warm state is updated from whatever
    /// state the loop reached, converged or not, so a budget-exhausted
    /// session **resumes where it left off** on the next call instead of
    /// redoing the work; until a call reports `result.converged`, the
    /// session keeps answering `true` from
    /// [`needs_converge`](Self::needs_converge).
    pub fn converge_budgeted(
        &mut self,
        budget: ConvergeBudget,
    ) -> Result<StreamReport, StreamError> {
        let cap = budget
            .max_iterations
            .max(1)
            .min(self.config.options.max_iterations);
        // Shrinkage guards against *overfitted* warm state being trusted
        // on new evidence; a pure budget-resume tick (no answers since
        // the last converge) must instead continue the EM trajectory
        // unperturbed, or repeated re-shrinking turns the resume loop
        // into a limit cycle that never meets the tolerance.
        let shrink = self.pending_answers > 0;
        let timer = obs_converge_seconds().start_timer();
        // The warm state moves into the run rather than being copied;
        // a failed run hands it back, so an error leaves it unchanged.
        let mut warm = self.warm.take();
        let run = self.run_capped(&mut warm, cap);
        if run.is_err() {
            self.warm = warm;
        }
        let report = run?;
        timer.stop();
        obs_converge_iterations().record(report.result.iterations as f64);
        if report.warm {
            obs_warm_resumes().inc();
        } else {
            obs_cold_converges().inc();
        }
        let mut warm = WarmStart::from_result(&report.result);
        if shrink {
            self.shrink_worker_state(&mut warm);
        }
        self.warm = Some(warm);
        self.converges += 1;
        self.pending_answers = 0;
        self.last_converged = report.result.converged;
        Ok(report)
    }

    /// Confidence-weight the warm worker state: a quality estimated from
    /// `c` answers is blended toward the cold default with weight
    /// `c / (c + WARM_SHRINKAGE_PSEUDOCOUNT)`.
    ///
    /// Early in a stream, per-worker estimates are fitted to a handful of
    /// answers; reloading them at face value can lock EM into the warm
    /// state's accidents (a worker mislabelled "adversarial" from four
    /// answers inverts that worker's future votes — observed flipping a
    /// decisively-answered task to the wrong basin on the warm-start
    /// fixture). Shrinkage keeps exactly as much of the warm state as
    /// the data supports; workers with no answers fall back to the cold
    /// default entirely.
    fn shrink_worker_state(&self, warm: &mut WarmStart) {
        const DEFAULT_ACC: f64 = 0.7;
        let off_default = (1.0 - DEFAULT_ACC) / (self.l - 1).max(1) as f64;
        for (w, quality) in warm.worker_quality.iter_mut().enumerate() {
            let count = self.worker_counts[w] as f64;
            if count == 0.0 {
                *quality = WorkerQuality::Unmodeled;
                continue;
            }
            let keep = count / (count + WARM_SHRINKAGE_PSEUDOCOUNT);
            match quality {
                WorkerQuality::Confusion(mat) => {
                    for (j, row) in mat.iter_mut().enumerate() {
                        for (k, cell) in row.iter_mut().enumerate() {
                            let default = if k == j { DEFAULT_ACC } else { off_default };
                            *cell = keep * *cell + (1.0 - keep) * default;
                        }
                    }
                }
                WorkerQuality::Probability(p) => {
                    *p = keep * *p + (1.0 - keep) * DEFAULT_ACC;
                }
                _ => {}
            }
        }
    }

    /// Converge *without* the warm state (a cold restart, as if this were
    /// the first batch). Does not update the warm state — this is the
    /// baseline the streaming benchmarks compare against.
    pub fn converge_cold(&mut self) -> Result<StreamReport, StreamError> {
        self.run_capped(&mut None, self.config.options.max_iterations)
    }

    /// Export the warm-resumable state for durable snapshots (see
    /// [`EngineCheckpoint`] for what is and is not captured).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            answers_seen: self.records.len(),
            warm: self.warm.clone(),
            converges: self.converges,
            pending_answers: self.pending_answers,
            last_converged: self.last_converged,
        }
    }

    /// Install a previously exported checkpoint onto an engine that has
    /// replayed the same answer-log prefix. After this call the engine's
    /// converge trajectory is bit-identical to the engine the checkpoint
    /// was taken from.
    ///
    /// Fails with [`StreamError::CheckpointMismatch`] when the engine's
    /// answer count differs from the checkpoint's — installing warm
    /// state onto a different log prefix would silently corrupt the
    /// session rather than resume it. The engine is left unchanged on
    /// error.
    pub fn restore_checkpoint(&mut self, cp: EngineCheckpoint) -> Result<(), StreamError> {
        if cp.answers_seen != self.records.len() {
            return Err(StreamError::CheckpointMismatch {
                checkpoint_answers: cp.answers_seen,
                engine_answers: self.records.len(),
            });
        }
        self.warm = cp.warm;
        self.converges = cp.converges;
        self.pending_answers = cp.pending_answers;
        self.last_converged = cp.last_converged;
        Ok(())
    }

    /// Bring the sharded view up to date with the answer log now
    /// (converge does this lazily). Returns the number of shard rebuilds
    /// performed: the full shard count on the first build, `0` for a
    /// clean view, and exactly the number of **dirty** shards — ranges
    /// that received answers since the last sync — on a warm resume.
    /// Exposed so benchmarks and tests can separate view maintenance
    /// from re-convergence cost.
    pub fn sync_shards(&mut self) -> usize {
        let Some(view) = &mut self.view else {
            let view = ShardedView::from_records(
                self.config.num_tasks,
                self.config.num_workers,
                self.l,
                self.config.shard_count,
                self.records.iter().copied(),
                vec![None; self.config.num_tasks],
            );
            self.synced = self.records.len();
            let rebuilt = view.num_shards();
            self.view = Some(view);
            return rebuilt;
        };
        if self.synced == self.records.len() {
            return 0;
        }
        let rebuilt = if view.num_shards() == 1 {
            // The only shard's record set is the whole log, read in place.
            view.rebuild_shard(0, &self.records);
            1
        } else {
            let mut dirty = vec![false; view.num_shards()];
            for &(task, _, _) in &self.records[self.synced..] {
                dirty[view.shard_for_task(task as usize)] = true;
            }
            // A rebuild replaces a shard wholesale, so each dirty shard
            // needs its *full* record set: one pass over the log buckets
            // them (cheaper than rebuilding every shard, which also pays
            // the counting-sort and canonicalisation work on clean
            // ranges).
            let mut buckets: Vec<Vec<(u32, u32, u8)>> = vec![Vec::new(); view.num_shards()];
            for &r in &self.records {
                let s = view.shard_for_task(r.0 as usize);
                if dirty[s] {
                    buckets[s].push(r);
                }
            }
            let mut rebuilt = 0usize;
            for (s, bucket) in buckets.into_iter().enumerate() {
                if dirty[s] {
                    view.rebuild_shard(s, &bucket);
                    rebuilt += 1;
                }
            }
            rebuilt
        };
        self.synced = self.records.len();
        rebuilt
    }

    /// Run the method from `warm`, which is moved into the run's
    /// options and handed back in place when the run ends.
    fn run_capped(
        &mut self,
        warm: &mut Option<WarmStart>,
        max_iterations: usize,
    ) -> Result<StreamReport, StreamError> {
        if self.records.is_empty() {
            return Err(StreamError::EmptyStream);
        }
        self.sync_shards();
        let view = self.view.as_ref().expect("synced above");
        let was_warm = warm.is_some();
        let mut options = self.config.options.clone();
        options.golden = None;
        options.warm_start = warm.take();
        options.max_iterations = max_iterations;
        let result = self.config.method.build().infer_sharded(view, &options);
        *warm = options.warm_start;
        let result = result?;
        Ok(StreamReport {
            answers_seen: self.records.len(),
            warm: was_warm,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::DMat;
    use crowd_data::datasets::PaperDataset;
    use crowd_data::StreamSession;
    use std::sync::Arc;

    fn decision_config(method: Method, n: usize, m: usize) -> StreamConfig {
        StreamConfig::new(method, TaskType::DecisionMaking, n, m)
    }

    #[test]
    fn rejects_numeric_and_unsupported_methods() {
        let numeric = StreamConfig::new(Method::Ds, TaskType::Numeric, 10, 5);
        assert!(matches!(
            StreamEngine::new(numeric),
            Err(StreamError::UnsupportedTaskType { .. })
        ));
        let bcc = decision_config(Method::Bcc, 10, 5);
        assert!(matches!(
            StreamEngine::new(bcc),
            Err(StreamError::UnsupportedMethod { .. })
        ));
    }

    #[test]
    fn push_validates_and_rejects_duplicates() {
        let mut e = StreamEngine::new(decision_config(Method::Mv, 4, 3)).unwrap();
        e.push(0, 0, Answer::Label(1)).unwrap();
        assert!(matches!(
            e.push(0, 0, Answer::Label(0)),
            Err(StreamError::DuplicateAnswer { task: 0, worker: 0 })
        ));
        assert!(matches!(
            e.push(0, 1, Answer::Numeric(0.5)),
            Err(StreamError::AnswerKindMismatch { .. })
        ));
        assert!(matches!(
            e.push(9, 0, Answer::Label(0)),
            Err(StreamError::TaskOutOfRange { .. })
        ));
        assert_eq!(e.answers_seen(), 1);
    }

    #[test]
    fn push_batch_partial_apply_contract() {
        // The contract crowd-serve's WAL replay rests on: a rejected
        // batch applies exactly its valid prefix, the offending record
        // and everything after it leave no trace, the engine stays
        // resumable, and a fresh engine rejects identically.
        use crowd_data::AnswerRecord;
        let rec = |task: usize, worker: usize, label: u8| AnswerRecord {
            task,
            worker,
            answer: Answer::Label(label),
        };
        let numeric = |task: usize, worker: usize| AnswerRecord {
            task,
            worker,
            answer: Answer::Numeric(0.5),
        };
        let cases: Vec<(&str, Vec<AnswerRecord>, usize)> = vec![
            (
                "task out of range",
                vec![rec(0, 0, 1), rec(1, 0, 0), rec(9, 1, 1), rec(2, 1, 0)],
                2,
            ),
            (
                "worker out of range",
                vec![rec(0, 0, 1), rec(1, 8, 0), rec(2, 1, 0)],
                1,
            ),
            (
                "label out of range",
                vec![rec(0, 0, 1), rec(1, 0, 9), rec(2, 1, 0)],
                1,
            ),
            (
                "duplicate within the batch",
                vec![rec(0, 0, 1), rec(1, 0, 0), rec(0, 0, 0), rec(2, 1, 0)],
                2,
            ),
            (
                "answer kind mismatch",
                vec![rec(0, 0, 1), numeric(1, 0), rec(2, 1, 0)],
                1,
            ),
        ];
        for (name, batch, expected_accepted) in cases {
            let mut engine = StreamEngine::new(decision_config(Method::Ds, 4, 3)).unwrap();
            let (accepted, err) = engine.push_batch(&batch).unwrap_err();
            assert_eq!(accepted, expected_accepted, "{name}");
            // Only the valid prefix entered the engine.
            assert_eq!(engine.answers_seen(), accepted, "{name}");
            assert_eq!(engine.pending_answers(), accepted, "{name}");
            // A fresh engine stops at the same record with the same error
            // (the determinism WAL replay relies on).
            let mut fresh = StreamEngine::new(decision_config(Method::Ds, 4, 3)).unwrap();
            let (accepted2, err2) = fresh.push_batch(&batch).unwrap_err();
            assert_eq!(accepted2, accepted, "{name}");
            assert_eq!(err2.to_string(), err.to_string(), "{name}");
            // The rejected suffix left no trace: the offending record's
            // slot is still free (a duplicate would now be rejected only
            // if the prefix claimed it), and the engine is resumable —
            // pushing the remaining valid records and converging matches
            // an engine fed the valid records directly.
            let valid: Vec<AnswerRecord> = {
                let mut seen = std::collections::HashSet::new();
                batch
                    .iter()
                    .filter(|r| {
                        r.task < 4
                            && r.worker < 3
                            && r.answer.label().is_some_and(|l| l < 2)
                            && seen.insert((r.task, r.worker))
                    })
                    .cloned()
                    .collect()
            };
            engine
                .push_batch(&valid[accepted..])
                .unwrap_or_else(|(_, e)| {
                    panic!("{name}: engine not resumable after rejection: {e}")
                });
            let resumed = engine.converge().unwrap();
            let mut reference = StreamEngine::new(decision_config(Method::Ds, 4, 3)).unwrap();
            reference.push_batch(&valid).unwrap();
            let direct = reference.converge().unwrap();
            assert_eq!(resumed.result.truths, direct.result.truths, "{name}");
            assert_eq!(
                resumed.result.posteriors, direct.result.posteriors,
                "{name}"
            );
        }
    }

    #[test]
    fn view_path_rejects_mis_sized_qualification_vector() {
        use crowd_core::QualityInit;
        let mut cfg = decision_config(Method::Zc, 4, 5);
        cfg.options.quality_init = QualityInit::Qualification(vec![Some(0.9); 2]);
        let mut e = StreamEngine::new(cfg).unwrap();
        e.push(0, 0, Answer::Label(1)).unwrap();
        // Typed error, not an index panic (the batch path rejects the
        // same input through `infer`).
        assert!(matches!(
            e.converge(),
            Err(StreamError::Inference(
                crowd_core::InferenceError::BadOptions { .. }
            ))
        ));
    }

    #[test]
    fn converge_on_empty_stream_is_typed() {
        let mut e = StreamEngine::new(decision_config(Method::Ds, 4, 3)).unwrap();
        assert!(matches!(e.converge(), Err(StreamError::EmptyStream)));
    }

    #[test]
    fn current_estimates_track_pushes_live() {
        let mut e = StreamEngine::new(decision_config(Method::Mv, 3, 3)).unwrap();
        e.push(0, 0, Answer::Label(1)).unwrap();
        e.push(0, 1, Answer::Label(1)).unwrap();
        e.push(1, 0, Answer::Label(0)).unwrap();
        assert_eq!(e.current_estimates(), vec![Some(1), Some(0), None]);
    }

    #[test]
    fn current_estimates_break_ties_low() {
        let cfg = StreamConfig::new(Method::Mv, TaskType::SingleChoice { choices: 3 }, 2, 3);
        let mut e = StreamEngine::new(cfg).unwrap();
        e.push(0, 0, Answer::Label(2)).unwrap();
        e.push(0, 1, Answer::Label(1)).unwrap();
        assert_eq!(e.current_estimates(), vec![Some(1), None], "tie goes low");
        e.push(0, 2, Answer::Label(2)).unwrap();
        assert_eq!(e.current_estimates(), vec![Some(2), None]);
    }

    #[test]
    fn warm_converges_use_fewer_iterations_over_a_replayed_stream() {
        let d = PaperDataset::DProduct.generate(0.08, 11);
        let mut engine =
            StreamEngine::new(decision_config(Method::Ds, d.num_tasks(), d.num_workers())).unwrap();
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        let mut batches = 0usize;
        for batch in StreamSession::from_dataset(&d, d.num_answers().div_ceil(6)) {
            engine.push_batch(&batch.records).expect("valid replay");
            let cold = engine.converge_cold().unwrap();
            let warm = engine.converge().unwrap();
            assert_eq!(warm.answers_seen, cold.answers_seen);
            warm_total += warm.result.iterations;
            cold_total += cold.result.iterations;
            batches += 1;
        }
        assert_eq!(batches, 6);
        assert!(
            warm_total < cold_total,
            "warm {warm_total} vs cold {cold_total} total iterations"
        );
        assert_eq!(engine.answers_seen(), d.num_answers());
    }

    #[test]
    fn streamed_result_matches_batch_inference_at_the_end() {
        // After the last batch, a *cold* converge over the full stream
        // must agree exactly with batch inference on the equivalent
        // dataset — the stream view is the same answer log.
        let d = PaperDataset::DPosSent.generate(0.1, 5);
        let mut engine =
            StreamEngine::new(decision_config(Method::Ds, d.num_tasks(), d.num_workers())).unwrap();
        for batch in StreamSession::from_dataset(&d, 500) {
            engine.push_batch(&batch.records).expect("valid replay");
        }
        let streamed = engine.converge_cold().unwrap();
        let batch = Method::Ds
            .build()
            .infer(&d, &InferenceOptions::default())
            .unwrap();
        assert_eq!(streamed.result.truths, batch.truths);
        assert_eq!(streamed.result.iterations, batch.iterations);
    }

    #[test]
    fn budgeted_converge_resumes_to_the_full_converge_fixed_point() {
        let d = PaperDataset::DProduct.generate(0.08, 13);
        let cfg = decision_config(Method::Ds, d.num_tasks(), d.num_workers());
        let mut budgeted = StreamEngine::new(cfg.clone()).unwrap();
        let mut full = StreamEngine::new(cfg).unwrap();
        for r in d.records() {
            budgeted.push(r.task, r.worker, r.answer).unwrap();
            full.push(r.task, r.worker, r.answer).unwrap();
        }
        assert!(budgeted.needs_converge());

        // Drive the budgeted engine in 3-iteration slices until it
        // reports convergence; it must remain dirty in between.
        let mut ticks = 0usize;
        let mut total_iters = 0usize;
        loop {
            let report = budgeted
                .converge_budgeted(ConvergeBudget::iterations(3))
                .unwrap();
            ticks += 1;
            total_iters += report.result.iterations;
            assert!(report.result.iterations <= 3);
            if report.result.converged {
                break;
            }
            assert!(
                budgeted.needs_converge(),
                "budget-exhausted session must stay dirty with no new answers"
            );
            assert!(ticks < 200, "budgeted converge never finished");
        }
        assert!(!budgeted.needs_converge());
        assert!(ticks > 1, "budget of 3 should not finish in one tick");

        // The unbudgeted engine reaches a fixed point in one call; the
        // sliced path must land on the same labels.
        let reference = full.converge().unwrap();
        let sliced = budgeted.converge().unwrap();
        assert_eq!(sliced.result.truths, reference.result.truths);
        let _ = total_iters;
    }

    #[test]
    fn pending_answers_track_pushes_and_converges() {
        let mut e = StreamEngine::new(decision_config(Method::Mv, 4, 3)).unwrap();
        assert_eq!(e.pending_answers(), 0);
        assert!(!e.needs_converge());
        e.push(0, 0, Answer::Label(1)).unwrap();
        e.push(1, 0, Answer::Label(0)).unwrap();
        assert_eq!(e.pending_answers(), 2);
        assert!(e.needs_converge());
        e.converge().unwrap();
        assert_eq!(e.pending_answers(), 0);
        assert!(!e.needs_converge());
        // converge_cold is a baseline probe, not a drain: it must not
        // mark pending answers as absorbed.
        e.push(2, 1, Answer::Label(1)).unwrap();
        e.converge_cold().unwrap();
        assert_eq!(e.pending_answers(), 1);
        assert!(e.needs_converge());
    }

    #[test]
    fn push_batch_partial_failure_leaves_engine_consistent_and_resumable() {
        // The documented partial-apply contract: on Err((accepted, e)),
        // records[..accepted] are in, records[accepted..] left no trace,
        // and the engine behaves exactly like one that was only ever fed
        // the accepted prefix (plus whatever is pushed afterwards).
        let d = PaperDataset::DProduct.generate(0.05, 3);
        let cfg = decision_config(Method::Ds, d.num_tasks(), d.num_workers());
        let records = d.records();
        let split = records.len() / 2;

        let mut batch: Vec<AnswerRecord> = records[..split].to_vec();
        // Invalid mid-batch record (task out of range) followed by valid
        // ones that must NOT be applied.
        batch.push(AnswerRecord {
            task: d.num_tasks() + 7,
            worker: 0,
            answer: Answer::Label(0),
        });
        batch.extend(records[split..].iter().cloned());

        let mut broken = StreamEngine::new(cfg.clone()).unwrap();
        let (accepted, err) = broken.push_batch(&batch).unwrap_err();
        assert_eq!(accepted, split);
        assert!(matches!(err, StreamError::TaskOutOfRange { .. }));
        assert_eq!(broken.answers_seen(), split);
        assert_eq!(broken.pending_answers(), split);
        // Re-pushing the same batch fails at the same record, now as a
        // duplicate of the applied prefix's first record — determinism
        // the WAL replay path relies on (same bytes, same outcome).
        let (re_accepted, _) = broken.push_batch(&batch).unwrap_err();
        assert_eq!(re_accepted, 0);
        assert_eq!(broken.answers_seen(), split);

        // Resume: push the valid remainder, converge, and compare to an
        // engine that never saw the invalid record.
        broken.push_batch(&records[split..]).unwrap();
        let mut clean = StreamEngine::new(cfg).unwrap();
        clean.push_batch(records).unwrap();
        let b = broken.converge().unwrap();
        let c = clean.converge().unwrap();
        assert_eq!(b.result.truths, c.result.truths);
        assert_eq!(
            posterior_bits(&b.result.posteriors),
            posterior_bits(&c.result.posteriors)
        );
    }

    fn posterior_bits(p: &Option<Arc<DMat>>) -> Vec<Vec<u64>> {
        p.as_ref()
            .map(|m| {
                (0..m.rows())
                    .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn converge_shares_its_posteriors_with_the_warm_state() {
        // The converge hand-off is zero-copy: each report and the warm
        // state it leaves behind hold one posterior allocation — cold,
        // warm with new answers (worker shrinkage) and a budget resume.
        let d = PaperDataset::DProduct.generate(0.04, 5);
        let cfg = decision_config(Method::Ds, d.num_tasks(), d.num_workers());
        let (records, half) = (d.records(), d.records().len() / 2);
        let mut engine = StreamEngine::new(cfg).unwrap();
        for (batch, budget) in [
            (&records[..half], 100),
            (&records[half..], 2),
            (&[][..], 100),
        ] {
            engine.push_batch(batch).unwrap();
            let report = engine
                .converge_budgeted(ConvergeBudget::iterations(budget))
                .unwrap();
            let ours = report.result.posteriors.expect("D&S posteriors");
            let kept = engine.checkpoint().warm.and_then(|w| w.posteriors);
            assert!(kept.is_some_and(|kept| Arc::ptr_eq(&ours, &kept)));
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        // Run a stream halfway, checkpoint, rebuild a fresh engine from
        // the same answer prefix + checkpoint, then continue both: every
        // subsequent converge must be bit-identical.
        let d = PaperDataset::DProduct.generate(0.06, 21);
        let cfg = decision_config(Method::Ds, d.num_tasks(), d.num_workers());
        let records = d.records();
        let split = records.len() / 2;

        let mut original = StreamEngine::new(cfg.clone()).unwrap();
        original.push_batch(&records[..split]).unwrap();
        original
            .converge_budgeted(ConvergeBudget::iterations(4))
            .unwrap();
        let cp = original.checkpoint();
        assert_eq!(cp.answers_seen, split);
        assert_eq!(cp.converges, 1);

        let mut restored = StreamEngine::new(cfg).unwrap();
        // Wrong prefix → typed error, engine untouched.
        assert!(matches!(
            restored.restore_checkpoint(cp.clone()),
            Err(StreamError::CheckpointMismatch { .. })
        ));
        restored.push_batch(&records[..split]).unwrap();
        restored.restore_checkpoint(cp).unwrap();
        assert_eq!(restored.converges(), original.converges());
        assert_eq!(restored.pending_answers(), original.pending_answers());
        assert_eq!(restored.needs_converge(), original.needs_converge());

        // Continue both through the same schedule.
        original.push_batch(&records[split..]).unwrap();
        restored.push_batch(&records[split..]).unwrap();
        loop {
            let a = original
                .converge_budgeted(ConvergeBudget::iterations(3))
                .unwrap();
            let b = restored
                .converge_budgeted(ConvergeBudget::iterations(3))
                .unwrap();
            assert_eq!(a.result.truths, b.result.truths);
            assert_eq!(a.result.iterations, b.result.iterations);
            assert_eq!(
                posterior_bits(&a.result.posteriors),
                posterior_bits(&b.result.posteriors)
            );
            assert_eq!(a.result.converged, b.result.converged);
            if a.result.converged {
                break;
            }
        }
    }

    /// The dataset's records grouped by task.
    fn task_grouped_records(d: &crowd_data::Dataset) -> Vec<AnswerRecord> {
        let mut records = d.records().to_vec();
        records.sort_by_key(|r| r.task);
        records
    }

    /// The dataset's records dealt round-robin across tasks (every task's
    /// first answer, then every task's second, …): answers to different
    /// tasks interleave while each task keeps its own answer order.
    fn round_robin_records(d: &crowd_data::Dataset) -> Vec<AnswerRecord> {
        let mut rank = vec![0usize; d.num_tasks()];
        let mut keyed: Vec<(usize, AnswerRecord)> = task_grouped_records(d)
            .into_iter()
            .map(|r| {
                rank[r.task] += 1;
                (rank[r.task], r)
            })
            .collect();
        keyed.sort_by_key(|&(k, r)| (k, r.task));
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    const STREAM_METHODS: [Method; 5] = [
        Method::Ds,
        Method::Lfc,
        Method::Zc,
        Method::Glad,
        Method::Mv,
    ];

    #[test]
    fn cold_converges_match_batch_inference_on_interleaved_arrival() {
        // A stream fed interleaved arrival ends on exactly the batch
        // output over the task-grouped dataset, at one shard and at five.
        let d = PaperDataset::DProduct.generate(0.06, 31);
        let arrival = round_robin_records(&d);
        assert_ne!(arrival, d.records(), "the fixture must interleave");
        for method in STREAM_METHODS {
            let batch = method
                .build()
                .infer(&d, &InferenceOptions::default())
                .unwrap();
            for shards in [1usize, 5] {
                let cfg = decision_config(method, d.num_tasks(), d.num_workers());
                let mut engine = StreamEngine::new(cfg.with_shards(shards)).unwrap();
                for chunk in arrival.chunks(arrival.len().div_ceil(3)) {
                    engine.push_batch(chunk).unwrap();
                    engine.converge().unwrap();
                }
                let streamed = engine.converge_cold().unwrap().result;
                assert_eq!(streamed.truths, batch.truths, "{method:?} at {shards}");
                assert_eq!(
                    posterior_bits(&streamed.posteriors),
                    posterior_bits(&batch.posteriors),
                    "{method:?} at {shards}"
                );
                assert_eq!(
                    streamed.iterations, batch.iterations,
                    "{method:?} at {shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_converges_agree_across_shard_counts_on_any_arrival_order() {
        // Interleaved (non-task-grouped) arrival: every converge folds
        // worker answers in the same canonical task-ascending order, so
        // warm trajectories agree bit for bit at every shard count,
        // one shard included.
        let d = PaperDataset::DProduct.generate(0.06, 43);
        let records = round_robin_records(&d);
        for method in STREAM_METHODS {
            let cfg = decision_config(method, d.num_tasks(), d.num_workers());
            let mut engines: Vec<StreamEngine> = [1usize, 2, 7, 16]
                .iter()
                .map(|&s| StreamEngine::new(cfg.clone().with_shards(s)).unwrap())
                .collect();
            for chunk in records.chunks(records.len().div_ceil(4)) {
                let mut reports = Vec::new();
                for e in &mut engines {
                    e.push_batch(chunk).unwrap();
                    reports.push(e.converge().unwrap());
                }
                for r in &reports[1..] {
                    assert_eq!(reports[0].result.truths, r.result.truths, "{method:?}");
                    assert_eq!(
                        posterior_bits(&reports[0].result.posteriors),
                        posterior_bits(&r.result.posteriors),
                        "{method:?}"
                    );
                    assert_eq!(
                        reports[0].result.iterations, r.result.iterations,
                        "{method:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_resume_rebuilds_only_dirty_shards() {
        let d = PaperDataset::DProduct.generate(0.06, 7);
        let cfg = decision_config(Method::Ds, d.num_tasks(), d.num_workers()).with_shards(8);
        let mut e = StreamEngine::new(cfg).unwrap();
        let records = task_grouped_records(&d);
        e.push_batch(&records[..records.len() - 4]).unwrap();
        // First converge builds every shard.
        assert_eq!(e.sync_shards(), 8);
        e.converge().unwrap();
        assert_eq!(e.sync_shards(), 0, "clean view needs no rebuilds");

        // A tail batch touches only the task ranges it lands in: the
        // task-grouped suffix holds at most 4 distinct (adjacent) tasks,
        // which span at most 2 of the 8 shard ranges.
        e.push_batch(&records[records.len() - 4..]).unwrap();
        let rebuilt = e.sync_shards();
        assert!(
            (1..=2).contains(&rebuilt),
            "expected a small dirty set, rebuilt {rebuilt} of 8 shards"
        );

        // And the resumed converge matches an engine fed everything in
        // one go (same warm trajectory: replay the same schedule).
        let mut reference = StreamEngine::new(
            decision_config(Method::Ds, d.num_tasks(), d.num_workers()).with_shards(8),
        )
        .unwrap();
        reference.push_batch(&records[..records.len() - 4]).unwrap();
        reference.converge().unwrap();
        reference.push_batch(&records[records.len() - 4..]).unwrap();
        let a = e.converge().unwrap();
        let b = reference.converge().unwrap();
        assert_eq!(a.result.truths, b.result.truths);
        assert_eq!(
            posterior_bits(&a.result.posteriors),
            posterior_bits(&b.result.posteriors)
        );
    }

    #[test]
    fn mv_streams_without_warm_state() {
        let d = PaperDataset::DPosSent.generate(0.05, 9);
        let mut engine =
            StreamEngine::new(decision_config(Method::Mv, d.num_tasks(), d.num_workers())).unwrap();
        for batch in StreamSession::from_dataset(&d, 200) {
            engine.push_batch(&batch.records).expect("valid replay");
            let r = engine.converge().unwrap();
            assert_eq!(r.result.iterations, 1);
            assert!(r.result.converged);
        }
    }
}
