//! D&S — Dawid & Skene (Applied Statistics, 1979).
//!
//! The classical confusion-matrix EM (Section 5.3(2)): each worker is an
//! `ℓ × ℓ` row-stochastic matrix `q^w` with `q^w[j][k] = Pr(answer k |
//! truth j)`, plus a class prior. The paper's headline recommendation:
//! "we recommend the classical method D&S, which is robust in practice"
//! (Section 7).
//!
//! The implementation is shared with [`super::Lfc`], which is D&S plus
//! Dirichlet (Beta) priors on the confusion rows; D&S itself uses a tiny
//! symmetric smoothing count purely for numerical safety.

use crowd_data::TaskType;
use crowd_stats::{fused_posterior_rows, safe_ln_map_into, ConvergenceTracker, DMat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::exec;
use crate::framework::{
    validate_view, InferenceError, InferenceOptions, InferenceResult, QualityInit, TruthInference,
    WorkerQuality,
};
use crate::views::{initial_accuracy, label_answers, ShardedView};

/// M-step work (≈ `|V|·ℓ + m·ℓ²` flops) below which the worker fan-out
/// stays on the calling thread. The serial path performs **zero heap
/// allocation per outer iteration**; above the threshold the shared
/// executor spreads the per-worker confusion updates across cores (each
/// worker's `ℓ×ℓ` block is a disjoint chunk of the flat buffer, so the
/// result is bit-identical either way).
///
/// Re-measured for the persistent worker pool (see
/// `examples/measure_fanout_overhead.rs`): dispatching a pool batch
/// costs ~0.2µs against ~46µs for the `thread::scope` spawn the executor
/// used before, and one work unit sweeps in ~0.8ns, so the crossover
/// dropped from 2¹⁸ to 2¹⁴ units (~13µs of serial work, comfortably
/// above multi-core worker wake-up latency). Below it the serial path
/// also keeps the loop allocation-free.
pub(crate) const PARALLEL_MSTEP_MIN_WORK: usize = 1 << 14;

/// E-step work below which the task fan-out stays on the calling thread.
/// Each task's posterior row is computed independently (reads the shared
/// log tables, writes its own row), so fanning tasks out over the
/// executor is bit-identical to the serial sweep. With pool dispatch at
/// ~0.2µs (measured; was ~100µs with scope spawns) the fan-out pays off
/// once a sweep costs a handful of microseconds: 2¹³ work units ≈ 6.5µs,
/// an order of magnitude below the old 2¹⁷ threshold, which brings
/// incremental/streaming batch sizes into the parallel regime. The
/// stealing design caps the downside: the dispatching thread starts on
/// the chunks immediately, so a fan-out nobody helps with costs only the
/// notify (~0.2µs) over the serial sweep.
pub(crate) const PARALLEL_ESTEP_MIN_WORK: usize = 1 << 13;

/// Shared EM engine for D&S-family methods, on the sharded substrate
/// (the unsharded case is one shard): posteriors are an `n × ℓ`
/// [`DMat`], all worker confusion matrices live in one `(m·ℓ) × ℓ`
/// [`DMat`] (worker `w`, truth row `j` at row `w·ℓ + j`), and the E/M
/// loop updates both in place with pre-allocated scratch.
///
/// `diag_prior`/`off_prior` are Dirichlet pseudo-counts added to the
/// diagonal/off-diagonal confusion cells in the M-step.
pub(crate) struct DsEngine {
    pub diag_prior: f64,
    pub off_prior: f64,
}

impl DsEngine {
    /// Run the EM loop on a task-range sharded view the caller has
    /// validated ([`validate_view`]):
    ///
    /// - **E-step**: every task row is computed independently from the
    ///   log tables, fanned out over row blocks that never straddle a
    ///   shard (see [`ShardedView::for_each_row_block`]), so the result
    ///   is bit-identical at any shard and thread count.
    /// - **M-step** accumulates each worker's confusion counts by
    ///   folding that worker's per-shard adjacency rows in **ascending
    ///   shard order** (a continuation fold, not a pairwise tree): the
    ///   canonical task-ascending order of
    ///   [`ShardedView::shard_worker_row`] makes the visit sequence — and
    ///   hence the non-associative f64 sum — independent of the shard
    ///   count and of how records interleaved across tasks. Parallelism
    ///   comes from the per-worker chunk fan-out.
    pub fn run(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        let l = view.l;

        // Initial posteriors: majority vote; with qualification scores we
        // instead seed per-worker confusion matrices and run an E-step
        // first (the worker knowledge arrives through the matrices). A
        // warm start overrides both: the previous run's posteriors and
        // confusion matrices are loaded and the loop resumes with an
        // E-step under the previous model, so only the new answers'
        // evidence has to be absorbed.
        let mut post = view.majority_posteriors();
        let mut confusion = DMat::zeros(view.m * l, l);
        let mut class_prior = vec![1.0 / l as f64; l];
        let mut need_estep_first = false;
        if let Some(warm) = &options.warm_start {
            // Previous posteriors for tasks both runs know about (a
            // matrix of foreign width is ignored — a different ℓ means
            // the state is from another problem).
            if let Some(prev_post) = warm.posteriors.as_deref().filter(|p| p.cols() == l) {
                for task in 0..prev_post.rows().min(view.n) {
                    if view.golden()[task].is_none() && view.task_len(task) > 0 {
                        post.row_mut(task).copy_from_slice(prev_post.row(task));
                    }
                }
            }
            // Previous confusion matrices where available; workers the
            // previous run did not know get the cold default.
            let default_acc = 0.7;
            let off_default = (1.0 - default_acc) / (l - 1).max(1) as f64;
            for w in 0..view.m {
                let prev = warm.worker_quality.get(w).and_then(|q| match q {
                    WorkerQuality::Confusion(m)
                        if m.len() == l && m.iter().all(|row| row.len() == l) =>
                    {
                        Some(m)
                    }
                    _ => None,
                });
                for j in 0..l {
                    let row = confusion.row_mut(w * l + j);
                    match prev {
                        Some(m) => row.copy_from_slice(&m[j]),
                        None => {
                            row.fill(off_default);
                            row[j] = default_acc;
                        }
                    }
                }
            }
            // Class prior from the warmed posteriors (what the M-step
            // would derive), so the resuming E-step sees the previous
            // model end to end.
            class_prior.fill(0.0);
            for row in post.data().chunks_exact(l) {
                for (prior, &p) in class_prior.iter_mut().zip(row) {
                    *prior += p;
                }
            }
            let total: f64 = class_prior.iter().sum();
            if total > 0.0 {
                class_prior.iter_mut().for_each(|prior| *prior /= total);
            } else {
                class_prior.fill(1.0 / l as f64);
            }
            need_estep_first = true;
        } else if let QualityInit::Qualification(_) = &options.quality_init {
            let acc = initial_accuracy(options, view.m, 0.7);
            for (w, &a) in acc.iter().enumerate() {
                let off = (1.0 - a) / (l - 1).max(1) as f64;
                for j in 0..l {
                    let row = confusion.row_mut(w * l + j);
                    row.fill(off);
                    row[j] = a;
                }
            }
            need_estep_first = true;
        }
        // Log-domain tables recomputed once per iteration (m·ℓ² + ℓ `ln`
        // calls) so the E-step — which visits every answer — only adds
        // table entries. The tabulated values are exactly the
        // `x.max(1e-12).ln()` terms the naive E-step would compute per
        // answer, so the log-posterior sums are bit-identical.
        let mut log_conf = DMat::zeros(view.m * l, l);
        let mut log_prior = vec![0.0f64; l];

        // The fan-out budget: the caller's cap when given (harness-level
        // fan-outs pass 1 to avoid oversubscription), else the machine.
        let thread_budget = options.threads.unwrap_or_else(exec::default_threads).max(1);
        let mstep_work = view.num_answers() * l + view.m * l * l;
        let mstep_threads = if mstep_work >= PARALLEL_MSTEP_MIN_WORK {
            thread_budget
        } else {
            1
        };
        // E-step cost model: ℓ adds per answer plus ~3ℓ transcendental-
        // equivalent flops per task for the log-normalisation.
        let estep_work = view.num_answers() * l + 3 * view.n * l;
        let estep_threads = if estep_work >= PARALLEL_ESTEP_MIN_WORK {
            thread_budget
        } else {
            1
        };

        let mut tracker = ConvergenceTracker::new(options.tolerance, options.max_iterations);
        let mut iterations = 0usize;
        let converged;

        loop {
            if need_estep_first {
                refresh_log_tables(&confusion, &class_prior, &mut log_conf, &mut log_prior);
                e_step(view, &log_conf, &log_prior, &mut post, estep_threads);
                need_estep_first = false;
            }

            // M-step: confusion matrices from expected counts, fanned out
            // worker-by-worker (each worker owns one ℓ×ℓ chunk of the
            // flat buffer; chunks are disjoint, so no synchronisation),
            // each worker folding its per-shard rows in shard order.
            {
                let _reduce_timer = crate::views::obs_reduce_seconds().start_timer();
                let diag = self.diag_prior;
                let off = self.off_prior;
                let post_ref = &post;
                exec::parallel_chunks(mstep_threads, confusion.data_mut(), l * l, |w, chunk| {
                    chunk.fill(off);
                    for j in 0..l {
                        chunk[j * l + j] = diag;
                    }
                    for s in 0..view.num_shards() {
                        for &(task, label) in view.shard_worker_row(s, w) {
                            let post_row = post_ref.row(task as usize);
                            for j in 0..l {
                                chunk[j * l + label as usize] += post_row[j];
                            }
                        }
                    }
                    for row in chunk.chunks_mut(l) {
                        let total: f64 = row.iter().sum();
                        row.iter_mut().for_each(|c| *c /= total);
                    }
                });
            }

            // Class prior from the posterior column sums (one pass over
            // the flat buffer; per-column addition order is task order).
            class_prior.fill(0.0);
            for row in post.data().chunks_exact(l) {
                for (prior, &p) in class_prior.iter_mut().zip(row) {
                    *prior += p;
                }
            }
            class_prior
                .iter_mut()
                .for_each(|prior| *prior /= view.n.max(1) as f64);
            // Guard against a degenerate all-zero prior.
            let prior_sum: f64 = class_prior.iter().sum();
            if prior_sum <= 0.0 {
                class_prior.fill(1.0 / l as f64);
            }

            // E-step.
            refresh_log_tables(&confusion, &class_prior, &mut log_conf, &mut log_prior);
            e_step(view, &log_conf, &log_prior, &mut post, estep_threads);

            // Track convergence on the flat confusion buffer — already in
            // the (worker, truth row, answer) order, with no copy.
            iterations += 1;
            if tracker.step(confusion.data()) {
                converged = tracker.converged();
                break;
            }
        }

        let mut rng = StdRng::seed_from_u64(options.seed);
        let labels = view.decode(&post, &mut rng);
        let worker_quality = (0..view.m)
            .map(|w| {
                WorkerQuality::Confusion(
                    (0..l).map(|j| confusion.row(w * l + j).to_vec()).collect(),
                )
            })
            .collect();
        Ok(InferenceResult {
            truths: label_answers(&labels),
            worker_quality,
            iterations,
            converged,
            posteriors: Some(Arc::new(post)),
        })
    }
}

/// Refresh the log-domain lookup tables from the current confusion
/// matrices and class prior (once per iteration; the E-step then runs
/// `ln`-free). The fused `safe_ln` map fills and logs each flat buffer
/// in one cache-resident sweep — elementwise identical to the old
/// per-cell `c.max(1e-12).ln()`.
fn refresh_log_tables(
    confusion: &DMat,
    class_prior: &[f64],
    log_conf: &mut DMat,
    log_prior: &mut [f64],
) {
    let conf = confusion.data();
    safe_ln_map_into(log_conf.data_mut(), |i| conf[i]);
    safe_ln_map_into(log_prior, |i| class_prior[i]);
}

/// One E-step: `post[t][j] ∝ prior[j] · Π_w q^w[j][v_t^w]`, accumulated
/// in log space from the precomputed tables and written back in place.
///
/// Each row block goes through [`fused_posterior_rows`] — prior init,
/// strided table gather, log-sum-exp and normalize per row, written
/// directly into the posterior (no heap allocation, zero transcendental
/// calls in the answer loop, the normalize staged over blocks of rows).
/// Above the size threshold the blocks fan out over the executor; every
/// task's row is computed by the same arithmetic, so the result is
/// bit-identical either way.
fn e_step(view: &ShardedView, log_conf: &DMat, log_prior: &[f64], post: &mut DMat, threads: usize) {
    let l = view.l;
    let lc = log_conf.data();
    let golden = view.golden();
    let _timer = crate::methods::obs_kernel_estep_seconds().start_timer();
    view.for_each_row_block(post.data_mut(), l, threads, |s, first, rows| {
        let _timer = crate::views::obs_estep_seconds().start_timer();
        let start = view.shard_tasks(s).start;
        let fused_rows = fused_posterior_rows(rows, log_prior, lc, |offset| {
            let local = first + offset;
            posterior_bases(l, golden[start + local], view.shard_task_row(s, local))
        });
        crate::methods::obs_fused_rows().add(fused_rows);
    });
    view.clamp_golden(post);
}

/// The [`fused_posterior_rows`] bases of one task row: `None` for a
/// golden or unanswered task (its row is left to the clamp / the
/// uniform init), else each answer's column `label` of the worker's
/// ℓ×ℓ block, walked by stride.
pub(super) fn posterior_bases(
    l: usize,
    golden: Option<u8>,
    answers: &[(u32, u8)],
) -> Option<impl Iterator<Item = usize> + '_> {
    if golden.is_some() || answers.is_empty() {
        return None;
    }
    Some(
        answers
            .iter()
            .map(move |&(worker, label)| worker as usize * l * l + label as usize),
    )
}

/// Dawid–Skene EM.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ds;

impl Ds {
    /// Near-zero symmetric smoothing: plain maximum likelihood.
    fn engine(&self) -> DsEngine {
        DsEngine {
            diag_prior: 0.01,
            off_prior: 0.01,
        }
    }

    /// A forward to [`TruthInference::infer_sharded`], kept for callers
    /// written against the flat-view API (perfbench's views probe).
    pub fn infer_view(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        self.infer_sharded(view, options)
    }
}

impl TruthInference for Ds {
    fn name(&self) -> &'static str {
        "D&S"
    }

    fn supports(&self, task_type: TaskType) -> bool {
        task_type.is_categorical()
    }

    fn supports_qualification(&self) -> bool {
        true
    }

    fn supports_golden(&self) -> bool {
        true
    }

    /// Run D&S on a task-range sharded view (row-block E-steps,
    /// shard-ascending M-step fold) — see `DsEngine::run`.
    fn infer_sharded(
        &self,
        view: &ShardedView,
        options: &InferenceOptions,
    ) -> Result<InferenceResult, InferenceError> {
        validate_view(self, view, options)?;
        self.engine().run(view, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::*;
    use crowd_data::{Answer, GoldenSplit};

    #[test]
    fn reasonable_on_toy_example() {
        // The toy admits a competing EM optimum; D&S must at least match
        // majority-vote quality (4/6).
        let d = toy();
        let r = Ds.infer(&d, &InferenceOptions::seeded(1)).unwrap();
        assert_result_sane(&d, &r);
        let acc = accuracy(&d, &r);
        assert!(acc >= 4.0 / 6.0, "toy accuracy {acc}");
    }

    #[test]
    fn confusion_matrices_are_row_stochastic() {
        let d = small_decision();
        let r = Ds.infer(&d, &InferenceOptions::seeded(1)).unwrap();
        for q in &r.worker_quality {
            let WorkerQuality::Confusion(m) = q else {
                panic!("expected confusion")
            };
            assert_eq!(m.len(), 2);
            for row in m {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "row sums to {s}");
                assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn strong_on_decision_data() {
        let d = small_decision();
        assert_accuracy_at_least(&Ds, &d, 0.85);
    }

    #[test]
    fn captures_asymmetric_error_structure() {
        // On D_Product-like data the simulator makes class 1 ('F') easier
        // than class 0 ('T'); D&S should recover diag[1] > diag[0] on
        // average — the very capability the paper credits for its win.
        let d = small_decision();
        let r = Ds.infer(&d, &InferenceOptions::seeded(1)).unwrap();
        let mut diag0 = 0.0;
        let mut diag1 = 0.0;
        let mut count = 0.0;
        for q in &r.worker_quality {
            if let WorkerQuality::Confusion(m) = q {
                diag0 += m[0][0];
                diag1 += m[1][1];
                count += 1.0;
            }
        }
        assert!(
            diag1 / count > diag0 / count,
            "expected q_FF > q_TT on average: {} vs {}",
            diag1 / count,
            diag0 / count
        );
    }

    #[test]
    fn single_choice_beats_mv() {
        use crate::methods::Mv;
        let d = small_single();
        let ds = Ds.infer(&d, &InferenceOptions::seeded(2)).unwrap();
        let mv = Mv.infer(&d, &InferenceOptions::seeded(2)).unwrap();
        let (a_ds, a_mv) = (accuracy(&d, &ds), accuracy(&d, &mv));
        assert!(
            a_ds + 0.02 >= a_mv,
            "D&S {a_ds} should not lose clearly to MV {a_mv} on S_Rel-like data"
        );
    }

    #[test]
    fn golden_tasks_clamped() {
        let d = small_decision();
        let split = GoldenSplit::sample(&d, 0.2, 4);
        let opts = InferenceOptions {
            golden: Some(split.revealed.clone()),
            ..InferenceOptions::seeded(4)
        };
        let r = Ds.infer(&d, &opts).unwrap();
        for &t in &split.golden {
            assert_eq!(Some(r.truths[t]), d.truth(t));
        }
    }

    #[test]
    fn qualification_init_runs() {
        let d = small_decision();
        let q = crowd_data::bootstrap_qualification(&d, 20, 5);
        let opts = InferenceOptions {
            quality_init: crate::framework::QualityInit::Qualification(q.accuracy),
            ..InferenceOptions::seeded(5)
        };
        let r = Ds.infer(&d, &opts).unwrap();
        let acc = accuracy(&d, &r);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn warm_start_reaches_cold_fixed_point_faster() {
        use crate::framework::WarmStart;
        let d = small_decision();
        // Warm-starting from the cold run's converged state and re-running
        // on the same answers must (a) converge in strictly fewer
        // iterations, (b) keep every decisively-labelled task (the loose
        // stopping tolerance means truly borderline posteriors may still
        // legitimately move between the two stopping points), and
        // (c) keep posteriors within a small drift bound.
        let cold = Ds.infer(&d, &InferenceOptions::seeded(3)).unwrap();
        let opts = InferenceOptions {
            warm_start: Some(WarmStart::from_result(&cold)),
            ..InferenceOptions::seeded(3)
        };
        let warm = Ds.infer(&d, &opts).unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        let (wp, cp) = (warm.posteriors.unwrap(), cold.posteriors.unwrap());
        for task in 0..cp.rows() {
            let (w, c) = (wp.row(task), cp.row(task));
            let margin = (c[0] - c[1]).abs();
            if margin > 0.05 {
                assert_eq!(
                    warm.truths[task], cold.truths[task],
                    "decisive task {task} (margin {margin}) flipped"
                );
            }
            for (a, b) in w.iter().zip(c) {
                assert!((a - b).abs() < 0.05, "posterior drift {a} vs {b}");
            }
        }
    }

    #[test]
    fn warm_start_tolerates_foreign_and_short_state() {
        use crate::framework::WarmStart;
        let d = small_decision();
        // A warm state from a differently-shaped problem (wrong ℓ, too
        // few workers) must fall back to cold defaults, not panic.
        let warm = WarmStart {
            posteriors: Some(Arc::new(DMat::from_rows(&vec![vec![0.2, 0.3, 0.5]; 3]))),
            worker_quality: vec![WorkerQuality::Probability(0.9); 2],
        };
        let opts = InferenceOptions {
            warm_start: Some(warm),
            ..InferenceOptions::seeded(3)
        };
        let r = Ds.infer(&d, &opts).unwrap();
        let acc = accuracy(&d, &r);
        assert!(acc > 0.8, "accuracy {acc} with degenerate warm state");
    }

    #[test]
    fn handles_task_with_no_answers() {
        use crowd_data::{DatasetBuilder, TaskType};
        let mut b = DatasetBuilder::new("gap", TaskType::DecisionMaking, 3, 2);
        b.add_label(0, 0, 0).unwrap();
        b.add_label(0, 1, 0).unwrap();
        b.add_label(2, 0, 1).unwrap();
        // task 1 receives no answers
        let d = b.build();
        let r = Ds.infer(&d, &InferenceOptions::seeded(0)).unwrap();
        assert_eq!(r.truths.len(), 3);
        assert!(matches!(r.truths[1], Answer::Label(_)));
    }
}
