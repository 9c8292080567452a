//! Warm-start fixed-point equivalence, pinned on a fixture stream.
//!
//! The guarantee documented in ARCHITECTURE.md ("Streaming subsystem"):
//! re-converging from a warm start reaches the same fixed point as a
//! cold restart over the same answers —
//!
//! - **labels exact on every decisive task** (cold posterior margin
//!   above [`DECISIVE_MARGIN`]) at every round, and exact equality with
//!   batch inference at the end of the fixture stream (a uniform
//!   collection run over the D_PosSent configuration at 10% scale,
//!   seed 5, replayed as ten equal batches);
//! - **numerics within the documented tolerance**: posterior cells of
//!   decisive tasks drift less than [`DECISIVE_POSTERIOR_DRIFT`], and no
//!   cell of any task drifts more than [`MAX_POSTERIOR_DRIFT`] — i.e.
//!   the two stopping points agree tightly wherever the data determines
//!   the answer, and nowhere disagree by more than the decisive margin
//!   itself.
//!
//! Borderline caveat, also documented: at the default stopping tolerance
//! (1e-3 on mean parameter change) a warm run continues the same EM
//! trajectory slightly *past* the cold run's stopping point, and on a
//! mid-stream prefix an under-determined task can sit near the decision
//! boundary — such tasks can legitimately decode differently between the
//! two stopping points (observed: one task in a hundred, mid-stream
//! only); decisive tasks cannot.

use crowd_core::{InferenceOptions, Method, TruthInference};
use crowd_data::datasets::PaperDataset;
use crowd_data::{collect, AssignmentStrategy, StreamSession};
use crowd_stream::{StreamConfig, StreamEngine};

/// Drift bound for cells of decisive tasks — a fifth of the decisive
/// margin, so admissible drift leaves a decisive task's label
/// unambiguous.
const DECISIVE_POSTERIOR_DRIFT: f64 = 0.1;
/// Hard ceiling for any single posterior cell's warm-vs-cold drift
/// (borderline tasks included).
const MAX_POSTERIOR_DRIFT: f64 = 0.5;
/// Cold posterior margin above which a task counts as decisive.
const DECISIVE_MARGIN: f64 = 0.5;

#[test]
fn warm_stream_matches_cold_fixed_point_on_fixture() {
    // The fixture stream is a simulated *collection run* (uniform
    // assignment), whose arrival order interleaves answers across the
    // whole task universe — the realistic streaming regime, where every
    // batch refines every task a little and the warm state stays
    // representative. (A task-major replay, where each batch introduces
    // never-seen tasks answered by workers whose quality was fitted to a
    // handful of answers, is the adversarial cold-start regime: there EM
    // is multimodal and warm/cold can pick different basins for the new
    // tasks — which is why the engine shrinks warm worker state by
    // answer count, and why streaming deployments should batch by time,
    // not by task.)
    let config = PaperDataset::DPosSent.config(0.1);
    let budget = config.num_tasks * 20;
    let run = collect(&config, AssignmentStrategy::Uniform, budget, 5).expect("categorical");
    let dataset = run.dataset.clone();
    let mut engine = StreamEngine::new(StreamConfig::new(
        Method::Ds,
        dataset.task_type(),
        dataset.num_tasks(),
        dataset.num_workers(),
    ))
    .expect("categorical D&S session");

    let batch_size = dataset.num_answers().div_ceil(10);
    let mut warm_total = 0usize;
    let mut cold_total = 0usize;
    for batch in StreamSession::replay(&run, batch_size) {
        engine.push_batch(&batch.records).expect("valid replay");
        let cold = engine.converge_cold().expect("cold converge");
        let warm = engine.converge().expect("warm converge");
        assert!(warm.result.converged, "warm run must converge");

        // Fixed point: labels exact on every decisive task, posteriors
        // within the documented tolerance.
        let wp = warm.result.posteriors.as_ref().expect("D&S posteriors");
        let cp = cold.result.posteriors.as_ref().expect("D&S posteriors");
        for task in 0..cp.rows() {
            let (w, c) = (wp.row(task), cp.row(task));
            let margin = (c[0] - c[1]).abs();
            let decisive = margin > DECISIVE_MARGIN;
            if decisive {
                assert_eq!(
                    warm.result.truths[task], cold.result.truths[task],
                    "decisive task {task} (margin {margin}) flipped at round {}",
                    batch.round
                );
            }
            for (a, b) in w.iter().zip(c) {
                let d = (a - b).abs();
                if decisive {
                    assert!(
                        d < DECISIVE_POSTERIOR_DRIFT,
                        "decisive task {task} drifted {d} at round {}",
                        batch.round
                    );
                }
                assert!(
                    d < MAX_POSTERIOR_DRIFT,
                    "task {task} drift {d} exceeds hard ceiling at round {}",
                    batch.round
                );
            }
        }

        // Re-convergence economics: a warmed batch never costs more
        // than one extra iteration over the cold restart (a batch of new
        // answers still has to be absorbed), and across the stream the
        // warm path is strictly cheaper.
        if batch.round > 0 {
            assert!(
                warm.result.iterations <= cold.result.iterations + 1,
                "round {}: warm {} vs cold {} iterations",
                batch.round,
                warm.result.iterations,
                cold.result.iterations
            );
            warm_total += warm.result.iterations;
            cold_total += cold.result.iterations;
        }
    }
    assert!(
        warm_total < cold_total,
        "warm {warm_total} vs cold {cold_total} total iterations over the stream"
    );

    // End of stream: the engine's state describes the full log, so a
    // final cold converge must agree exactly with batch inference on
    // the equivalent dataset.
    let streamed = engine.converge_cold().expect("final cold converge");
    let batch = crowd_core::methods::Ds
        .infer(&dataset, &InferenceOptions::default())
        .expect("batch D&S");
    assert_eq!(streamed.result.truths, batch.truths);
}
