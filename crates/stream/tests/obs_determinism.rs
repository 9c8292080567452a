//! Determinism guard: metrics must be *observation only*. A stream
//! driven with recording on and an identical stream driven with
//! recording off must produce bit-identical truths, posteriors, and
//! iteration counts — instrumentation that perturbs the EM trajectory
//! would silently invalidate every golden and equivalence fixture.
//!
//! Lives in its own integration-test binary because it flips the
//! process-global `crowd_obs` enable flag, which would race any other
//! test recording concurrently.

use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_data::{StreamSession, TaskType};
use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine};

fn run_stream(method: Method) -> Vec<(Vec<crowd_data::Answer>, Vec<Vec<u64>>, usize)> {
    let d = PaperDataset::DProduct.generate(0.07, 17);
    let cfg = StreamConfig::new(
        method,
        TaskType::DecisionMaking,
        d.num_tasks(),
        d.num_workers(),
    );
    let mut engine = StreamEngine::new(cfg).unwrap();
    let mut out = Vec::new();
    for batch in StreamSession::from_dataset(&d, d.num_answers().div_ceil(5)) {
        engine.push_batch(&batch.records).expect("valid replay");
        // Budgeted slices exercise the warm-resume path too.
        let r = engine
            .converge_budgeted(ConvergeBudget::iterations(7))
            .unwrap();
        let posterior_bits: Vec<Vec<u64>> = r
            .result
            .posteriors
            .as_ref()
            .map(|m| {
                (0..m.rows())
                    .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .unwrap_or_default();
        out.push((r.result.truths.clone(), posterior_bits, r.result.iterations));
    }
    out
}

#[test]
fn metrics_do_not_perturb_converge_trajectories() {
    for method in [Method::Ds, Method::Glad] {
        crowd_obs::set_enabled(true);
        let with_metrics = run_stream(method);
        let recorded = crowd_obs::snapshot();
        assert!(
            recorded.counter("stream.engine.batches_total") > 0,
            "instrumentation did not fire with recording on"
        );

        crowd_obs::set_enabled(false);
        let without_metrics = run_stream(method);
        crowd_obs::set_enabled(true);

        assert_eq!(
            with_metrics, without_metrics,
            "{method:?}: metrics recording changed the EM trajectory"
        );
    }
}
