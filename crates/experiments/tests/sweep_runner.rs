//! The sweep-runner guarantees, pinned (mirroring
//! `crates/serve/tests/multi_session.rs` for the experiment harness):
//!
//! 1. **Bit-identical replay** — the async `SweepRunner` reproduction of
//!    the full Figures 4–6 grids (every Table-6 dataset, default x-axes)
//!    is bit-for-bit equal to a sequential blocking sweep, with one
//!    progress event observed per grid cell; Table 7, the hidden tests
//!    and the assignment extension are bit-for-bit equal at one and at
//!    three threads.
//! 2. **Cancellation mid-grid** — cancelling between cells stops the
//!    remaining cells, which surface as cancelled outcomes / NaN curve
//!    points rather than hanging or poisoning the run.
//! 3. **Cell-panic isolation** — one panicking cell is reported in its
//!    own outcome; sibling cells complete with unchanged values.

use crowd_core::{InferenceOptions, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::subsample_redundancy;
use crowd_experiments::extensions::assignment_comparison;
use crowd_experiments::hidden::{hidden_sweep, HiddenResult};
use crowd_experiments::qualification::table7;
use crowd_experiments::runner::{CancelToken, CellOutcome, CellStatus, SweepCell, SweepRunner};
use crowd_experiments::sweep::{
    cell_seed, default_redundancies, redundancy_sweep_observed, SeedPurpose, SweepCurve,
    SweepResult,
};
use crowd_experiments::{evaluate, ExpConfig};
use proptest::prelude::*;

/// The sequential reference for the Figures 4–6 grid: the same cells
/// (sub-sample `r` answers per task, then every method on it) one after
/// another on the calling thread, each point's sum taken in repeat
/// order. The runner path must reproduce it bit-identically.
fn redundancy_sweep_blocking(
    id: PaperDataset,
    redundancies: Option<Vec<usize>>,
    config: &ExpConfig,
) -> SweepResult {
    let dataset = id.generate(config.scale, config.seed);
    let redundancies =
        redundancies.unwrap_or_else(|| default_redundancies(id, dataset.max_task_degree()));
    let methods = Method::for_task_type(dataset.task_type());
    // sums[m][r] = [accuracy, f1, mae, rmse]
    let mut sums = vec![vec![[0.0f64; 4]; redundancies.len()]; methods.len()];
    let mut counts = vec![vec![0usize; redundancies.len()]; methods.len()];
    for rep in 0..config.repeats {
        for (r_idx, &r) in redundancies.iter().enumerate() {
            let seed = |purpose| cell_seed(config.seed, rep, r_idx, purpose);
            let sub = subsample_redundancy(&dataset, r, seed(SeedPurpose::Subsample));
            let opts = InferenceOptions::seeded(seed(SeedPurpose::Inference));
            for (m_idx, &method) in methods.iter().enumerate() {
                if let Some(o) = evaluate(method, &sub, &opts, None) {
                    let s = &mut sums[m_idx][r_idx];
                    s[0] += o.accuracy;
                    s[1] += o.f1;
                    s[2] += o.mae;
                    s[3] += o.rmse;
                    counts[m_idx][r_idx] += 1;
                }
            }
        }
    }
    let curves = methods
        .iter()
        .enumerate()
        .map(|(m_idx, &method)| {
            let mean = |k: usize| -> Vec<f64> {
                sums[m_idx]
                    .iter()
                    .zip(&counts[m_idx])
                    .map(|(s, &c)| if c > 0 { s[k] / c as f64 } else { f64::NAN })
                    .collect()
            };
            SweepCurve {
                method,
                accuracy: mean(0),
                f1: mean(1),
                mae: mean(2),
                rmse: mean(3),
                failures: counts[m_idx].iter().map(|&c| config.repeats - c).collect(),
            }
        })
        .collect();
    SweepResult {
        dataset: id,
        redundancies,
        curves,
    }
}

/// Every float of a sweep result as raw bits (NaNs compare equal by
/// pattern), plus the exact failure counts.
fn sweep_bits(res: &SweepResult) -> Vec<(u8, Vec<u64>, Vec<usize>)> {
    res.curves
        .iter()
        .map(|c| {
            let mut bits = Vec::new();
            for v in [&c.accuracy, &c.f1, &c.mae, &c.rmse] {
                bits.extend(v.iter().map(|x| x.to_bits()));
            }
            (c.method as u8, bits, c.failures.clone())
        })
        .collect()
}

fn grid_size(res: &SweepResult, repeats: usize) -> usize {
    res.redundancies.len() * repeats
}

#[test]
fn full_figure_grids_bit_identical_to_blocking_path() {
    // The acceptance grid: all five Table-6 datasets (Figures 4, 5 and
    // 6), default paper x-axes, async runner vs sequential blocking
    // reference — bit-identical, with progress observed for every cell.
    let config = ExpConfig {
        scale: 0.02,
        repeats: 2,
        seed: 7,
        threads: 4,
    };
    let runner = SweepRunner::new(config.threads);
    for id in PaperDataset::ALL {
        let mut events = Vec::new();
        let res = redundancy_sweep_observed(id, None, &config, &runner, &CancelToken::new(), |p| {
            events.push((p.index, p.status))
        });
        let blocking = redundancy_sweep_blocking(id, None, &config);
        assert_eq!(res.redundancies, blocking.redundancies, "{}", id.name());
        assert_eq!(
            sweep_bits(&res),
            sweep_bits(&blocking),
            "{}: async sweep diverged from the blocking reference",
            id.name()
        );
        // One progress event per cell, all completed, every index seen.
        assert_eq!(
            events.len(),
            grid_size(&res, config.repeats),
            "{}",
            id.name()
        );
        assert!(events.iter().all(|(_, s)| *s == CellStatus::Completed));
        let mut seen: Vec<usize> = events.iter().map(|(i, _)| *i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..events.len()).collect::<Vec<_>>());
    }
}

/// Every float of a hidden-test result as raw bits, plus the failures.
fn hidden_bits(res: &HiddenResult) -> Vec<(u8, Vec<u64>, Vec<usize>)> {
    res.curves
        .iter()
        .map(|c| {
            let bits = c.quality.iter().chain(&c.quality2).map(|x| x.to_bits());
            (c.method as u8, bits.collect(), c.failures.clone())
        })
        .collect()
}

fn config_at(scale: f64, threads: usize) -> ExpConfig {
    ExpConfig {
        scale,
        repeats: 2,
        seed: 7,
        threads,
    }
}

#[test]
fn table7_bit_identical_across_thread_counts() {
    let bits = |threads| -> Vec<(u8, [u64; 4])> {
        table7(PaperDataset::DProduct, &config_at(0.03, threads))
            .iter()
            .map(|r| {
                let row = [r.baseline, r.with_qual, r.baseline2, r.with_qual2];
                (r.method as u8, row.map(f64::to_bits))
            })
            .collect()
    };
    let one = bits(1);
    assert_eq!(one.len(), 7, "7 qualification methods apply to D_Product");
    assert_eq!(one, bits(3), "Table 7 depends on the thread count");
}

#[test]
fn hidden_sweeps_bit_identical_across_thread_counts() {
    for (id, scale) in [
        (PaperDataset::DProduct, 0.03),
        (PaperDataset::NEmotion, 0.1),
    ] {
        let run = |threads| hidden_sweep(id, Some(vec![0.0, 0.3]), &config_at(scale, threads));
        let one = run(1);
        assert!(!one.curves.is_empty(), "{}", id.name());
        assert!(one.curves.iter().all(|c| c.failures == [0, 0]));
        assert_eq!(
            hidden_bits(&one),
            hidden_bits(&run(3)),
            "{}: hidden sweep depends on the thread count",
            id.name()
        );
    }
}

#[test]
fn assignment_bit_identical_across_thread_counts() {
    let bits = |threads| -> Vec<(&'static str, u64, Vec<u64>)> {
        let (_, rows) = assignment_comparison(&config_at(0.03, threads));
        rows.iter()
            .map(|r| {
                let methods = r.method_accuracy.iter().map(|a| a.to_bits());
                (r.strategy, r.answer_accuracy.to_bits(), methods.collect())
            })
            .collect()
    };
    let one = bits(1);
    assert_eq!(one.len(), 3, "three assignment strategies");
    assert_eq!(one, bits(3), "assignment depends on the thread count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Bit-identity holds across random seeds, repeat counts, thread
    /// budgets, and categorical datasets — not just the pinned grid.
    #[test]
    fn runner_matches_blocking_for_every_categorical_dataset(
        seed in 0u64..1000,
        repeats in 1usize..=3,
        threads in 1usize..=8,
        dataset_sel in 0usize..4,
    ) {
        let categorical: Vec<PaperDataset> = PaperDataset::ALL
            .into_iter()
            .filter(|d| d.task_type().is_categorical())
            .collect();
        let id = categorical[dataset_sel];
        let config = ExpConfig { scale: 0.02, repeats, seed, threads };
        let runner = SweepRunner::new(threads);
        let reds = Some(vec![1, 2, 3]);
        let res = redundancy_sweep_observed(
            id, reds.clone(), &config, &runner, &CancelToken::new(), |_| {},
        );
        let blocking = redundancy_sweep_blocking(id, reds, &config);
        prop_assert_eq!(sweep_bits(&res), sweep_bits(&blocking));
    }
}

#[test]
fn cancellation_mid_grid_stops_remaining_cells() {
    // Runner level: the third cell requests cancellation from inside the
    // grid. With budget 1 the queue drains strictly in order, so the
    // remaining cells must all finish as Cancelled without running their
    // payload.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let runner = SweepRunner::new(1);
    let token = CancelToken::new();
    let ran = Arc::new(AtomicUsize::new(0));
    let t = token.clone();
    let cells: Vec<SweepCell<usize>> = (0..12usize)
        .map(|i| {
            let ran = Arc::clone(&ran);
            let t = t.clone();
            SweepCell::new(format!("cell {i}"), move || {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    t.cancel();
                }
                i
            })
        })
        .collect();
    let out = runner.run(cells, &token, |_| {});
    assert_eq!(out.completed, 3, "exactly the pre-cancel cells ran");
    assert_eq!(out.cancelled, 9);
    assert_eq!(out.failed, 0);
    assert_eq!(
        ran.load(Ordering::SeqCst),
        3,
        "cancelled payloads never ran"
    );
    assert_eq!(
        out.cells
            .iter()
            .filter(|c| matches!(c, CellOutcome::Cancelled))
            .count(),
        9
    );

    // Sweep level: a token cancelled before the sweep starts yields a
    // result whose every point is NaN with full failure counts — a
    // visible gap, not a silent zero curve.
    let config = ExpConfig {
        scale: 0.02,
        repeats: 2,
        seed: 3,
        threads: 2,
    };
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let res = redundancy_sweep_observed(
        PaperDataset::DProduct,
        Some(vec![1, 2]),
        &config,
        &SweepRunner::new(2),
        &cancelled,
        |p| assert_eq!(p.status, CellStatus::Cancelled),
    );
    for c in &res.curves {
        assert!(c.accuracy.iter().all(|a| a.is_nan()), "{:?}", c.method);
        assert_eq!(c.failures, vec![config.repeats; 2]);
    }
}

#[test]
fn cell_panic_is_isolated_to_its_outcome() {
    let runner = SweepRunner::new(3);
    let cells: Vec<SweepCell<usize>> = (0..10usize)
        .map(|i| {
            SweepCell::new(format!("cell {i}"), move || {
                if i == 4 {
                    panic!("cell 4 exploded");
                }
                i * 7
            })
        })
        .collect();
    let mut statuses = Vec::new();
    let out = runner.run(cells, &CancelToken::new(), |p| statuses.push(p.status));
    assert_eq!(out.completed, 9);
    assert_eq!(out.failed, 1);
    assert_eq!(out.cancelled, 0);
    assert_eq!(
        statuses
            .iter()
            .filter(|s| **s == CellStatus::Failed)
            .count(),
        1
    );
    for (i, cell) in out.cells.into_iter().enumerate() {
        match cell {
            CellOutcome::Completed(v) => assert_eq!(v, i * 7, "sibling value changed"),
            CellOutcome::Failed(msg) => {
                assert_eq!(i, 4);
                assert!(msg.contains("cell 4 exploded"), "{msg}");
            }
            CellOutcome::Cancelled => panic!("no cell was cancelled"),
        }
    }
    // The runner (and its pool) stays usable after a cell panic.
    let again = runner.run(
        vec![SweepCell::new("after", || 99usize)],
        &CancelToken::new(),
        |_| {},
    );
    assert_eq!(again.completed, 1);
}
