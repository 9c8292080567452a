//! The `experiments` layer: the paper's whole quick reproduction on one
//! thread — the 17 `crowd-repro` experiments called as library functions
//! with `ExpConfig::quick()` and `threads = 1`, in `crowd-repro --quick
//! all`'s order, so the sanity anchors hold by construction. It runs once
//! at the end of the `table6` workload's traced run.
//!
//! It is not a workload of its own: one pass takes about 40 s, and over
//! ten runs on the reference host its total moved by 7.5% and its
//! slowest experiments by 11% after rescaling, more than a third of any
//! bound the benchmark may set.

use crowd_core::methods::Pm;
use crowd_core::{InferenceOptions, Method, TruthInference};
use crowd_data::datasets::PaperDataset;
use crowd_experiments::runner::{CancelToken, SweepRunner};
use crowd_experiments::sweep::SweepResult;
use crowd_experiments::{
    extensions, full_eval, hidden, qualification, stats_tables, streaming, sweep, ExpConfig,
};

use crate::report::{Values, EXPERIMENTS};
use crate::{refloop, trace};

fn config() -> ExpConfig {
    let mut c = ExpConfig::quick();
    c.threads = 1;
    c
}

/// What one experiment's outputs showed.
#[derive(Default)]
struct Check {
    /// Sweep points, grid cells or curves lost to a failure.
    lost: u64,
    /// Outputs that are missing or not finite.
    broken: Vec<String>,
    /// The paper's sanity anchors this experiment carries: (name, held).
    anchors: Vec<(&'static str, bool)>,
}

impl Check {
    fn finite(&mut self, what: &str, v: f64) {
        if !v.is_finite() {
            self.broken.push(format!("{what} = {v}"));
        }
    }

    fn sweep(&mut self, res: &SweepResult) {
        for c in &res.curves {
            self.lost += c.failures.iter().map(|&f| f as u64).sum::<u64>();
        }
    }
}

fn run_sweeps(cfg: &ExpConfig, ids: &[PaperDataset], check: &mut Check) {
    let runner = SweepRunner::new(cfg.threads);
    for &id in ids {
        let res =
            sweep::redundancy_sweep_observed(id, None, cfg, &runner, &CancelToken::new(), |_| {});
        check.sweep(&res);
    }
}

fn run_hidden(cfg: &ExpConfig, ids: &[PaperDataset], check: &mut Check) {
    for &id in ids {
        let res = hidden::hidden_sweep(id, None, cfg);
        for c in &res.curves {
            check.lost += c.failures.iter().map(|&f| f as u64).sum::<u64>();
        }
    }
}

/// Run one experiment as `crowd-repro` does, minus the printing.
fn experiment(name: &str, cfg: &ExpConfig) -> Check {
    use PaperDataset::*;
    let mut check = Check::default();
    match name {
        "example" => {
            let d = crowd_data::toy::paper_example();
            match Pm::default().infer(&d, &InferenceOptions::seeded(11)) {
                Ok(r) => {
                    let is_t = |i: usize| r.truths[i].label() == Some(0);
                    let rest_f = (0..r.truths.len())
                        .filter(|&i| i != 0 && i != 5)
                        .all(|i| !is_t(i));
                    check
                        .anchors
                        .push(("pm_recovers_t1_t6", is_t(0) && is_t(5) && rest_f));
                }
                Err(e) => check.broken.push(format!("PM on the running example: {e}")),
            }
        }
        "table5" => {
            let rows = stats_tables::table5(cfg);
            if rows.len() != PaperDataset::ALL.len() {
                check.broken.push(format!("table5 has {} rows", rows.len()));
            }
            for r in &rows {
                check.finite("table5 redundancy", r.redundancy);
            }
        }
        "consistency" => {
            for (id, c) in stats_tables::consistency_report(cfg) {
                check.finite(id.name(), c);
            }
        }
        "fig2" => {
            for id in PaperDataset::ALL {
                let d = id.generate(cfg.scale, cfg.seed);
                std::hint::black_box(stats_tables::fig2_worker_redundancy(&d, 12));
            }
        }
        "fig3" => {
            for id in PaperDataset::ALL {
                let d = id.generate(cfg.scale, cfg.seed);
                std::hint::black_box(stats_tables::fig3_worker_quality(&d, 12));
                check.finite(
                    "fig3 average quality",
                    stats_tables::fig3_average_quality(&d),
                );
            }
        }
        "fig4" => run_sweeps(cfg, &[DProduct, DPosSent], &mut check),
        "fig5" => run_sweeps(cfg, &[SRel, SAdult], &mut check),
        "fig6" => run_sweeps(cfg, &[NEmotion], &mut check),
        "table6" => {
            let runner = SweepRunner::new(cfg.threads);
            let t = full_eval::table6_observed(cfg, &runner, &CancelToken::new(), |_| {});
            check.lost += t.lost.len() as u64;
            let cell = |m: Method| {
                let mi = t.methods.iter().position(|&x| x == m)?;
                let di = t.datasets.iter().position(|&x| x == DProduct)?;
                t.cells[mi][di]
            };
            let held = match (cell(Method::Ds), cell(Method::Mv)) {
                (Some(ds), Some(mv)) => ds.accuracy >= mv.accuracy && ds.f1 >= mv.f1,
                _ => false,
            };
            check.anchors.push(("ds_at_least_mv_on_d_product", held));
        }
        "table7" => {
            for id in PaperDataset::ALL {
                for r in qualification::table7(id, cfg) {
                    check.finite("table7 with_qual", r.with_qual);
                    check.finite("table7 baseline", r.baseline);
                }
            }
        }
        "fig7" => run_hidden(cfg, &[DProduct, DPosSent], &mut check),
        "fig8" => run_hidden(cfg, &[SRel, SAdult], &mut check),
        "fig9" => run_hidden(cfg, &[NEmotion], &mut check),
        "streaming" => {
            let pairs: Vec<(PaperDataset, Method)> = PaperDataset::ALL
                .into_iter()
                .filter(|d| d.task_type().is_categorical())
                .map(|d| (d, Method::Ds))
                .collect();
            let runner = SweepRunner::new(cfg.threads);
            let rows =
                streaming::streaming_grid(&pairs, 8, cfg, &runner, &CancelToken::new(), |_| {});
            check.lost += rows.iter().filter(|r| r.curve.is_err()).count() as u64;
        }
        "assignment" => {
            let (_, rows) = extensions::assignment_comparison(cfg);
            if rows.is_empty() {
                check.broken.push("no assignment rows".into());
            }
            for r in &rows {
                check.finite("assignment accuracy", r.answer_accuracy);
            }
        }
        "advisor" => {
            for id in PaperDataset::ALL {
                let res = sweep::redundancy_sweep(id, None, cfg);
                check.sweep(&res);
                for method in [Method::Mv, Method::Ds, Method::Mean] {
                    if res.curves.iter().any(|c| c.method == method) {
                        let eps = if id.task_type().is_categorical() {
                            0.01
                        } else {
                            0.5
                        };
                        std::hint::black_box(extensions::recommend_redundancy(&res, method, eps));
                    }
                }
            }
        }
        "ablation" => {
            for abl in extensions::ablation_sweeps(cfg) {
                for p in &abl.points {
                    check.finite(abl.name, p.accuracy);
                }
            }
        }
        other => check.broken.push(format!("unknown experiment {other}")),
    }
    check
}

/// Run the 17 experiments once, each a span of the `experiments` layer,
/// and record `experiments.<name>_s` (rescaled) and
/// `experiments.lost_cells`. Returns the operations attempted (each
/// experiment and each sanity anchor) and failed.
pub fn traced_experiments(v: &mut Values) -> (u64, u64) {
    let cfg = config();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut lost = 0u64;
    for name in EXPERIMENTS {
        let (check, t) =
            refloop::timed(|| trace::span("experiments", name, || experiment(name, &cfg)));
        v.insert(
            format!("experiments.{name}_s"),
            t.rescaled(refloop::NOMINAL_S),
        );
        attempted += 1 + check.anchors.len() as u64;
        lost += check.lost;
        if check.lost > 0 || !check.broken.is_empty() {
            failed += 1;
            eprintln!(
                "repro: {name}: {} lost cells; broken: {:?}",
                check.lost, check.broken
            );
        }
        for (anchor, held) in &check.anchors {
            if !held {
                failed += 1;
                eprintln!("repro: sanity anchor {anchor} does not hold");
            }
        }
    }
    v.insert("experiments.lost_cells".into(), lost as f64);
    (attempted, failed)
}
