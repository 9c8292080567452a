//! `crowd-repro` — regenerate every table and figure of the VLDB 2017
//! truth-inference benchmark on the simulated datasets.
//!
//! ```text
//! crowd-repro [--quick|--standard|--full] [--scale S] [--repeats N]
//!             [--seed K] [--threads T] [--progress] [--metrics]
//!             <experiment> [...]
//!
//! experiments:
//!   table5        dataset statistics (Table 5)
//!   consistency   data-consistency statistic C (§6.2.1)
//!   fig2          worker-redundancy histograms (Figure 2)
//!   fig3          worker-quality histograms (Figure 3)
//!   fig4          redundancy sweep, decision-making (Figure 4)
//!   fig5          redundancy sweep, single-choice (Figure 5)
//!   fig6          redundancy sweep, numeric (Figure 6)
//!   table6        quality & running time on complete data (Table 6)
//!   table7        qualification-test benefit (Table 7)
//!   fig7          hidden test, decision-making (Figure 7)
//!   fig8          hidden test, single-choice (Figure 8)
//!   fig9          hidden test, numeric (Figure 9)
//!   streaming     warm-vs-cold streaming grid on the sweep runner
//!   assignment    task-assignment strategies at equal budget (§7(6))
//!   advisor       redundancy advisor over the fig4–6 curves (§7(3))
//!   ablation      design-choice ablations on simulated D_Product
//!   example       the paper's Section 3 running example (Tables 1–2)
//!   all           everything above
//!
//! `--progress` streams one line per finished sweep cell to stderr while
//! the fig4–6, table6 and streaming grids run on the async
//! `SweepRunner` — live completed/failed counts, completion order.
//!
//! `advisor` reads the redundancy curves of any fig4–6 run earlier in the
//! same invocation (so `all` sweeps each dataset once). For the datasets
//! still missing it sweeps only MV, D&S and Mean, the methods it advises
//! on.
//!
//! `--metrics` dumps the process-global `crowd-obs` registry (counters,
//! gauges, latency histograms accumulated across every experiment run)
//! as JSON on stdout after the last experiment. Recording honours the
//! `CROWD_OBS` environment switch; with `CROWD_OBS=0` the dump is
//! structurally valid but all zeros.
//! ```

use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_experiments::report::{num, pct, secs, series, table};
use crowd_experiments::runner::{CancelToken, SweepProgress, SweepRunner};
use crowd_experiments::sweep::SweepResult;
use crowd_experiments::{
    full_eval, hidden, qualification, stats_tables, streaming, sweep, ExpConfig,
};

const EXPERIMENTS: [&str; 17] = [
    "example",
    "table5",
    "consistency",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table6",
    "table7",
    "fig7",
    "fig8",
    "fig9",
    "streaming",
    "assignment",
    "advisor",
    "ablation",
];

/// Render progress events as log lines on stderr (stdout stays clean for
/// the tables/series output). One line per cell, completion order.
fn progress_printer(tag: String, enabled: bool) -> impl FnMut(&SweepProgress) {
    move |p| {
        if enabled {
            eprintln!(
                "[{tag}] {done}/{total} cells (ok {ok}, failed {failed}, cancelled {cancelled}) \
                 — {label} {status:?}",
                done = p.done,
                total = p.total,
                ok = p.completed,
                failed = p.failed,
                cancelled = p.cancelled,
                label = p.label,
                status = p.status,
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExpConfig::standard();
    let mut progress = false;
    let mut metrics = false;
    let mut experiments: Vec<String> = Vec::new();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = ExpConfig::quick(),
            "--standard" => config = ExpConfig::standard(),
            "--full" => config = ExpConfig::full(),
            "--scale" => config.scale = parse_next(&mut it, "--scale"),
            "--repeats" => config.repeats = parse_next(&mut it, "--repeats"),
            "--seed" => config.seed = parse_next(&mut it, "--seed"),
            "--threads" => config.threads = parse_next(&mut it, "--threads"),
            "--progress" => progress = true,
            "--metrics" => metrics = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        print_usage();
        std::process::exit(2);
    }

    println!(
        "# crowd-repro  scale={} repeats={} seed={} threads={}\n",
        config.scale, config.repeats, config.seed, config.threads
    );

    // Redundancy sweeps computed so far in this invocation: the advisor
    // reads fig4–6's curves instead of sweeping the same grids again.
    let mut sweeps: Vec<SweepResult> = Vec::new();
    for exp in &experiments {
        if exp == "all" {
            for e in EXPERIMENTS {
                run_one(e, &config, progress, &mut sweeps);
            }
        } else if EXPERIMENTS.contains(&exp.as_str()) {
            run_one(exp, &config, progress, &mut sweeps);
        } else {
            eprintln!("unknown experiment {exp}");
            print_usage();
            std::process::exit(2);
        }
    }

    if metrics {
        println!("== metrics (crowd-obs registry) ==");
        println!("{}", crowd_obs::snapshot().to_json());
    }
}

fn run_one(name: &str, config: &ExpConfig, progress: bool, sweeps: &mut Vec<SweepResult>) {
    match name {
        "table5" => run_table5(config),
        "consistency" => run_consistency(config),
        "fig2" => run_fig2(config),
        "fig3" => run_fig3(config),
        "fig4" => run_sweep(
            config,
            &[PaperDataset::DProduct, PaperDataset::DPosSent],
            "Figure 4",
            progress,
            sweeps,
        ),
        "fig5" => run_sweep(
            config,
            &[PaperDataset::SRel, PaperDataset::SAdult],
            "Figure 5",
            progress,
            sweeps,
        ),
        "fig6" => run_sweep(
            config,
            &[PaperDataset::NEmotion],
            "Figure 6",
            progress,
            sweeps,
        ),
        "table6" => run_table6(config, progress),
        "table7" => run_table7(config),
        "fig7" => run_hidden(
            config,
            &[PaperDataset::DProduct, PaperDataset::DPosSent],
            "Figure 7",
        ),
        "fig8" => run_hidden(
            config,
            &[PaperDataset::SRel, PaperDataset::SAdult],
            "Figure 8",
        ),
        "fig9" => run_hidden(config, &[PaperDataset::NEmotion], "Figure 9"),
        "streaming" => run_streaming(config, progress),
        "example" => run_example(),
        "assignment" => run_assignment(config),
        "advisor" => run_advisor(config, sweeps),
        "ablation" => run_ablation(config),
        other => unreachable!("validated experiment name {other}"),
    }
}

fn parse_next<T: std::str::FromStr>(
    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
    flag: &str,
) -> T {
    let Some(value) = it.next() else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {value:?} for {flag}");
        std::process::exit(2);
    })
}

fn print_usage() {
    println!(
        "usage: crowd-repro [--quick|--standard|--full] [--scale S] [--repeats N] \
         [--seed K] [--threads T] [--progress] [--metrics] <experiment>...\n\
         experiments: example table5 consistency fig2 fig3 fig4 fig5 fig6 table6 \
         table7 fig7 fig8 fig9 streaming assignment advisor ablation all\n\
         --metrics dumps the crowd-obs registry as JSON after the last experiment"
    );
}

fn run_example() {
    use crowd_core::TruthInference;
    println!("== Section 3 running example (Tables 1–2, method PM) ==");
    let d = crowd_data::toy::paper_example();
    let r = crowd_core::methods::Pm::default()
        .infer(&d, &crowd_core::InferenceOptions::seeded(11))
        .expect("PM runs on the toy example");
    let mut rows = Vec::new();
    for (i, t) in r.truths.iter().enumerate() {
        let label = if t.label() == Some(0) { "T" } else { "F" };
        let truth = if d.truth(i).and_then(|a| a.label()) == Some(0) {
            "T"
        } else {
            "F"
        };
        rows.push(vec![
            format!("t{}", i + 1),
            label.to_string(),
            truth.to_string(),
        ]);
    }
    println!("{}", table(&["task", "PM inferred", "ground truth"], &rows));
    let quality_rows: Vec<Vec<String>> = r
        .worker_quality
        .iter()
        .enumerate()
        .map(|(w, q)| {
            vec![
                format!("w{}", w + 1),
                format!("{:.2}", q.scalar().unwrap_or(0.0)),
            ]
        })
        .collect();
    println!("{}", table(&["worker", "PM quality q^w"], &quality_rows));
}

fn run_table5(config: &ExpConfig) {
    println!("== Table 5: dataset statistics ==");
    let rows: Vec<Vec<String>> = stats_tables::table5(config)
        .into_iter()
        .map(|r| {
            vec![
                r.dataset.name().to_string(),
                r.tasks.to_string(),
                r.truths.to_string(),
                r.answers.to_string(),
                format!("{:.1}", r.redundancy),
                r.workers.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["Dataset", "#tasks", "#truth", "|V|", "|V|/n", "|W|"],
            &rows
        )
    );
}

fn run_consistency(config: &ExpConfig) {
    println!("== §6.2.1: data consistency C ==");
    println!("(paper: D_Product 0.38, D_PosSent 0.85, S_Rel 0.82, S_Adult 0.39, N_Emotion 20.44)");
    let rows: Vec<Vec<String>> = stats_tables::consistency_report(config)
        .into_iter()
        .map(|(id, c)| vec![id.name().to_string(), format!("{c:.2}")])
        .collect();
    println!("{}", table(&["Dataset", "C"], &rows));
}

fn run_fig2(config: &ExpConfig) {
    println!("== Figure 2: worker redundancy histograms ==");
    for id in PaperDataset::ALL {
        let d = id.generate(config.scale, config.seed);
        let h = stats_tables::fig2_worker_redundancy(&d, 12);
        println!("-- {} ({} workers) --", id.name(), d.num_workers());
        println!("{}", h.render(40));
    }
}

fn run_fig3(config: &ExpConfig) {
    println!("== Figure 3: worker quality histograms ==");
    for id in PaperDataset::ALL {
        let d = id.generate(config.scale, config.seed);
        let h = stats_tables::fig3_worker_quality(&d, 12);
        let avg = stats_tables::fig3_average_quality(&d);
        let unit = if d.task_type().is_categorical() {
            "accuracy"
        } else {
            "RMSE"
        };
        println!("-- {} (avg worker {unit} {:.2}) --", id.name(), avg);
        println!("{}", h.render(40));
    }
}

fn run_sweep(
    config: &ExpConfig,
    datasets: &[PaperDataset],
    figure: &str,
    progress: bool,
    sweeps: &mut Vec<SweepResult>,
) {
    // One runner (and thus one budgeted worker pool) shared by the
    // figure's datasets.
    let runner = SweepRunner::new(config.threads);
    for &id in datasets {
        println!("== {figure}: redundancy sweep on {} ==", id.name());
        let res = sweep::redundancy_sweep_observed(
            id,
            None,
            config,
            &runner,
            &CancelToken::new(),
            progress_printer(format!("{figure} {}", id.name()), progress),
        );
        let xs: Vec<f64> = res.redundancies.iter().map(|&r| r as f64).collect();
        let names: Vec<&str> = res.curves.iter().map(|c| c.method.name()).collect();
        if id.task_type().is_categorical() {
            let acc: Vec<Vec<f64>> = res.curves.iter().map(|c| c.accuracy.clone()).collect();
            println!("-- Accuracy --\n{}", series("r", &xs, &names, &acc));
            if matches!(id, PaperDataset::DProduct | PaperDataset::DPosSent) {
                let f1: Vec<Vec<f64>> = res.curves.iter().map(|c| c.f1.clone()).collect();
                println!("-- F1-score --\n{}", series("r", &xs, &names, &f1));
            }
        } else {
            let mae: Vec<Vec<f64>> = res.curves.iter().map(|c| c.mae.clone()).collect();
            println!("-- MAE --\n{}", series("r", &xs, &names, &mae));
            let rmse: Vec<Vec<f64>> = res.curves.iter().map(|c| c.rmse.clone()).collect();
            println!("-- RMSE --\n{}", series("r", &xs, &names, &rmse));
        }
        sweeps.push(res);
    }
}

fn run_table6(config: &ExpConfig, progress: bool) {
    println!("== Table 6: quality and running time with complete data ==");
    let runner = SweepRunner::new(config.threads);
    let t = full_eval::table6_observed(
        config,
        &runner,
        &CancelToken::new(),
        progress_printer("Table 6".to_string(), progress),
    );
    let mut rows = Vec::new();
    for (m_idx, &method) in t.methods.iter().enumerate() {
        let mut row = vec![method.name().to_string()];
        for (d_idx, &dataset) in t.datasets.iter().enumerate() {
            let cell = &t.cells[m_idx][d_idx];
            match dataset {
                PaperDataset::DProduct | PaperDataset::DPosSent => {
                    row.push(pct(cell.map(|o| o.accuracy)));
                    row.push(pct(cell.map(|o| o.f1)));
                }
                PaperDataset::SRel | PaperDataset::SAdult => {
                    row.push(pct(cell.map(|o| o.accuracy)));
                }
                PaperDataset::NEmotion => {
                    row.push(num(cell.map(|o| o.mae)));
                    row.push(num(cell.map(|o| o.rmse)));
                }
            }
            row.push(secs(cell.map(|o| o.seconds)));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table(
            &[
                "Method", "DPr Acc", "DPr F1", "DPr t", "DPo Acc", "DPo F1", "DPo t", "SRe Acc",
                "SRe t", "SAd Acc", "SAd t", "NEm MAE", "NEm RMSE", "NEm t",
            ],
            &rows
        )
    );
    // A "×" above normally means "not applicable"; cells lost to a panic
    // or cancellation must not hide behind the same symbol.
    for (method, dataset, cause) in &t.lost {
        eprintln!(
            "WARNING: Table 6 cell {}×{} lost ({cause}) — its × is a missing \
             measurement, not inapplicability",
            method.name(),
            dataset.name()
        );
    }
}

fn run_table7(config: &ExpConfig) {
    println!("== Table 7: qualification-test benefit (Δ = with − without) ==");
    for id in PaperDataset::ALL {
        let rows = qualification::table7(id, config);
        if rows.is_empty() {
            continue;
        }
        println!("-- {} --", id.name());
        let categorical = id.task_type().is_categorical();
        // F1 is only meaningful for two-class (decision-making) datasets.
        let decision = matches!(id, PaperDataset::DProduct | PaperDataset::DPosSent);
        let headers: Vec<&str> = if decision {
            vec!["Method", "Acc c~", "Acc D", "F1 c~", "F1 D"]
        } else if categorical {
            vec!["Method", "Acc c~", "Acc D"]
        } else {
            vec!["Method", "MAE c~", "MAE D", "RMSE c~", "RMSE D"]
        };
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let fmt = |v: f64| {
                    if categorical {
                        format!("{:.2}%", 100.0 * v)
                    } else {
                        format!("{v:.2}")
                    }
                };
                let fmtd = |v: f64| {
                    if categorical {
                        format!("{:+.2}%", 100.0 * v)
                    } else {
                        format!("{v:+.2}")
                    }
                };
                let mut row = vec![
                    r.method.name().to_string(),
                    fmt(r.with_qual),
                    fmtd(r.with_qual - r.baseline),
                ];
                if headers.len() == 5 {
                    row.push(fmt(r.with_qual2));
                    row.push(fmtd(r.with_qual2 - r.baseline2));
                }
                row
            })
            .collect();
        println!("{}", table(&headers, &body));
    }
}

fn run_hidden(config: &ExpConfig, datasets: &[PaperDataset], figure: &str) {
    for &id in datasets {
        println!("== {figure}: hidden test on {} ==", id.name());
        let res = hidden::hidden_sweep(id, None, config);
        let xs: Vec<f64> = res.fractions.iter().map(|&p| 100.0 * p).collect();
        let names: Vec<&str> = res.curves.iter().map(|c| c.method.name()).collect();
        let q: Vec<Vec<f64>> = res.curves.iter().map(|c| c.quality.clone()).collect();
        let metric = if id.task_type().is_categorical() {
            "Accuracy"
        } else {
            "MAE"
        };
        println!("-- {metric} --\n{}", series("p%", &xs, &names, &q));
        let q2: Vec<Vec<f64>> = res.curves.iter().map(|c| c.quality2.clone()).collect();
        let metric2 = if id.task_type().is_categorical() {
            "F1"
        } else {
            "RMSE"
        };
        match id {
            PaperDataset::SRel | PaperDataset::SAdult => {}
            _ => println!("-- {metric2} --\n{}", series("p%", &xs, &names, &q2)),
        }
    }
}

fn run_streaming(config: &ExpConfig, progress: bool) {
    println!("== Streaming grid: warm vs cold re-convergence (sweep runner) ==");
    // Every categorical Table-6 dataset × D&S — the headline warm-start
    // comparison of `crowd-stream-bench`, replayed live on the runner.
    let pairs: Vec<(PaperDataset, Method)> = PaperDataset::ALL
        .into_iter()
        .filter(|d| d.task_type().is_categorical())
        .map(|d| (d, Method::Ds))
        .collect();
    let runner = SweepRunner::new(config.threads);
    let rows = streaming::streaming_grid(
        &pairs,
        8,
        config,
        &runner,
        &CancelToken::new(),
        progress_printer("streaming".to_string(), progress),
    );
    let mut body = Vec::new();
    for row in &rows {
        match &row.curve {
            Ok(curve) => {
                let last = curve.last().expect("non-empty curve");
                let warm: usize = curve.iter().map(|p| p.iterations_warm).sum();
                let cold: usize = curve.iter().map(|p| p.iterations_cold).sum();
                body.push(vec![
                    row.dataset.name().to_string(),
                    row.method.name().to_string(),
                    format!("{}", last.answers_seen),
                    format!("{:.2}%", 100.0 * last.accuracy_warm),
                    format!("{:.2}%", 100.0 * last.accuracy_cold),
                    warm.to_string(),
                    cold.to_string(),
                ]);
            }
            Err(e) => {
                body.push(vec![
                    row.dataset.name().to_string(),
                    row.method.name().to_string(),
                    format!("error: {e}"),
                    "×".into(),
                    "×".into(),
                    "×".into(),
                    "×".into(),
                ]);
            }
        }
    }
    println!(
        "{}",
        table(
            &[
                "Dataset",
                "Method",
                "answers",
                "warm acc",
                "cold acc",
                "warm iters",
                "cold iters",
            ],
            &body
        )
    );
}

fn run_assignment(config: &ExpConfig) {
    use crowd_experiments::extensions::assignment_comparison;
    println!("== Extension (§7(6)): task-assignment strategies at equal budget ==");
    let (methods, rows) = assignment_comparison(config);
    let mut headers: Vec<String> = vec!["Strategy".into(), "answer acc".into()];
    headers.extend(methods.iter().map(|m| m.name().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.strategy.to_string(),
                format!("{:.2}%", 100.0 * r.answer_accuracy),
            ];
            row.extend(
                r.method_accuracy
                    .iter()
                    .map(|a| format!("{:.2}%", 100.0 * a)),
            );
            row
        })
        .collect();
    println!("{}", table(&header_refs, &body));
}

fn run_advisor(config: &ExpConfig, sweeps: &mut Vec<SweepResult>) {
    use crowd_experiments::extensions::recommend_redundancy;
    const ADVISED: [Method; 3] = [Method::Mv, Method::Ds, Method::Mean];
    println!("== Extension (§7(3)): redundancy advisor (marginal gain < 1%) ==");
    let mut rows = Vec::new();
    for id in PaperDataset::ALL {
        // Sweep only the datasets no earlier fig4–6 run of this
        // invocation covered, and only the advised methods; the default
        // axes make the curves equal.
        if !sweeps.iter().any(|r| r.dataset == id) {
            sweeps.push(sweep::redundancy_sweep_of(id, &ADVISED, config));
        }
        let res = sweeps
            .iter()
            .find(|r| r.dataset == id)
            .expect("swept above");
        for method in ADVISED {
            if !res.curves.iter().any(|c| c.method == method) {
                continue;
            }
            let eps = if id.task_type().is_categorical() {
                0.01
            } else {
                0.5
            };
            let r_hat = recommend_redundancy(res, method, eps)
                .map(|r| r.to_string())
                .unwrap_or_else(|| "> max".into());
            rows.push(vec![
                id.name().to_string(),
                method.name().to_string(),
                r_hat,
            ]);
        }
    }
    println!("{}", table(&["Dataset", "Method", "r-hat"], &rows));
}

fn run_ablation(config: &ExpConfig) {
    use crowd_experiments::extensions::ablation_sweeps;
    println!("== Extension: design-choice ablations (on simulated D_Product) ==");
    for abl in ablation_sweeps(config) {
        println!("-- {} --", abl.name);
        let rows: Vec<Vec<String>> = abl
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.value),
                    format!("{:.2}%", 100.0 * p.accuracy),
                    format!("{:.3}s", p.seconds),
                ]
            })
            .collect();
        println!("{}", table(&["value", "Accuracy", "time"], &rows));
    }
}
