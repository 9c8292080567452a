//! `table6`: one cold inference per (dataset, method) cell of the paper's
//! Table 6 at scale 0.1, on one thread as `crowd_experiments::evaluate`
//! runs it. Nearly all of its time is in `methods`, `views` and
//! `kernels`; none is in `stream`, `serve` or `truth`.
//!
//! The datasets are the paper's (seed 7), so every cell's quality and
//! iteration count can be pinned; `--seed` shuffles the order of the
//! cells in every pass. The traced run also runs the view and kernel
//! probes and the paper's quick reproduction (the `experiments` layer).

use std::time::Instant;

use crowd_core::methods::{Ds, Glad, Lfc, Mv, Zc};
use crowd_core::views::Cat;
use crowd_core::{InferenceOptions, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::Dataset;

use crate::report::{self, Outcome, Values};
use crate::stats::{self, Timed};
use crate::{refloop, shuffled, trace};

const SCALE: f64 = 0.1;
const DATA_SEED: u64 = 7;
const SETUP_REPEATS: usize = 15;
/// Passes per measured half; more run while time remains.
const MIN_PASSES: usize = 3;
/// Least length of one cell's sample, and the most calls it may take.
const MIN_SAMPLE_S: f64 = 0.002;
const MAX_CALLS: usize = 200;

/// Quality (accuracy, or MAE on N_Emotion) and iterations of every cell
/// on the default build, pinned when the benchmark was created.
const PINNED: &[(&str, &str, f64, usize)] = &include!("table6_pinned.in");

/// Cells of Table 6: every (dataset, method) pair the method supports.
const CELLS: usize = 53;

struct Cell {
    dataset: usize,
    method: Method,
}

fn options() -> InferenceOptions {
    let mut o = InferenceOptions::seeded(DATA_SEED);
    o.threads = Some(1);
    o
}

fn quality(d: &Dataset, truths: &[crowd_data::Answer]) -> f64 {
    if d.task_type().is_categorical() {
        crowd_metrics::accuracy_on(d, truths, None)
    } else {
        crowd_metrics::mae_on(d, truths, None)
    }
}

fn generate() -> Vec<Dataset> {
    PaperDataset::ALL
        .iter()
        .map(|id| trace::span("data", id.name(), || id.generate(SCALE, DATA_SEED)))
        .collect()
}

/// Per-cell samples of one measured half.
struct Half {
    samples: Vec<Vec<Timed>>,
    iterations: Vec<usize>,
    from_ns: u64,
    to_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Half {
    fn new(cells: usize) -> Self {
        Self {
            samples: (0..cells).map(|_| Vec::new()).collect(),
            iterations: vec![0; cells],
            from_ns: trace::now_ns(),
            to_ns: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one inference's output against the pinned table.
    fn check(&mut self, i: usize, d: &Dataset, method: Method, result: InferResult) {
        self.attempted += 1;
        let ok = match result {
            Ok(r) => {
                self.iterations[i] = r.iterations;
                let q = quality(d, &r.truths);
                PINNED.iter().any(|&(dn, mn, pq, pi)| {
                    dn == d.name() && mn == method.name() && pq == q && pi == r.iterations
                }) || {
                    eprintln!(
                        "table6: not the pinned value: ({:?}, {:?}, {q:?}, {}),",
                        d.name(),
                        method.name(),
                        r.iterations
                    );
                    false
                }
            }
            Err(e) => {
                eprintln!("table6: {} on {} failed: {e}", method.name(), d.name());
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Check a call known only by its iteration count (`None`: it
    /// failed) against the pinned table.
    fn check_iterations(&mut self, d: &Dataset, method: Method, iterations: Option<usize>) {
        self.attempted += 1;
        let pinned = PINNED
            .iter()
            .find(|&&(dn, mn, _, _)| dn == d.name() && mn == method.name())
            .map(|&(_, _, _, pi)| pi);
        if iterations.is_none() || iterations != pinned {
            self.failed += 1;
            eprintln!(
                "table6: {} on {} ran {iterations:?} iterations, pinned {pinned:?}",
                method.name(),
                d.name()
            );
        }
    }
}

type InferResult = Result<crowd_core::InferenceResult, crowd_core::InferenceError>;

/// One untimed, checked pass that sets how many back-to-back cold
/// inferences each cell's sample takes, so that every sample lasts at
/// least `MIN_SAMPLE_S`: a single call of the cheapest cells (tens of
/// microseconds) moved by 25–50% from run to run.
fn calibrate(cells: &[Cell], data: &[Dataset], half: &mut Half) -> Vec<usize> {
    let opts = options();
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let d = &data[cell.dataset];
            let start = Instant::now();
            let result = cell.method.build().infer(d, &opts);
            let secs = start.elapsed().as_secs_f64();
            half.check(i, d, cell.method, result);
            ((MIN_SAMPLE_S / secs).ceil() as usize).clamp(1, MAX_CALLS)
        })
        .collect()
}

fn measure(
    cells: &[Cell],
    calls: &[usize],
    data: &[Dataset],
    seconds: f64,
    rng_seed: &mut u64,
    half: &mut Half,
) {
    let opts = options();
    half.from_ns = trace::now_ns();
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        *rng_seed = rng_seed.wrapping_add(1);
        let clock = refloop::HostClock::now();
        let mut pass = Vec::with_capacity(cells.len());
        let mut refs = Vec::with_capacity(cells.len());
        for i in shuffled(cells.len(), *rng_seed) {
            let cell = &cells[i];
            let d = &data[cell.dataset];
            // Every call but the last is freed inside the section and
            // leaves only its iteration count; the last is checked in full.
            let ((iterations, last), raw, reference) = refloop::around(|| {
                let mut iterations = Vec::with_capacity(calls[i]);
                let mut last = None;
                for _ in 0..calls[i] {
                    let r = trace::span("methods", cell.method.name(), || {
                        cell.method.build().infer(d, &opts)
                    });
                    if let Some(prev) = last.replace(r) {
                        iterations.push(prev.map(|p| p.iterations).ok());
                    }
                }
                (iterations, last.expect("at least one call"))
            });
            for it in iterations {
                half.check_iterations(d, cell.method, it);
            }
            half.check(i, d, cell.method, last);
            pass.push((i, raw / calls[i] as f64));
            refs.push(reference);
        }
        // One reference per pass, the median of the runs beside its
        // cells: steadier than the two runs beside any one cell.
        let reference = stats::median(&refs);
        let stolen = refloop::HostClock::now().stolen_since(&clock);
        for (i, raw) in pass {
            half.samples[i].push(Timed {
                raw,
                reference,
                stolen,
            });
        }
        passes += 1;
    }
    half.to_ns = trace::now_ns();
}

/// Per-cell medians of a half: (raw, rescaled).
fn cell_medians(half: &Half) -> Vec<(f64, f64)> {
    half.samples
        .iter()
        .map(|s| {
            let raw: Vec<f64> = s.iter().map(|t| t.raw).collect();
            let res: Vec<f64> = s.iter().map(|t| t.rescaled(refloop::NOMINAL_S)).collect();
            (stats::median(&raw), stats::median(&res))
        })
        .collect()
}

/// The end-to-end path values from the set-up times and the per-cell
/// medians: one pass, the typical cell, and the slowest quarter.
fn path_values(setup: &[f64], medians: &[f64]) -> Values {
    Values::from([
        ("setup_s".to_string(), stats::median(setup)),
        ("job_s".to_string(), medians.iter().sum()),
        ("op_typical_s".to_string(), stats::geomean(medians)),
        ("op_tail_s".to_string(), stats::slowest_quarter(medians)),
    ])
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // Set-up: the five datasets, generated several times; the median is
    // the set-up time and the last copy is used. A traced run traces its
    // set-up and its second half.
    trace::set_enabled(traced);
    let (data, setup) = refloop::repeated(SETUP_REPEATS, |_| generate());
    trace::set_enabled(false);
    let cells: Vec<Cell> = (0..data.len())
        .flat_map(|d| {
            let task_type = data[d].task_type();
            Method::ALL
                .into_iter()
                .filter(move |m| m.build().supports(task_type))
                .map(move |method| Cell { dataset: d, method })
        })
        .collect();
    if cells.len() != CELLS {
        return Err(format!(
            "expected {CELLS} Table-6 cells, found {}",
            cells.len()
        ));
    }

    let mut rng_seed = seed;
    let mut halves = vec![Half::new(cells.len())];
    let calls = calibrate(&cells, &data, &mut halves[0]);
    if traced {
        measure(
            &cells,
            &calls,
            &data,
            seconds / 2.0,
            &mut rng_seed,
            &mut halves[0],
        );
        trace::set_enabled(true);
        halves.push(Half::new(cells.len()));
        measure(
            &cells,
            &calls,
            &data,
            seconds / 2.0,
            &mut rng_seed,
            &mut halves[1],
        );
    } else {
        measure(
            &cells,
            &calls,
            &data,
            seconds,
            &mut rng_seed,
            &mut halves[0],
        );
    }
    let last = halves.last().expect("one half at least");
    let attempted = halves.iter().map(|h| h.attempted).sum();
    let failed = halves.iter().map(|h| h.failed).sum();

    let setup_res: Vec<f64> = setup
        .iter()
        .map(|t| t.rescaled(refloop::NOMINAL_S))
        .collect();
    let setup_raw: Vec<f64> = setup.iter().map(|t| t.raw).collect();
    let medians = cell_medians(last);
    let raw_medians: Vec<f64> = medians.iter().map(|m| m.0).collect();
    let res_medians: Vec<f64> = medians.iter().map(|m| m.1).collect();
    let raw = path_values(&setup_raw, &raw_medians);
    let mut e2e = path_values(&setup_res, &res_medians);
    e2e.insert("rss_peak_mb".into(), report::rss_peak_mb());

    let mut timings: Vec<String> = setup
        .iter()
        .enumerate()
        .map(|(k, t)| report::timed_json(&format!("setup#{k}"), t))
        .collect();
    for (i, s) in last.samples.iter().enumerate() {
        let label = format!(
            "{}x{}",
            cells[i].method.name(),
            data[cells[i].dataset].name()
        );
        timings.extend(s.iter().map(|t| report::timed_json(&label, t)));
    }
    report::write_details("table6", seed, traced, &e2e, &raw, &timings);

    let (mut attempted, mut failed) = (attempted, failed);
    let metrics = if traced {
        let untraced: f64 = cell_medians(&halves[0]).iter().map(|m| m.1).sum();
        let mut v = Values::new();
        probes(&data, &mut v)?;
        let (a, f) = crate::repro::traced_experiments(&mut v);
        attempted += a;
        failed += f;
        layer_values(&cells, last, &mut v);
        v.insert("trace.overhead_share".into(), e2e["job_s"] / untraced - 1.0);
        v.insert("data.generate_s".into(), e2e["setup_s"]);
        report::per_layer_values("table6", &v)?
    } else {
        report::end_to_end(&e2e)?
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer values of the traced half: every layer's spans (probes
/// included), and each method's time and iterations over its cells.
fn layer_values(cells: &[Cell], half: &Half, v: &mut Values) {
    let layers = trace::layer_report(
        &trace::spans(),
        trace::thread_id(),
        half.from_ns,
        half.to_ns,
    );
    crate::put_layer_report(v, &layers, (half.to_ns - half.from_ns) as f64 * 1e-9);

    let medians = cell_medians(half);
    for (stem, method) in report::METHOD_STEMS.iter().zip(Method::ALL) {
        let mut infer_s = 0.0;
        let mut iterations = 0;
        for (i, c) in cells.iter().enumerate() {
            if c.method == method {
                infer_s += medians[i].1;
                iterations += half.iterations[i];
            }
        }
        v.insert(format!("methods.{stem}.infer_s"), infer_s);
        v.insert(format!("methods.{stem}.iterations"), iterations as f64);
    }
}

/// The view and kernel probes.
fn probes(data: &[Dataset], v: &mut Values) -> Result<(), String> {
    // Views: `Cat::build` against the view-level EM entry points of the
    // five methods that have one, on every categorical dataset.
    let opts = options();
    let mut build_s = 0.0;
    let mut shares = Vec::new();
    for d in data.iter().filter(|d| d.task_type().is_categorical()) {
        let mut builds = Vec::new();
        let mut cat = None;
        for _ in 0..5 {
            let start = Instant::now();
            let c = trace::span("views", "Cat::build", || {
                Cat::build("perfbench", d, &opts, false)
            })
            .map_err(|e| format!("Cat::build on {}: {e}", d.name()))?;
            builds.push(start.elapsed().as_secs_f64());
            cat = Some(c);
        }
        let cat = cat.expect("five builds");
        let build = stats::median(&builds);
        build_s += build;
        let view_methods: [(&'static str, &dyn Fn() -> bool); 5] = [
            ("MV", &|| Mv.infer_view(&cat, &opts).is_ok()),
            ("ZC", &|| Zc::default().infer_view(&cat, &opts).is_ok()),
            ("GLAD", &|| Glad::default().infer_view(&cat, &opts).is_ok()),
            ("D&S", &|| Ds.infer_view(&cat, &opts).is_ok()),
            ("LFC", &|| Lfc::default().infer_view(&cat, &opts).is_ok()),
        ];
        for (name, infer) in view_methods {
            let mut times = Vec::new();
            for _ in 0..3 {
                let start = Instant::now();
                if !trace::span("methods", name, infer) {
                    return Err(format!("{name}::infer_view failed on {}", d.name()));
                }
                times.push(start.elapsed().as_secs_f64());
            }
            shares.push(build / (build + stats::median(&times)));
        }
    }
    v.insert("views.cat_build_s".into(), build_s);
    v.insert("views.build_share".into(), stats::mean(&shares));

    // Kernels: ns per element on arrays the size of S_Rel's posterior.
    let s_rel = &data[2];
    let cols = s_rel.num_choices().unwrap_or(4) as usize;
    let len = s_rel.num_tasks() * cols;
    let logs: Vec<f64> = (0..len).map(|i| -((i % 97) as f64) * 0.2).collect();
    let probs: Vec<f64> = (0..len).map(|i| ((i % 97) as f64 + 1.0) / 98.0).collect();
    let mut buf = vec![0.0; len];
    let mut out = vec![0.0; len / cols];
    let mut time_ns =
        |name: &'static str, src: &[f64], f: &mut dyn FnMut(&mut [f64], &mut [f64])| {
            let mut per = Vec::new();
            for _ in 0..25 {
                buf.copy_from_slice(src);
                let start = Instant::now();
                trace::span("kernels", name, || f(&mut buf, &mut out));
                per.push(start.elapsed().as_secs_f64() * 1e9 / len as f64);
                std::hint::black_box(&buf);
            }
            stats::median(&per)
        };
    let exp_ns = time_ns("exp_slice", &logs, &mut |b, _| {
        crowd_stats::kernels::exp_slice(b)
    });
    let ln_ns = time_ns("ln_slice", &probs, &mut |b, _| {
        crowd_stats::kernels::ln_slice(b)
    });
    let norm_ns = time_ns("log_normalize_rows_flat", &logs, &mut |b, _| {
        crowd_stats::kernels::log_normalize_rows_flat(cols, b)
    });
    let lse_ns = time_ns("log_sum_exp_rows_flat", &logs, &mut |b, o| {
        crowd_stats::kernels::log_sum_exp_rows_flat(cols, b, o)
    });
    v.insert("kernels.exp_slice_ns".into(), exp_ns);
    v.insert("kernels.ln_slice_ns".into(), ln_ns);
    v.insert("kernels.log_normalize_rows_flat_ns".into(), norm_ns);
    v.insert("kernels.log_sum_exp_rows_flat_ns".into(), lse_ns);
    Ok(())
}
