//! `crowd-kernels-bench` — microbenchmarks for the batched
//! transcendental kernels (`crowd_stats::kernels`).
//!
//! Times each kernel over a large contiguous buffer (and the scalar-std
//! per-element loops they replaced, for comparison) and writes a
//! `BENCH_kernels.json` artifact. Buffers are sized so one sweep costs
//! on the order of a millisecond, well above timer jitter.
//!
//! The `crowd-bench/kernels/v2` schema records a *backend matrix*: in a
//! `fast-math` build with AVX2+FMA available, every kernel row is
//! measured twice — once on the `fast-math-avx2` leg and once with the
//! vector unit vetoed (`fast-math-scalar`, via the same runtime switch
//! `CROWD_FORCE_SCALAR` flips) — and each row carries its `backend`,
//! `lanes` and `ns_per_elem`, so the legs can be compared row by row.
//!
//! Configuration (environment variables, all optional):
//!
//! - `CROWD_BENCH_REPEATS` — timed repeats per op (default `5`; the
//!   minimum is the reported number).
//! - `CROWD_KERNELS_OUT`   — output path (default `BENCH_kernels.json`).
//!
//! Usage: `cargo run --release -p crowd-bench --features fast-math --bin crowd-kernels-bench`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crowd_stats::kernels::{self, fused};
use crowd_stats::DMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Elements per buffer: one exp sweep ≈ 1–2 ms, comfortably above timer
/// jitter.
const N: usize = 1 << 18;
/// Cache-resident working set for the slice-transcendental rows
/// (128 KB of f64 — fits L2 alongside its input copy). The ns/elem
/// figure prices *kernel* throughput; with a streaming 2 MB buffer the
/// SIMD rows bottom out on host DRAM bandwidth instead (≈3 bytes moved
/// per flop at 2 ns/elem), which on a shared VM host varies by tens of
/// percent run to run. The timed sweep re-runs the kernel over one
/// L2-resident chunk until it has processed `N` elements, so the row
/// keeps the millisecond scale while measuring the vector cores.
const CHUNK: usize = 1 << 14;
/// Posterior-row width for the row-wise ops (the benchmark datasets
/// have ℓ ∈ {2, 3, 4}; 4 is the widest hot case).
const COLS: usize = 4;
/// Answers gathered per synthetic posterior row in the fused E-step op —
/// the Table 6 datasets average 3–10 answers per task.
const ANSWERS_PER_ROW: usize = 8;

struct Row {
    op: &'static str,
    n: usize,
    backend: &'static str,
    lanes: usize,
    seconds_min: f64,
    seconds_mean: f64,
}

impl Row {
    fn ns_per_elem(&self) -> f64 {
        self.seconds_min / self.n as f64 * 1e9
    }
}

fn time_op(repeats: usize, mut f: impl FnMut()) -> (f64, f64) {
    // One untimed warm-up settles page faults and the branch caches.
    f();
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (min, mean)
}

fn main() {
    let repeats = crowd_bench::env_repeats(5);
    let out_path =
        std::env::var("CROWD_KERNELS_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string());

    // Backend legs. `force_scalar(false)` clears any ambient veto so the
    // primary leg is whatever the build + machine can do; when that is
    // the AVX2 leg, a second pass re-measures everything with the vector
    // unit vetoed, so the scalar-polynomial fallback stays pinned too.
    kernels::force_scalar(false);
    let mut legs = vec![false];
    if kernels::backend_name() == "fast-math-avx2" {
        legs.push(true);
    }
    eprintln!(
        "crowd-kernels-bench: backend={} lanes={} legs={} repeats={repeats} out={out_path}",
        kernels::backend_name(),
        kernels::lanes_active(),
        legs.len(),
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Log-domain magnitudes typical of the E-steps: posteriors clamp at
    // ln(1e-12) ≈ −27.6, multipliers at ±6.
    let log_inputs: Vec<f64> = (0..N).map(|_| rng.gen_range(-28.0..0.0)).collect();
    let prob_inputs: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
    let weights: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
    // Synthetic E-step shape for the fused posterior op: a log-confusion
    // table and per-row gather bases with room for the ℓ·ℓ stride walk.
    let table: Vec<f64> = (0..4096).map(|_| rng.gen_range(-28.0..0.0)).collect();
    let bases: Vec<usize> = (0..(N / COLS) * ANSWERS_PER_ROW)
        .map(|_| rng.gen_range(0..table.len() - (COLS - 1) * COLS - 1))
        .collect();
    let log_prior = vec![-1.386_294_361_119_890_6_f64; COLS]; // ln(1/4)
    let mut scratch = vec![0.0f64; N];
    let mut rows = DMat::zeros(N / COLS, COLS);

    let mut results: Vec<Row> = Vec::new();

    // The std-library reference loops (what the methods paid per element
    // before the kernel layer) do not dispatch, so they are measured
    // once, outside the leg loop.
    {
        let mut bench_ref = |op: &'static str, f: &mut dyn FnMut()| {
            let (min, mean) = time_op(repeats, f);
            eprintln!(
                "  {op:<26} [std             ] {:>9.3} ms  ({:>6.2} ns/elem)",
                min * 1e3,
                min / N as f64 * 1e9
            );
            results.push(Row {
                op,
                n: N,
                backend: "std",
                lanes: 1,
                seconds_min: min,
                seconds_mean: mean,
            });
        };
        bench_ref("exp_scalar_std", &mut || {
            scratch.copy_from_slice(&log_inputs);
            for x in scratch.iter_mut() {
                *x = x.exp();
            }
            black_box(scratch[N / 2]);
        });
        bench_ref("safe_ln_scalar_std", &mut || {
            scratch.copy_from_slice(&prob_inputs);
            for x in scratch.iter_mut() {
                *x = x.max(1e-12).ln();
            }
            black_box(scratch[N / 2]);
        });
    }

    for force in legs {
        kernels::force_scalar(force);
        let backend = kernels::backend_name();
        let lanes = kernels::lanes_active();

        let mut bench = |op: &'static str, f: &mut dyn FnMut()| {
            let (min, mean) = time_op(repeats, f);
            eprintln!(
                "  {op:<26} [{backend:<16}] {:>9.3} ms  ({:>6.2} ns/elem)",
                min * 1e3,
                min / N as f64 * 1e9
            );
            results.push(Row {
                op,
                n: N,
                backend,
                lanes,
                seconds_min: min,
                seconds_mean: mean,
            });
        };

        // Batched kernels, cache-resident (see `CHUNK`).
        bench("exp_slice", &mut || {
            for _ in 0..N / CHUNK {
                let s = &mut scratch[..CHUNK];
                s.copy_from_slice(&log_inputs[..CHUNK]);
                kernels::exp_slice(s);
            }
            black_box(scratch[CHUNK / 2]);
        });
        bench("ln_slice", &mut || {
            for _ in 0..N / CHUNK {
                let s = &mut scratch[..CHUNK];
                s.copy_from_slice(&prob_inputs[..CHUNK]);
                kernels::ln_slice(s);
            }
            black_box(scratch[CHUNK / 2]);
        });
        bench("safe_ln_slice", &mut || {
            for _ in 0..N / CHUNK {
                let s = &mut scratch[..CHUNK];
                s.copy_from_slice(&prob_inputs[..CHUNK]);
                kernels::safe_ln_slice(s);
            }
            black_box(scratch[CHUNK / 2]);
        });
        bench("sigmoid_slice", &mut || {
            for _ in 0..N / CHUNK {
                let s = &mut scratch[..CHUNK];
                s.copy_from_slice(&log_inputs[..CHUNK]);
                kernels::sigmoid_slice(s);
            }
            black_box(scratch[CHUNK / 2]);
        });
        bench("log_sum_exp_rows", &mut || {
            let mut acc = 0.0;
            for chunk in log_inputs.chunks_exact(COLS) {
                acc += kernels::log_sum_exp(chunk);
            }
            black_box(acc);
        });
        // The before/after pin for the fused whole-matrix normalize: the
        // unfused row reproduces the per-row `log_normalize` loop the
        // matrix walk used to be (one dispatch and two heap-free but
        // separate exp passes per 4-wide row), the fused row is the
        // shipping `log_normalize_rows` (packed rows on the AVX2 leg,
        // staged four-row blocks on the scalar legs).
        bench("log_normalize_rows_unfused", &mut || {
            rows.data_mut().copy_from_slice(&log_inputs);
            for r in 0..rows.rows() {
                kernels::log_normalize(rows.row_mut(r));
            }
            black_box(rows.row(0)[0]);
        });
        bench("log_normalize_rows", &mut || {
            rows.data_mut().copy_from_slice(&log_inputs);
            kernels::log_normalize_rows(&mut rows);
            black_box(rows.row(0)[0]);
        });
        // The fused E-step centrepiece: prior init + strided gather +
        // log-sum-exp + normalize in one pass per posterior row.
        bench("fused_posterior_rows", &mut || {
            fused::fused_posterior_rows(rows.data_mut(), &log_prior, &table, |r| {
                Some(
                    bases[r * ANSWERS_PER_ROW..(r + 1) * ANSWERS_PER_ROW]
                        .iter()
                        .copied(),
                )
            });
            black_box(rows.row(0)[0]);
        });
        bench("weighted_log_dot", &mut || {
            black_box(kernels::weighted_log_dot(&weights, &prob_inputs));
        });
    }
    kernels::force_scalar(false);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"crowd-bench/kernels/v2\",");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"obs\": {},", crowd_obs::snapshot().to_json());
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"op\": \"{}\", \"n\": {}, \"backend\": \"{}\", \"lanes\": {}, \
             \"seconds_min\": {:.6}, \"seconds_mean\": {:.6}, \"ns_per_elem\": {:.3}}}{}",
            r.op,
            r.n,
            r.backend,
            r.lanes,
            r.seconds_min,
            r.seconds_mean,
            r.ns_per_elem(),
            comma
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write kernels bench output");
    eprintln!(
        "crowd-kernels-bench: wrote {} rows to {out_path}",
        results.len()
    );
}
