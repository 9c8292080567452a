//! `crowd-stream-bench` — the machine-readable streaming sweep.
//!
//! For every categorical Table-6 dataset, a uniform collection run is
//! replayed as a live answer stream at several batch sizes; after each
//! batch the engine re-converges **cold** (from majority vote — the
//! restart-from-scratch baseline) and **warm** (from the previous
//! converged state — the `crowd-stream` path). The output pins the two
//! headline numbers of the streaming subsystem: iterations-to-reconverge
//! and wall clock per batch, warm vs cold.
//!
//! Configuration (environment variables, all optional):
//!
//! - `CROWD_BENCH_SCALE` — dataset scale in `(0, 1]` (default `0.1`);
//!   CI smoke passes use `0.02`.
//! - `CROWD_STREAM_OUT` — output path (default `BENCH_stream.json`).
//!
//! Usage: `cargo run --release -p crowd-bench --bin crowd-stream-bench`

use std::fmt::Write as _;
use std::time::Instant;

use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_data::{collect, AssignmentStrategy, StreamSession};
use crowd_metrics::accuracy;
use crowd_stream::{StreamConfig, StreamEngine};

/// Batch counts per stream: the per-batch wall clock is reported for
/// each, satisfying the "≥ 3 batch sizes" axis of the sweep.
const BATCH_COUNTS: [usize; 3] = [8, 32, 128];

/// Methods measured per dataset; D&S is the paper's recommended method
/// and the headline row, ZC the cheap single-parameter EM contrast.
const METHODS: [Method; 2] = [Method::Ds, Method::Zc];

struct Row {
    dataset: &'static str,
    method: &'static str,
    batches: usize,
    batch_size: usize,
    answers: usize,
    iterations_warm_total: usize,
    iterations_cold_total: usize,
    seconds_warm_total: f64,
    seconds_cold_total: f64,
    accuracy_warm: f64,
    accuracy_cold: f64,
}

fn main() {
    let scale = crowd_bench::env_scale(0.1);
    let out_path =
        std::env::var("CROWD_STREAM_OUT").unwrap_or_else(|_| "BENCH_stream.json".to_string());
    eprintln!("crowd-stream-bench: scale={scale} out={out_path}");

    let sweep_start = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let mut warm_wins_everywhere = true;

    for dataset_id in PaperDataset::ALL {
        if !dataset_id.task_type().is_categorical() {
            continue;
        }
        let sim_cfg = dataset_id.config(scale);
        let budget = sim_cfg.num_tasks * sim_cfg.redundancy.max(1);
        let run = collect(&sim_cfg, AssignmentStrategy::Uniform, budget, 7)
            .expect("categorical Table-6 config");
        let dataset = &run.dataset;
        eprintln!(
            "  {} (n={}, |W|={}, |V|={})",
            dataset_id.name(),
            dataset.num_tasks(),
            dataset.num_workers(),
            dataset.num_answers()
        );

        for method in METHODS {
            for batches in BATCH_COUNTS {
                let batch_size = dataset.num_answers().div_ceil(batches).max(1);
                let mut engine = StreamEngine::new(StreamConfig::new(
                    method,
                    dataset.task_type(),
                    dataset.num_tasks(),
                    dataset.num_workers(),
                ))
                .expect("streaming session");
                let mut row = Row {
                    dataset: dataset_id.name(),
                    method: method.name(),
                    batches: 0,
                    batch_size,
                    answers: dataset.num_answers(),
                    iterations_warm_total: 0,
                    iterations_cold_total: 0,
                    seconds_warm_total: 0.0,
                    seconds_cold_total: 0.0,
                    accuracy_warm: 0.0,
                    accuracy_cold: 0.0,
                };
                for batch in StreamSession::replay(&run, batch_size) {
                    engine.push_batch(&batch.records).expect("valid replay");
                    // Sync the view outside the timed sections so both
                    // paths measure pure re-convergence, and alternate the
                    // measurement order per round so neither path
                    // systematically inherits the other's warmed caches.
                    engine.sync_shards();
                    let (cold, warm) = if batch.round % 2 == 0 {
                        let start = Instant::now();
                        let cold = engine.converge_cold().expect("cold converge");
                        row.seconds_cold_total += start.elapsed().as_secs_f64();
                        let start = Instant::now();
                        let warm = engine.converge().expect("warm converge");
                        row.seconds_warm_total += start.elapsed().as_secs_f64();
                        (cold, warm)
                    } else {
                        let start = Instant::now();
                        let warm = engine.converge().expect("warm converge");
                        row.seconds_warm_total += start.elapsed().as_secs_f64();
                        let start = Instant::now();
                        let cold = engine.converge_cold().expect("cold converge");
                        row.seconds_cold_total += start.elapsed().as_secs_f64();
                        (cold, warm)
                    };
                    row.iterations_warm_total += warm.result.iterations;
                    row.iterations_cold_total += cold.result.iterations;
                    row.accuracy_warm = accuracy(dataset, &warm.result.truths);
                    row.accuracy_cold = accuracy(dataset, &cold.result.truths);
                    row.batches += 1;
                }
                eprintln!(
                    "    {:<4} batches={:>3}: iters warm {:>4} vs cold {:>4}; per-batch {:>8.3} ms vs {:>8.3} ms",
                    row.method,
                    row.batches,
                    row.iterations_warm_total,
                    row.iterations_cold_total,
                    row.seconds_warm_total / row.batches as f64 * 1e3,
                    row.seconds_cold_total / row.batches as f64 * 1e3,
                );
                if row.iterations_warm_total >= row.iterations_cold_total {
                    warm_wins_everywhere = false;
                    eprintln!(
                        "    WARNING: warm did not beat cold on {} / {} at {} batches",
                        row.dataset, row.method, row.batches
                    );
                }
                rows.push(row);
            }
        }
    }

    let total_seconds = sweep_start.elapsed().as_secs_f64();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"crowd-bench/stream/v1\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"total_seconds\": {total_seconds:.6},");
    let _ = writeln!(
        json,
        "  \"warm_fewer_iterations_everywhere\": {warm_wins_everywhere},"
    );
    let _ = writeln!(json, "  \"obs\": {},", crowd_obs::snapshot().to_json());
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"method\": \"{}\", \"batches\": {}, \"batch_size\": {}, \"answers\": {}, \"iterations_warm_total\": {}, \"iterations_cold_total\": {}, \"seconds_warm_total\": {:.6}, \"seconds_cold_total\": {:.6}, \"seconds_warm_per_batch_mean\": {:.6}, \"seconds_cold_per_batch_mean\": {:.6}, \"accuracy_warm\": {:.6}, \"accuracy_cold\": {:.6}}}{}",
            r.dataset.replace('"', "\\\""),
            r.method.replace('"', "\\\""),
            r.batches,
            r.batch_size,
            r.answers,
            r.iterations_warm_total,
            r.iterations_cold_total,
            r.seconds_warm_total,
            r.seconds_cold_total,
            r.seconds_warm_total / r.batches.max(1) as f64,
            r.seconds_cold_total / r.batches.max(1) as f64,
            r.accuracy_warm,
            r.accuracy_cold,
            comma
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write stream bench output");
    eprintln!(
        "crowd-stream-bench: wrote {} rows to {out_path} in {total_seconds:.1}s (warm beats cold everywhere: {warm_wins_everywhere})",
        rows.len()
    );
}
