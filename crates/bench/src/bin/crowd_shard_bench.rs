//! `crowd-shard-bench` — the sharded-substrate scaling sweep.
//!
//! Streams deterministic synthetic datasets of growing size (10⁴ to 10⁷
//! tasks at scale 1, multiplied by `CROWD_BENCH_SCALE`) straight into a
//! [`ShardedView`] — the two-pass `from_records` build regenerates the
//! stream rather than materialising the answer log — and runs a
//! fixed-iteration D&S
//! converge per shard count. Reported per `(tasks, shards)` cell:
//! answers/sec through the sharded EM path, build time, and accuracy
//! against the generator's latent truth.
//!
//! The headline `scaling_flat` boolean records that per shard count,
//! throughput at the largest dataset held at least [`FLATNESS_FLOOR`] of
//! the smallest dataset's — "flat or better". The generous factor
//! absorbs the cache-hierarchy falloff of working sets outgrowing LLC;
//! what it must catch is the failure mode that matters, accidentally
//! superlinear work (an O(n²) regression craters the ratio by orders of
//! magnitude). The binary exits non-zero when it is false, which makes
//! it the `shard-scaling` CI gate: both throughputs come from one run,
//! so it needs no baseline.
//!
//! The sweep also asserts outright that every shard count of a given
//! size decodes the same truths — the bit-identity contract, enforced on
//! every run, not just in the unit suite.
//!
//! Configuration (environment variables, all optional):
//!
//! - `CROWD_BENCH_SCALE` — size multiplier in `(0, 1]` (default `0.1`,
//!   i.e. 10³–10⁶ tasks).
//! - `CROWD_BENCH_REPEATS` — timed converges per cell after one warm-up
//!   (default `2`); the fastest is reported.
//! - `CROWD_SHARD_OUT` — output path (default `BENCH_shard.json`).
//!
//! Usage: `cargo run --release -p crowd-bench --bin crowd-shard-bench`

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crowd_core::methods::Ds;
use crowd_core::views::ShardedView;
use crowd_core::{InferenceOptions, TruthInference};
use crowd_data::{Answer, StreamSim};

/// Dataset sizes (tasks at scale 1) — the 10⁴–10⁷ axis.
const TASK_SIZES: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// Shard counts per size.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Answers per task in the synthetic stream.
const REDUNDANCY: usize = 3;

/// Label choices.
const CHOICES: u8 = 3;

/// Fixed outer iterations per converge (the tolerance below is
/// unreachably small, so every cell runs exactly this many iterations
/// and answers/sec is comparable across sizes).
const ITERATIONS: usize = 5;

/// `scaling_flat` floor: largest-size throughput must hold this fraction
/// of smallest-size throughput, per shard count.
const FLATNESS_FLOOR: f64 = 0.35;

struct Row {
    tasks: usize,
    shards: usize,
    workers: usize,
    answers: usize,
    seconds_build: f64,
    seconds_total: f64,
    answers_per_sec: f64,
    accuracy_mean: f64,
}

fn main() -> ExitCode {
    let scale = crowd_bench::env_scale(0.1);
    let out_path =
        std::env::var("CROWD_SHARD_OUT").unwrap_or_else(|_| "BENCH_shard.json".to_string());
    let repeats = crowd_bench::env_repeats(2);
    eprintln!("crowd-shard-bench: scale={scale} repeats={repeats} out={out_path}");

    let mut options = InferenceOptions::seeded(7);
    options.max_iterations = ITERATIONS;
    // ConvergenceTracker requires a positive threshold; the smallest
    // positive double can never be reached, pinning the iteration count.
    options.tolerance = f64::MIN_POSITIVE;

    let sweep_start = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let mut scaling_flat = true;

    for size in TASK_SIZES {
        let tasks = ((size as f64 * scale).round() as usize).max(100);
        // Worker pool grows with the task count (long-tail participation
        // is out of scope here — the sweep prices the substrate, not the
        // crowd model).
        let workers = (tasks / 20).max(50);
        let sim = StreamSim::new(11, tasks, workers, CHOICES, REDUNDANCY);
        eprintln!("  n={tasks} (|W|={workers}, |V|={})", sim.num_answers());
        let mut truths_at_size: Option<Vec<Answer>> = None;

        for shards in SHARD_COUNTS {
            let build_start = Instant::now();
            let view = ShardedView::from_records(
                tasks,
                workers,
                CHOICES as usize,
                shards,
                sim.records(),
                vec![None; tasks],
            );
            let seconds_build = build_start.elapsed().as_secs_f64();

            let mut seconds_total = f64::INFINITY;
            let mut result = None;
            for _ in 0..=repeats {
                let start = Instant::now();
                let r = Ds.infer_sharded(&view, &options).expect("valid view");
                let elapsed = start.elapsed().as_secs_f64();
                if result.is_none() {
                    result = Some(r); // warm-up run, untimed
                } else {
                    seconds_total = seconds_total.min(elapsed);
                    result = Some(r);
                }
            }
            let result = result.expect("at least one converge");

            // Bit-identity, enforced on every run: each shard count must
            // decode the same truths for the same data.
            match &truths_at_size {
                None => truths_at_size = Some(result.truths.clone()),
                Some(reference) => assert_eq!(
                    reference, &result.truths,
                    "shard count {shards} diverged from shard count {} at n={tasks}",
                    SHARD_COUNTS[0]
                ),
            }

            let accuracy_mean = (0..tasks)
                .filter(|&t| result.truths[t] == Answer::Label(sim.truth(t)))
                .count() as f64
                / tasks as f64;
            let answers_per_sec = sim.num_answers() as f64 / seconds_total.max(1e-12);
            eprintln!(
                "    shards={shards:>2}: {answers_per_sec:>12.0} answers/s \
                 (converge {:>8.3} ms, build {:>8.3} ms, accuracy {accuracy_mean:.4})",
                seconds_total * 1e3,
                seconds_build * 1e3,
            );
            rows.push(Row {
                tasks,
                shards,
                workers,
                answers: sim.num_answers(),
                seconds_build,
                seconds_total,
                answers_per_sec,
                accuracy_mean,
            });
        }
    }

    // Flatness per shard count: smallest vs largest size.
    for shards in SHARD_COUNTS {
        let per_size: Vec<&Row> = rows.iter().filter(|r| r.shards == shards).collect();
        let (first, last) = (per_size[0], per_size[per_size.len() - 1]);
        let ratio = last.answers_per_sec / first.answers_per_sec.max(1e-12);
        if ratio < FLATNESS_FLOOR {
            scaling_flat = false;
            eprintln!(
                "  FAILED: shards={shards} throughput fell to {ratio:.3}× of the smallest \
                 size's ({:.0} vs {:.0} answers/s) — below the {FLATNESS_FLOOR} floor",
                last.answers_per_sec, first.answers_per_sec
            );
        }
    }

    let total_seconds = sweep_start.elapsed().as_secs_f64();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"crowd-bench/shard/v1\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"method\": \"D&S\",");
    let _ = writeln!(json, "  \"iterations\": {ITERATIONS},");
    let _ = writeln!(json, "  \"total_seconds\": {total_seconds:.6},");
    let _ = writeln!(json, "  \"scaling_flat\": {scaling_flat},");
    let _ = writeln!(json, "  \"obs\": {},", crowd_obs::snapshot().to_json());
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"tasks\": {}, \"shards\": {}, \"workers\": {}, \"answers\": {}, \
             \"seconds_build\": {:.6}, \"seconds_total\": {:.6}, \"answers_per_sec\": {:.1}, \
             \"accuracy_mean\": {:.6}}}{}",
            r.tasks,
            r.shards,
            r.workers,
            r.answers,
            r.seconds_build,
            r.seconds_total,
            r.answers_per_sec,
            r.accuracy_mean,
            comma
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write shard bench output");
    eprintln!(
        "crowd-shard-bench: wrote {} rows to {out_path} in {total_seconds:.1}s \
         (scaling flat: {scaling_flat})",
        rows.len()
    );
    if scaling_flat {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
