//! `crowd-serve-bench` — the multi-session service sweep.
//!
//! Measures `crowd-serve` on a sessions × batch-count grid: S concurrent
//! sessions each replay an independent uniform collection run of the
//! D_Product configuration (distinct seeds — distinct streams of the
//! same shape) through the sharded service, one drain tick per round of
//! submissions. Reported per cell: end-to-end wall time, ingest
//! throughput, per-tick latency, and the mean final accuracy across
//! sessions.
//!
//! Each cell is measured in four **modes** (the `mode` row field):
//!
//! - `mem` — durability off; the pure in-memory service.
//! - `wal` — per-session write-ahead logging and snapshot checkpoints
//!   on (`FsyncPolicy::Never`, so the row isolates the WAL's
//!   serialisation + buffered-write overhead from the host's fsync
//!   latency, which is a per-deployment durability/throughput knob —
//!   see ARCHITECTURE.md; the fsync policies themselves are covered by
//!   the durability test suite). The top-level `wal_overhead_max_ratio`
//!   is the largest `wal`/`mem` wall-time ratio over the grid.
//! - `recovery` — wall time for `CrowdServe::recover` to rebuild every
//!   session of the cell from the logs the `wal` run left behind
//!   (snapshot fast path + WAL tail replay). `answers_total` is the
//!   answer count restored, so `throughput_answers_per_sec` reads as
//!   recovery bandwidth; accuracy is measured on the *recovered*
//!   sessions (bit-identical recovery is pinned by the durability
//!   suite).
//! - `mixed` — the read path under a mixed workload: one
//!   writer thread per session submits each round while 4 reader
//!   threads poll `TruthReader::snapshot` round-robin over the cell's
//!   sessions, for the whole replay (converges in flight) and then
//!   against the idle service. The row reports busy/idle read p50/p99
//!   (sampled every 64th read) and aggregate `reads_per_sec`. That no
//!   read waits on a converge is pinned by the serve unit test
//!   `wedged_converge_never_stalls_readers_or_stats`.
//!
//! Each `mem` cell is additionally re-run with `crowd-obs` recording
//! switched off (`crowd_obs::set_enabled(false)`) — the A/B that prices
//! the observability spine. The top-level `obs_overhead_ratio` is the
//! metrics-on over metrics-off wall time of the whole mem sweep (single
//! ~10ms cells are too noisy to read alone); `obs_overhead_max_ratio`
//! reports the noisiest single cell. The final registry snapshot is
//! embedded under `"obs"`, which `crowd-obs-check` validates
//! structurally in CI.
//!
//! Configuration (environment variables, all optional):
//!
//! - `CROWD_BENCH_SCALE` — dataset scale in `(0, 1]` (default `0.1`);
//!   CI smoke passes use `0.02`.
//! - `CROWD_BENCH_REPEATS` — timed replays per cell after one warm-up
//!   (default `3`); the fastest is reported.
//! - `CROWD_SERVE_OUT` — output path (default `BENCH_serve.json`).
//!
//! Usage: `cargo run --release -p crowd-bench --bin crowd-serve-bench`

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_data::{collect, AnswerRecord, AssignmentStrategy, Dataset, StreamSession};
use crowd_metrics::accuracy;
use crowd_serve::{CrowdServe, DurabilityConfig, FsyncPolicy, ServeConfig, TruthReader};
use crowd_stream::StreamConfig;

/// Concurrent-session counts (the service must sustain ≥ 8).
const SESSION_COUNTS: [usize; 4] = [1, 2, 8, 16];

/// Batches each session's stream is split into.
const BATCH_COUNTS: [usize; 2] = [8, 32];

/// Reader threads in the `mixed` mode (the ISSUE's acceptance bound is
/// stated for 4 readers).
const READER_THREADS: usize = 4;

/// Latency-sample cadence: every Nth read is individually timed. The
/// untimed reads still count toward `reads_per_sec`, so the throughput
/// figure is not distorted by `Instant::now` overhead on every call.
const SAMPLE_EVERY: u64 = 64;

/// Reads per thread in the idle phase (fixed count — the idle p99 is the
/// reference the busy p99 is read against, so it needs enough samples
/// to be stable, but should not dominate the sweep's wall time).
const IDLE_READS_PER_THREAD: u64 = 100_000;

/// Snapshot cadence for the durable modes. Chosen so the batch counts
/// (8 and 32) are not multiples of it: the final converge frame is then
/// never covered by a snapshot, and the recovered sessions always carry
/// a replayed last report to measure accuracy on.
const SNAPSHOT_EVERY: u64 = 3;

struct Tenant {
    dataset: Dataset,
    batches: Vec<Vec<AnswerRecord>>,
}

struct Row {
    mode: &'static str,
    sessions: usize,
    batches: usize,
    batch_size: usize,
    answers_total: usize,
    ticks: usize,
    seconds_total: f64,
    seconds_per_tick_mean: f64,
    seconds_per_tick_max: f64,
    throughput: f64,
    accuracy_mean: f64,
    /// Read-path measurements; present only on `mixed` rows.
    mixed: Option<MixedStats>,
}

/// The `mixed` mode's read-path measurements.
struct MixedStats {
    reads_total: u64,
    reads_per_sec: f64,
    read_p50_seconds: f64,
    read_p99_seconds: f64,
    read_p50_seconds_idle: f64,
    read_p99_seconds_idle: f64,
}

/// Nearest-rank percentile (q in [0, 1]); sorts in place.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// One reader thread's loop: poll `snapshot()` round-robin over the
/// cell's sessions until `stop` is raised or `max_reads` is reached.
/// Returns the read count and the sampled per-read latencies.
fn poll_readers(readers: &[TruthReader], stop: &AtomicBool, max_reads: u64) -> (u64, Vec<f64>) {
    let mut reads = 0u64;
    let mut samples = Vec::with_capacity(4096);
    while reads < max_reads && !stop.load(Ordering::Relaxed) {
        let reader = &readers[(reads % readers.len() as u64) as usize];
        if reads.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            std::hint::black_box(reader.snapshot());
            samples.push(t.elapsed().as_secs_f64());
        } else {
            std::hint::black_box(reader.snapshot());
        }
        reads += 1;
    }
    (reads, samples)
}

fn durable_cfg(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        snapshot_every_converges: SNAPSHOT_EVERY,
        max_session_restarts: 3,
    }
}

fn main() {
    let scale = crowd_bench::env_scale(0.1);
    let out_path =
        std::env::var("CROWD_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let repeats = crowd_bench::env_repeats(3);
    eprintln!("crowd-serve-bench: scale={scale} repeats={repeats} out={out_path}");

    let dataset_id = PaperDataset::DProduct;
    let sim_cfg = dataset_id.config(scale);
    let budget = sim_cfg.num_tasks * sim_cfg.redundancy.max(1);
    let max_sessions = *SESSION_COUNTS.iter().max().unwrap();

    let wal_root = std::env::temp_dir().join(format!("crowd-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    std::fs::create_dir_all(&wal_root).expect("create WAL scratch dir");

    // One replayable stream per potential tenant, generated once.
    let tenants: Vec<Tenant> = (0..max_sessions)
        .map(|s| {
            let run = collect(&sim_cfg, AssignmentStrategy::Uniform, budget, 7 + s as u64)
                .expect("categorical Table-6 config");
            Tenant {
                dataset: run.dataset,
                batches: Vec::new(), // per-cell split below
            }
        })
        .collect();

    let sweep_start = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let mut wal_ratio_max = 0.0f64;
    let mut obs_on_total = 0.0f64;
    let mut obs_off_total = 0.0f64;
    let mut obs_ratio_max = 0.0f64;
    // The A/B below flips the process-global switch; make sure the sweep
    // starts (and every durable-mode row runs) with recording on.
    crowd_obs::set_enabled(true);

    for sessions in SESSION_COUNTS {
        for batches in BATCH_COUNTS {
            let mut cell_tenants: Vec<Tenant> = Vec::new();
            for t in tenants.iter().take(sessions) {
                let batch_size = t.dataset.num_answers().div_ceil(batches).max(1);
                cell_tenants.push(Tenant {
                    dataset: t.dataset.clone(),
                    batches: StreamSession::from_dataset(&t.dataset, batch_size)
                        .map(|b| b.records)
                        .collect(),
                });
            }
            let batch_size = cell_tenants[0]
                .dataset
                .num_answers()
                .div_ceil(batches)
                .max(1);

            // One full replay of the cell through a fresh service;
            // deterministic in everything but wall clock. With a WAL
            // directory the same schedule additionally logs every batch
            // and converge and snapshots on cadence.
            let run_cell = |wal_dir: Option<&Path>| {
                let serve = CrowdServe::new(ServeConfig {
                    shards: sessions.min(8),
                    durability: wal_dir.map(durable_cfg),
                    ..ServeConfig::default()
                })
                .expect("valid config");
                let ids: Vec<_> = cell_tenants
                    .iter()
                    .map(|t| {
                        serve
                            .create_session(StreamConfig::new(
                                Method::Ds,
                                t.dataset.task_type(),
                                t.dataset.num_tasks(),
                                t.dataset.num_workers(),
                            ))
                            .expect("valid session")
                    })
                    .collect();
                let rounds = cell_tenants.iter().map(|t| t.batches.len()).max().unwrap();
                let mut answers_total = 0usize;
                let mut tick_seconds: Vec<f64> = Vec::with_capacity(rounds);
                let start = Instant::now();
                for round in 0..rounds {
                    for (k, t) in cell_tenants.iter().enumerate() {
                        if let Some(batch) = t.batches.get(round) {
                            serve.submit(ids[k], batch.clone()).expect("in capacity");
                        }
                    }
                    let tick_start = Instant::now();
                    let tick = serve.drain_tick();
                    tick_seconds.push(tick_start.elapsed().as_secs_f64());
                    answers_total += tick.answers_ingested;
                    assert_eq!(tick.shard_failures, 0, "shard drain failed");
                    assert!(tick.errors.is_empty(), "replay is valid: {:?}", tick.errors);
                }
                let seconds_total = start.elapsed().as_secs_f64();
                let accuracy_mean = cell_tenants
                    .iter()
                    .zip(&ids)
                    .map(|(t, &sid)| {
                        let snap = serve.truth(sid).expect("session alive");
                        let report = snap.report.as_ref().expect("converged");
                        accuracy(&t.dataset, &report.result.truths)
                    })
                    .sum::<f64>()
                    / sessions as f64;
                (seconds_total, tick_seconds, answers_total, accuracy_mean)
            };

            let push_row = |rows: &mut Vec<Row>,
                            mode: &'static str,
                            measured: (f64, Vec<f64>, usize, f64),
                            mixed: Option<MixedStats>| {
                let (seconds_total, tick_seconds, answers_total, accuracy_mean) = measured;
                let ticks = tick_seconds.len();
                let row = Row {
                    mode,
                    sessions,
                    batches,
                    batch_size,
                    answers_total,
                    ticks,
                    seconds_total,
                    seconds_per_tick_mean: if ticks == 0 {
                        0.0
                    } else {
                        tick_seconds.iter().sum::<f64>() / ticks as f64
                    },
                    seconds_per_tick_max: tick_seconds.iter().cloned().fold(0.0, f64::max),
                    throughput: answers_total as f64 / seconds_total.max(1e-12),
                    accuracy_mean,
                    mixed,
                };
                eprintln!(
                    "  {:<8} sessions={:>2} batches={:>3}: {:>9.1} answers/s, total {:>8.3} ms, \
                     accuracy {:.4}",
                    row.mode,
                    row.sessions,
                    row.batches,
                    row.throughput,
                    row.seconds_total * 1e3,
                    row.accuracy_mean,
                );
                rows.push(row);
                seconds_total
            };

            // Warm up once, then keep the fastest of `repeats` replays —
            // single measurements of a ~10ms cell are dominated by
            // cold-start noise.
            run_cell(None);
            // The mem measurement doubles as the observability A/B: each
            // repeat replays the cell twice, once with `crowd-obs`
            // recording on and once off, in alternating order so slow
            // environmental drift (CPU frequency, noisy neighbours) hits
            // both sides equally instead of biasing whichever side ran
            // last. Min per side, like every other timing in the file.
            // The off-side is not pushed as a row; it enters only the
            // overhead ratios.
            let mut mem: Option<(f64, Vec<f64>, usize, f64)> = None;
            let mut obs_off_seconds = f64::INFINITY;
            for i in 0..repeats {
                let order = if i % 2 == 0 {
                    [true, false]
                } else {
                    [false, true]
                };
                for on in order {
                    crowd_obs::set_enabled(on);
                    let measured = run_cell(None);
                    if on {
                        if mem.as_ref().is_none_or(|best| measured.0 < best.0) {
                            mem = Some(measured);
                        }
                    } else {
                        obs_off_seconds = obs_off_seconds.min(measured.0);
                    }
                }
            }
            crowd_obs::set_enabled(true);
            let mem_seconds = push_row(&mut rows, "mem", mem.expect("at least one repeat"), None);
            obs_on_total += mem_seconds;
            obs_off_total += obs_off_seconds;
            obs_ratio_max = obs_ratio_max.max(mem_seconds / obs_off_seconds.max(1e-12));
            eprintln!(
                "  obs-off  sessions={sessions:>2} batches={batches:>3}: total {:>8.3} ms \
                 (on/off ratio {:.3})",
                obs_off_seconds * 1e3,
                mem_seconds / obs_off_seconds.max(1e-12),
            );

            // WAL mode: a fresh log directory per replay (session ids and
            // file names restart from zero each time); the last replay's
            // directory is kept as the recovery mode's input.
            let wal_dir = |i: usize| wal_root.join(format!("cell-{sessions}x{batches}-{i}"));
            let fresh_dir = |i: usize| {
                let dir = wal_dir(i);
                let _ = std::fs::remove_dir_all(&dir);
                dir
            };
            run_cell(Some(&fresh_dir(0)));
            let wal = (1..=repeats)
                .map(|i| run_cell(Some(&fresh_dir(i))))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one repeat");
            let wal_seconds = push_row(&mut rows, "wal", wal, None);
            wal_ratio_max = wal_ratio_max.max(wal_seconds / mem_seconds.max(1e-12));

            // Recovery mode: rebuild every session of the cell from the
            // last WAL replay's directory. A clean shutdown leaves no torn
            // tail, so recovery is idempotent and can be re-timed.
            let kept = wal_dir(repeats);
            let recover_cell = || {
                let start = Instant::now();
                let (recovered, report) = CrowdServe::recover(ServeConfig {
                    shards: sessions.min(8),
                    durability: Some(durable_cfg(&kept)),
                    ..ServeConfig::default()
                })
                .expect("recovery succeeds");
                let seconds = start.elapsed().as_secs_f64();
                assert_eq!(report.sessions_recovered, sessions, "all sessions recover");
                assert_eq!(report.sessions_skipped, 0, "clean logs: none skipped");
                let sids = recovered.sessions();
                let accuracy_mean = cell_tenants
                    .iter()
                    .zip(&sids)
                    .map(|(t, &sid)| {
                        let snap = recovered.truth(sid).expect("session alive");
                        let report = snap
                            .report
                            .as_ref()
                            .expect("replayed past the last snapshot");
                        accuracy(&t.dataset, &report.result.truths)
                    })
                    .sum::<f64>()
                    / sessions as f64;
                (seconds, accuracy_mean)
            };
            recover_cell();
            let (rec_seconds, rec_accuracy) = (0..repeats)
                .map(|_| recover_cell())
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one repeat");
            let answers_total = cell_tenants
                .iter()
                .map(|t| t.batches.iter().map(Vec::len).sum::<usize>())
                .sum();
            push_row(
                &mut rows,
                "recovery",
                (rec_seconds, Vec::new(), answers_total, rec_accuracy),
                None,
            );

            // Mixed mode: the same replay with READER_THREADS threads
            // hammering `TruthReader::snapshot` the whole time (busy
            // phase: converges in flight), then against the idle service
            // (idle phase: the reference latency). One writer
            // thread per session submits each round, like a real
            // multi-tenant frontend.
            let run_mixed = || {
                let serve = CrowdServe::new(ServeConfig {
                    shards: sessions.min(8),
                    ..ServeConfig::default()
                })
                .expect("valid config");
                let ids: Vec<_> = cell_tenants
                    .iter()
                    .map(|t| {
                        serve
                            .create_session(StreamConfig::new(
                                Method::Ds,
                                t.dataset.task_type(),
                                t.dataset.num_tasks(),
                                t.dataset.num_workers(),
                            ))
                            .expect("valid session")
                    })
                    .collect();
                let rounds = cell_tenants.iter().map(|t| t.batches.len()).max().unwrap();
                let stop = AtomicBool::new(false);
                let mut answers_total = 0usize;
                let mut tick_seconds: Vec<f64> = Vec::with_capacity(rounds);
                let (busy_elapsed, busy_reads, mut busy_samples) = std::thread::scope(|scope| {
                    let pollers: Vec<_> = (0..READER_THREADS)
                        .map(|_| {
                            // Each thread owns its reader handles (and so
                            // their cached snapshots) — no sharing.
                            let readers: Vec<TruthReader> = ids
                                .iter()
                                .map(|&sid| serve.reader(sid).expect("session alive"))
                                .collect();
                            let stop = &stop;
                            scope.spawn(move || poll_readers(&readers, stop, u64::MAX))
                        })
                        .collect();
                    let start = Instant::now();
                    for round in 0..rounds {
                        std::thread::scope(|writers| {
                            for (k, t) in cell_tenants.iter().enumerate() {
                                if let Some(batch) = t.batches.get(round) {
                                    let serve = &serve;
                                    let sid = ids[k];
                                    writers.spawn(move || {
                                        serve.submit(sid, batch.clone()).expect("in capacity")
                                    });
                                }
                            }
                        });
                        let tick_start = Instant::now();
                        let tick = serve.drain_tick();
                        tick_seconds.push(tick_start.elapsed().as_secs_f64());
                        answers_total += tick.answers_ingested;
                        assert_eq!(tick.shard_failures, 0, "shard drain failed");
                        assert!(tick.errors.is_empty(), "replay is valid: {:?}", tick.errors);
                    }
                    let elapsed = start.elapsed().as_secs_f64();
                    stop.store(true, Ordering::Relaxed);
                    let mut reads = 0u64;
                    let mut samples = Vec::new();
                    for p in pollers {
                        let (n, s) = p.join().expect("reader thread");
                        reads += n;
                        samples.extend(s);
                    }
                    (elapsed, reads, samples)
                });
                // Idle phase: same service and sessions, nothing writing.
                let never = AtomicBool::new(false);
                let mut idle_samples: Vec<f64> = std::thread::scope(|scope| {
                    let pollers: Vec<_> = (0..READER_THREADS)
                        .map(|_| {
                            let readers: Vec<TruthReader> = ids
                                .iter()
                                .map(|&sid| serve.reader(sid).expect("session alive"))
                                .collect();
                            let never = &never;
                            scope.spawn(move || {
                                poll_readers(&readers, never, IDLE_READS_PER_THREAD).1
                            })
                        })
                        .collect();
                    pollers
                        .into_iter()
                        .flat_map(|p| p.join().expect("reader thread"))
                        .collect()
                });
                let accuracy_mean = cell_tenants
                    .iter()
                    .zip(&ids)
                    .map(|(t, &sid)| {
                        let snap = serve.truth(sid).expect("session alive");
                        let report = snap.report.as_ref().expect("converged");
                        accuracy(&t.dataset, &report.result.truths)
                    })
                    .sum::<f64>()
                    / sessions as f64;
                let stats = MixedStats {
                    reads_total: busy_reads,
                    reads_per_sec: busy_reads as f64 / busy_elapsed.max(1e-12),
                    read_p50_seconds: percentile(&mut busy_samples, 0.50),
                    read_p99_seconds: percentile(&mut busy_samples, 0.99),
                    read_p50_seconds_idle: percentile(&mut idle_samples, 0.50),
                    read_p99_seconds_idle: percentile(&mut idle_samples, 0.99),
                };
                (
                    (busy_elapsed, tick_seconds, answers_total, accuracy_mean),
                    stats,
                )
            };
            run_mixed(); // warm-up
            let (mixed_measured, mixed_stats) = (0..repeats)
                .map(|_| run_mixed())
                .min_by(|a, b| a.0 .0.total_cmp(&b.0 .0))
                .expect("at least one repeat");
            eprintln!(
                "  mixed    sessions={sessions:>2} batches={batches:>3}: {:>9.0} reads/s, \
                 read p99 {:>7.1} µs busy / {:>7.1} µs idle",
                mixed_stats.reads_per_sec,
                mixed_stats.read_p99_seconds * 1e6,
                mixed_stats.read_p99_seconds_idle * 1e6,
            );
            push_row(&mut rows, "mixed", mixed_measured, Some(mixed_stats));
        }
    }

    let _ = std::fs::remove_dir_all(&wal_root);

    let total_seconds = sweep_start.elapsed().as_secs_f64();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"crowd-bench/serve/v1\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"dataset\": \"{}\",", dataset_id.name());
    let _ = writeln!(json, "  \"method\": \"D&S\",");
    let _ = writeln!(json, "  \"total_seconds\": {total_seconds:.6},");
    let _ = writeln!(json, "  \"wal_overhead_max_ratio\": {wal_ratio_max:.4},");
    let obs_ratio_agg = obs_on_total / obs_off_total.max(1e-12);
    let _ = writeln!(json, "  \"obs_overhead_ratio\": {obs_ratio_agg:.4},");
    let _ = writeln!(json, "  \"obs_overhead_max_ratio\": {obs_ratio_max:.4},");
    let _ = writeln!(json, "  \"obs\": {},", crowd_obs::snapshot().to_json());
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"sessions\": {}, \"batches\": {}, \"batch_size\": {}, \
             \"answers_total\": {}, \
             \"ticks\": {}, \"seconds_total\": {:.6}, \"seconds_per_tick_mean\": {:.6}, \
             \"seconds_per_tick_max\": {:.6}, \"throughput_answers_per_sec\": {:.1}, \
             \"accuracy_mean\": {:.6}",
            r.mode,
            r.sessions,
            r.batches,
            r.batch_size,
            r.answers_total,
            r.ticks,
            r.seconds_total,
            r.seconds_per_tick_mean,
            r.seconds_per_tick_max,
            r.throughput,
            r.accuracy_mean,
        );
        if let Some(m) = &r.mixed {
            let _ = write!(
                json,
                ", \"readers\": {READER_THREADS}, \"reads_total\": {}, \
                 \"reads_per_sec\": {:.1}, \"read_p50_seconds\": {:.9}, \
                 \"read_p99_seconds\": {:.9}, \"read_p50_seconds_idle\": {:.9}, \
                 \"read_p99_seconds_idle\": {:.9}",
                m.reads_total,
                m.reads_per_sec,
                m.read_p50_seconds,
                m.read_p99_seconds,
                m.read_p50_seconds_idle,
                m.read_p99_seconds_idle,
            );
        }
        let _ = writeln!(json, "}}{comma}");
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write serve bench output");
    eprintln!(
        "crowd-serve-bench: wrote {} rows to {out_path} in {total_seconds:.1}s \
         (max wal/mem wall-time ratio {wal_ratio_max:.3})",
        rows.len()
    );
}
