//! `serve`: one durable `CrowdServe` under open-loop ingest beside a
//! polling reader. It is the only workload on `stream`, `serve`, `truth`,
//! `durable` and the obs read path.
//!
//! - One service shard, so each drain runs inline on the writer thread.
//! - WAL on with `FsyncPolicy::Never`: the cost measured is the WAL's
//!   serialisation and writes, not the host's fsync latency.
//! - `SESSIONS` D&S sessions on default options, half flat and half over
//!   `SESSION_SHARDS` task-range shards. Each session is a bounded job
//!   (`JOB_TASKS` tasks × `JOB_REDUNDANCY` answers, interleaved arrival,
//!   `BATCH_ANSWERS`-answer batches); once its last batch is published
//!   it is evicted and replaced, so session size stays stationary. Set-up
//!   staggers the initial sessions' progress so completions spread out.
//! - The writer submits batches open-loop at `OFFERED_BATCHES_PER_S`
//!   (about a third busy on the reference host) and drains after each
//!   arrival; one reader thread polls `TruthReader::snapshot` throughout,
//!   `READ_CHUNK` reads at a time with a `READ_PAUSE` between polls.
//!
//! Every completed job is replayed through a lone `StreamEngine`, grouped
//! the way the ticks ingested it, outside the timed window; its final
//! truths must equal the service's.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crowd_core::exec::{parallel_chunks, WorkerPool};
use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_data::{Answer, AnswerRecord, CrowdSimulator, TaskType};
use crowd_serve::{CrowdServe, DurabilityConfig, FsyncPolicy, ServeConfig, SessionId, TruthReader};
use crowd_stream::{StreamConfig, StreamEngine};

use crate::report::{self, Outcome, Values};
use crate::schedule::{lateness, Schedule};
use crate::stats::{self, Timed};
use crate::{refloop, shuffled, trace};

pub const JOB_TASKS: usize = 2_000;
pub const JOB_REDUNDANCY: usize = 5;
pub const BATCH_ANSWERS: usize = 250;
pub const SESSIONS: usize = 4;
pub const SESSION_SHARDS: usize = 4;
const JOB_DATA_SEED: u64 = 7;
/// Offered load: batches per second across all sessions.
pub const OFFERED_BATCHES_PER_S: f64 = 60.0;
const SETUP_REPEATS: usize = 3;
/// Every this many reads one is timed on its own.
const READ_SAMPLE_EVERY: u64 = 256;
/// Reads per poll of the polling reader (and per reader span).
const READ_CHUNK: u64 = 1_024;
/// Pause between the reader's polls: a reader that spins without
/// pause slows the writer on the other core by about 30%, by an amount
/// that varies with how the host places the two vCPUs.
const READ_PAUSE: Duration = Duration::from_millis(1);
/// The writer sleeps until this long before a batch is due, then spins:
/// a plain sleep overshoots by about half a millisecond on a VM.
const SPIN_S: f64 = 0.000_6;
/// Length of each idle-service read measurement (traced run).
const IDLE_READ_S: f64 = 0.4;
/// Least time between two reference samples in the writer's idle gaps.
const REF_EVERY_S: f64 = 0.02;
/// Window of the busy phase whose reference runs rescale its samples.
const LOCAL_S: f64 = 1.0;

/// One job: its session's shape and its batches in arrival order.
struct Job {
    id: u64,
    shards: usize,
    num_tasks: usize,
    num_workers: usize,
    batches: Vec<Vec<AnswerRecord>>,
}

fn job_config(job: &Job) -> StreamConfig {
    StreamConfig::new(
        Method::Ds,
        TaskType::DecisionMaking,
        job.num_tasks,
        job.num_workers,
    )
    .with_shards(job.shards)
}

/// A D_Product-shaped job: every task's k-th answer arrives before any
/// task's (k+1)-th. Job `id` is the same in every run; `--seed` only
/// orders the pool (EM iterations per job vary by about ±25%, so a pool
/// that changed with the seed would put that variation into every
/// comparison).
fn make_job(id: u64, shards: usize) -> Job {
    let mut cfg = PaperDataset::DProduct.config(1.0);
    cfg.num_tasks = JOB_TASKS;
    cfg.redundancy = JOB_REDUNDANCY;
    let d = trace::span("data", "CrowdSimulator::generate", || {
        CrowdSimulator::new(cfg, JOB_DATA_SEED.wrapping_mul(1_000_003).wrapping_add(id)).generate()
    });
    let mut rank = vec![0usize; d.num_tasks()];
    let mut keyed: Vec<(usize, usize, AnswerRecord)> = d
        .records()
        .iter()
        .map(|r| {
            rank[r.task] += 1;
            (rank[r.task], r.task, *r)
        })
        .collect();
    keyed.sort_by_key(|&(k, t, _)| (k, t));
    let records: Vec<AnswerRecord> = keyed.into_iter().map(|(_, _, r)| r).collect();
    Job {
        id,
        shards,
        num_tasks: d.num_tasks(),
        num_workers: d.num_workers(),
        batches: records
            .chunks(BATCH_ANSWERS)
            .map(<[AnswerRecord]>::to_vec)
            .collect(),
    }
}

/// A live session and the job it runs.
struct Slot {
    sid: SessionId,
    reader: TruthReader,
    job: Job,
    next: usize,
    /// Batch indices ingested by each tick that touched the session.
    groups: Vec<(usize, Vec<usize>)>,
}

/// A completed job, kept for the replay check.
struct Done {
    job: Job,
    groups: Vec<(usize, Vec<usize>)>,
    truths: Vec<Answer>,
}

/// Session readers the polling reader cycles through; swapped on churn.
struct Roster {
    version: AtomicU64,
    readers: Mutex<Vec<TruthReader>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("roster lock: holders do not panic")
}

fn service(dir: &Path) -> Result<CrowdServe, String> {
    let mut durability = DurabilityConfig::new(dir);
    durability.fsync = FsyncPolicy::Never;
    CrowdServe::new(ServeConfig {
        shards: 1,
        durability: Some(durability),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("service: {e}"))
}

fn open(serve: &CrowdServe, job: Job) -> Result<Slot, String> {
    let sid = trace::span("serve", "create_session", || {
        serve.create_session(job_config(&job))
    })
    .map_err(|e| format!("create_session: {e}"))?;
    let reader = serve.reader(sid).map_err(|e| format!("reader: {e}"))?;
    Ok(Slot {
        sid,
        reader,
        job,
        next: 0,
        groups: Vec::new(),
    })
}

/// Tick bookkeeping shared by set-up and the busy phase.
#[derive(Default)]
struct Ledger {
    ticks: usize,
    tick_errors: u64,
    submit_errors: u64,
    uncovered: u64,
    batches: u64,
    /// Per tick: seconds and the (job, group) pairs it ingested.
    tick_log: Vec<(f64, Vec<(u64, usize)>)>,
}

impl Ledger {
    fn tick(
        &mut self,
        serve: &CrowdServe,
        slots: &mut [Slot],
        submitted: &[(usize, usize)],
    ) -> f64 {
        let start = Instant::now();
        let report = trace::span("serve", "drain_tick", || serve.drain_tick());
        let seconds = start.elapsed().as_secs_f64();
        let tick = self.ticks;
        self.ticks += 1;
        if !report.errors.is_empty() || !report.poisoned.is_empty() || report.shard_failures > 0 {
            self.tick_errors +=
                (report.errors.len() + report.poisoned.len() + report.shard_failures).max(1) as u64;
            eprintln!(
                "serve: tick {tick} errors: {:?} poisoned: {:?}",
                report.errors, report.poisoned
            );
        }
        let mut pairs = Vec::new();
        for (s, slot) in slots.iter_mut().enumerate() {
            let mine: Vec<usize> = submitted
                .iter()
                .filter(|&&(k, _)| k == s)
                .map(|&(_, b)| b)
                .collect();
            if mine.is_empty() {
                continue;
            }
            let covered = slot.reader.snapshot().cum_batches;
            if covered < slot.next as u64 {
                self.uncovered += slot.next as u64 - covered;
                eprintln!(
                    "serve: session {} published {covered} of {} batches",
                    slot.sid, slot.next
                );
            }
            pairs.push((slot.job.id, slot.groups.len()));
            slot.groups.push((tick, mine));
        }
        self.tick_log.push((seconds, pairs));
        seconds
    }
}

fn submit(serve: &CrowdServe, ledger: &mut Ledger, slot: &mut Slot) -> (usize, f64) {
    let batch = slot.job.batches[slot.next].clone();
    let answers = batch.len();
    let start = Instant::now();
    let result = trace::span("serve", "submit", || serve.submit(slot.sid, batch));
    let seconds = start.elapsed().as_secs_f64();
    if let Err(e) = result {
        ledger.submit_errors += 1;
        eprintln!("serve: submit to {} refused: {e}", slot.sid);
    }
    slot.next += 1;
    ledger.batches += 1;
    (answers, seconds)
}

fn shards_of_slot(s: usize) -> usize {
    if s.is_multiple_of(2) {
        1
    } else {
        SESSION_SHARDS
    }
}

/// Build the service and its staggered initial sessions.
fn setup(dir: &Path, pool: &[usize]) -> Result<(CrowdServe, Vec<Slot>, Ledger), String> {
    let mut ledger = Ledger::default();
    let _ = std::fs::remove_dir_all(dir);
    let serve = trace::span("serve", "new", || service(dir))?;
    let mut slots = Vec::new();
    for (s, &id) in pool.iter().enumerate().take(SESSIONS) {
        slots.push(open(&serve, make_job(id as u64, shards_of_slot(s)))?);
    }
    for s in 0..SESSIONS {
        let prefill = s * slots[s].job.batches.len() / SESSIONS;
        for _ in 0..prefill {
            let b = slots[s].next;
            submit(&serve, &mut ledger, &mut slots[s]);
            ledger.tick(&serve, &mut slots, &[(s, b)]);
        }
    }
    Ok((serve, slots, ledger))
}

/// What the polling reader saw.
struct ReadStats {
    reads: u64,
    /// Seconds spent reading (pauses excluded).
    seconds: f64,
    samples: Vec<f64>,
}

fn polling_reader(roster: &Roster, stop: &AtomicBool) -> ReadStats {
    let mut version = roster.version.load(Ordering::Acquire);
    let mut local = lock(&roster.readers).clone();
    let mut samples = Vec::with_capacity(1 << 16);
    let mut reads = 0u64;
    let mut reading = 0.0;
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        trace::span_n("truth", "snapshot", READ_CHUNK, || {
            for j in 0..READ_CHUNK {
                let r = &local[(j as usize) % local.len()];
                if j % READ_SAMPLE_EVERY == 0 {
                    let t = Instant::now();
                    std::hint::black_box(r.snapshot().epoch);
                    samples.push(t.elapsed().as_secs_f64());
                } else {
                    std::hint::black_box(r.snapshot().epoch);
                }
            }
        });
        reading += start.elapsed().as_secs_f64();
        std::thread::sleep(READ_PAUSE);
        reads += READ_CHUNK;
        let v = roster.version.load(Ordering::Acquire);
        if v != version {
            version = v;
            local = lock(&roster.readers).clone();
        }
    }
    ReadStats {
        reads,
        seconds: reading,
        samples,
    }
}

/// Reads per second from `threads` readers polling one idle session.
fn fanout(reader: &TruthReader, threads: usize) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let r = reader.clone();
            let (stop, total) = (&stop, &total);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    trace::span_n("truth", "snapshot", READ_CHUNK, || {
                        for _ in 0..READ_CHUNK {
                            std::hint::black_box(r.snapshot().epoch);
                        }
                    });
                    n += READ_CHUNK;
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(Duration::from_secs_f64(IDLE_READ_S));
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Nanoseconds per read from one reader on an idle session (median of
/// five rounds).
fn idle_read_ns(reader: &TruthReader) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let n = 200_000u64;
            let start = Instant::now();
            trace::span_n("truth", "snapshot", n, || {
                for _ in 0..n {
                    std::hint::black_box(reader.snapshot().epoch);
                }
            });
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    stats::median(&rounds)
}

/// Seconds of an empty pool round trip and of the smallest fan-out.
fn exec_probes() -> (f64, f64) {
    let pool = WorkerPool::new(1);
    let mut roundtrip = Vec::new();
    for _ in 0..2_000 {
        let start = Instant::now();
        trace::span("exec", "submit+join", || pool.submit(|| {}).join());
        roundtrip.push(start.elapsed().as_secs_f64());
    }
    let mut data = [0u64; 2];
    let mut chunks = Vec::new();
    for _ in 0..2_000 {
        let start = Instant::now();
        trace::span("exec", "parallel_chunks", || {
            parallel_chunks(2, &mut data, 1, |_, c| c[0] = c[0].wrapping_add(1))
        });
        chunks.push(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(data);
    (stats::median(&roundtrip), stats::median(&chunks))
}

/// What a lone-engine replay of a completed job showed: whether its
/// final truths match the service's, the engine seconds of each tick's
/// group (push, sync, converge), and the per-call times and iterations.
struct Replay {
    matches: bool,
    group_seconds: Vec<f64>,
    push_s: Vec<f64>,
    sync_s: Vec<f64>,
    converge_s: Vec<f64>,
    iterations: Vec<usize>,
}

fn replay(done: &Done) -> Result<Replay, String> {
    let mut engine =
        StreamEngine::new(job_config(&done.job)).map_err(|e| format!("replay engine: {e}"))?;
    let mut out = Replay {
        matches: false,
        group_seconds: Vec::new(),
        push_s: Vec::new(),
        sync_s: Vec::new(),
        converge_s: Vec::new(),
        iterations: Vec::new(),
    };
    let mut last = None;
    for (_, group) in &done.groups {
        let group_start = Instant::now();
        for &b in group {
            let start = Instant::now();
            trace::span("stream", "push_batch", || {
                engine.push_batch(&done.job.batches[b])
            })
            .map_err(|(i, e)| format!("replay push, record {i}: {e}"))?;
            out.push_s.push(start.elapsed().as_secs_f64());
        }
        if done.job.shards > 1 {
            let start = Instant::now();
            trace::span("stream", "sync_shards", || engine.sync_shards());
            out.sync_s.push(start.elapsed().as_secs_f64());
        }
        let start = Instant::now();
        let report = trace::span("stream", "converge", || engine.converge())
            .map_err(|e| format!("replay converge: {e}"))?;
        out.converge_s.push(start.elapsed().as_secs_f64());
        out.iterations.push(report.result.iterations);
        out.group_seconds.push(group_start.elapsed().as_secs_f64());
        last = Some(report);
    }
    out.matches = last.is_some_and(|r| r.result.truths == done.truths);
    Ok(out)
}

/// One writer round of the busy phase: the due times of the batches it
/// submitted, the writer seconds from its first submit to the end of its
/// tick, and the writer seconds of churn after the tick.
#[derive(Default)]
struct Round {
    half: usize,
    dues: Vec<f64>,
    work: f64,
    after: f64,
    tick_end: f64,
}

/// Freshness of every batch of `half` at the nominal host speed: the
/// measured rounds, each writer second rescaled by `scale` at the round's
/// time, replayed against the same open-loop schedule. Rescaling the
/// measured freshness alone leaves in the queueing that a slow stretch of
/// the host causes; the replay takes it out.
fn nominal_freshness(rounds: &[Round], half: usize, scale: impl Fn(f64) -> f64) -> Vec<f64> {
    let mut free = f64::NEG_INFINITY;
    let mut out = Vec::new();
    for r in rounds {
        let factor = scale(r.tick_end);
        let start = r.dues.iter().copied().fold(free, f64::max);
        let tick_end = start + r.work * factor;
        if r.half == half {
            out.extend(r.dues.iter().map(|d| tick_end - d));
        }
        free = tick_end + r.after * factor;
    }
    out
}

fn scratch_dir(k: usize) -> PathBuf {
    Path::new(report::OUT_DIR).join(format!("serve-{}-{k}", std::process::id()))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    // The jobs this run can reach, in a seeded order.
    let batches_per_job = (JOB_TASKS * JOB_REDUNDANCY).div_ceil(BATCH_ANSWERS) as f64;
    let pool = shuffled(
        SESSIONS + 2 + (seconds * OFFERED_BATCHES_PER_S / batches_per_job).ceil() as usize,
        seed,
    );
    // Set-up, repeated; the last service is the one measured. A traced
    // run traces its set-up and the second half of its busy phase.
    let dirs: Vec<PathBuf> = (0..SETUP_REPEATS).map(scratch_dir).collect();
    trace::set_enabled(traced);
    let mut first_error = None;
    let (built, setup_times) = refloop::repeated(SETUP_REPEATS, |k| {
        setup(&dirs[k], &pool)
            .map_err(|e| first_error.get_or_insert(e).clone())
            .ok()
    });
    trace::set_enabled(false);
    for old in &dirs[..SETUP_REPEATS - 1] {
        let _ = std::fs::remove_dir_all(old);
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    let (serve, mut slots, mut ledger) = built.expect("every set-up succeeded");
    let dir = &dirs[SETUP_REPEATS - 1];
    let mut next_job = SESSIONS;

    let roster = Roster {
        version: AtomicU64::new(0),
        readers: Mutex::new(slots.iter().map(|s| s.reader.clone()).collect()),
    };
    let stop = AtomicBool::new(false);
    let schedule = Schedule::at_rate(OFFERED_BATCHES_PER_S);

    // Busy-phase records: every writer round, and (when, seconds) of
    // every reference run.
    let mut rounds: Vec<Round> = Vec::new();
    let mut refs: Vec<(f64, f64)> = Vec::new();
    // The host clock at the start of every `LOCAL_S` window.
    let mut clocks: Vec<refloop::HostClock> = vec![refloop::HostClock::now()];
    let mut queued_wait = Vec::new();
    let mut generator_late = Vec::new();
    let mut submit_s = Vec::new();
    let mut tick_s: Vec<(f64, usize)> = Vec::new(); // (seconds, tick id)
    let mut churn_s = Vec::new();
    let mut busy_s = 0.0;
    let mut answers = [0usize; 2];
    let mut backlog_max = 0usize;
    let mut wal_bytes = 0u64;
    let mut wal_answers = 0u64;
    let mut done: Vec<Done> = Vec::new();
    let mut half_from_ns = 0u64;

    let reads = std::thread::scope(|scope| -> Result<ReadStats, String> {
        let reader = scope.spawn(|| polling_reader(&roster, &stop));
        let t0 = Instant::now();
        let now = || t0.elapsed().as_secs_f64();
        let mut k = 0u64;
        let mut free_at = 0.0;
        let mut last_ref = -1.0;
        let mut half = 0usize;
        let result = (|| -> Result<(), String> {
            loop {
                let t = now();
                if t >= clocks.len() as f64 * LOCAL_S {
                    clocks.push(refloop::HostClock::now());
                }
                if t >= seconds {
                    break;
                }
                if traced && half == 0 && t >= seconds / 2.0 {
                    half = 1;
                    half_from_ns = trace::now_ns();
                    trace::set_enabled(true);
                }
                let due = schedule.due(k);
                if due > t {
                    if due - t > 3.0 * refloop::NOMINAL_S && t - last_ref >= REF_EVERY_S {
                        refs.push((t, refloop::measure()));
                        last_ref = now();
                    } else if due - t > SPIN_S {
                        std::thread::sleep(Duration::from_secs_f64(due - t - SPIN_S));
                    } else {
                        std::hint::spin_loop();
                    }
                    continue;
                }
                // Submit every batch due by now, round-robin over sessions
                // with batches left.
                let due_n = schedule.due_by(t);
                let mut submitted: Vec<(usize, usize)> = Vec::new();
                let mut round_answers = 0;
                let mut round = Round {
                    half,
                    ..Round::default()
                };
                while k < due_n {
                    let Some(s) = (0..SESSIONS)
                        .map(|i| (k as usize + i) % SESSIONS)
                        .find(|&s| slots[s].next < slots[s].job.batches.len())
                    else {
                        break;
                    };
                    let due_k = schedule.due(k);
                    let b = slots[s].next;
                    let (n, secs) = submit(&serve, &mut ledger, &mut slots[s]);
                    let l = lateness(due_k, free_at, now());
                    queued_wait.push(l.queued);
                    generator_late.push(l.generator);
                    submit_s.push(secs);
                    round.work += secs;
                    busy_s += secs;
                    round_answers += n;
                    answers[half] += n;
                    submitted.push((s, b));
                    round.dues.push(due_k);
                    k += 1;
                }
                backlog_max = backlog_max.max(round_answers);
                let id = ledger.ticks;
                let secs = ledger.tick(&serve, &mut slots, &submitted);
                round.tick_end = now();
                tick_s.push((secs, id));
                round.work += secs;
                busy_s += secs;

                // Churn every session whose job is fully published.
                let mut churned = false;
                for (s, slot) in slots.iter_mut().enumerate() {
                    if slot.next < slot.job.batches.len() {
                        continue;
                    }
                    let start = Instant::now();
                    let sid = slot.sid;
                    let raw = sid.to_string();
                    let wal = dir.join(format!("wal-{}.log", raw.trim_start_matches('s')));
                    wal_bytes += std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
                    let evicted = trace::span("serve", "evict", || serve.evict(sid))
                        .map_err(|e| format!("evict: {e}"))?;
                    let mut took = start.elapsed().as_secs_f64();
                    wal_answers += evicted.answers_seen as u64;
                    let truths = evicted
                        .final_report
                        .map(|r| r.result.truths)
                        .unwrap_or_default();
                    let id = *pool.get(next_job).ok_or("the job pool ran dry")?;
                    let gen_start = Instant::now();
                    let job = make_job(id as u64, shards_of_slot(s));
                    let gen_s = gen_start.elapsed().as_secs_f64();
                    next_job += 1;
                    let start = Instant::now();
                    let fresh_slot = open(&serve, job)?;
                    took += start.elapsed().as_secs_f64();
                    let old = std::mem::replace(slot, fresh_slot);
                    done.push(Done {
                        job: old.job,
                        groups: old.groups,
                        truths,
                    });
                    churn_s.push(took);
                    busy_s += took + gen_s;
                    round.after += took + gen_s;
                    churned = true;
                }
                rounds.push(round);
                if churned {
                    *lock(&roster.readers) = slots.iter().map(|s| s.reader.clone()).collect();
                    roster.version.fetch_add(1, Ordering::Release);
                }
                free_at = now();
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let reads = reader
            .join()
            .map_err(|_| "polling reader panicked".to_string())?;
        result.map(|()| reads)
    })?;
    let busy_end_ns = trace::now_ns();
    trace::set_enabled(false);

    // Every acknowledged batch of a live session is published by now.
    for slot in &slots {
        let covered = slot.reader.snapshot().cum_batches;
        if covered != slot.next as u64 {
            ledger.uncovered += (slot.next as u64).abs_diff(covered);
        }
    }

    // Traced run: the idle-service read probes and the pool probes.
    let mut v = Values::new();
    if traced {
        trace::set_enabled(true);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let reader = &slots[0].reader;
        let idle_on = idle_read_ns(reader);
        let fan_on = fanout(reader, threads);
        crowd_obs::set_enabled(false);
        let idle_off = idle_read_ns(reader);
        let fan_off = fanout(reader, threads);
        crowd_obs::set_enabled(true);
        let (roundtrip, chunks) = exec_probes();
        v.insert("truth.read_idle_ns".into(), idle_on);
        v.insert("truth.read_obs_off_ns".into(), idle_off);
        v.insert("obs.read_overhead_ns".into(), idle_on - idle_off);
        v.insert("truth.fanout_reads_per_s".into(), fan_on);
        v.insert("obs.fanout_reads_per_s_off".into(), fan_off);
        v.insert("exec.submit_roundtrip_s".into(), roundtrip);
        v.insert("exec.parallel_chunks_s".into(), chunks);
    }

    // Replay every completed job outside the timed window.
    let mut mismatches = 0u64;
    let mut replays = Vec::new();
    for d in &done {
        let r = replay(d)?;
        if !r.matches {
            mismatches += 1;
            eprintln!(
                "serve: job {} final truths differ from a lone-engine replay",
                d.job.id
            );
        }
        replays.push(r);
    }
    trace::set_enabled(false);
    drop(serve);
    let _ = std::fs::remove_dir_all(dir);

    let attempted = ledger.batches + done.len() as u64;
    let failed = ledger.submit_errors + ledger.tick_errors + ledger.uncovered + mismatches;
    if rounds.is_empty() || done.is_empty() {
        return Err(format!(
            "the busy phase completed {} ticks and {} jobs; run longer",
            rounds.len(),
            done.len()
        ));
    }

    // End-to-end values: writer seconds rescaled by the reference runs and
    // the stolen share of their `LOCAL_S` window of the busy phase.
    let job_answers = (JOB_TASKS * JOB_REDUNDANCY) as f64;
    let ref_values: Vec<f64> = refs.iter().map(|r| r.1).collect();
    let reference = stats::median(&ref_values);
    let windows: Vec<Timed> = clocks
        .windows(2)
        .enumerate()
        .map(|(w, c)| {
            let (a, b) = (w as f64 * LOCAL_S, (w + 1) as f64 * LOCAL_S);
            let mut inside: Vec<f64> = refs
                .iter()
                .filter(|r| r.0 >= a && r.0 < b)
                .map(|r| r.1)
                .collect();
            // The window's fast reference runs: the ones the host did not
            // interrupt, since the stolen share is taken out separately
            // (a median counted steal twice in steady runs).
            Timed {
                raw: 1.0,
                reference: if inside.is_empty() {
                    reference
                } else {
                    stats::percentile(&mut inside, 0.1)
                },
                stolen: c[1].stolen_since(&c[0]),
            }
        })
        .collect();
    let scale = |t: f64| {
        windows[((t / LOCAL_S) as usize).min(windows.len() - 1)].rescaled(refloop::NOMINAL_S)
    };
    let last = usize::from(traced);
    let work_of = |h: usize, rescale: bool| -> f64 {
        rounds
            .iter()
            .filter(|r| r.half == h)
            .map(|r| {
                if rescale {
                    r.work * scale(r.tick_end)
                } else {
                    r.work
                }
            })
            .sum()
    };
    let job_raw = work_of(last, false) / answers[last] as f64 * job_answers;
    let job_res = work_of(last, true) / answers[last] as f64 * job_answers;
    let mut fresh_last: Vec<f64> = rounds
        .iter()
        .filter(|r| r.half == last)
        .flat_map(|r| r.dues.iter().map(move |d| r.tick_end - d))
        .collect();
    let mut fresh_res = nominal_freshness(&rounds, last, scale);
    let setup_raw: Vec<f64> = setup_times.iter().map(|t| t.raw).collect();
    let setup_res: Vec<f64> = setup_times
        .iter()
        .map(|t| t.rescaled(refloop::NOMINAL_S))
        .collect();
    let e2e = Values::from([
        ("setup_s".to_string(), stats::median(&setup_res)),
        ("rss_peak_mb".to_string(), report::rss_peak_mb()),
        ("job_s".to_string(), job_res),
        (
            "op_typical_s".to_string(),
            stats::percentile(&mut fresh_res, 0.5),
        ),
        (
            "op_tail_s".to_string(),
            stats::percentile(&mut fresh_res, 0.9),
        ),
    ]);
    let raw = Values::from([
        ("setup_s".to_string(), stats::median(&setup_raw)),
        ("job_s".to_string(), job_raw),
        (
            "op_typical_s".to_string(),
            stats::percentile(&mut fresh_last, 0.5),
        ),
        (
            "op_tail_s".to_string(),
            stats::percentile(&mut fresh_last, 0.9),
        ),
        ("busy_ref_s".to_string(), reference),
        ("ref_samples".to_string(), refs.len() as f64),
        ("fresh_samples".to_string(), fresh_last.len() as f64),
        ("jobs_done".to_string(), done.len() as f64),
    ]);
    let timings: Vec<String> = setup_times
        .iter()
        .enumerate()
        .map(|(k, t)| report::timed_json(&format!("setup#{k}"), t))
        .chain(
            windows
                .iter()
                .enumerate()
                .map(|(w, t)| report::timed_json(&format!("busy_window#{w}"), t)),
        )
        .collect();
    report::write_details("serve", seed, traced, &e2e, &raw, &timings);

    let metrics = if traced {
        let spans = trace::spans();
        let layers = trace::layer_report(&spans, trace::thread_id(), half_from_ns, busy_end_ns);
        crate::put_layer_report(&mut v, &layers, (busy_end_ns - half_from_ns) as f64 * 1e-9);
        let untraced_job = work_of(0, true) / answers[0] as f64;
        let traced_job = work_of(1, true) / answers[1] as f64;
        v.insert(
            "trace.overhead_share".into(),
            traced_job / untraced_job - 1.0,
        );
        let flat = |rs: &dyn Fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
            replays.iter().flat_map(|r| rs(r).iter().copied()).collect()
        };
        v.insert(
            "stream.push_batch_s".into(),
            stats::mean(&flat(&|r| &r.push_s)),
        );
        v.insert(
            "stream.converge_s".into(),
            stats::mean(&flat(&|r| &r.converge_s)),
        );
        v.insert(
            "stream.sync_shards_s".into(),
            stats::mean(&flat(&|r| &r.sync_s)),
        );
        let iterations: Vec<f64> = replays
            .iter()
            .flat_map(|r| r.iterations.iter().map(|&i| i as f64))
            .collect();
        v.insert(
            "stream.converge_iterations".into(),
            stats::mean(&iterations),
        );
        // Tick overhead: each busy tick minus the replayed engine work of
        // the groups it ingested, over ticks of completed jobs only.
        let mut engine_s = std::collections::BTreeMap::new();
        for (d, r) in done.iter().zip(&replays) {
            for (g, secs) in r.group_seconds.iter().enumerate() {
                engine_s.insert((d.job.id, g), *secs);
            }
        }
        let busy_ticks: std::collections::BTreeSet<usize> = tick_s.iter().map(|t| t.1).collect();
        let overheads: Vec<f64> = ledger
            .tick_log
            .iter()
            .enumerate()
            .filter(|(id, (_, pairs))| {
                busy_ticks.contains(id)
                    && !pairs.is_empty()
                    && pairs.iter().all(|p| engine_s.contains_key(p))
            })
            .map(|(_, (secs, pairs))| secs - pairs.iter().map(|p| engine_s[p]).sum::<f64>())
            .collect();
        v.insert("serve.tick_overhead_s".into(), stats::mean(&overheads));
        v.insert("serve.submit_s".into(), stats::mean(&submit_s));
        v.insert(
            "serve.tick_s".into(),
            stats::mean(&tick_s.iter().map(|t| t.0).collect::<Vec<_>>()),
        );
        v.insert("serve.queue_wait_s".into(), stats::mean(&queued_wait));
        v.insert(
            "serve.generator_late_s".into(),
            stats::mean(&generator_late),
        );
        v.insert("serve.busy_frac".into(), busy_s / seconds);
        v.insert("serve.backlog_answers_max".into(), backlog_max as f64);
        v.insert("serve.churn_s".into(), stats::mean(&churn_s));
        v.insert(
            "serve.capacity_answers_per_s".into(),
            (answers[0] + answers[1]) as f64 / (work_of(0, false) + work_of(1, false)),
        );
        v.insert(
            "durable.wal_bytes_per_answer".into(),
            wal_bytes as f64 / wal_answers.max(1) as f64,
        );
        v.insert(
            "truth.reads_per_s".into(),
            reads.reads as f64 / reads.seconds,
        );
        let mut samples = reads.samples.clone();
        v.insert(
            "truth.read_p50_s".into(),
            stats::percentile(&mut samples, 0.5),
        );
        v.insert(
            "truth.read_p99_s".into(),
            stats::percentile(&mut samples, 0.99),
        );
        report::per_layer_values("serve", &v)?
    } else {
        report::end_to_end(&e2e)?
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(half: usize, dues: &[f64], work: f64, after: f64, tick_end: f64) -> Round {
        Round {
            half,
            dues: dues.to_vec(),
            work,
            after,
            tick_end,
        }
    }

    #[test]
    fn nominal_freshness_replays_the_queue_at_nominal_speed() {
        // Batches due every 10 ms on a host running the writer at half
        // speed: each 4 ms round took 8 ms, and a 12 ms churn after the
        // second round made the third and fourth batches share a round.
        let rounds = [
            round(0, &[0.000], 0.008, 0.0, 0.008),
            round(0, &[0.010], 0.008, 0.012, 0.018),
            round(0, &[0.020, 0.030], 0.008, 0.0, 0.038),
        ];
        // At nominal speed the rounds are half as long; a shared round
        // still starts when its last batch falls due.
        let at_half_speed = nominal_freshness(&rounds, 0, |_| 0.5);
        let want = [0.004, 0.004, 0.014, 0.004];
        for (got, want) in at_half_speed.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{at_half_speed:?}");
        }
        // At the measured speed the churn pushes the third round back.
        let measured = nominal_freshness(&rounds, 0, |_| 1.0);
        let want = [0.008, 0.008, 0.018, 0.008];
        for (got, want) in measured.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{measured:?}");
        }
        // Only the asked-for half is reported, but every round queues.
        assert!(nominal_freshness(&rounds, 1, |_| 1.0).is_empty());
    }
}
