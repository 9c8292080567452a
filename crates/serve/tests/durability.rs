//! The durability guarantees, pinned:
//!
//! 1. **Kill-at-every-frame-boundary recovery** — for a WAL truncated at
//!    *any* frame boundary (a crash between any two durable writes),
//!    [`CrowdServe::recover`] rebuilds the session to exactly the state
//!    the log prefix describes: plurality immediately equals the
//!    uninterrupted run's at that point, and continuing the remaining
//!    schedule lands on **bit-identical** final truths and posteriors.
//!    Verified for ≥ 2 methods × 2 datasets.
//! 2. **Torn tails** — a WAL truncated at *any byte offset*, or with any
//!    single byte corrupted, recovers the longest valid frame prefix and
//!    never errors out.
//! 3. **Corrupt snapshots** — a damaged snapshot silently downgrades to
//!    full-WAL replay with identical outputs; an intact snapshot is a
//!    pure fast path (snapshot-path ≡ replay-path, bit-identical).
//! 4. **Graceful degradation** — poisoned sessions auto-restart from
//!    their last checkpoint bit-identically; a wedged WAL fails submits
//!    typed while reads keep serving.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowd_core::{DMat, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::{Answer, AnswerRecord, StreamSession, TaskType};
use crowd_serve::{
    CrowdServe, DurabilityConfig, FaultKind, FaultPlan, FaultSite, FsyncPolicy, ServeConfig,
    ServeError, SessionId,
};
use crowd_stream::{StreamConfig, StreamReport};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Harness

/// Self-cleaning scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "crowd-serve-durability-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(dir: &Path, snapshot_every: u64) -> ServeConfig {
    ServeConfig {
        shards: 1,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every_converges: snapshot_every,
            max_session_restarts: 3,
        }),
        ..ServeConfig::default()
    }
}

/// A session's replay source: a scaled paper dataset split into batches.
fn session_batches(
    method: Method,
    dataset: PaperDataset,
    batch_count: usize,
    seed: u64,
) -> (StreamConfig, Vec<Vec<AnswerRecord>>) {
    let d = dataset.generate(0.03, seed);
    let config = StreamConfig::new(method, d.task_type(), d.num_tasks(), d.num_workers());
    let batch_size = d.num_answers().div_ceil(batch_count).max(1);
    let batches: Vec<Vec<AnswerRecord>> = StreamSession::from_dataset(&d, batch_size)
        .map(|b| b.records)
        .collect();
    (config, batches)
}

fn posterior_bits(p: &Option<Arc<DMat>>) -> Vec<Vec<u64>> {
    p.as_ref()
        .map(|m| {
            (0..m.rows())
                .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
                .collect()
        })
        .unwrap_or_default()
}

/// The published plurality for `sid` — what the retired lock-taking
/// `plurality()` getter used to serve.
fn plur_of(serve: &CrowdServe, sid: SessionId) -> Vec<Option<u8>> {
    serve.truth(sid).unwrap().plurality.clone()
}

/// The published last report for `sid`.
fn report_of(serve: &CrowdServe, sid: SessionId) -> Option<Arc<StreamReport>> {
    serve.truth(sid).unwrap().report.clone()
}

/// Everything the uninterrupted run leaves behind: per-tick plurality
/// snapshots (`plur[t]` = after tick `t`; `plur[0]` = empty session),
/// the final truths + posterior bits, and the raw WAL/snapshot bytes.
struct Reference {
    plur: Vec<Vec<Option<u8>>>,
    truths: Vec<Answer>,
    posteriors: Vec<Vec<u64>>,
    wal: Vec<u8>,
    snap: Option<Vec<u8>>,
}

/// One submit + one drain tick per batch — the schedule every recovery
/// continuation below mirrors.
fn run_reference(
    config: &StreamConfig,
    batches: &[Vec<AnswerRecord>],
    snapshot_every: u64,
) -> Reference {
    let dir = TempDir::new("ref");
    let serve = CrowdServe::new(durable_config(dir.path(), snapshot_every)).unwrap();
    let sid = serve.create_session(config.clone()).unwrap();
    let mut plur = vec![plur_of(&serve, sid)];
    for batch in batches {
        serve.submit(sid, batch.clone()).unwrap();
        let tick = serve.drain_tick();
        assert!(tick.errors.is_empty(), "{:?}", tick.errors);
        assert!(tick.poisoned.is_empty());
        plur.push(plur_of(&serve, sid));
    }
    let report = report_of(&serve, sid).expect("converged");
    let wal = std::fs::read(dir.path().join("wal-0.log")).unwrap();
    let snap = std::fs::read(dir.path().join("snap-0.snap")).ok();
    Reference {
        plur,
        truths: report.result.truths.clone(),
        posteriors: posterior_bits(&report.result.posteriors),
        wal,
        snap,
    }
}

const KIND_HEADER: u8 = 0x01;
const KIND_BATCH: u8 = 0x02;
const KIND_CONVERGE: u8 = 0x03;

/// Walk the frame structure of a WAL: `(end_offset, kind)` per frame.
fn frames_of(bytes: &[u8]) -> Vec<(usize, u8)> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        frames.push((pos + 8 + len, bytes[pos + 8]));
        pos += 8 + len;
    }
    frames
}

// ---------------------------------------------------------------------------
// 1. Kill at every frame boundary → bit-identical recovery

#[test]
fn kill_at_every_frame_boundary_recovers_bit_identically() {
    for (method, dataset) in [
        (Method::Ds, PaperDataset::DProduct),
        (Method::Ds, PaperDataset::DPosSent),
        (Method::Zc, PaperDataset::DProduct),
        (Method::Zc, PaperDataset::DPosSent),
    ] {
        // 5 batches at snapshot cadence 2: the last converge (5) is never
        // covered by a snapshot, so every recovery that replays the full
        // log re-runs at least one converge and has a `last_report`.
        let (config, batches) = session_batches(method, dataset, 5, 11);
        let reference = run_reference(&config, &batches, 2);
        let frames = frames_of(&reference.wal);
        // One batch per tick: header + (batch, converge) per batch.
        assert_eq!(frames.len(), 1 + 2 * batches.len());

        for kill in 1..=frames.len() {
            let prefix = &frames[..kill];
            let ingested = prefix.iter().filter(|&&(_, k)| k == KIND_BATCH).count();
            let converged = prefix.iter().filter(|&&(_, k)| k == KIND_CONVERGE).count();

            // Materialise the crash: the WAL cut at this frame boundary,
            // the snapshot file as the full run left it (possibly "from
            // the future" relative to the cut — recovery must detect that
            // and fall back to pure replay).
            let dir = TempDir::new("kill");
            std::fs::write(
                dir.path().join("wal-0.log"),
                &reference.wal[..prefix.last().unwrap().0],
            )
            .unwrap();
            if let Some(snap) = &reference.snap {
                std::fs::write(dir.path().join("snap-0.snap"), snap).unwrap();
            }

            let (serve, report) =
                CrowdServe::recover(durable_config(dir.path(), 2)).expect("recovery succeeds");
            assert_eq!(report.sessions_recovered, 1, "kill={kill}");
            assert_eq!(report.sessions_skipped, 0);
            assert_eq!(report.torn_tails_truncated, 0, "cut at a frame boundary");
            let sid = serve.sessions()[0];

            // Immediately after recovery the engine holds exactly the
            // converged prefix; logged-but-unconverged batches are queued.
            assert_eq!(
                plur_of(&serve, sid),
                reference.plur[converged],
                "{method:?}/{dataset:?} kill={kill}: post-recovery plurality"
            );
            let stats = serve.truth(sid).unwrap().stats.clone();
            let tail_answers: usize = batches[converged..ingested].iter().map(Vec::len).sum();
            assert_eq!(serve.stats().queued_answers, tail_answers);
            assert_eq!(
                stats.answers_seen,
                batches[..converged].iter().map(Vec::len).sum::<usize>()
            );

            // Continue the remaining schedule: first absorb any requeued
            // tail, then one submit + tick per outstanding batch.
            if ingested > converged {
                let tick = serve.drain_tick();
                assert!(tick.errors.is_empty(), "{:?}", tick.errors);
            }
            for batch in &batches[ingested..] {
                serve.submit(sid, batch.clone()).unwrap();
                let tick = serve.drain_tick();
                assert!(tick.errors.is_empty(), "{:?}", tick.errors);
            }
            assert_eq!(plur_of(&serve, sid), *reference.plur.last().unwrap());
            let report = report_of(&serve, sid).expect("converged");
            assert_eq!(
                report.result.truths, reference.truths,
                "{method:?}/{dataset:?} kill={kill}: final truths"
            );
            assert_eq!(
                posterior_bits(&report.result.posteriors),
                reference.posteriors,
                "{method:?}/{dataset:?} kill={kill}: final posteriors"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Torn tails: every byte offset, every single-byte corruption

/// Small synthetic session: distinct batch sizes so every prefix has a
/// unique answer count; Mv so the hundreds of replays are cheap.
fn tiny_session() -> (StreamConfig, Vec<Vec<AnswerRecord>>) {
    let config = StreamConfig::new(Method::Mv, TaskType::DecisionMaking, 6, 4);
    let mut batches = Vec::new();
    let mut k = 0usize;
    for size in [5usize, 4, 6] {
        batches.push(
            (0..size)
                .map(|i| {
                    let j = k + i; // unique (task, worker) per record: j < 24
                    AnswerRecord {
                        task: j % 6,
                        worker: (j / 6) % 4,
                        answer: Answer::Label((j / 3 % 2) as u8),
                    }
                })
                .collect(),
        );
        k += size;
    }
    (config, batches)
}

/// Per-truncation expectations, derived from the frame structure of the
/// full WAL.
fn expect_for_prefix(
    frames: &[(usize, u8)],
    batches: &[Vec<AnswerRecord>],
    valid_bytes: usize,
) -> Option<(usize, usize)> {
    let complete = frames.iter().take_while(|&&(end, _)| end <= valid_bytes);
    let mut saw_header = false;
    let mut ingested = 0usize;
    let mut converged = 0usize;
    for &(_, kind) in complete {
        match kind {
            KIND_HEADER => saw_header = true,
            KIND_BATCH => ingested += 1,
            KIND_CONVERGE => converged += 1,
            _ => unreachable!(),
        }
    }
    if !saw_header {
        return None;
    }
    let engine_answers = batches[..converged].iter().map(Vec::len).sum();
    let queued = batches[converged..ingested].iter().map(Vec::len).sum();
    Some((engine_answers, queued))
}

#[test]
fn truncation_at_every_byte_offset_recovers_longest_valid_prefix() {
    let (config, batches) = tiny_session();
    let reference = run_reference(&config, &batches, 0);
    let frames = frames_of(&reference.wal);
    let dir = TempDir::new("torn");
    let wal_path = dir.path().join("wal-0.log");

    for cut in 0..=reference.wal.len() {
        std::fs::write(&wal_path, &reference.wal[..cut]).unwrap();
        let (serve, report) = CrowdServe::recover(durable_config(dir.path(), 0))
            .unwrap_or_else(|e| panic!("cut={cut}: recover errored: {e}"));
        match expect_for_prefix(&frames, &batches, cut) {
            None => {
                // Not even a header survived: the session is skipped, the
                // service itself still comes up.
                assert_eq!(report.sessions_recovered, 0, "cut={cut}");
                assert_eq!(report.sessions_skipped, 1, "cut={cut}");
                assert_eq!(report.skipped.len(), 1);
                assert!(report.per_session.is_empty(), "cut={cut}");
            }
            Some((engine_answers, queued)) => {
                assert_eq!(report.sessions_recovered, 1, "cut={cut}");
                assert_eq!(report.sessions_skipped, 0, "cut={cut}");
                let at_boundary = frames.iter().any(|&(end, _)| end == cut);
                assert_eq!(
                    report.torn_tails_truncated,
                    usize::from(!at_boundary),
                    "cut={cut}"
                );
                assert_eq!(report.answers_requeued, queued, "cut={cut}");
                // Per-session accounting matches the frame structure of
                // the WAL bytes actually on disk: every complete frame
                // within the cut counts, torn tail bytes do not.
                let disk = std::fs::read(&wal_path).unwrap();
                let valid = frames_of(&disk);
                assert_eq!(report.per_session.len(), 1, "cut={cut}");
                let counts = &report.per_session[0];
                assert_eq!(counts.wal_frames, valid.len() as u64, "cut={cut}");
                assert_eq!(
                    counts.wal_bytes,
                    valid.last().map_or(0, |&(end, _)| end) as u64,
                    "cut={cut}"
                );
                let converges = valid.iter().filter(|&&(_, k)| k == KIND_CONVERGE).count();
                assert_eq!(counts.converges_replayed, converges as u64, "cut={cut}");
                assert_eq!(counts.answers_requeued, queued, "cut={cut}");
                let sid = serve.sessions()[0];
                assert_eq!(
                    serve.truth(sid).unwrap().stats.answers_seen,
                    engine_answers,
                    "cut={cut}"
                );
                // The recovered service is live: the requeued tail (if
                // any) drains, and new submits append to the healed log.
                serve.drain_tick();
                assert_eq!(
                    serve.truth(sid).unwrap().stats.answers_seen,
                    engine_answers + queued,
                    "cut={cut}"
                );
                serve
                    .submit(
                        sid,
                        vec![AnswerRecord {
                            task: 0,
                            worker: 0,
                            answer: Answer::Label(1),
                        }],
                    )
                    .unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn single_byte_corruption_never_breaks_recovery(
        offset_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let (config, batches) = tiny_session();
        let reference = run_reference(&config, &batches, 0);
        let frames = frames_of(&reference.wal);
        let offset = offset_sel % reference.wal.len();
        let mut bytes = reference.wal.clone();
        bytes[offset] ^= flip;

        let dir = TempDir::new("flip");
        std::fs::write(dir.path().join("wal-0.log"), &bytes).unwrap();
        let (serve, report) = CrowdServe::recover(durable_config(dir.path(), 0))
            .expect("recover never errors on corruption");
        prop_assert_eq!(report.sessions_recovered + report.sessions_skipped, 1);

        // The corrupted frame ends the valid prefix; everything before it
        // survives byte-for-byte.
        let mut victim_start = 0usize;
        for &(end, _) in &frames {
            if offset < end {
                break;
            }
            victim_start = end;
        }
        match expect_for_prefix(&frames, &batches, victim_start) {
            None => prop_assert_eq!(report.sessions_skipped, 1),
            Some((engine_answers, queued)) => {
                prop_assert_eq!(report.sessions_recovered, 1);
                let sid = serve.sessions()[0];
                prop_assert_eq!(
                    serve.truth(sid).unwrap().stats.answers_seen,
                    engine_answers
                );
                prop_assert_eq!(report.answers_requeued, queued);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Snapshots: fast path ≡ replay path; corruption falls back

#[test]
fn intact_snapshot_fast_path_is_bit_identical_to_full_replay() {
    // 5 batches, snapshot every 2 converges → the snapshot covers
    // converges 1-4 and converge 5 is replayed on top of it.
    let (config, batches) = session_batches(Method::Ds, PaperDataset::DProduct, 5, 3);
    let reference = run_reference(&config, &batches, 2);
    assert!(reference.snap.is_some(), "cadence produced a snapshot");

    let with_snap = TempDir::new("snap");
    let without_snap = TempDir::new("nosnap");
    for dir in [&with_snap, &without_snap] {
        std::fs::write(dir.path().join("wal-0.log"), &reference.wal).unwrap();
    }
    std::fs::write(
        with_snap.path().join("snap-0.snap"),
        reference.snap.as_ref().unwrap(),
    )
    .unwrap();

    let (fast, fast_report) = CrowdServe::recover(durable_config(with_snap.path(), 2)).unwrap();
    let (slow, slow_report) = CrowdServe::recover(durable_config(without_snap.path(), 2)).unwrap();
    assert_eq!(fast_report.snapshots_used, 1);
    assert_eq!(fast_report.snapshot_fallbacks, 0);
    assert_eq!(slow_report.snapshots_used, 0);
    assert!(
        fast_report.converges_replayed < slow_report.converges_replayed,
        "the snapshot skipped EM work ({} vs {})",
        fast_report.converges_replayed,
        slow_report.converges_replayed
    );
    let sid = fast.sessions()[0];
    assert_eq!(
        plur_of(&fast, sid),
        plur_of(&slow, sid),
        "snapshot path ≡ replay path"
    );
    assert_eq!(plur_of(&fast, sid), *reference.plur.last().unwrap());
    for serve in [&fast, &slow] {
        let report = report_of(serve, sid).expect("converge 5 replayed");
        assert_eq!(report.result.truths, reference.truths);
        assert_eq!(
            posterior_bits(&report.result.posteriors),
            reference.posteriors
        );
    }
}

#[test]
fn corrupt_snapshot_falls_back_to_full_wal_replay() {
    let (config, batches) = session_batches(Method::Ds, PaperDataset::DProduct, 5, 3);
    let reference = run_reference(&config, &batches, 2);
    let mut snap = reference.snap.clone().expect("cadence produced a snapshot");
    let mid = snap.len() / 2;
    snap[mid] ^= 0xA5;

    let dir = TempDir::new("badsnap");
    std::fs::write(dir.path().join("wal-0.log"), &reference.wal).unwrap();
    std::fs::write(dir.path().join("snap-0.snap"), &snap).unwrap();

    let (serve, report) = CrowdServe::recover(durable_config(dir.path(), 2)).unwrap();
    assert_eq!(report.sessions_recovered, 1);
    assert_eq!(report.snapshots_used, 0);
    assert_eq!(report.snapshot_fallbacks, 1, "corruption detected");
    let sid = serve.sessions()[0];
    let last = report_of(&serve, sid).expect("full replay converged");
    assert_eq!(last.result.truths, reference.truths);
    assert_eq!(
        posterior_bits(&last.result.posteriors),
        reference.posteriors
    );
}

#[test]
fn recovery_is_idempotent() {
    let (config, batches) = session_batches(Method::Ds, PaperDataset::DProduct, 4, 5);
    let reference = run_reference(&config, &batches, 2);
    let dir = TempDir::new("idem");
    std::fs::write(dir.path().join("wal-0.log"), &reference.wal).unwrap();
    if let Some(snap) = &reference.snap {
        std::fs::write(dir.path().join("snap-0.snap"), snap).unwrap();
    }
    let mut pluralities = Vec::new();
    for _ in 0..2 {
        let (serve, report) = CrowdServe::recover(durable_config(dir.path(), 2)).unwrap();
        assert_eq!(report.sessions_recovered, 1);
        pluralities.push(plur_of(&serve, serve.sessions()[0]));
    }
    assert_eq!(
        pluralities[0], pluralities[1],
        "recover · recover ≡ recover"
    );
}

// ---------------------------------------------------------------------------
// 4. Graceful degradation

#[test]
fn poisoned_session_auto_restarts_from_checkpoint_bit_identically() {
    let (config, batches) = session_batches(Method::Ds, PaperDataset::DProduct, 5, 7);
    let reference = run_reference(&config, &batches, 2);

    let dir = TempDir::new("restart");
    let mut cfg = durable_config(dir.path(), 2);
    // Converge attempt #2 (the third tick's converge) panics; the retry
    // (attempt #3) draws a fresh decision and proceeds.
    cfg.fault = FaultPlan::seeded(9)
        .schedule(
            FaultSite::Converge {
                session: 0,
                index: 2,
            },
            FaultKind::Panic,
        )
        .build();
    let serve = CrowdServe::new(cfg).unwrap();
    let sid = serve.create_session(config).unwrap();

    for (t, batch) in batches.iter().enumerate() {
        serve.submit(sid, batch.clone()).unwrap();
        let tick = serve.drain_tick();
        if t == 2 {
            // The scheduled panic fires: the session is poisoned, reads
            // fail typed…
            assert_eq!(tick.poisoned, vec![sid]);
            assert!(serve.truth(sid).unwrap().state.is_stale());
            // …and the next tick restarts it from checkpoint + WAL and
            // re-runs the interrupted converge, landing exactly where the
            // clean run was after its own tick 3.
            let tick = serve.drain_tick();
            assert_eq!(tick.sessions_restarted, 1);
            assert!(tick.poisoned.is_empty());
            assert!(tick.errors.is_empty(), "{:?}", tick.errors);
            assert_eq!(plur_of(&serve, sid), reference.plur[t + 1]);
            assert_eq!(serve.truth(sid).unwrap().stats.restarts, 1);
        } else {
            assert!(tick.poisoned.is_empty());
            assert_eq!(plur_of(&serve, sid), reference.plur[t + 1]);
        }
    }
    let report = report_of(&serve, sid).expect("converged");
    assert_eq!(report.result.truths, reference.truths);
    assert_eq!(
        posterior_bits(&report.result.posteriors),
        reference.posteriors
    );
}

#[test]
fn restart_budget_exhausts_into_stable_poisoned_state() {
    let dir = TempDir::new("exhaust");
    let mut cfg = durable_config(dir.path(), 2);
    if let Some(dur) = cfg.durability.as_mut() {
        dur.max_session_restarts = 2;
    }
    // Every converge attempt panics.
    cfg.fault = FaultPlan::seeded(3).converge_panic_rate(1.0).build();
    let serve = CrowdServe::new(cfg).unwrap();
    let (config, batches) = tiny_session();
    let sid = serve.create_session(config).unwrap();
    serve.submit(sid, batches[0].clone()).unwrap();

    let tick = serve.drain_tick();
    assert_eq!(tick.poisoned, vec![sid]);
    let mut restarts_seen = 0;
    for _ in 0..4 {
        restarts_seen += serve.drain_tick().sessions_restarted;
    }
    assert_eq!(restarts_seen, 2, "restart budget respected");
    assert_eq!(serve.stats().poisoned_sessions, 1, "then it stays poisoned");
    assert!(matches!(
        serve.submit(sid, batches[1].clone()),
        Err(ServeError::SessionPoisoned(_))
    ));
    // Eviction still reclaims the slot and reports the cause.
    let evicted = serve.evict(sid).unwrap();
    assert!(evicted.poisoned.expect("cause kept").contains("injected"));
}

#[test]
fn wedged_wal_fails_submits_typed_while_reads_keep_serving() {
    let dir = TempDir::new("wedge");
    let mut cfg = durable_config(dir.path(), 0);
    // Frame appends: header=0, first batch=1, its converge frame=2. An
    // injected error on the converge frame wedges the log (the engine
    // converged but the log missed it — later replays would diverge).
    cfg.fault = FaultPlan::seeded(4)
        .schedule(
            FaultSite::WalAppend {
                session: 0,
                index: 2,
            },
            FaultKind::Error,
        )
        .build();
    let serve = CrowdServe::new(cfg).unwrap();
    let (config, batches) = tiny_session();
    let sid = serve.create_session(config).unwrap();
    serve.submit(sid, batches[0].clone()).unwrap();
    let tick = serve.drain_tick();
    assert_eq!(tick.errors.len(), 1);
    assert!(tick.errors[0].1.contains("wedged"), "{}", tick.errors[0].1);

    // Reads still serve the converged state…
    assert_eq!(plur_of(&serve, sid).len(), 6);
    assert!(report_of(&serve, sid).is_some());
    // …but submits refuse typed until restart/evict.
    match serve.submit(sid, batches[1].clone()).unwrap_err() {
        ServeError::Durability { session, detail } => {
            assert_eq!(session, Some(sid));
            assert!(detail.contains("wedged"), "{detail}");
        }
        other => panic!("expected Durability, got {other}"),
    }
    let evicted = serve.evict(sid).unwrap();
    assert_eq!(evicted.answers_seen, batches[0].len());
}

#[test]
fn relaxed_fsync_policies_still_recover_after_clean_process_exit() {
    for policy in [FsyncPolicy::EveryN(3), FsyncPolicy::Never] {
        let dir = TempDir::new("fsync");
        let mut cfg = durable_config(dir.path(), 2);
        if let Some(dur) = cfg.durability.as_mut() {
            dur.fsync = policy;
        }
        let (config, batches) = tiny_session();
        {
            let serve = CrowdServe::new(cfg.clone()).unwrap();
            let sid = serve.create_session(config).unwrap();
            for batch in &batches {
                serve.submit(sid, batch.clone()).unwrap();
                serve.drain_tick();
            }
        } // drop = clean exit: the OS has the unsynced bytes
        let (serve, report) = CrowdServe::recover(cfg).unwrap();
        assert_eq!(report.sessions_recovered, 1, "{policy:?}");
        let sid = serve.sessions()[0];
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, total);
    }
}

#[test]
fn eviction_retires_durable_state() {
    let dir = TempDir::new("evict");
    let serve = CrowdServe::new(durable_config(dir.path(), 1)).unwrap();
    let (config, batches) = tiny_session();
    let sid = serve.create_session(config.clone()).unwrap();
    let sibling = serve.create_session(config.clone()).unwrap();
    serve.submit(sid, batches[0].clone()).unwrap();
    serve.submit(sibling, batches[1].clone()).unwrap();
    serve.drain_tick();
    assert!(dir.path().join("wal-0.log").exists());
    serve.evict(sid).unwrap();
    assert!(!dir.path().join("wal-0.log").exists(), "wal deleted");
    assert!(!dir.path().join("snap-0.snap").exists(), "snapshot deleted");
    // A recovery after the eviction resurrects only the sibling, and new
    // session ids continue past every id the directory has ever seen.
    drop(serve);
    let (serve, report) = CrowdServe::recover(durable_config(dir.path(), 1)).unwrap();
    assert_eq!(report.sessions_recovered, 1);
    assert_eq!(serve.sessions(), vec![sibling]);
    let fresh = serve.create_session(config).unwrap();
    assert_ne!(fresh, sid);
    assert_ne!(fresh, sibling);
}
