//! The read path, pinned:
//!
//! 1. **Strictly monotonic epochs** — readers polling from several
//!    threads while drain ticks run concurrently only ever see the
//!    epoch counter advance, never repeat or regress, and every
//!    snapshot is internally consistent (no torn plurality/report
//!    pairs).
//! 2. **Snapshot fidelity** — the published snapshot after a replay is
//!    bit-identical to a lone `StreamEngine` replay of the same batch
//!    schedule: same plurality, same posterior bits, same counters.
//! 3. **Readers survive eviction** — a `TruthReader` held across
//!    `evict` degrades to the typed `SessionGone` state carrying the
//!    session's final truths; it never errors or dangles.
//! 4. **Epochs survive recovery** — `CrowdServe::recover` re-seeds the
//!    epoch counter above anything the pre-crash service published, so
//!    a reader re-acquired after recovery still sees monotone epochs.
//!
//! (The wedged-converge read latency check lives in the crate's
//! unit tests — it needs the `ConvergeGate` debug hook, which is only
//! compiled for the crate's own test build.)

use crowd_core::{DMat, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::{AnswerRecord, StreamSession};
use crowd_serve::{CrowdServe, DurabilityConfig, FsyncPolicy, ServeConfig};
use crowd_stream::{StreamConfig, StreamEngine};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Self-cleaning scratch directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "crowd-serve-read-path-{}-{tag}-{n}",
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

/// A session's replay source: a scaled paper dataset split into batches.
fn session_batches(batch_count: usize, seed: u64) -> (StreamConfig, Vec<Vec<AnswerRecord>>) {
    let d = PaperDataset::DProduct.generate(0.03, seed);
    let config = StreamConfig::new(Method::Ds, d.task_type(), d.num_tasks(), d.num_workers());
    let batch_size = d.num_answers().div_ceil(batch_count).max(1);
    let batches = StreamSession::from_dataset(&d, batch_size)
        .map(|b| b.records)
        .collect();
    (config, batches)
}

fn posterior_bits(p: Option<&DMat>) -> Vec<Vec<u64>> {
    p.map(|m| {
        (0..m.rows())
            .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
            .collect()
    })
    .unwrap_or_default()
}

#[test]
fn epochs_are_strictly_monotonic_under_concurrent_ticks() {
    let (config, batches) = session_batches(6, 21);
    let serve = CrowdServe::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let sid = serve.create_session(config).unwrap();
    let reader = serve.reader(sid).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // 4 clones, 4 polling threads — each clone caches its own snapshot.
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let r = reader.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = r.snapshot();
                        assert!(
                            snap.epoch >= last,
                            "epoch regressed: {} after {last}",
                            snap.epoch
                        );
                        if snap.epoch > last {
                            seen += 1;
                            // Internal consistency at every epoch: the
                            // report (when present) describes the same
                            // answer count as the stats — a torn
                            // publish would break this immediately.
                            if let Some(report) = &snap.report {
                                assert_eq!(report.answers_seen, snap.stats.answers_seen);
                                assert_eq!(snap.plurality.len(), report.result.truths.len());
                            }
                        }
                        last = snap.epoch;
                    }
                    (last, seen)
                })
            })
            .collect();

        for batch in &batches {
            serve.submit(sid, batch.clone()).unwrap();
            let tick = serve.drain_tick();
            assert!(tick.errors.is_empty(), "{:?}", tick.errors);
        }
        stop.store(true, Ordering::Relaxed);
        let final_epoch = serve.truth(sid).unwrap().epoch;
        // create_session published epoch 1; each tick published one more.
        assert_eq!(final_epoch, 1 + batches.len() as u64);
        for p in pollers {
            let (last, _seen) = p.join().unwrap();
            assert!(last <= final_epoch);
        }
    });
}

#[test]
fn published_snapshot_is_bit_identical_to_lone_engine_replay() {
    let (config, batches) = session_batches(5, 33);
    let serve = CrowdServe::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let sid = serve.create_session(config.clone()).unwrap();
    for batch in &batches {
        serve.submit(sid, batch.clone()).unwrap();
        let tick = serve.drain_tick();
        assert!(tick.errors.is_empty(), "{:?}", tick.errors);
    }
    let snap = serve.truth(sid).unwrap();

    // The reference: a lone engine, same schedule, default (unbudgeted)
    // converge per batch — exactly what the drain ticks ran.
    let mut engine = StreamEngine::new(config).unwrap();
    let mut last = None;
    for batch in &batches {
        engine.push_batch(batch).unwrap();
        if engine.needs_converge() {
            last = Some(engine.converge().unwrap());
        }
    }
    let reference = last.expect("converged");

    assert!(snap.state.is_live());
    assert_eq!(snap.plurality, engine.current_estimates());
    assert_eq!(snap.stats.answers_seen, engine.answers_seen());
    assert_eq!(snap.stats.converges, engine.converges());
    let report = snap.report.as_ref().expect("converged");
    assert_eq!(report.result.truths, reference.result.truths);
    assert_eq!(
        posterior_bits(snap.posteriors()),
        posterior_bits(reference.result.posteriors.as_deref()),
        "posterior bits diverged from the lone-engine replay"
    );
}

#[test]
fn held_reader_survives_eviction_as_session_gone() {
    let (config, batches) = session_batches(3, 44);
    let serve = CrowdServe::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let sid = serve.create_session(config).unwrap();
    for batch in &batches {
        serve.submit(sid, batch.clone()).unwrap();
        serve.drain_tick();
    }
    let reader = serve.reader(sid).unwrap();
    let live = reader.snapshot();
    assert!(live.state.is_live());
    assert!(live.converged(), "eviction must not need a final converge");

    let evicted = serve.evict(sid).unwrap();
    let final_report = evicted.final_report.expect("converged");
    let final_posteriors = final_report.result.posteriors.as_deref();

    // The service no longer knows the session...
    assert!(serve.truth(sid).is_err());
    assert!(serve.reader(sid).is_err());
    assert!(serve.sessions().is_empty());

    // ...but the held reader keeps serving the terminal snapshot: typed
    // SessionGone, carrying the session's final truths.
    let gone = reader.snapshot();
    assert!(gone.state.is_gone(), "state: {:?}", gone.state);
    assert!(gone.epoch > live.epoch, "eviction published");
    assert_eq!(
        gone.report.as_ref().map(|r| r.result.truths.clone()),
        Some(final_report.result.truths.clone()),
        "terminal snapshot carries the final report"
    );
    // Publishing shares the converge's report instead of copying it:
    // both snapshots and the evicted report hold one posterior matrix.
    for snap in [&live, &gone] {
        assert!(
            snap.posteriors()
                .zip(final_posteriors)
                .is_some_and(|(a, b)| std::ptr::eq(a, b)),
            "epoch {}: posteriors were copied",
            snap.epoch
        );
    }
    // Clones taken after eviction still work (they copy the cached snapshot).
    let clone = reader.clone();
    assert!(clone.snapshot().state.is_gone());
}

#[test]
fn epoch_numbering_survives_wal_recovery() {
    let (config, batches) = session_batches(4, 55);
    let dir = TempDir::new("epoch");
    let durable = || {
        Some(DurabilityConfig {
            dir: dir.path().to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every_converges: 2,
            max_session_restarts: 3,
        })
    };
    let serve = CrowdServe::new(ServeConfig {
        shards: 1,
        durability: durable(),
        ..ServeConfig::default()
    })
    .unwrap();
    let sid = serve.create_session(config).unwrap();
    let (tail, converged) = batches.split_last().unwrap();
    for batch in converged {
        serve.submit(sid, batch.clone()).unwrap();
        serve.drain_tick();
    }
    // Logged but never converged: the crash leaves a WAL tail that
    // recovery must requeue.
    serve.submit(sid, tail.clone()).unwrap();
    let pre_crash = serve.truth(sid).unwrap();
    assert_eq!(pre_crash.epoch, 1 + converged.len() as u64);
    drop(serve); // crash boundary

    let (recovered, report) = CrowdServe::recover(ServeConfig {
        shards: 1,
        durability: durable(),
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(report.sessions_recovered, 1);
    let sid = recovered.sessions()[0];
    let post = recovered.truth(sid).unwrap();
    assert!(
        post.epoch >= pre_crash.epoch,
        "recovery re-seeded below the pre-crash epoch: {} < {}",
        post.epoch,
        pre_crash.epoch
    );
    assert_eq!(post.plurality, pre_crash.plurality, "recovered truths");

    // Epochs keep climbing monotonically from the recovered seed: the
    // requeued tail converges on the next tick and publishes above it.
    let reader = recovered.reader(sid).unwrap();
    let before = reader.snapshot().epoch;
    let tick = recovered.drain_tick();
    assert_eq!(tick.answers_ingested, tail.len());
    let after = reader.snapshot();
    assert!(after.epoch > before);
    assert_eq!(after.stats.answers_seen, batches.iter().map(Vec::len).sum());
}
