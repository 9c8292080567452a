//! The two service-layer guarantees, pinned:
//!
//! 1. **Bit-identical multi-tenancy** — K concurrent sessions fed
//!    interleaved deltas (submitted from K threads, drained by sharded
//!    pool workers) produce truths and posteriors **bit-identical** to K
//!    sequential single-session `StreamEngine` replays of the same
//!    per-session batch sequences, budgeted ticks included.
//! 2. **Failure isolation** — a panic inside one session's converge
//!    poisons only that session; sibling sessions on the same and other
//!    shards keep serving with unchanged outputs.

use std::sync::Arc;

use crowd_core::{DMat, Method};
use crowd_data::datasets::PaperDataset;
use crowd_data::{AnswerRecord, StreamSession};
use crowd_serve::{
    CrowdServe, FaultKind, FaultPlan, FaultSite, ServeConfig, ServeError, SessionId,
};
use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine};
use proptest::prelude::*;

/// Per-session replay source: a scaled paper dataset split into batches.
fn session_batches(seed: u64, batch_count: usize) -> (StreamConfig, Vec<Vec<AnswerRecord>>) {
    let d = PaperDataset::DProduct.generate(0.04, seed);
    let config = StreamConfig::new(Method::Ds, d.task_type(), d.num_tasks(), d.num_workers());
    let batch_size = d.num_answers().div_ceil(batch_count).max(1);
    let batches = StreamSession::from_dataset(&d, batch_size)
        .map(|b| b.records)
        .collect();
    (config, batches)
}

/// An S_Rel-shaped session (ℓ = 4) whose answers arrive round-robin
/// across tasks: each task's own answer order is kept, and answers to
/// different tasks interleave.
fn round_robin_session(seed: u64, batch_count: usize) -> (StreamConfig, Vec<Vec<AnswerRecord>>) {
    let d = PaperDataset::SRel.generate(0.01, seed);
    let config = StreamConfig::new(Method::Ds, d.task_type(), d.num_tasks(), d.num_workers());
    let mut by_task: Vec<_> = (0..d.num_tasks()).map(|t| d.answers_for_task(t)).collect();
    let mut arrival: Vec<AnswerRecord> = Vec::with_capacity(d.num_answers());
    while arrival.len() < d.num_answers() {
        arrival.extend(
            by_task
                .iter_mut()
                .filter_map(|answers| answers.next().copied()),
        );
    }
    let batch_size = arrival.len().div_ceil(batch_count).max(1);
    let batches = arrival.chunks(batch_size).map(<[_]>::to_vec).collect();
    (config, batches)
}

/// Posterior matrix as raw bits, for exact comparison.
fn posterior_bits(p: &Option<Arc<DMat>>) -> Vec<Vec<u64>> {
    p.as_ref()
        .map(|m| {
            (0..m.rows())
                .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
                .collect()
        })
        .unwrap_or_default()
}

/// Drive the serve path: one submitting thread per session per round,
/// one drain tick per round, then drain until every session is clean.
/// Returns each session's final report (truths + posteriors).
fn run_served(
    shards: usize,
    budget: usize,
    sessions: &[(StreamConfig, Vec<Vec<AnswerRecord>>)],
) -> Vec<(Vec<crowd_data::Answer>, Vec<Vec<u64>>)> {
    let serve = CrowdServe::new(ServeConfig {
        shards,
        tick_iteration_budget: budget,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let ids: Vec<SessionId> = sessions
        .iter()
        .map(|(cfg, _)| serve.create_session(cfg.clone()).expect("valid session"))
        .collect();

    let rounds = sessions.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
    for round in 0..rounds {
        // Interleaved ingest: every session that still has a batch this
        // round submits it from its own thread, concurrently.
        std::thread::scope(|scope| {
            for (k, (_, batches)) in sessions.iter().enumerate() {
                if let Some(batch) = batches.get(round) {
                    let serve = &serve;
                    let sid = ids[k];
                    let records = batch.clone();
                    scope.spawn(move || serve.submit(sid, records).expect("in capacity"));
                }
            }
        });
        let tick = serve.drain_tick();
        assert_eq!(tick.shard_failures, 0);
        assert!(tick.poisoned.is_empty());
        assert!(tick.errors.is_empty(), "replay is valid: {:?}", tick.errors);
    }
    // Budget-exhausted sessions keep resuming on further ticks.
    for _ in 0..400 {
        if ids
            .iter()
            .all(|&sid| !serve.truth(sid).unwrap().stats.needs_converge)
        {
            break;
        }
        serve.drain_tick();
    }
    ids.iter()
        .map(|&sid| {
            let snap = serve.truth(sid).unwrap();
            assert!(!snap.stats.needs_converge, "session never converged");
            let report = snap.report.as_ref().expect("converged at least once");
            (
                report.result.truths.clone(),
                posterior_bits(&report.result.posteriors),
            )
        })
        .collect()
}

/// The sequential reference: a lone `StreamEngine` per session, same
/// batch sequence, same budgeted converge at every point a drain tick
/// would have converged it.
fn run_sequential(
    budget: usize,
    sessions: &[(StreamConfig, Vec<Vec<AnswerRecord>>)],
) -> Vec<(Vec<crowd_data::Answer>, Vec<Vec<u64>>)> {
    sessions
        .iter()
        .map(|(cfg, batches)| {
            let mut engine = StreamEngine::new(cfg.clone()).expect("valid session");
            let rounds = sessions.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
            let mut last = None;
            for round in 0..rounds {
                if let Some(batch) = batches.get(round) {
                    engine.push_batch(batch).expect("valid replay");
                }
                if engine.needs_converge() {
                    last = Some(
                        engine
                            .converge_budgeted(ConvergeBudget::iterations(budget))
                            .expect("converges"),
                    );
                }
            }
            for _ in 0..400 {
                if !engine.needs_converge() {
                    break;
                }
                last = Some(
                    engine
                        .converge_budgeted(ConvergeBudget::iterations(budget))
                        .expect("converges"),
                );
            }
            let report = last.expect("at least one converge");
            assert!(report.result.converged);
            (
                report.result.truths.clone(),
                posterior_bits(&report.result.posteriors),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K concurrent sessions ≡ K sequential replays, bit for bit — over
    /// random session counts, shard counts, batch splits, and iteration
    /// budgets (including budgets small enough to force multi-tick
    /// resumes). One more session is single-choice with round-robin
    /// arrival across tasks.
    #[test]
    fn concurrent_sessions_match_sequential_replay(
        k in 2usize..=4,
        shards in 1usize..=3,
        batch_count in 2usize..=4,
        budget_sel in 0usize..=2,
        seed in 0u64..1000,
    ) {
        let budget = [3, 25, usize::MAX][budget_sel];
        let mut sessions: Vec<_> = (0..k)
            .map(|i| session_batches(seed * 7 + i as u64, batch_count))
            .collect();
        sessions.push(round_robin_session(seed, batch_count));
        let served = run_served(shards, budget, &sessions);
        let sequential = run_sequential(budget, &sessions);
        prop_assert_eq!(served, sequential);
    }
}

#[test]
fn eight_sessions_bit_identical_to_sequential() {
    // The acceptance floor, pinned deterministically: ≥ 8 concurrent
    // sessions across 4 shards, every output bit-identical to sequential
    // single-session replay.
    let sessions: Vec<_> = (0..8).map(|i| session_batches(100 + i, 3)).collect();
    let served = run_served(4, usize::MAX, &sessions);
    let sequential = run_sequential(usize::MAX, &sessions);
    assert_eq!(served, sequential);
}

#[test]
fn panic_in_one_session_leaves_siblings_serving() {
    let sessions: Vec<_> = (0..4).map(|i| session_batches(40 + i, 2)).collect();
    // Deterministic chaos: session 1 (creation order) panics on its
    // second converge attempt (index 1), scheduled through the fault
    // plan rather than any test-only hook.
    let serve = CrowdServe::new(ServeConfig {
        shards: 2,
        fault: FaultPlan::seeded(0)
            .schedule(
                FaultSite::Converge {
                    session: 1,
                    index: 1,
                },
                FaultKind::Panic,
            )
            .build(),
        ..ServeConfig::default()
    })
    .unwrap();
    let ids: Vec<SessionId> = sessions
        .iter()
        .map(|(cfg, _)| serve.create_session(cfg.clone()).unwrap())
        .collect();

    // First round for everyone.
    for (k, (_, batches)) in sessions.iter().enumerate() {
        serve.submit(ids[k], batches[0].clone()).unwrap();
    }
    serve.drain_tick();

    // Second round: the scheduled fault fires inside session 1's converge.
    for (k, (_, batches)) in sessions.iter().enumerate() {
        serve.submit(ids[k], batches[1].clone()).unwrap();
    }
    let tick = serve.drain_tick();
    assert_eq!(tick.poisoned, vec![ids[1]]);
    assert_eq!(tick.shard_failures, 0);
    assert_eq!(tick.sessions_converged, 3, "siblings converged this tick");

    // The poisoned session's published truth degrades to the typed
    // stale state (writes still refuse with a typed error)...
    let snap = serve.truth(ids[1]).unwrap();
    assert!(snap.state.is_stale(), "poisoned publish: {:?}", snap.state);
    assert!(matches!(
        serve.submit(ids[1], sessions[1].1[0].clone()),
        Err(ServeError::SessionPoisoned(_))
    ));
    assert_eq!(serve.stats().poisoned_sessions, 1);

    // ...while every sibling (including the shard-mate of the poisoned
    // session) matches its sequential single-session replay exactly.
    let sequential = run_sequential(usize::MAX, &sessions);
    for k in [0usize, 2, 3] {
        let snap = serve.truth(ids[k]).unwrap();
        let report = snap.report.as_ref().unwrap();
        assert_eq!(report.result.truths, sequential[k].0, "session {k}");
        assert_eq!(posterior_bits(&report.result.posteriors), sequential[k].1);
    }

    // Eviction reclaims the poisoned slot and reports the cause.
    let evicted = serve.evict(ids[1]).unwrap();
    let msg = evicted.poisoned.expect("poison cause recorded");
    assert!(msg.contains("injected"), "{msg}");
    assert_eq!(serve.stats().poisoned_sessions, 0);
    assert_eq!(serve.stats().sessions, 3);
}
