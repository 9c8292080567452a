//! Cached `serve.*` metric handles (see ARCHITECTURE.md § Observability
//! for the naming scheme), defined with [`crowd_obs::handle!`]:
//! registration happens once per process, and every hot-path use after
//! that is a couple of atomic ops.

use crowd_obs::handle;

// Ingest front.
handle!(pub(crate) ingest_batches, counter, "serve.ingest.batches_total");
handle!(pub(crate) ingest_answers, counter, "serve.ingest.answers_total");
handle!(
    pub(crate) ingest_backpressure,
    counter,
    "serve.ingest.backpressure_rejects_total"
);
handle!(pub(crate) ingest_queued, gauge, "serve.ingest.queued_answers");

// Shard drain ticks.
handle!(pub(crate) shard_tick_seconds, histogram, "serve.shard.tick_seconds");
handle!(
    pub(crate) shard_answers_ingested,
    counter,
    "serve.shard.answers_ingested_total"
);
handle!(
    pub(crate) shard_sessions_converged,
    counter,
    "serve.shard.sessions_converged_total"
);
handle!(
    pub(crate) shard_budget_exhausted,
    counter,
    "serve.shard.budget_exhausted_total"
);
handle!(
    pub(crate) shard_poisoned,
    counter,
    "serve.shard.sessions_poisoned_total"
);
handle!(
    pub(crate) shard_restarts,
    counter,
    "serve.shard.session_restarts_total"
);

// Write-ahead log.
handle!(pub(crate) wal_append_seconds, histogram, "serve.wal.append_seconds");
handle!(pub(crate) wal_appends, counter, "serve.wal.appends_total");
handle!(pub(crate) wal_fsync_seconds, histogram, "serve.wal.fsync_seconds");
handle!(pub(crate) wal_fsyncs, counter, "serve.wal.fsyncs_total");
handle!(
    pub(crate) wal_append_failures,
    counter,
    "serve.wal.append_failures_total"
);
handle!(pub(crate) wal_faults, counter, "serve.wal.faults_total");

// Snapshots.
handle!(
    pub(crate) snapshot_write_seconds,
    histogram,
    "serve.snapshot.write_seconds"
);
handle!(pub(crate) snapshot_writes, counter, "serve.snapshot.writes_total");
handle!(pub(crate) snapshot_failures, counter, "serve.snapshot.failures_total");
handle!(pub(crate) snapshot_faults, counter, "serve.snapshot.faults_total");

// Published truth snapshots (the read path).
handle!(pub(crate) truth_publishes, counter, "serve.truth.publishes_total");
handle!(pub(crate) truth_reads, counter, "serve.truth.reads_total");
handle!(pub(crate) truth_read_seconds, histogram, "serve.truth.read_seconds");

// Recovery.
handle!(
    pub(crate) recovery_scan_seconds,
    histogram,
    "serve.recovery.scan_seconds"
);
handle!(
    pub(crate) recovery_snapshot_load_seconds,
    histogram,
    "serve.recovery.snapshot_load_seconds"
);
handle!(
    pub(crate) recovery_replay_seconds,
    histogram,
    "serve.recovery.replay_seconds"
);
handle!(
    pub(crate) recovery_requeue_seconds,
    histogram,
    "serve.recovery.requeue_seconds"
);
handle!(
    pub(crate) recovery_sessions_recovered,
    counter,
    "serve.recovery.sessions_recovered_total"
);
handle!(
    pub(crate) recovery_sessions_skipped,
    counter,
    "serve.recovery.sessions_skipped_total"
);
handle!(
    pub(crate) recovery_converges_replayed,
    counter,
    "serve.recovery.converges_replayed_total"
);
handle!(
    pub(crate) recovery_answers_requeued,
    counter,
    "serve.recovery.answers_requeued_total"
);
handle!(
    pub(crate) recovery_wal_frames,
    counter,
    "serve.recovery.wal_frames_total"
);
handle!(
    pub(crate) recovery_wal_bytes,
    counter,
    "serve.recovery.wal_bytes_total"
);
