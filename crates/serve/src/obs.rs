//! Cached `serve.*` metric handles (see ARCHITECTURE.md § Observability
//! for the naming scheme). Registration happens once per process via
//! `OnceLock`; every hot-path use after that is a couple of atomic ops.

use std::sync::OnceLock;

macro_rules! handle {
    ($fn_name:ident, counter, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static crowd_obs::Counter {
            static H: OnceLock<crowd_obs::Counter> = OnceLock::new();
            H.get_or_init(|| crowd_obs::counter($name))
        }
    };
    ($fn_name:ident, gauge, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static crowd_obs::Gauge {
            static H: OnceLock<crowd_obs::Gauge> = OnceLock::new();
            H.get_or_init(|| crowd_obs::gauge($name))
        }
    };
    ($fn_name:ident, histogram, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static crowd_obs::Histogram {
            static H: OnceLock<crowd_obs::Histogram> = OnceLock::new();
            H.get_or_init(|| crowd_obs::histogram($name))
        }
    };
}

// Ingest front.
handle!(ingest_batches, counter, "serve.ingest.batches_total");
handle!(ingest_answers, counter, "serve.ingest.answers_total");
handle!(
    ingest_backpressure,
    counter,
    "serve.ingest.backpressure_rejects_total"
);
handle!(ingest_queued, gauge, "serve.ingest.queued_answers");

// Shard drain ticks.
handle!(shard_tick_seconds, histogram, "serve.shard.tick_seconds");
handle!(
    shard_answers_ingested,
    counter,
    "serve.shard.answers_ingested_total"
);
handle!(
    shard_sessions_converged,
    counter,
    "serve.shard.sessions_converged_total"
);
handle!(
    shard_budget_exhausted,
    counter,
    "serve.shard.budget_exhausted_total"
);
handle!(
    shard_poisoned,
    counter,
    "serve.shard.sessions_poisoned_total"
);
handle!(
    shard_restarts,
    counter,
    "serve.shard.session_restarts_total"
);

// Write-ahead log.
handle!(wal_append_seconds, histogram, "serve.wal.append_seconds");
handle!(wal_appends, counter, "serve.wal.appends_total");
handle!(wal_fsync_seconds, histogram, "serve.wal.fsync_seconds");
handle!(wal_fsyncs, counter, "serve.wal.fsyncs_total");
handle!(
    wal_append_failures,
    counter,
    "serve.wal.append_failures_total"
);
handle!(wal_faults, counter, "serve.wal.faults_total");

// Snapshots.
handle!(
    snapshot_write_seconds,
    histogram,
    "serve.snapshot.write_seconds"
);
handle!(snapshot_writes, counter, "serve.snapshot.writes_total");
handle!(snapshot_failures, counter, "serve.snapshot.failures_total");
handle!(snapshot_faults, counter, "serve.snapshot.faults_total");

// Published truth snapshots (the read path).
handle!(truth_publishes, counter, "serve.truth.publishes_total");
handle!(truth_reads, counter, "serve.truth.reads_total");
handle!(truth_read_seconds, histogram, "serve.truth.read_seconds");

// Recovery.
handle!(
    recovery_scan_seconds,
    histogram,
    "serve.recovery.scan_seconds"
);
handle!(
    recovery_snapshot_load_seconds,
    histogram,
    "serve.recovery.snapshot_load_seconds"
);
handle!(
    recovery_replay_seconds,
    histogram,
    "serve.recovery.replay_seconds"
);
handle!(
    recovery_requeue_seconds,
    histogram,
    "serve.recovery.requeue_seconds"
);
handle!(
    recovery_sessions_recovered,
    counter,
    "serve.recovery.sessions_recovered_total"
);
handle!(
    recovery_sessions_skipped,
    counter,
    "serve.recovery.sessions_skipped_total"
);
handle!(
    recovery_converges_replayed,
    counter,
    "serve.recovery.converges_replayed_total"
);
handle!(
    recovery_answers_requeued,
    counter,
    "serve.recovery.answers_requeued_total"
);
handle!(
    recovery_wal_frames,
    counter,
    "serve.recovery.wal_frames_total"
);
handle!(
    recovery_wal_bytes,
    counter,
    "serve.recovery.wal_bytes_total"
);
