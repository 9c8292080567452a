//! Periodic snapshot checkpoints of warm `StreamEngine` state.
//!
//! A snapshot lets recovery skip re-running EM over the WAL prefix it
//! covers: the answer log itself is rebuilt by (cheap, deterministic)
//! `push_batch` replay, while the expensive part — the warm posteriors
//! and worker-quality parameters the converge schedule produced — is
//! restored from the checkpoint. The file records the replay position
//! it was taken at (`cum_batches` batch frames absorbed, `cum_converges`
//! converge frames applied) so the replayer knows exactly where to
//! switch from "push, skip EM" to "push and converge".
//!
//! Layout (single frame, same checksum discipline as the WAL):
//!
//! ```text
//! file    := magic:u32le("CSNP")  len:u32le  crc:u32le  payload[len]
//! payload := version:u8  cum_batches:u64  cum_converges:u64  checkpoint
//! ```
//!
//! Writes are atomic: the frame goes to a `.tmp` sibling, is fsynced,
//! then renamed over the target — a crash mid-write leaves either the
//! old snapshot or none, never a torn one. Corruption from outside
//! (bit rot, manual truncation) is still caught by the checksum, and
//! any unreadable snapshot simply downgrades recovery to full-WAL
//! replay — snapshots are an optimisation, never a correctness
//! dependency.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::Arc;

use crowd_core::{DMat, WarmStart, WorkerQuality};
use crowd_stream::EngineCheckpoint;

use super::fault::{FaultKind, FaultPlan, FaultSite};
use super::wal::{crc32, frame_bytes, Dec, Enc};

const MAGIC: u32 = 0x434f_4e53; // "SNOC" little-endian → reads as "CSNP" tag
const VERSION: u8 = 1;
const MAX_SNAPSHOT_LEN: u32 = 256 << 20;

/// A decoded snapshot: an engine checkpoint plus the WAL replay
/// position it was taken at.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// Batch frames the engine had absorbed when the snapshot was taken.
    pub cum_batches: u64,
    /// Converge frames that had been applied when the snapshot was taken.
    pub cum_converges: u64,
    /// The warm engine state (see [`EngineCheckpoint`]).
    pub checkpoint: EngineCheckpoint,
}

/// Write a `rows × cols` matrix: both dimensions, then the cells row
/// by row. An empty matrix is written `0 × 0`.
fn encode_matrix<'a>(e: &mut Enc, rows: usize, cols: usize, cells: impl Iterator<Item = &'a f64>) {
    e.u64(rows as u64);
    e.u64(if rows == 0 { 0 } else { cols } as u64);
    for v in cells {
        e.f64(*v);
    }
}

fn encode_worker_quality(e: &mut Enc, q: &WorkerQuality) {
    match q {
        WorkerQuality::Probability(p) => {
            e.u8(0);
            e.f64(*p);
        }
        WorkerQuality::Weight(w) => {
            e.u8(1);
            e.f64(*w);
        }
        WorkerQuality::Confusion(m) => {
            e.u8(2);
            let cols = m.first().map_or(0, Vec::len);
            encode_matrix(e, m.len(), cols, m.iter().flatten());
        }
        WorkerQuality::Variance(v) => {
            e.u8(3);
            e.f64(*v);
        }
        WorkerQuality::BiasVariance { bias, variance } => {
            e.u8(4);
            e.f64(*bias);
            e.f64(*variance);
        }
        WorkerQuality::Skills(s) => {
            e.u8(5);
            e.u64(s.len() as u64);
            for v in s {
                e.f64(*v);
            }
        }
        WorkerQuality::Unmodeled => e.u8(6),
    }
}

/// Decode a `rows × cols` matrix of at most `max_cells` f64 cells.
/// Each dimension is bounded on its own, by the cell cap and by what
/// the bytes left (8 per cell) can hold, before it sizes an allocation
/// or a loop: bounding only the product lets `cols = 0` pass any `rows`.
/// Rows of width zero are rejected too: no encoder writes them, and a
/// [`DMat`] cannot hold them.
fn decode_matrix(d: &mut Dec<'_>, max_cells: usize) -> Option<DMat> {
    let rows = usize::try_from(d.u64()?).ok()?;
    let cols = usize::try_from(d.u64()?).ok()?;
    let bound = max_cells.min(d.remaining() / 8);
    if rows > bound || cols > bound || rows.checked_mul(cols)? > bound {
        return None;
    }
    if rows > 0 && cols == 0 {
        return None;
    }
    let mut m = DMat::zeros(rows, cols);
    for cell in m.data_mut() {
        *cell = d.f64()?;
    }
    Some(m)
}

fn decode_worker_quality(d: &mut Dec<'_>) -> Option<WorkerQuality> {
    Some(match d.u8()? {
        0 => WorkerQuality::Probability(d.f64()?),
        1 => WorkerQuality::Weight(d.f64()?),
        2 => {
            let m = decode_matrix(d, 1 << 24)?;
            WorkerQuality::Confusion((0..m.rows()).map(|j| m.row(j).to_vec()).collect())
        }
        3 => WorkerQuality::Variance(d.f64()?),
        4 => WorkerQuality::BiasVariance {
            bias: d.f64()?,
            variance: d.f64()?,
        },
        5 => {
            let len = usize::try_from(d.u64()?).ok()?;
            if len > (1 << 24).min(d.remaining() / 8) {
                return None;
            }
            let mut s = Vec::with_capacity(len);
            for _ in 0..len {
                s.push(d.f64()?);
            }
            WorkerQuality::Skills(s)
        }
        6 => WorkerQuality::Unmodeled,
        _ => return None,
    })
}

fn encode_checkpoint(e: &mut Enc, cp: &EngineCheckpoint) {
    e.u64(cp.answers_seen as u64);
    e.u64(cp.converges as u64);
    e.u64(cp.pending_answers as u64);
    e.u8(cp.last_converged as u8);
    match &cp.warm {
        None => e.u8(0),
        Some(w) => {
            e.u8(1);
            match &w.posteriors {
                None => e.u8(0),
                Some(p) => {
                    e.u8(1);
                    encode_matrix(e, p.rows(), p.cols(), p.data().iter());
                }
            }
            e.u64(w.worker_quality.len() as u64);
            for q in &w.worker_quality {
                encode_worker_quality(e, q);
            }
        }
    }
}

fn decode_checkpoint(d: &mut Dec<'_>) -> Option<EngineCheckpoint> {
    let answers_seen = usize::try_from(d.u64()?).ok()?;
    let converges = usize::try_from(d.u64()?).ok()?;
    let pending_answers = usize::try_from(d.u64()?).ok()?;
    let last_converged = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let warm = match d.u8()? {
        0 => None,
        1 => {
            let posteriors = match d.u8()? {
                0 => None,
                1 => Some(Arc::new(decode_matrix(d, 1 << 28)?)),
                _ => return None,
            };
            // Every worker quality takes at least its one tag byte.
            let n = usize::try_from(d.u64()?).ok()?;
            if n > (1 << 24).min(d.remaining()) {
                return None;
            }
            let mut worker_quality = Vec::with_capacity(n);
            for _ in 0..n {
                worker_quality.push(decode_worker_quality(d)?);
            }
            Some(WarmStart {
                posteriors,
                worker_quality,
            })
        }
        _ => return None,
    };
    Some(EngineCheckpoint {
        answers_seen,
        warm,
        converges,
        pending_answers,
        last_converged,
    })
}

/// Atomically write `data` to `path` (tmp + fsync + rename), consulting
/// `fault` at the given per-session snapshot `index`. On `Err` the
/// previous snapshot (if any) is untouched.
///
/// `sync` mirrors the WAL's fsync policy: `false` (from
/// `FsyncPolicy::Never`) skips the data and directory fsyncs — the
/// rename is still atomic against in-process crashes, and a power-loss
/// torn page is caught by the read-side checksum, downgrading recovery
/// to full-WAL replay rather than corrupting it.
pub fn write_snapshot(
    path: &Path,
    session: u64,
    index: u64,
    fault: &FaultPlan,
    data: &SnapshotData,
    sync: bool,
) -> io::Result<()> {
    let site = FaultSite::Snapshot { session, index };
    match fault.decide(site) {
        Some(FaultKind::Error) | Some(FaultKind::Panic) => {
            crate::obs::snapshot_faults().inc();
            return Err(io::Error::other("injected snapshot write error"));
        }
        Some(FaultKind::Torn) => {
            crate::obs::snapshot_faults().inc();
            // A "torn" snapshot write crashes before the rename: the tmp
            // file may be garbage but the real snapshot never changes.
            let tmp = path.with_extension("snap.tmp");
            let bytes = snapshot_bytes(data);
            let keep = fault.torn_keep(site, bytes.len());
            let _ = fs::write(&tmp, &bytes[..keep]);
            return Err(io::Error::other("injected torn snapshot write"));
        }
        None => {}
    }
    let tmp = path.with_extension("snap.tmp");
    let bytes = snapshot_bytes(data);
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    f.write_all(&bytes)?;
    if sync {
        f.sync_data()?;
    }
    drop(f);
    fs::rename(&tmp, path)?;
    // Directory sync is best-effort: rename durability matters for a
    // power-loss window, not for the in-process crash model we test.
    if sync {
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

fn snapshot_bytes(data: &SnapshotData) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(VERSION);
    e.u64(data.cum_batches);
    e.u64(data.cum_converges);
    encode_checkpoint(&mut e, &data.checkpoint);
    frame_bytes(&MAGIC.to_le_bytes(), &e.0)
}

/// Read and validate a snapshot. `None` for *any* problem — missing
/// file, bad magic, checksum mismatch, short read, unknown version —
/// because every such case has the same answer: fall back to full-WAL
/// replay.
pub fn read_snapshot(path: &Path) -> Option<SnapshotData> {
    let mut bytes = Vec::new();
    File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    if bytes.len() < 12 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let len = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let crc = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    if magic != MAGIC || len > MAX_SNAPSHOT_LEN {
        return None;
    }
    let payload = bytes.get(12..12 + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    let mut d = Dec::new(payload);
    if d.u8()? != VERSION {
        return None;
    }
    let cum_batches = d.u64()?;
    let cum_converges = d.u64()?;
    let checkpoint = decode_checkpoint(&mut d)?;
    d.finished().then_some(SnapshotData {
        cum_batches,
        cum_converges,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::super::wal::{read_wal, WalWriter};
    use super::*;
    use crate::FsyncPolicy;
    use crowd_core::{Method, QualityInit};
    use crowd_data::{Answer, AnswerRecord, TaskType};
    use crowd_stream::StreamConfig;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowd-snap-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("s.snap")
    }

    fn sample() -> SnapshotData {
        SnapshotData {
            cum_batches: 12,
            cum_converges: 3,
            checkpoint: EngineCheckpoint {
                answers_seen: 240,
                warm: Some(WarmStart {
                    posteriors: Some(Arc::new(DMat::from_rows(&[
                        vec![0.25, 0.75],
                        vec![0.5, 0.5],
                    ]))),
                    worker_quality: vec![
                        WorkerQuality::Probability(0.8),
                        WorkerQuality::Confusion(vec![vec![0.9, 0.1], vec![0.2, 0.8]]),
                        WorkerQuality::BiasVariance {
                            bias: 0.1,
                            variance: 2.0,
                        },
                        WorkerQuality::Skills(vec![1.0, -0.5]),
                        WorkerQuality::Unmodeled,
                    ],
                }),
                converges: 3,
                pending_answers: 0,
                last_converged: true,
            },
        }
    }

    fn assert_round_trips(data: &SnapshotData, back: &SnapshotData) {
        assert_eq!(back.cum_batches, data.cum_batches);
        assert_eq!(back.cum_converges, data.cum_converges);
        assert_eq!(back.checkpoint.answers_seen, data.checkpoint.answers_seen);
        assert_eq!(back.checkpoint.converges, data.checkpoint.converges);
        assert_eq!(
            back.checkpoint.last_converged,
            data.checkpoint.last_converged
        );
        let (a, b) = (
            back.checkpoint.warm.as_ref().unwrap(),
            data.checkpoint.warm.as_ref().unwrap(),
        );
        assert_eq!(a.posteriors, b.posteriors);
        assert_eq!(a.worker_quality.len(), b.worker_quality.len());
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let path = tmp("roundtrip");
        let data = sample();
        write_snapshot(&path, 0, 0, &FaultPlan::none(), &data, true).unwrap();
        let back = read_snapshot(&path).expect("snapshot reads back");
        assert_round_trips(&data, &back);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // A `.snap` on disk must recover under any later build: the
        // encoding of a fixed checkpoint is the file format, byte for
        // byte.
        const SAMPLE: &str = concat!(
            "534e4f43c9000000e7de3f8f010c000000000000000300000000000000f000",
            "0000000000000300000000000000000000000000000001010102000000000000",
            "000200000000000000000000000000d03f000000000000e83f000000000000e0",
            "3f000000000000e03f0500000000000000009a9999999999e93f020200000000",
            "0000000200000000000000cdccccccccccec3f9a9999999999b93f9a99999999",
            "99c93f9a9999999999e93f049a9999999999b93f000000000000004005020000",
            "0000000000000000000000f03f000000000000e0bf06",
        );
        let bytes = snapshot_bytes(&sample());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE);
    }

    #[test]
    fn corrupt_snapshot_reads_as_none() {
        let path = tmp("corrupt");
        write_snapshot(&path, 0, 0, &FaultPlan::none(), &sample(), true).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_none());
        // Truncation too.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(read_snapshot(&path).is_none());
    }

    #[test]
    fn injected_snapshot_fault_preserves_previous_snapshot() {
        let path = tmp("inject");
        let first = sample();
        write_snapshot(&path, 5, 0, &FaultPlan::none(), &first, true).unwrap();
        let fault = FaultPlan::seeded(11)
            .schedule(
                FaultSite::Snapshot {
                    session: 5,
                    index: 1,
                },
                FaultKind::Torn,
            )
            .build();
        let mut second = sample();
        second.cum_batches = 99;
        write_snapshot(&path, 5, 1, &fault, &second, false).unwrap_err();
        let back = read_snapshot(&path).expect("old snapshot survives");
        assert_eq!(back.cum_batches, first.cum_batches);
    }

    /// A CRC-valid snapshot file whose warm state is written by `warm`.
    fn crafted(warm: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(VERSION);
        // cum_batches, cum_converges, answers_seen, converges, pending.
        for v in [1, 1, 10, 1, 0] {
            e.u64(v);
        }
        e.u8(1); // last_converged
        e.u8(1); // warm state present
        warm(&mut e);
        frame_bytes(&MAGIC.to_le_bytes(), &e.0)
    }

    #[test]
    fn zero_width_matrix_with_huge_row_count_reads_as_none() {
        // `rows = 2^40, cols = 0`: the product bound alone passes it, and
        // sizing the row vector by it aborts the process.
        let huge = |e: &mut Enc| {
            e.u64(1 << 40);
            e.u64(0);
        };
        let posteriors = crafted(|e| {
            e.u8(1); // posteriors present
            huge(e);
        });
        let confusion = crafted(|e| {
            e.u8(0); // no posteriors
            e.u64(1); // one worker quality...
            e.u8(2); // ...a confusion matrix
            huge(e);
        });
        // `rows = 1, cols = 0` passes every size bound, but no flat
        // matrix has that shape.
        let one_empty_row = crafted(|e| {
            e.u8(1); // posteriors present
            e.u64(1);
            e.u64(0);
            e.u64(0); // no worker qualities
        });
        for (name, bytes) in [
            ("posteriors", posteriors),
            ("confusion", confusion),
            ("one-empty-row", one_empty_row),
        ] {
            let path = tmp(name);
            std::fs::write(&path, bytes).unwrap();
            assert!(read_snapshot(&path).is_none(), "{name}");
        }
    }

    #[test]
    fn missing_snapshot_reads_as_none() {
        assert!(read_snapshot(Path::new("/nonexistent/x.snap")).is_none());
    }

    /// A valid WAL (header, two batches, a converge marker), as bytes.
    fn valid_wal() -> Vec<u8> {
        let path = tmp("valid-wal");
        let mut config = StreamConfig::new(Method::Ds, TaskType::SingleChoice { choices: 3 }, 6, 4);
        config.options.quality_init = QualityInit::Qualification(vec![Some(0.8), None]);
        let none = FaultPlan::none();
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never, none, &config).unwrap();
        let batch: Vec<_> = (0..5)
            .map(|i| AnswerRecord {
                task: i,
                worker: i % 4,
                answer: Answer::Label(i as u8 % 3),
            })
            .collect();
        w.append_batch(&batch).unwrap();
        w.append_converge(1, 10).unwrap();
        w.append_batch(&batch).unwrap();
        std::fs::read(path).unwrap()
    }

    /// The frame payloads of a valid file, each after `head` bytes.
    fn payloads(bytes: &[u8], head: usize) -> Vec<Vec<u8>> {
        let (mut out, mut pos) = (Vec::new(), 0);
        while pos < bytes.len() {
            let at = pos + head;
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            out.push(bytes[at + 8..at + 8 + len].to_vec());
            pos = at + 8 + len;
        }
        out
    }

    /// Run both decoders on `bytes` written to `name`: neither may
    /// panic, and the WAL reader must accept a prefix of the file.
    fn decode(name: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let wal = read_wal(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(wal.valid_len <= bytes.len() as u64);
        let _ = read_snapshot(&path);
        Ok(())
    }

    // Decoder totality. Damaged payloads are re-framed with a recomputed
    // length and CRC, so the payload decoders see the damage, not just
    // the checksum.
    proptest! {
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in vec(0u8..=255, 0..300),
            lead in 0u8..4,
        ) {
            decode("raw", &bytes)?;
            // The same bytes as a CRC-valid payload, led by a frame kind
            // (WAL) or version (snapshot) byte.
            let payload: Vec<u8> = std::iter::once(lead).chain(bytes).collect();
            decode("framed-wal", &frame_bytes(&[], &payload))?;
            decode("framed-snap", &frame_bytes(&MAGIC.to_le_bytes(), &payload))?;
        }

        #[test]
        fn decoders_never_panic_on_damaged_valid_files(
            pick in 0usize..8,
            cut in 0usize..400,
            flips in vec((0usize..400, 1u8..=255), 0..4),
        ) {
            let valid = [("damaged-wal", valid_wal(), 0), ("damaged-snap", snapshot_bytes(&sample()), 4)];
            for (name, file, head) in valid {
                let mut frames = payloads(&file, head);
                let n = frames.len();
                let damaged = &mut frames[pick % n];
                damaged.truncate(cut);
                let len = damaged.len();
                for &(at, mask) in flips.iter().filter(|_| len > 0) {
                    damaged[at % len] ^= mask;
                }
                let out: Vec<u8> = frames.iter().flat_map(|p| frame_bytes(&file[..head], p)).collect();
                decode(name, &out)?;
            }
        }
    }
}
