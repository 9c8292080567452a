//! The per-session write-ahead answer log.
//!
//! One append-only file per session, holding checksummed,
//! length-prefixed frames:
//!
//! ```text
//! frame   := len:u32le  crc:u32le  payload[len]     (crc32-IEEE over payload)
//! payload := 0x01 config…                           header (frame 0, exactly once)
//!          | 0x02 count:u32le record…               answer batch, submit order
//!          | 0x03 cum_batches:u64le budget:u64le    converge marker
//! record  := task:u64le worker:u64le (0x00 label:u8 | 0x01 value:f64le-bits)
//! ```
//!
//! **Batch frames** are appended by `CrowdServe::submit` *before* the
//! batch is enqueued (write-ahead: an answer is never in flight without
//! being on disk first). **Converge frames** are appended by the shard
//! drain after each successful converge, recording how many batch
//! frames the engine had absorbed (`cum_batches`) and the iteration
//! budget used — together they pin the exact converge schedule, which
//! is what makes replay bit-identical: EM trajectories depend on *when*
//! converges ran, not just on the answers.
//!
//! A reader accepts the longest valid prefix: any frame whose length
//! prefix overruns the file, whose checksum mismatches, or whose payload
//! does not parse ends the log there (a torn tail — the expected state
//! after a crash mid-append). Recovery truncates the file back to that
//! boundary so post-recovery appends extend a clean log.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crowd_core::{InferenceOptions, Method, QualityInit};
use crowd_data::{Answer, AnswerRecord, TaskType};
use crowd_stream::StreamConfig;

use super::fault::{FaultKind, FaultPlan, FaultSite};
use super::FsyncPolicy;

/// Sanity cap on a single frame's payload (64 MiB): a corrupt length
/// prefix must not trigger a giant allocation.
const MAX_FRAME_LEN: u32 = 64 << 20;

const KIND_HEADER: u8 = 0x01;
const KIND_BATCH: u8 = 0x02;
const KIND_CONVERGE: u8 = 0x03;

/// One decoded WAL frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// The session's configuration (always frame 0).
    Header(Box<StreamConfig>),
    /// One submitted answer batch, in submission order.
    Batch(Vec<AnswerRecord>),
    /// A successful drain-tick converge over the first `cum_batches`
    /// batch frames, run under `budget` EM iterations.
    Converge {
        /// Batch frames the engine had absorbed when this converge ran.
        cum_batches: u64,
        /// The `ConvergeBudget` iteration cap the converge ran under.
        budget: u64,
    },
}

/// Everything a WAL file yielded.
#[derive(Debug)]
pub struct WalContents {
    /// The session config from the header frame (`None` when the file
    /// has no valid header — an unrecoverable log).
    pub config: Option<StreamConfig>,
    /// Every valid non-header frame, in order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix (including the header frame).
    pub valid_len: u64,
    /// Number of valid frames (including the header).
    pub valid_frames: u64,
    /// Whether bytes past `valid_len` existed (a torn/corrupt tail).
    pub torn: bool,
}

// ---------------------------------------------------------------------------
// crc32 (IEEE 802.3, reflected) — the classic table-driven implementation.

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Byte-cursor encode/decode helpers (no serde in the build environment).

pub(crate) struct Enc(pub Vec<u8>);

impl Enc {
    pub fn new() -> Self {
        Self(Vec::new())
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }
    pub fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    pub fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    pub fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Encode a session config (the WAL header payload body).
///
/// `options.golden` and `options.warm_start` are not persisted: the
/// engine ignores the former and owns the latter, so a recovered config
/// is behaviourally identical with both `None`.
pub(crate) fn encode_config(e: &mut Enc, config: &StreamConfig) {
    e.u8(match config.method {
        Method::Ds => 0,
        Method::Lfc => 1,
        Method::Zc => 2,
        Method::Glad => 3,
        Method::Mv => 4,
        // StreamEngine::new rejects everything else, so a live session's
        // config is always encodable; tag 255 round-trips as a decode
        // failure rather than a silent mis-mapping.
        _ => 255,
    });
    match config.task_type {
        TaskType::DecisionMaking => {
            e.u8(0);
            e.u8(0);
        }
        TaskType::SingleChoice { choices } => {
            e.u8(1);
            e.u8(choices);
        }
        TaskType::Numeric => {
            e.u8(2);
            e.u8(0);
        }
    }
    e.u64(config.num_tasks as u64);
    e.u64(config.num_workers as u64);
    let o = &config.options;
    e.u64(o.max_iterations as u64);
    e.f64(o.tolerance);
    e.u64(o.seed);
    match o.threads {
        None => {
            e.u8(0);
            e.u64(0);
        }
        Some(t) => {
            e.u8(1);
            e.u64(t as u64);
        }
    }
    match &o.quality_init {
        QualityInit::Uniform => {
            e.u8(0);
            e.u64(0);
        }
        QualityInit::Qualification(qs) => {
            e.u8(1);
            e.u64(qs.len() as u64);
            for q in qs {
                match q {
                    None => {
                        e.u8(0);
                        e.f64(0.0);
                    }
                    Some(v) => {
                        e.u8(1);
                        e.f64(*v);
                    }
                }
            }
        }
    }
    e.u64(config.shard_count as u64);
}

pub(crate) fn decode_config(d: &mut Dec<'_>) -> Option<StreamConfig> {
    let method = match d.u8()? {
        0 => Method::Ds,
        1 => Method::Lfc,
        2 => Method::Zc,
        3 => Method::Glad,
        4 => Method::Mv,
        _ => return None,
    };
    let task_type = match (d.u8()?, d.u8()?) {
        (0, _) => TaskType::DecisionMaking,
        (1, choices) => TaskType::SingleChoice { choices },
        (2, _) => TaskType::Numeric,
        _ => return None,
    };
    let num_tasks = usize::try_from(d.u64()?).ok()?;
    let num_workers = usize::try_from(d.u64()?).ok()?;
    let max_iterations = usize::try_from(d.u64()?).ok()?;
    let tolerance = d.f64()?;
    let seed = d.u64()?;
    let threads = match (d.u8()?, d.u64()?) {
        (0, _) => None,
        (1, t) => Some(usize::try_from(t).ok()?),
        _ => return None,
    };
    let quality_init = match d.u8()? {
        0 => {
            d.u64()?;
            QualityInit::Uniform
        }
        1 => {
            let len = usize::try_from(d.u64()?).ok()?;
            if len > (1 << 32) {
                return None;
            }
            let mut qs = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let tag = d.u8()?;
                let v = d.f64()?;
                qs.push(match tag {
                    0 => None,
                    1 => Some(v),
                    _ => return None,
                });
            }
            QualityInit::Qualification(qs)
        }
        _ => return None,
    };
    let shard_count = usize::try_from(d.u64()?).ok()?.max(1);
    Some(StreamConfig {
        method,
        task_type,
        num_tasks,
        num_workers,
        options: InferenceOptions {
            max_iterations,
            tolerance,
            seed,
            quality_init,
            golden: None,
            threads,
            warm_start: None,
        },
        shard_count,
    })
}

fn encode_records(e: &mut Enc, records: &[AnswerRecord]) {
    e.u32(records.len() as u32);
    for r in records {
        e.u64(r.task as u64);
        e.u64(r.worker as u64);
        match r.answer {
            Answer::Label(l) => {
                e.u8(0);
                e.u8(l);
            }
            Answer::Numeric(v) => {
                e.u8(1);
                e.0.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
}

fn decode_records(d: &mut Dec<'_>) -> Option<Vec<AnswerRecord>> {
    let count = d.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let task = usize::try_from(d.u64()?).ok()?;
        let worker = usize::try_from(d.u64()?).ok()?;
        let answer = match d.u8()? {
            0 => Answer::Label(d.u8()?),
            1 => Answer::Numeric(f64::from_bits(d.u64()?)),
            _ => return None,
        };
        records.push(AnswerRecord {
            task,
            worker,
            answer,
        });
    }
    Some(records)
}

fn decode_frame(payload: &[u8]) -> Option<Frame> {
    let mut d = Dec::new(payload);
    let frame = match d.u8()? {
        KIND_HEADER => Frame::Header(Box::new(decode_config(&mut d)?)),
        KIND_BATCH => Frame::Batch(decode_records(&mut d)?),
        KIND_CONVERGE => Frame::Converge {
            cum_batches: d.u64()?,
            budget: d.u64()?,
        },
        _ => return None,
    };
    d.finished().then_some(frame)
}

/// `head ‖ len ‖ crc ‖ payload`: `head` is empty for a WAL frame and
/// the magic for a snapshot file.
pub(crate) fn frame_bytes(head: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(head.len() + 8 + payload.len());
    out.extend_from_slice(head);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Writer

/// Append side of one session's WAL. All methods keep the on-disk log
/// consistent-or-broken: a failed append either leaves the file exactly
/// as it was (transient error — retryable) or marks the writer broken
/// (no further appends accepted; the valid prefix is still recoverable).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    session: u64,
    /// Byte length of the valid log (everything before this is durable
    /// frames; nothing after it exists unless a torn write wedged us).
    len: u64,
    /// Per-session append index (fault-site key): counts every append
    /// *attempt*, including failed ones, so injected faults do not
    /// re-fire on retry.
    appends: u64,
    policy: FsyncPolicy,
    unsynced: u32,
    fault: FaultPlan,
    broken: Option<String>,
}

impl WalWriter {
    /// Create a fresh WAL with a header frame for `config`.
    pub fn create(
        path: &Path,
        session: u64,
        policy: FsyncPolicy,
        fault: FaultPlan,
        config: &StreamConfig,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut w = Self {
            file,
            path: path.to_path_buf(),
            session,
            len: 0,
            appends: 0,
            policy,
            unsynced: 0,
            fault,
            broken: None,
        };
        let mut e = Enc::new();
        e.u8(KIND_HEADER);
        encode_config(&mut e, config);
        // The header is written outside the fault plan: a session that
        // cannot even create its log fails loudly at create_session.
        let bytes = frame_bytes(&[], &e.0);
        w.file.write_all(&bytes)?;
        w.file.sync_data()?;
        w.len = bytes.len() as u64;
        w.appends = 1;
        Ok(w)
    }

    /// Re-open an existing WAL for appending after recovery: truncates
    /// any torn tail back to `valid_len` and positions at the end.
    pub fn reopen(
        path: &Path,
        session: u64,
        policy: FsyncPolicy,
        fault: FaultPlan,
        valid_len: u64,
        valid_frames: u64,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        let mut w = Self {
            file,
            path: path.to_path_buf(),
            session,
            len: valid_len,
            appends: valid_frames,
            policy,
            unsynced: 0,
            fault,
            broken: None,
        };
        w.file.seek(SeekFrom::Start(valid_len))?;
        Ok(w)
    }

    /// The session this WAL belongs to.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Why the writer refuses appends, if it does.
    pub fn broken(&self) -> Option<&str> {
        self.broken.as_deref()
    }

    /// Force the writer into the broken state (used when the *caller*
    /// knows the log no longer matches reality — e.g. a converge ran but
    /// its frame could not be appended, so later appends would record an
    /// inconsistent schedule). Idempotent: an existing reason is kept.
    pub fn wedge(&mut self, why: String) {
        if self.broken.is_none() {
            self.broken = Some(why);
        }
    }

    /// Valid log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds only the header frame.
    pub fn is_empty(&self) -> bool {
        self.appends <= 1
    }

    /// Append one answer-batch frame (the write-ahead step of
    /// `submit`). On `Err` the batch is **not** durable and must not be
    /// enqueued.
    pub fn append_batch(&mut self, records: &[AnswerRecord]) -> io::Result<()> {
        let mut e = Enc::new();
        e.u8(KIND_BATCH);
        encode_records(&mut e, records);
        self.append_frame(&e.0)
    }

    /// Append a converge marker.
    pub fn append_converge(&mut self, cum_batches: u64, budget: u64) -> io::Result<()> {
        let mut e = Enc::new();
        e.u8(KIND_CONVERGE);
        e.u64(cum_batches);
        e.u64(budget);
        self.append_frame(&e.0)
    }

    fn append_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(why) = &self.broken {
            return Err(io::Error::other(format!("wal is broken: {why}")));
        }
        let site = FaultSite::WalAppend {
            session: self.session,
            index: self.appends,
        };
        self.appends += 1;
        let bytes = frame_bytes(&[], payload);
        match self.fault.decide(site) {
            Some(FaultKind::Error) | Some(FaultKind::Panic) => {
                // Clean injected failure: nothing written, retryable.
                crate::obs::wal_faults().inc();
                return Err(io::Error::other("injected wal append error"));
            }
            Some(FaultKind::Torn) => {
                // A crash mid-write: a strict prefix lands and the
                // writer wedges (the in-process repair path is exactly
                // what a real crash would NOT get to run).
                crate::obs::wal_faults().inc();
                let keep = self.fault.torn_keep(site, bytes.len());
                let _ = self.file.write_all(&bytes[..keep]);
                let _ = self.file.sync_data();
                self.broken = Some("injected torn write".to_string());
                return Err(io::Error::other("injected torn wal write"));
            }
            None => {}
        }
        // The append timer covers the write plus any policy-driven fsync
        // (the full latency a submit pays for durability).
        let timer = crate::obs::wal_append_seconds().start_timer();
        if let Err(e) = self.file.write_all(&bytes).and_then(|()| self.maybe_sync()) {
            timer.discard();
            crate::obs::wal_append_failures().inc();
            // Best-effort repair: truncate back to the last good frame
            // boundary so the log stays consistent and the error is
            // transient; if even that fails, wedge.
            let repaired = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
            if repaired.is_err() {
                self.broken = Some(format!("append failed and truncate-repair failed: {e}"));
            }
            return Err(e);
        }
        timer.stop();
        crate::obs::wal_appends().inc();
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        match self.policy {
            FsyncPolicy::Always => self.timed_sync(),
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.unsynced = 0;
                    self.timed_sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        }
    }

    fn timed_sync(&mut self) -> io::Result<()> {
        let timer = crate::obs::wal_fsync_seconds().start_timer();
        let result = self.file.sync_data();
        if result.is_ok() {
            timer.stop();
            crate::obs::wal_fsyncs().inc();
        } else {
            timer.discard();
        }
        result
    }

    /// Flush buffered appends to disk regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.timed_sync()
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Reader

/// Read a WAL file, yielding the longest valid frame prefix. Never
/// fails on torn or corrupt content — corruption just ends the log
/// early (`torn` is set, `valid_len` marks the boundary). Only a
/// filesystem-level failure to read the file at all is an `Err`.
pub fn read_wal(path: &Path) -> io::Result<WalContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut contents = WalContents {
        config: None,
        frames: Vec::new(),
        valid_len: 0,
        valid_frames: 0,
        torn: false,
    };
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            break;
        }
        let (start, end) = (pos + 8, pos + 8 + len as usize);
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            break;
        }
        let Some(frame) = decode_frame(payload) else {
            break;
        };
        match frame {
            Frame::Header(config) => {
                if contents.valid_frames != 0 || contents.config.is_some() {
                    // A header anywhere but frame 0 is corruption.
                    return finish(contents, pos, &bytes);
                }
                contents.config = Some(*config);
            }
            other => {
                if contents.config.is_none() {
                    // Frames before a header are unusable.
                    return finish(contents, 0, &bytes);
                }
                contents.frames.push(other);
            }
        }
        contents.valid_frames += 1;
        pos = end;
    }
    finish(contents, pos, &bytes)
}

fn finish(mut contents: WalContents, pos: usize, bytes: &[u8]) -> io::Result<WalContents> {
    contents.valid_len = pos as u64;
    contents.torn = pos < bytes.len();
    Ok(contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_data::TaskType;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowd-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn config() -> StreamConfig {
        StreamConfig::new(Method::Ds, TaskType::DecisionMaking, 10, 5)
    }

    fn rec(task: usize, worker: usize, label: u8) -> AnswerRecord {
        AnswerRecord {
            task,
            worker,
            answer: Answer::Label(label),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn config_round_trips_through_header() {
        let mut cfg = StreamConfig::new(Method::Glad, TaskType::SingleChoice { choices: 4 }, 7, 3);
        cfg.options.max_iterations = 55;
        cfg.options.tolerance = 2.5e-4;
        cfg.options.seed = 99;
        cfg.options.threads = Some(2);
        cfg.options.quality_init = QualityInit::Qualification(vec![Some(0.9), None, Some(0.4)]);
        cfg = cfg.with_shards(6);
        let mut e = Enc::new();
        encode_config(&mut e, &cfg);
        let mut d = Dec::new(&e.0);
        let back = decode_config(&mut d).expect("decodes");
        assert!(d.finished());
        assert_eq!(back.shard_count, 6);
        assert_eq!(back.method, cfg.method);
        assert_eq!(back.task_type, cfg.task_type);
        assert_eq!(back.num_tasks, cfg.num_tasks);
        assert_eq!(back.num_workers, cfg.num_workers);
        assert_eq!(back.options.max_iterations, 55);
        assert_eq!(back.options.tolerance.to_bits(), 2.5e-4f64.to_bits());
        assert_eq!(back.options.seed, 99);
        assert_eq!(back.options.threads, Some(2));
        match back.options.quality_init {
            QualityInit::Qualification(qs) => {
                assert_eq!(qs, vec![Some(0.9), None, Some(0.4)]);
            }
            other => panic!("wrong quality init {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let path = tmp("roundtrip");
        let mut w =
            WalWriter::create(&path, 3, FsyncPolicy::Always, FaultPlan::none(), &config()).unwrap();
        w.append_batch(&[rec(0, 0, 1), rec(1, 2, 0)]).unwrap();
        w.append_converge(1, u64::MAX).unwrap();
        w.append_batch(&[rec(2, 1, 1)]).unwrap();

        let contents = read_wal(&path).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.valid_frames, 4);
        let cfg = contents.config.expect("header decodes");
        assert_eq!(cfg.num_tasks, 10);
        assert_eq!(contents.frames.len(), 3);
        match &contents.frames[0] {
            Frame::Batch(records) => {
                assert_eq!(records.len(), 2);
                assert_eq!(records[1].worker, 2);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert!(matches!(
            contents.frames[1],
            Frame::Converge {
                cum_batches: 1,
                budget: u64::MAX
            }
        ));
    }

    #[test]
    fn corrupt_byte_ends_the_log_at_the_previous_frame() {
        let path = tmp("corrupt");
        let mut w =
            WalWriter::create(&path, 0, FsyncPolicy::Always, FaultPlan::none(), &config()).unwrap();
        w.append_batch(&[rec(0, 0, 1)]).unwrap();
        let good_len = w.len();
        w.append_batch(&[rec(1, 1, 0)]).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the LAST frame's payload.
        let idx = good_len as usize + 9;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_wal(&path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.valid_len, good_len);
        assert_eq!(contents.frames.len(), 1);
    }

    #[test]
    fn injected_clean_error_leaves_log_intact_and_is_retryable() {
        let path = tmp("inject-error");
        // Appends: header=0, batch=1, batch=2 — fail exactly index 1.
        let fault = FaultPlan::seeded(0)
            .schedule(
                FaultSite::WalAppend {
                    session: 9,
                    index: 1,
                },
                FaultKind::Error,
            )
            .build();
        let mut w = WalWriter::create(&path, 9, FsyncPolicy::Always, fault, &config()).unwrap();
        let err = w.append_batch(&[rec(0, 0, 1)]).unwrap_err();
        assert!(err.to_string().contains("injected"));
        assert!(w.broken().is_none(), "clean error is transient");
        // Retry (now append index 2) succeeds and the log is coherent.
        w.append_batch(&[rec(0, 0, 1)]).unwrap();
        let contents = read_wal(&path).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.frames.len(), 1);
    }

    #[test]
    fn injected_torn_write_wedges_writer_but_prefix_stays_valid() {
        let path = tmp("inject-torn");
        let fault = FaultPlan::seeded(4)
            .schedule(
                FaultSite::WalAppend {
                    session: 2,
                    index: 2,
                },
                FaultKind::Torn,
            )
            .build();
        let mut w = WalWriter::create(&path, 2, FsyncPolicy::Always, fault, &config()).unwrap();
        w.append_batch(&[rec(0, 0, 1)]).unwrap();
        let good_len = w.len();
        w.append_batch(&[rec(1, 1, 0)]).unwrap_err();
        assert!(w.broken().is_some());
        // Further appends refuse.
        assert!(w.append_batch(&[rec(2, 2, 1)]).is_err());
        // The reader sees the valid prefix; reopen truncates the tear.
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.valid_len, good_len);
        assert_eq!(contents.frames.len(), 1);
        drop(w);
        let mut w = WalWriter::reopen(
            &path,
            2,
            FsyncPolicy::Always,
            FaultPlan::none(),
            contents.valid_len,
            contents.valid_frames,
        )
        .unwrap();
        w.append_batch(&[rec(3, 3, 1)]).unwrap();
        let contents = read_wal(&path).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.frames.len(), 2);
    }
}
