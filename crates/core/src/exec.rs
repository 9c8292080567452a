//! The shared parallel execution backend.
//!
//! Work is dispatched to a **persistent worker pool** — threads are
//! spawned once, parked on a condvar between batches, and woken per
//! fan-out — so dispatching a batch costs a few microseconds instead of
//! the ~100µs a fresh `std::thread::scope` spawn costs. That is what lets
//! the E/M fan-out thresholds sit an order of magnitude lower than in the
//! scope-spawn design (see `PARALLEL_*_MIN_WORK` in `methods/ds.rs`).
//!
//! Two entry points:
//!
//! - [`parallel_chunks`]: the borrowed fan-out. Split one contiguous
//!   `&mut [T]` into fixed-size chunks and process each
//!   `(chunk_index, chunk)` on the calling thread plus pool workers — the
//!   pattern for fanning a flat-matrix E/M-step out across workers
//!   without aliasing. Chunks are stolen over an atomic cursor so uneven
//!   costs do not serialise a batch, and the call falls back to a plain
//!   loop when `threads <= 1` or there is one chunk, so callers can gate
//!   parallelism by problem size and keep small runs allocation-free.
//! - [`WorkerPool::submit`]: the owned-job queue. A `'static` job
//!   submitted from any thread comes back through a [`JobTicket`] as its
//!   value, its panic payload, or a cancellation — the serve layer's
//!   multi-shard drain and the experiment harness's sweep runner are
//!   built on it.
//!
//! Thread budget: [`default_threads`] is the machine's available
//! parallelism, capped by the **`CROWD_THREADS`** environment variable
//! when set (deployments use it to bound parallelism without code
//! changes).
//!
//! Nesting: a fan-out issued from inside a pool batch or a submitted job
//! (e.g. a method's internal E-step fan-out while a sweep cell runs on a
//! pool worker) runs inline on the calling thread instead of re-entering
//! the pool — the machine is already saturated, and inline execution is
//! exactly the serial path whose outputs are bit-identical.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Observability handles (`core.pool.*`), cached per site so the registry
// map lock is paid once per process, not per dispatch.
// ---------------------------------------------------------------------------

crowd_obs::handle!(obs_submits, counter, "core.pool.submits_total");
crowd_obs::handle!(obs_batches, counter, "core.pool.batches_total");
crowd_obs::handle!(
    obs_inline_batches,
    counter,
    "core.pool.inline_batches_total"
);
crowd_obs::handle!(obs_queue_depth, gauge, "core.pool.queue_depth");
crowd_obs::handle!(obs_jobs_in_flight, gauge, "core.pool.jobs_in_flight");
crowd_obs::handle!(
    obs_dispatch_seconds,
    histogram,
    "core.pool.dispatch_seconds"
);

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// A batch job: a lifetime-erased pointer to the caller's `Fn() + Sync`
/// closure. The erasure is sound because [`WorkerPool::run_batch`] does
/// not return until every worker that entered the batch has left it, so
/// the pointee outlives every dereference.
struct JobPtr(*const (dyn Fn() + Sync));
// Safety: the pointer is only dereferenced between batch open and batch
// close, a window during which the submitting thread keeps the closure
// alive (see `run_batch`).
unsafe impl Send for JobPtr {}

/// A job submitted via [`WorkerPool::submit`], its result type erased:
/// `run(true)` runs the job and completes its ticket; `run(false)`
/// completes the ticket as [`JobOutcome::Cancelled`] without running it
/// (the pool shut down first).
struct QueuedJob {
    run: Box<dyn FnOnce(bool) + Send>,
    /// Enqueue instant for the `core.pool.dispatch_seconds` queue-time
    /// histogram; `None` while recording is disabled (no clock read).
    queued_at: Option<Instant>,
}

/// How a submitted job ended.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion and returned this value.
    Completed(T),
    /// The job panicked; the payload is returned to the submitter instead
    /// of poisoning the pool.
    Panicked(Box<dyn std::any::Any + Send>),
    /// The pool shut down before the job was started.
    Cancelled,
}

/// Shared state behind a [`JobTicket`]: the outcome, once there is one.
struct TicketInner<T> {
    outcome: Mutex<Option<JobOutcome<T>>>,
    done: Condvar,
}

impl<T> TicketInner<T> {
    fn finish(&self, outcome: JobOutcome<T>) {
        *self.outcome.lock().expect("ticket state") = Some(outcome);
        self.done.notify_all();
    }
}

/// Completion handle for a job submitted with [`WorkerPool::submit`].
///
/// Unlike [`WorkerPool::run_batch`], a panic in a submitted job is *not*
/// re-raised on the submitting thread — it is delivered here as
/// [`JobOutcome::Panicked`], so one failing job cannot take down the
/// submitter or its sibling jobs (the isolation the multi-session serve
/// layer and the sweep runner are built on).
pub struct JobTicket<T>(Arc<TicketInner<T>>);

impl<T> JobTicket<T> {
    /// Block until the job has finished (or was cancelled) and return how
    /// it ended.
    pub fn join(self) -> JobOutcome<T> {
        let outcome = self.0.outcome.lock().expect("ticket state");
        let mut outcome = self
            .0
            .done
            .wait_while(outcome, |o| o.is_none())
            .expect("ticket wait");
        outcome.take().expect("a finished ticket holds its outcome")
    }
}

/// Mutex-protected pool state.
struct PoolState {
    /// Bumped once per batch so parked workers can tell a new batch from
    /// a spurious wake-up.
    generation: u64,
    /// The open batch's job; `None` once the batch is closed to new
    /// entrants (or no batch is running).
    job: Option<JobPtr>,
    /// Worker entry slots remaining in the open batch.
    quota: usize,
    /// Workers currently executing the job.
    running: usize,
    /// Workers currently executing free-standing queued jobs (kept apart
    /// from `running` so a long submitted job never stalls a batch
    /// submitter's drain wait).
    queued_running: usize,
    /// First panic payload caught from a worker in this batch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Free-standing jobs submitted from any thread ([`WorkerPool::submit`]),
    /// drained by parked workers between batches (batches take priority).
    queue: VecDeque<QueuedJob>,
    /// Tells workers to exit (pool drop).
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers park here between batches.
    work: Condvar,
    /// The submitter parks here while enrolled workers finish.
    done: Condvar,
}

/// A pool of persistent worker threads executing fan-out batches.
///
/// Threads are spawned lazily up to the requested batch width and then
/// reused for every later batch: waking a parked worker is a
/// condvar-notify, not a thread spawn. One batch runs at a time per pool
/// (a submission mutex serialises concurrent submitters); the submitting
/// thread always participates in its own batch, so a pool with zero
/// spawned workers still makes progress.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    /// Serialises batches from concurrent submitting threads.
    submission: Mutex<()>,
    /// Spawned worker handles (guarded by `submission` during growth).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Hard cap on spawned workers.
    max_workers: usize,
}

thread_local! {
    /// Set while the current thread is executing inside a pool batch
    /// (either as a pool worker or as a submitting participant); nested
    /// fan-outs check it and run inline.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Sets the thread-local batch flag and restores the *previous* value on
/// drop (even if the job panics) — restoring rather than clearing keeps
/// the flag correct across arbitrarily deep nested inline fan-outs.
struct BatchFlagGuard {
    prev: bool,
}

impl BatchFlagGuard {
    fn enter() -> Self {
        let prev = IN_BATCH.with(|f| f.replace(true));
        BatchFlagGuard { prev }
    }
}

impl Drop for BatchFlagGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_BATCH.with(|f| f.set(prev));
    }
}

impl WorkerPool {
    /// A pool that will spawn at most `max_workers` persistent threads
    /// (spawned lazily as batches request them).
    pub fn new(max_workers: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    generation: 0,
                    job: None,
                    quota: 0,
                    running: 0,
                    queued_running: 0,
                    panic: None,
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            submission: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
            max_workers,
        }
    }

    /// Workers spawned so far.
    pub fn spawned_workers(&self) -> usize {
        self.handles.lock().expect("pool handles").len()
    }

    /// Free-standing jobs submitted via [`WorkerPool::submit`] that are
    /// queued but not yet started. Cheap (one short mutex acquire); the
    /// live signal behind the `core.pool.queue_depth` gauge.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().expect("pool state").queue.len()
    }

    /// Free-standing jobs currently executing on pool workers.
    pub fn jobs_in_flight(&self) -> usize {
        self.inner.state.lock().expect("pool state").queued_running
    }

    /// Whether the pool is fully quiescent: no queued jobs, no running
    /// jobs, no batch in flight. Liveness probe for tests and drains.
    pub fn is_idle(&self) -> bool {
        let st = self.inner.state.lock().expect("pool state");
        st.queue.is_empty() && st.queued_running == 0 && st.running == 0 && st.job.is_none()
    }

    /// Run `job` on the calling thread plus up to `extra_workers` pool
    /// threads, returning once every participant has finished. The job is
    /// expected to do its own work splitting (the callers here steal over
    /// an atomic cursor), so launching more participants than there is
    /// work is harmless.
    ///
    /// A panic in any participant is re-raised on the calling thread
    /// after the batch has fully drained (so no worker still references
    /// the caller's stack).
    ///
    /// Called from inside another batch (nested fan-out), this degrades
    /// to `job()` inline on the calling thread.
    pub fn run_batch(&self, extra_workers: usize, job: &(dyn Fn() + Sync)) {
        if extra_workers == 0 || IN_BATCH.with(|f| f.get()) {
            // The fan-out decision that ran inline (nested fan-out or no
            // extra workers) — the signal for tuning the `PARALLEL_*`
            // size gates.
            obs_inline_batches().inc();
            let _guard = BatchFlagGuard::enter();
            job();
            return;
        }
        obs_batches().inc();
        // Poison-tolerant: the guard protects no data (it only serialises
        // batches), and a panic from a *previous* batch's job must not
        // disable the pool for the rest of a long-lived process.
        let submission = self
            .submission
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let extra_workers = extra_workers.min(self.max_workers);
        self.ensure_workers(extra_workers);

        // Open the batch.
        {
            let mut st = self.inner.state.lock().expect("pool state");
            st.generation = st.generation.wrapping_add(1);
            // The transmute erases the borrow's lifetime from the fat
            // pointer; it is dereferenced only before this function
            // observes `running == 0` with the batch closed, below.
            let raw: *const (dyn Fn() + Sync) = unsafe {
                std::mem::transmute::<
                    *const (dyn Fn() + Sync + '_),
                    *const (dyn Fn() + Sync + 'static),
                >(job)
            };
            st.job = Some(JobPtr(raw));
            st.quota = extra_workers;
            st.panic = None;
            self.inner.work.notify_all();
        }

        // The submitter participates in its own batch.
        let caller_result = {
            let _guard = BatchFlagGuard::enter();
            std::panic::catch_unwind(AssertUnwindSafe(job))
        };

        // Close the batch to new entrants and drain the enrolled workers.
        let worker_panic = {
            let mut st = self.inner.state.lock().expect("pool state");
            st.job = None;
            st.quota = 0;
            while st.running > 0 {
                st = self.inner.done.wait(st).expect("pool done wait");
            }
            st.panic.take()
        };

        // Release the submission lock *before* re-raising so a propagated
        // job panic cannot poison it — the pool must stay usable after a
        // caller catches the panic.
        drop(submission);
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Submit a free-standing job from any thread. The job is queued and
    /// picked up by a parked pool worker (batch fan-outs keep priority);
    /// the returned [`JobTicket`] hands back its value, its panic
    /// payload, or its cancellation. The submitting thread does **not**
    /// participate — this is the fire-and-join path the multi-session
    /// serve layer drains its shards through and the sweep runner queues
    /// its cells on, where the submitter goes on to submit the next job
    /// instead of working.
    ///
    /// Jobs run with the nested-fan-out flag set, so any
    /// [`parallel_chunks`] issued from inside a submitted job executes
    /// inline on that worker — submitted jobs are the unit of
    /// parallelism, and their outputs stay bit-identical to inline
    /// execution.
    pub fn submit<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> JobTicket<T> {
        let inner = Arc::new(TicketInner {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let ticket = JobTicket(Arc::clone(&inner));
        // A panic is delivered through the ticket (never unwinds the
        // worker), so one submitted job cannot poison a batch or a
        // sibling job.
        let run = move |start: bool| {
            inner.finish(if start {
                match std::panic::catch_unwind(AssertUnwindSafe(job)) {
                    Ok(value) => JobOutcome::Completed(value),
                    Err(payload) => JobOutcome::Panicked(payload),
                }
            } else {
                JobOutcome::Cancelled
            });
        };
        let mut st = self.inner.state.lock().expect("pool state");
        if st.shutdown {
            drop(st);
            run(false);
            return ticket;
        }
        st.queue.push_back(QueuedJob {
            run: Box::new(run),
            queued_at: crowd_obs::enabled().then(Instant::now),
        });
        obs_submits().inc();
        obs_queue_depth().set(st.queue.len() as i64);
        // At least one worker must exist to drain the queue; scale with
        // demand up to the cap so concurrent submitters actually run
        // concurrently.
        let demand = st.queue.len() + st.queued_running;
        drop(st);
        self.ensure_workers(demand);
        self.inner.work.notify_all();
        ticket
    }

    /// Spawn workers until `target` are available (bounded by
    /// `max_workers`). Growth is serialised by the `handles` mutex.
    fn ensure_workers(&self, target: usize) {
        let mut handles = self.handles.lock().expect("pool handles");
        let target = target.min(self.max_workers);
        while handles.len() < target {
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name("crowd-exec-worker".into())
                .spawn(move || worker_loop(&inner))
                .expect("spawn pool worker");
            handles.push(handle);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let orphans = {
            let mut st = self.inner.state.lock().expect("pool state");
            st.shutdown = true;
            self.inner.work.notify_all();
            std::mem::take(&mut st.queue)
        };
        // Jobs never started are cancelled, not dropped silently — their
        // tickets must complete or a joiner would hang forever.
        for q in orphans {
            (q.run)(false);
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    let _guard = BatchFlagGuard::enter(); // workers only ever run batch jobs
    let mut seen = 0u64;
    let mut st = inner.state.lock().expect("pool state");
    loop {
        if st.shutdown {
            return;
        }
        if st.generation != seen {
            seen = st.generation;
            if st.quota > 0 {
                if let Some(job) = &st.job {
                    let job = job.0;
                    st.quota -= 1;
                    st.running += 1;
                    drop(st);
                    // Safety: `run_batch` keeps the closure alive until
                    // `running` returns to zero, which happens strictly
                    // after this call returns.
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                        (*job)();
                    }));
                    st = inner.state.lock().expect("pool state");
                    st.running -= 1;
                    if let Err(payload) = result {
                        if st.panic.is_none() {
                            st.panic = Some(payload);
                        }
                    }
                    if st.running == 0 {
                        inner.done.notify_all();
                    }
                    // Re-check immediately: the next batch may already be
                    // open.
                    continue;
                }
            }
        }
        // No batch to join — drain the free-standing job queue. A panic
        // is delivered through the job's ticket (not stored in the batch
        // panic slot; see `submit`).
        if let Some(q) = st.queue.pop_front() {
            st.queued_running += 1;
            obs_queue_depth().set(st.queue.len() as i64);
            obs_jobs_in_flight().set(st.queued_running as i64);
            drop(st);
            if let Some(t0) = q.queued_at {
                obs_dispatch_seconds().record(t0.elapsed().as_secs_f64());
            }
            (q.run)(true);
            st = inner.state.lock().expect("pool state");
            st.queued_running -= 1;
            obs_jobs_in_flight().set(st.queued_running as i64);
            continue;
        }
        st = inner.work.wait(st).expect("pool work wait");
    }
}

/// The process-wide pool behind [`parallel_chunks`]. Sized to the
/// machine (workers spawn lazily, so an all-serial workload never spawns
/// any).
fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    // Workers spawn lazily per the largest batch actually requested, so a
    // generous cap costs nothing on machines (or workloads) that never
    // ask for it; 256 is a runaway backstop, not a tuning knob. Explicit
    // thread requests above the hardware count (e.g. CROWD_THREADS=16 on
    // 4 cores, for IO-ish jobs) get real threads up to the cap.
    POOL.get_or_init(|| WorkerPool::new(256))
}

// ---------------------------------------------------------------------------
// The borrowed fan-out.
// ---------------------------------------------------------------------------

/// Raw base pointer of a chunked buffer, sendable to pool workers. The
/// chunk-stealing cursor hands each chunk index to exactly one worker, so
/// all derived slices are disjoint.
struct ChunkBase<T>(*mut T);
unsafe impl<T: Send> Send for ChunkBase<T> {}
unsafe impl<T: Send> Sync for ChunkBase<T> {}

impl<T> ChunkBase<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare `*mut T` (edition-2021 closures
    /// capture disjoint fields).
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Split `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and run `f(chunk_index, chunk)` for each, using at
/// most `threads` OS threads. Chunks are disjoint, so `f` may freely write.
///
/// With `threads <= 1` this degenerates to a plain loop with **zero heap
/// allocation**, which is what the allocation-free method hot loops rely
/// on when they gate fan-out by problem size. Above that, chunk indices
/// are stolen over an atomic cursor by the calling thread plus pool
/// workers; every chunk is processed exactly once whichever thread gets
/// it, so outputs never depend on the thread count.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn parallel_chunks<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if data.is_empty() {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.max(1).min(n_chunks);
    if threads == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }

    let len = data.len();
    let base = ChunkBase(data.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            break;
        }
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // Safety: chunk `i` is claimed by exactly one worker (fetch_add),
        // chunk ranges are disjoint by construction, and the buffer
        // outlives the batch because `run_batch` blocks until every
        // worker is done.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
        f(i, chunk);
    };
    global_pool().run_batch(threads - 1, &worker);
}

/// A malformed `CROWD_*` environment override.
///
/// Deployment knobs that are silently ignored when mistyped
/// (`CROWD_THREADS=fourcores`) are worse than no knob at all — the
/// operator believes the cap is in force. Parsers return this typed
/// error; entry points that cannot fail (like [`default_threads`])
/// surface it as a loud once-per-process warning instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError {
    /// The environment variable name.
    pub var: &'static str,
    /// The raw value found.
    pub value: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} value {:?}: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvParseError {}

/// Parse a `CROWD_THREADS` override: a positive integer (whitespace
/// tolerated). The cap may exceed the hardware thread count — deployments
/// use that for IO-ish jobs.
pub fn parse_thread_env(value: &str) -> Result<usize, EnvParseError> {
    let err = |reason| EnvParseError {
        var: "CROWD_THREADS",
        value: value.to_string(),
        reason,
    };
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| err("not a non-negative integer"))?;
    if n == 0 {
        return Err(err("thread cap must be at least 1"));
    }
    Ok(n)
}

/// A sensible thread count for CPU-bound fan-out: the machine's available
/// parallelism capped by the `CROWD_THREADS` environment variable when
/// set, `1` when nothing can be determined. A malformed `CROWD_THREADS`
/// is *not* silently ignored: it produces a once-per-process warning on
/// stderr and falls back to the hardware count (use [`parse_thread_env`]
/// for the typed-error path).
pub fn default_threads() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1);
    match std::env::var("CROWD_THREADS") {
        Err(_) => hw,
        // An empty value means "unset" (CI matrices and shell scripts
        // export empty strings to mean exactly that), not a parse error.
        Ok(v) if v.trim().is_empty() => hw,
        Ok(v) => match parse_thread_env(&v) {
            Ok(n) => n,
            Err(e) => {
                static WARNED: OnceLock<()> = OnceLock::new();
                WARNED.get_or_init(|| {
                    eprintln!("WARNING: {e}; using the hardware default of {hw} threads");
                });
                hw
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_elements_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u32; 103];
            parallel_chunks(threads, &mut data, 10, |i, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1 + i as u32;
                }
            });
            // Every element written exactly once, with its chunk index.
            for (pos, &x) in data.iter().enumerate() {
                assert_eq!(x, 1 + (pos / 10) as u32, "pos {pos} threads {threads}");
            }
        }
    }

    #[test]
    fn chunks_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        parallel_chunks(4, &mut data, 3, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn thread_env_parse_semantics() {
        assert_eq!(parse_thread_env("3"), Ok(3));
        assert_eq!(parse_thread_env(" 2 "), Ok(2));
        // The cap can exceed the hardware (deployments may want that for
        // IO-ish jobs); it is taken at face value.
        assert_eq!(parse_thread_env("16"), Ok(16));
        // Malformed values are typed errors, not silent fallbacks.
        let zero = parse_thread_env("0").unwrap_err();
        assert_eq!(zero.var, "CROWD_THREADS");
        assert!(zero.to_string().contains("at least 1"));
        let junk = parse_thread_env("many").unwrap_err();
        assert_eq!(junk.value, "many");
        assert!(junk.to_string().contains("CROWD_THREADS"));
        assert!(parse_thread_env("-4").is_err());
        assert!(parse_thread_env("2.5").is_err());
        assert!(parse_thread_env("").is_err());
    }

    #[test]
    fn submitted_jobs_run_and_join() {
        // Every job runs once, and each ticket hands back its own job's
        // value, in submission order.
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<JobTicket<usize>> = (0..32)
            .map(|i| {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    i * i
                })
            })
            .collect();
        let out: Vec<usize> = tickets
            .into_iter()
            .map(|t| match t.join() {
                JobOutcome::Completed(v) => v,
                other => panic!("expected a value, got {other:?}"),
            })
            .collect();
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn submitted_job_panic_is_isolated() {
        // A panicking submitted job reports through its own ticket and
        // leaves siblings, later submissions, and batches untouched.
        let pool = WorkerPool::new(2);
        let bad = pool.submit(|| -> usize { panic!("job boom") });
        let good = pool.submit(|| 7usize);
        match bad.join() {
            JobOutcome::Panicked(payload) => {
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "job boom");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert!(matches!(good.join(), JobOutcome::Completed(7)));
        // The pool still runs batches after a job panic.
        let n = AtomicUsize::new(0);
        pool.run_batch(1, &|| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert!(n.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn submitted_jobs_interleave_with_batches() {
        let pool = Arc::new(WorkerPool::new(4));
        let hits = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<JobTicket<()>> = (0..8)
            .map(|_| {
                let h = Arc::clone(&hits);
                pool.submit(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for _ in 0..10 {
            pool.run_batch(2, &|| {});
        }
        for t in tickets {
            assert!(matches!(t.join(), JobOutcome::Completed(())));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_fanout_inside_submitted_job_runs_inline() {
        // A submitted job that itself calls parallel_chunks must not
        // deadlock or re-enter the pool — the worker thread carries the
        // in-batch flag.
        let pool = WorkerPool::new(2);
        let t = pool.submit(|| {
            let mut out = vec![0usize; 8];
            parallel_chunks(4, &mut out, 1, |i, c| c[0] = i * 2);
            out
        });
        let JobOutcome::Completed(out) = t.join() else {
            panic!("the submitted job did not complete");
        };
        assert_eq!(out, (0..8usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_pool_cancels_unstarted_jobs() {
        // A pool with a blocked single worker and a deep queue: dropping
        // it must complete every ticket (Cancelled, not hang).
        let pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let s = Arc::clone(&started);
        let first = pool.submit(move || {
            s.store(1, Ordering::SeqCst);
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        // Wait until the single worker is demonstrably inside the first
        // job, so the jobs queued next cannot start before the drop.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let stuck: Vec<JobTicket<usize>> = (0..4).map(|i| pool.submit(move || i)).collect();
        // Open the gate from another thread after the drop begins.
        let opener = {
            let g = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                let (lock, cv) = &*g;
                *lock.lock().unwrap() = true;
                cv.notify_all();
            })
        };
        drop(pool);
        opener.join().unwrap();
        assert!(matches!(first.join(), JobOutcome::Completed(())));
        for t in stuck {
            assert!(matches!(t.join(), JobOutcome::Cancelled));
        }
    }

    #[test]
    fn introspection_sees_depth_rise_and_drain() {
        // One worker, blocked on a gate: every further submit must be
        // visible as queue depth from outside, and the depth must drain
        // back to a fully idle pool once the gate opens.
        let pool = WorkerPool::new(1);
        assert!(pool.is_idle());
        assert_eq!(pool.queue_depth(), 0);

        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let s = Arc::clone(&started);
        let blocker = pool.submit(move || {
            s.store(1, Ordering::SeqCst);
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(pool.jobs_in_flight(), 1, "blocker is running");
        assert!(!pool.is_idle());

        // The single worker is blocked, so these can only queue.
        let queued: Vec<JobTicket<()>> = (0..5).map(|_| pool.submit(|| ())).collect();
        assert_eq!(pool.queue_depth(), 5, "submits behind a blocked worker");

        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(matches!(blocker.join(), JobOutcome::Completed(())));
        for t in queued {
            assert!(matches!(t.join(), JobOutcome::Completed(())));
        }
        assert_eq!(pool.queue_depth(), 0, "queue drained");
        // The last ticket completes before the worker re-takes the state
        // lock to decrement `queued_running`; spin briefly for idle.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !pool.is_idle() {
            assert!(std::time::Instant::now() < deadline, "pool never idled");
            std::thread::yield_now();
        }
        assert_eq!(pool.jobs_in_flight(), 0);
    }

    #[test]
    fn pool_reuses_threads_across_batches() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run_batch(3, &|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        // 50 batches × (caller + up to 3 workers, depending on wake-up
        // timing) ran on at most 3 spawned threads total — the whole
        // point of the pool is that batches never re-spawn.
        assert!(pool.spawned_workers() <= 3);
        let ran = counter.load(Ordering::Relaxed);
        assert!((50..=200).contains(&ran), "{ran} job entries");
    }

    #[test]
    fn pool_executes_work_on_real_threads() {
        // A rendezvous only two genuinely concurrent participants can
        // complete: each arrival waits (bounded) for a second arrival in
        // the same batch. Works on single-core machines too — the OS
        // still schedules the parked worker once it is woken.
        let pool = WorkerPool::new(2);
        let arrivals = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        pool.run_batch(2, &|| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while arrivals.load(Ordering::SeqCst) < 2 {
                if std::time::Instant::now() > deadline {
                    return;
                }
                std::thread::yield_now();
            }
            met.fetch_add(1, Ordering::SeqCst);
        });
        assert!(pool.spawned_workers() >= 1);
        assert!(
            met.load(Ordering::SeqCst) >= 2,
            "two participants never met inside one batch"
        );
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0usize; 16];
            parallel_chunks(4, &mut data, 1, |i, c| {
                if i == 7 {
                    panic!("boom");
                }
                c[0] = i;
            });
        });
        assert!(result.is_err(), "panic in a job must propagate");
    }

    #[test]
    fn pool_survives_a_propagated_panic() {
        // A caught job panic must not poison the global pool: later
        // fan-outs (possibly much later, in a long-lived process) have
        // to keep working.
        let poisoned = std::panic::catch_unwind(|| {
            let mut data = vec![0usize; 2];
            parallel_chunks(2, &mut data, 1, |i, c| {
                if i == 0 {
                    panic!("boom");
                }
                c[0] = 1;
            });
        });
        assert!(poisoned.is_err());
        let mut out = vec![0usize; 16];
        parallel_chunks(4, &mut out, 1, |i, c| c[0] = i * 3);
        assert_eq!(out, (0..16usize).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fanout_runs_inline() {
        // A fan-out issued from inside a pool batch must not deadlock on
        // the (held) submission lock — it runs inline instead.
        let mut out = vec![0usize; 8];
        parallel_chunks(4, &mut out, 1, |i, c| {
            let mut inner = vec![0usize; 4];
            parallel_chunks(4, &mut inner, 1, |j, d| d[0] = i * 10 + j);
            c[0] = inner.into_iter().sum();
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_submitters_serialise_without_deadlock() {
        let done: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out = vec![0usize; 16];
                        parallel_chunks(3, &mut out, 1, |i, c| c[0] = t * 100 + i);
                        out.into_iter().sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect: Vec<usize> = (0..4).map(|t| (0..16).map(|i| t * 100 + i).sum()).collect();
        assert_eq!(done, expect);
    }
}
