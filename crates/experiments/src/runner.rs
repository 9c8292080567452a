//! The async sweep runner — budgeted, observable, cancellable execution
//! of experiment cell grids.
//!
//! The paper's evaluation is mostly **grids**: (dataset × repeat ×
//! redundancy) cells for Figures 4–6, (method × dataset) cells for
//! Table 6, one cell per method for Table 7, (repeat × golden fraction)
//! cells for Figures 7–9 and (strategy × repeat) cells for the
//! assignment extension. [`SweepRunner`] runs every one of them with the
//! serve layer's ingest/drain shape, on the worker pool's owned-job
//! queue ([`crowd_core::exec::WorkerPool::submit`] →
//! [`crowd_core::exec::JobTicket`]):
//!
//! - **Budgeted concurrency** — the runner owns a [`WorkerPool`] capped
//!   at its concurrency budget; all cells are queued up front and at
//!   most `budget` run at any moment.
//! - **Progress streaming** — every cell completion (success, panic, or
//!   cancellation) is reported through a caller-supplied callback in
//!   *completion order*, with running completed/failed/cancelled
//!   counts, while the grid is still in flight.
//! - **Cooperative cancellation** — a [`CancelToken`] flips an atomic
//!   flag; cells not yet started observe it and finish as
//!   [`CellStatus::Cancelled`] without running their payload.
//! - **Cell panic isolation** — a panic inside one cell is delivered as
//!   [`CellOutcome::Failed`] with the payload message; sibling cells
//!   and the submitting thread are untouched (the same isolation the
//!   multi-session serve layer is built on). Grids with no field to
//!   report a lost cell in re-raise its message on the caller
//!   ([`SweepOutcome::into_values`]).
//!
//! Determinism: cells are pure functions of their inputs and results
//! are collected **in grid order**, so aggregation over a
//! [`SweepOutcome`] is bit-identical to running the same cells in a
//! sequential loop at any budget — pinned by `tests/sweep_runner.rs`
//! against a sequential reference sweep and across thread counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use crowd_core::exec::{JobOutcome, JobTicket, WorkerPool};

crowd_obs::handle!(obs_cell_seconds, histogram, "exp.sweep.cell_seconds");
crowd_obs::handle!(obs_cells, counter, "exp.sweep.cells_total");
crowd_obs::handle!(obs_panics, counter, "exp.sweep.cell_panics_total");
crowd_obs::handle!(obs_cancelled, counter, "exp.sweep.cells_cancelled_total");

/// Cooperative cancellation flag shared between a sweep's driver and its
/// in-flight cells. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation: cells that have not started yet will be
    /// skipped (already-running cells finish — cancellation is
    /// cooperative, not preemptive).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One cell of a sweep grid: a display label (progress events carry it)
/// plus the work itself.
pub struct SweepCell<T> {
    /// Human-readable cell identity, e.g. `"rep 2 r=5"` or `"DS×D_Product"`.
    pub label: String,
    /// The cell computation. Must be a pure function of its captures for
    /// the runner's determinism guarantee to hold.
    pub job: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> SweepCell<T> {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        Self {
            label: label.into(),
            job: Box::new(job),
        }
    }
}

/// How one cell ended, as reported in progress events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell ran to completion.
    Completed,
    /// The cell panicked (the outcome carries the message).
    Failed,
    /// The cell was skipped by cancellation.
    Cancelled,
}

/// One cell's final outcome, in grid order.
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The cell's value.
    Completed(T),
    /// The cell panicked; best-effort payload message.
    Failed(String),
    /// The cell never ran (cancelled token or pool shutdown).
    Cancelled,
}

impl<T> CellOutcome<T> {
    /// The value, if the cell completed.
    pub fn ok(self) -> Option<T> {
        match self {
            Self::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// The status this outcome corresponds to.
    pub fn status(&self) -> CellStatus {
        match self {
            Self::Completed(_) => CellStatus::Completed,
            Self::Failed(_) => CellStatus::Failed,
            Self::Cancelled => CellStatus::Cancelled,
        }
    }
}

/// A progress event, delivered on the driver thread in **completion
/// order** while the grid is still running.
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Grid index of the cell this event reports.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Cells finished so far (this one included).
    pub done: usize,
    /// Total cells in the grid.
    pub total: usize,
    /// Running count of completed cells.
    pub completed: usize,
    /// Running count of panicked cells.
    pub failed: usize,
    /// Running count of cancelled cells.
    pub cancelled: usize,
}

/// The finished grid: per-cell outcomes in grid order plus final counts.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Per-cell outcomes, indexed exactly like the submitted grid.
    pub cells: Vec<CellOutcome<T>>,
    /// Cells that completed.
    pub completed: usize,
    /// Cells that panicked.
    pub failed: usize,
    /// Cells skipped by cancellation.
    pub cancelled: usize,
}

impl<T> SweepOutcome<T> {
    /// Every cell's value in grid order, for grids whose result has no
    /// field to report a lost cell in.
    ///
    /// # Panics
    /// At the first lost cell in grid order, so a lost cell never
    /// vanishes silently: a failed cell's panic message is re-raised on
    /// the caller, and a cancelled cell panics too.
    pub fn into_values(self) -> Vec<T> {
        self.cells
            .into_iter()
            .map(|cell| match cell {
                CellOutcome::Completed(value) => value,
                CellOutcome::Failed(msg) => panic!("{msg}"),
                CellOutcome::Cancelled => panic!("sweep cell cancelled"),
            })
            .collect()
    }
}

/// Best-effort human-readable panic message. Panic payloads are `&str`
/// or `String` in practice; anything else renders as a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What a cell reports over the progress channel. Kept apart from
/// [`CellStatus`] only to document that the panic *message* travels via
/// the ticket, not the channel.
type CellNote = (usize, CellStatus);

/// Bumps `exp.sweep.cell_panics_total` if dropped during unwind; the
/// happy path defuses it with `mem::forget`.
struct CountPanicOnDrop;

impl Drop for CountPanicOnDrop {
    fn drop(&mut self) {
        obs_panics().inc();
    }
}

/// Sends exactly one note per started cell — including during a panic
/// unwind, which is what makes the driver's `recv` loop total.
struct NoteOnDrop {
    tx: mpsc::Sender<CellNote>,
    index: usize,
    status: CellStatus,
}

impl Drop for NoteOnDrop {
    fn drop(&mut self) {
        // The receiver only disappears once the driver has already
        // collected every ticket, so a send error is unreachable in
        // practice; ignore it rather than panic during unwind.
        let _ = self.tx.send((self.index, self.status));
    }
}

/// The non-blocking sweep scheduler. Owns a worker pool capped at the
/// concurrency budget; reusable across grids (threads persist between
/// [`SweepRunner::run`] calls, so a figure's datasets share one pool).
pub struct SweepRunner {
    pool: WorkerPool,
    budget: usize,
}

impl SweepRunner {
    /// A runner that executes at most `budget` cells concurrently
    /// (clamped to at least 1).
    pub fn new(budget: usize) -> Self {
        let budget = budget.max(1);
        Self {
            pool: WorkerPool::new(budget),
            budget,
        }
    }

    /// The concurrency budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Run a grid of cells under the budget, streaming one
    /// [`SweepProgress`] event per cell (in completion order, on the
    /// calling thread) and honouring `token` between cells. Returns
    /// outcomes in grid order.
    pub fn run<T: Send + 'static>(
        &self,
        cells: Vec<SweepCell<T>>,
        token: &CancelToken,
        mut on_progress: impl FnMut(&SweepProgress),
    ) -> SweepOutcome<T> {
        let total = cells.len();
        let mut labels: Vec<String> = Vec::with_capacity(total);
        let (tx, rx) = mpsc::channel::<CellNote>();

        // Queue every cell; the pool spawns at most `budget` workers, so
        // the queue itself is the scheduler.
        let tickets: Vec<JobTicket<Option<T>>> = cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| {
                labels.push(cell.label);
                let job = cell.job;
                let token = token.clone();
                let tx = tx.clone();
                self.pool.submit(move || {
                    // Default note Failed: only a panic skips the explicit
                    // status assignments below, and the note is sent from
                    // this guard's Drop even then.
                    let mut note = NoteOnDrop {
                        tx,
                        index,
                        status: CellStatus::Failed,
                    };
                    if token.is_cancelled() {
                        note.status = CellStatus::Cancelled;
                        obs_cancelled().inc();
                        return None;
                    }
                    // The timer's Drop records even through a panic
                    // unwind, so `exp.sweep.cell_seconds` covers panicked
                    // cells too; the panic itself is counted separately
                    // by the guard below.
                    let timer = obs_cell_seconds().start_timer();
                    let panic_guard = CountPanicOnDrop;
                    let value = job();
                    std::mem::forget(panic_guard);
                    timer.stop();
                    obs_cells().inc();
                    note.status = CellStatus::Completed;
                    Some(value)
                })
            })
            .collect();
        drop(tx);

        // Pump progress in completion order while the grid runs. Every
        // started cell sends exactly one note (NoteOnDrop), and every
        // queued cell starts because the pool outlives this loop.
        let (mut completed, mut failed, mut cancelled) = (0usize, 0usize, 0usize);
        for done in 1..=total {
            let (index, status) = rx.recv().expect("one note per cell");
            match status {
                CellStatus::Completed => completed += 1,
                CellStatus::Failed => failed += 1,
                CellStatus::Cancelled => cancelled += 1,
            }
            on_progress(&SweepProgress {
                index,
                label: labels[index].clone(),
                status,
                done,
                total,
                completed,
                failed,
                cancelled,
            });
        }

        // Collect outcomes in grid order; panic payloads arrive through
        // the tickets.
        let cells = tickets
            .into_iter()
            .map(|t| match t.join() {
                JobOutcome::Completed(Some(value)) => CellOutcome::Completed(value),
                JobOutcome::Completed(None) | JobOutcome::Cancelled => CellOutcome::Cancelled,
                JobOutcome::Panicked(payload) => CellOutcome::Failed(panic_message(&*payload)),
            })
            .collect();
        SweepOutcome {
            cells,
            completed,
            failed,
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn outcomes_in_grid_order_events_in_completion_order() {
        let runner = SweepRunner::new(3);
        let cells: Vec<SweepCell<usize>> = (0..24usize)
            .map(|i| SweepCell::new(format!("cell {i}"), move || i * 10))
            .collect();
        let mut events = Vec::new();
        let out = runner.run(cells, &CancelToken::new(), |p| {
            events.push((p.index, p.status, p.done))
        });
        assert_eq!(out.completed, 24);
        assert_eq!(out.failed, 0);
        assert_eq!(out.cancelled, 0);
        // Grid order regardless of completion order.
        let values: Vec<usize> = out.cells.into_iter().map(|c| c.ok().unwrap()).collect();
        assert_eq!(values, (0..24usize).map(|i| i * 10).collect::<Vec<_>>());
        // One event per cell, `done` strictly increasing, all indices seen.
        assert_eq!(events.len(), 24);
        assert!(events.iter().enumerate().all(|(k, e)| e.2 == k + 1));
        let mut seen: Vec<usize> = events.iter().map(|e| e.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn budget_caps_in_flight_cells() {
        let budget = 2;
        let runner = SweepRunner::new(budget);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let cells: Vec<SweepCell<()>> = (0..16)
            .map(|i| {
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                SweepCell::new(format!("{i}"), move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let out = runner.run(cells, &CancelToken::new(), |_| {});
        assert_eq!(out.completed, 16);
        assert!(
            peak.load(Ordering::SeqCst) <= budget,
            "budget {budget} exceeded: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn runner_is_reusable_across_grids() {
        let runner = SweepRunner::new(2);
        for round in 0..3 {
            let cells: Vec<SweepCell<usize>> = (0..8usize)
                .map(|i| SweepCell::new("c", move || i + round))
                .collect();
            let out = runner.run(cells, &CancelToken::new(), |_| {});
            assert_eq!(out.completed, 8);
        }
    }

    #[test]
    fn failed_cells_carry_str_and_string_panic_messages() {
        let runner = SweepRunner::new(1);
        let cells: Vec<SweepCell<()>> = vec![
            SweepCell::new("str", || panic!("str payload")),
            SweepCell::new("string", || panic!("{}-{}", "fmt", 1)),
        ];
        let messages: Vec<String> = runner
            .run(cells, &CancelToken::new(), |_| {})
            .cells
            .into_iter()
            .map(|cell| match cell {
                CellOutcome::Failed(msg) => msg,
                other => panic!("expected a failed cell, got {other:?}"),
            })
            .collect();
        assert_eq!(messages, ["str payload", "fmt-1"]);
    }

    #[test]
    fn into_values_reraises_a_lost_cells_message() {
        let runner = SweepRunner::new(2);
        let cells = |bad: Option<usize>| -> Vec<SweepCell<usize>> {
            (0..6usize)
                .map(|i| {
                    SweepCell::new(format!("{i}"), move || {
                        if Some(i) == bad {
                            panic!("cell {i} lost");
                        }
                        i + 1
                    })
                })
                .collect()
        };
        let clean = runner.run(cells(None), &CancelToken::new(), |_| {});
        assert_eq!(clean.into_values(), vec![1, 2, 3, 4, 5, 6]);
        let lost = runner.run(cells(Some(3)), &CancelToken::new(), |_| {});
        let payload = std::panic::catch_unwind(|| lost.into_values()).unwrap_err();
        assert_eq!(panic_message(&*payload), "cell 3 lost");
    }

    #[test]
    fn empty_grid_is_a_noop() {
        let runner = SweepRunner::new(4);
        let out = runner.run(Vec::<SweepCell<u8>>::new(), &CancelToken::new(), |_| {
            panic!("no events expected")
        });
        assert!(out.cells.is_empty());
        assert_eq!(out.completed + out.failed + out.cancelled, 0);
    }
}
