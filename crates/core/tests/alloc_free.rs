//! Proof that the iterative methods' hot loops allocate nothing per
//! outer iteration or Gibbs sweep, and that the one-pass Median
//! allocates nothing per task.
//!
//! Method: install a counting global allocator, run each method twice on
//! the same dataset with different iteration caps (convergence disabled
//! by a near-zero tolerance) or, for the Gibbs samplers, different
//! retained-sample counts, and require the allocation counts to be
//! **equal** — everything a run allocates (views, scratch, result
//! assembly) is iteration-count-independent, so any per-iteration heap
//! traffic would show up as `allocs(long) > allocs(short)`.
//!
//! Runs with `harness = false` so the whole process is single-threaded
//! and no test-runner machinery allocates between the two measurements.
//! The instances are kept below the methods' parallel fan-out thresholds,
//! which is exactly the regime the zero-allocation guarantee covers (the
//! gated fan-out path trades allocation-freedom for cores; see
//! ARCHITECTURE.md).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_core::methods::{
    Bcc, Cbcc, Ds, Glad, Lfc, LfcN, MeanAgg, MedianAgg, Minimax, Multi, ViBp, ViMf, Zc,
};
use crowd_core::{InferenceOptions, InferenceResult, TruthInference};
use crowd_data::datasets::PaperDataset;
use crowd_data::{Dataset, StreamSim};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made while `run` executes, and its result.
fn counted(run: impl FnOnce() -> InferenceResult) -> (u64, InferenceResult) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result)
}

/// Allocation count of one full `infer` run pinned to exactly
/// `iterations` outer iterations (tolerance so small the tracker cannot
/// converge while the parameters still move).
fn allocations_for(method: &dyn TruthInference, dataset: &Dataset, iterations: usize) -> u64 {
    let options = InferenceOptions {
        max_iterations: iterations,
        tolerance: 1e-300,
        ..InferenceOptions::seeded(7)
    };
    let (allocations, result) = counted(|| method.infer(dataset, &options).expect("method runs"));
    assert_eq!(
        result.iterations,
        iterations,
        "{} stopped early — the measurement would be meaningless",
        method.name()
    );
    allocations
}

fn assert_iteration_alloc_free(method: &dyn TruthInference, dataset: &Dataset) {
    // Warm-up run absorbs any one-time lazy initialisation.
    let _ = allocations_for(method, dataset, 2);
    let short = allocations_for(method, dataset, 3);
    let long = allocations_for(method, dataset, 12);
    assert_eq!(
        short,
        long,
        "{}: {} allocations at 3 iterations vs {} at 12 — the E/M loop allocates per iteration",
        method.name(),
        short,
        long
    );
    println!(
        "  {:<6} {} allocations regardless of iteration count",
        method.name(),
        short
    );
}

/// BCC and CBCC run `burn_in + samples` sweeps whatever the iteration
/// cap, so their sweep count moves through `samples` at a fixed
/// `burn_in`.
fn assert_sweep_alloc_free<M: TruthInference>(
    dataset: &Dataset,
    with_samples: impl Fn(usize) -> M,
) {
    let count = |samples| {
        let method = with_samples(samples);
        let (allocations, result) = counted(|| {
            method
                .infer(dataset, &InferenceOptions::seeded(7))
                .expect("method runs")
        });
        (allocations, result.iterations)
    };
    let _ = count(2);
    let (short, short_sweeps) = count(3);
    let (long, long_sweeps) = count(12);
    let name = with_samples(1).name();
    assert_eq!(long_sweeps - short_sweeps, 9, "{name}: burn-in moved");
    assert_eq!(
        short, long,
        "{name}: {short} allocations at {short_sweeps} sweeps vs {long} at {long_sweeps} — the chain allocates per sweep"
    );
    println!("  {name:<6} {short} allocations regardless of sweep count");
}

/// One run on `small` and one on `large` (more tasks, same kind) must
/// allocate the same: nothing is allocated per task.
fn assert_task_count_alloc_free(method: &dyn TruthInference, small: &Dataset, large: &Dataset) {
    let count = |d: &Dataset| {
        counted(|| {
            method
                .infer(d, &InferenceOptions::seeded(7))
                .expect("method runs")
        })
        .0
    };
    let _ = count(small);
    let (few, many) = (count(small), count(large));
    assert_eq!(
        few,
        many,
        "{}: {few} allocations on {} tasks vs {many} on {} — the pass allocates per task",
        method.name(),
        small.num_tasks(),
        large.num_tasks()
    );
    println!(
        "  {:<6} {few} allocations regardless of task count",
        method.name()
    );
}

fn main() {
    println!("per-iteration allocation audit (counting global allocator):");
    let categorical = PaperDataset::DProduct.generate(0.05, 7);
    assert_iteration_alloc_free(&Ds, &categorical);
    assert_iteration_alloc_free(&Lfc::default(), &categorical);
    assert_iteration_alloc_free(&Zc::default(), &categorical);
    assert_iteration_alloc_free(&Glad::default(), &categorical);
    // These walk a worker's rows across shards (`ShardedView::worker`),
    // which must allocate nothing either.
    assert_iteration_alloc_free(&ViMf::default(), &categorical);
    assert_iteration_alloc_free(&ViBp::default(), &categorical);
    assert_iteration_alloc_free(&Multi::default(), &categorical);
    assert_iteration_alloc_free(&Minimax::default(), &categorical);
    // Minimax at ℓ = 4, its one fixed width, and at ℓ = 6 on the
    // `L = 0` body D_Product's ℓ = 2 above runs too.
    let single_choice = PaperDataset::SRel.generate(0.02, 7);
    assert_iteration_alloc_free(&Minimax::default(), &single_choice);
    let six_choices = StreamSim::new(11, 300, 25, 6, 5).to_dataset("l6");
    assert_iteration_alloc_free(&Minimax::default(), &six_choices);
    for dataset in [&categorical, &single_choice] {
        assert_sweep_alloc_free(dataset, |samples| Bcc {
            burn_in: 2,
            samples,
            ..Bcc::default()
        });
        assert_sweep_alloc_free(dataset, |samples| Cbcc {
            burn_in: 2,
            samples,
            ..Cbcc::default()
        });
    }

    let numeric = PaperDataset::NEmotion.generate(0.2, 7);
    assert_iteration_alloc_free(&LfcN::default(), &numeric);
    let (few, many) = (
        PaperDataset::NEmotion.generate(0.1, 7),
        PaperDataset::NEmotion.generate(1.0, 7),
    );
    assert_task_count_alloc_free(&MeanAgg, &few, &many);
    assert_task_count_alloc_free(&MedianAgg, &few, &many);

    // PM and CATD iterate discrete truth assignments, which reach an
    // exact fixed point (parameter delta identically zero) within a few
    // rounds, so their iteration count cannot be pinned the same way;
    // their loops reuse the same pre-allocated scratch buffers (see
    // methods/pm.rs, methods/catd.rs).
    println!("alloc-free audit passed");
}
