//! Proof that the EM-family hot loops allocate nothing per outer
//! iteration (acceptance criterion of the flat-memory substrate
//! refactor).
//!
//! Method: install a counting global allocator, run each method twice on
//! the same dataset with different iteration caps (convergence disabled
//! by a near-zero tolerance), and require the allocation counts to be
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

use crowd_core::methods::{Ds, Glad, Lfc, LfcN, Minimax, Multi, ViBp, ViMf, Zc};
use crowd_core::{InferenceOptions, TruthInference};
use crowd_data::datasets::PaperDataset;
use crowd_data::Dataset;

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

/// Allocation count of one full `infer` run pinned to exactly
/// `iterations` outer iterations (tolerance so small the tracker cannot
/// converge while the parameters still move).
fn allocations_for(method: &dyn TruthInference, dataset: &Dataset, iterations: usize) -> u64 {
    let options = InferenceOptions {
        max_iterations: iterations,
        tolerance: 1e-300,
        ..InferenceOptions::seeded(7)
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = method.infer(dataset, &options).expect("method runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        result.iterations,
        iterations,
        "{} stopped early — the measurement would be meaningless",
        method.name()
    );
    after - before
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
    // ℓ = 4: Minimax's other specialised width.
    let single_choice = PaperDataset::SRel.generate(0.02, 7);
    assert_iteration_alloc_free(&Minimax::default(), &single_choice);

    let numeric = PaperDataset::NEmotion.generate(0.2, 7);
    assert_iteration_alloc_free(&LfcN::default(), &numeric);

    // PM and CATD iterate discrete truth assignments, which reach an
    // exact fixed point (parameter delta identically zero) within a few
    // rounds, so their iteration count cannot be pinned the same way;
    // their loops reuse the same pre-allocated scratch buffers (see
    // methods/pm.rs, methods/catd.rs).
    println!("alloc-free audit passed");
}
