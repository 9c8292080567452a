//! Proof that dataset construction allocates per dataset, not per task
//! or per answer.
//!
//! Method: install a counting global allocator and run each
//! construction path — `CrowdSimulator::generate`, `DatasetBuilder::build`,
//! `Dataset::with_records` and `subsample_redundancy` — on 100 and on
//! 1,000 tasks at the same redundancy and worker count, and require the
//! two allocation counts to be **equal**: a heap block per task or per
//! answer would show up as `allocs(1000) > allocs(100)`.
//!
//! Runs with `harness = false` so the whole process is single-threaded
//! and no test-runner machinery allocates between the measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_data::datasets::PaperDataset;
use crowd_data::{subsample_redundancy, CrowdSimulator, DatasetBuilder};

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

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `id`'s simulator at scale 0.1 (its worker count, redundancy and
/// worker model), resized to `tasks` tasks.
fn simulator(id: PaperDataset, tasks: usize) -> CrowdSimulator {
    let mut config = id.config(0.1);
    config.num_tasks = tasks;
    CrowdSimulator::new(config, 7)
}

/// Allocations of each construction path on `tasks` tasks of `id`:
/// `[generate, build, with_records, subsample_redundancy]`.
fn allocations(id: PaperDataset, tasks: usize) -> [u64; 4] {
    let mut sim = simulator(id, tasks);
    let (dataset, generate) = counted(|| sim.generate());

    let mut builder = DatasetBuilder::with_capacity(
        "copy",
        dataset.task_type(),
        dataset.num_tasks(),
        dataset.num_workers(),
        dataset.num_answers(),
    );
    for r in dataset.records() {
        builder.add_answer(r.task, r.worker, r.answer).unwrap();
    }
    let (built, build) = counted(|| builder.build());
    assert_eq!(built.records(), dataset.records());

    let records = dataset.records().to_vec();
    let (copy, with_records) = counted(|| dataset.with_records(records));
    assert_eq!(copy.num_answers(), dataset.num_answers());

    let (sub, subsample) = counted(|| subsample_redundancy(&dataset, 3, 1));
    assert!(sub.num_answers() <= 3 * tasks);
    [generate, build, with_records, subsample]
}

fn main() {
    println!("per-dataset allocation audit (counting global allocator):");
    const PATHS: [&str; 4] = ["generate", "build", "with_records", "subsample_redundancy"];
    for id in PaperDataset::ALL {
        // Warm-up run absorbs any one-time lazy initialisation.
        let _ = allocations(id, 100);
        let small = allocations(id, 100);
        let large = allocations(id, 1_000);
        for (k, path) in PATHS.iter().enumerate() {
            assert_eq!(
                small[k],
                large[k],
                "{} {path}: {} allocations at 100 tasks vs {} at 1,000 — \
                 construction allocates per task or per answer",
                id.name(),
                small[k],
                large[k]
            );
        }
        println!(
            "  {:<10} generate {}, build {}, with_records {}, subsample_redundancy {} \
             allocations at 100 and 1,000 tasks",
            id.name(),
            small[0],
            small[1],
            small[2],
            small[3]
        );
    }
}
