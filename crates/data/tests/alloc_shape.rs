//! Proof that dataset construction allocates per dataset, not per task
//! or per answer.
//!
//! Method: install a counting global allocator and run each
//! construction path — `CrowdSimulator::generate`, `DatasetBuilder::build`,
//! `Dataset::with_records`, `subsample_redundancy` and `read_tsv` of a
//! `write_tsv` export — on 100 and on 1,000 tasks at the same redundancy
//! and worker count, and require the two allocation counts to be
//! **equal**: a heap block per task or per answer would show up as
//! `allocs(1000) > allocs(100)`.
//!
//! Runs with `harness = false` so the whole process is single-threaded
//! and no test-runner machinery allocates between the measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_data::datasets::PaperDataset;
use crowd_data::io::{read_tsv, write_tsv};
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
/// `[generate, build, with_records, subsample_redundancy, read_tsv]`.
fn allocations(id: PaperDataset, tasks: usize) -> [u64; 5] {
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

    let dir = std::env::temp_dir().join(format!("crowd_alloc_shape_{}", std::process::id()));
    let answers = write_tsv(&dataset, &dir).unwrap();
    let truths = dir.join("truths.tsv");
    let truths = truths.exists().then_some(truths.as_path());
    let (read, read_tsv) =
        counted(|| read_tsv(&answers, truths, dataset.task_type(), "read").unwrap());
    assert_eq!(read.num_answers(), dataset.num_answers());
    std::fs::remove_dir_all(&dir).unwrap();
    [generate, build, with_records, subsample, read_tsv]
}

fn main() {
    println!("per-dataset allocation audit (counting global allocator):");
    const PATHS: [&str; 5] = [
        "generate",
        "build",
        "with_records",
        "subsample_redundancy",
        "read_tsv",
    ];
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
            "  {:<10} generate {}, build {}, with_records {}, subsample_redundancy {}, \
             read_tsv {} allocations at 100 and 1,000 tasks",
            id.name(),
            small[0],
            small[1],
            small[2],
            small[3],
            small[4]
        );
    }
}
