//! Whole-pipeline allocation audit.
//!
//! `arena_steady_state.rs` pins the per-tile and per-row hot loops; this
//! file pins what `multiply_with_pool` as a whole asks of the allocator on
//! a warmed pool, in allocations and in bytes. Per-multiply buffers (step
//! 1's rows, output arrays, the pair lists) and per-task slices of the
//! arrays a phase splits are expected; anything per *tile* beyond the
//! product's own arrays is not — staging each tile's pairs in its own `Vec`
//! would cost more than one allocation per output tile, and a table of
//! per-tile output windows costs 16 bytes per tile per array, more again
//! each time the parallel executor splits it.
//!
//! The counting allocator is process-global, so this binary holds exactly
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tilespgemm_core::{multiply_with_pool, Config, Scheduling};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;
use tsg_runtime::observe::NullRecorder;
use tsg_runtime::{MemTracker, ScratchPool};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation of `bytes` (a reallocation counts its new size).
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per output tile a multiply may make on a warmed pool.
const MAX_ALLOCS_PER_TILE: f64 = 0.05;

/// Host bytes per output tile a multiply may allocate on a warmed pool.
const MAX_BYTES_PER_TILE: f64 = 300.0;

#[test]
fn warmed_multiply_allocates_far_less_than_once_per_output_tile() {
    // A power-law product with well over 100k output tiles.
    let a = TileMatrix::from_csr(
        &GenSpec::Rmat {
            scale: 13,
            edges: 24_000,
            mild: false,
            seed: 5,
        }
        .build(),
    );
    for workers in [2usize, 4] {
        let threads = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap();
        for scheduling in [Scheduling::PerTile, Scheduling::PerTileRow] {
            let config = Config::builder().scheduling(scheduling).build();
            let pool = ScratchPool::new();
            let tracker = MemTracker::new();
            let run = || {
                threads.install(|| {
                    multiply_with_pool(&a, &a, None, &config, &tracker, &NullRecorder, 0, &pool)
                })
            };
            let warm = run().expect("warm-up multiply");

            let (allocs_before, bytes_before) = (
                ALLOCS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            );
            let out = run().expect("audited multiply");
            let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
            let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;

            let what = format!("{scheduling:?} on {workers} workers");
            let tiles = out.c.tile_count();
            assert!(tiles >= 100_000, "the audit needs a large product: {tiles}");
            assert_eq!(out.c, warm.c, "{what}: same product");
            let per_tile = allocs as f64 / tiles as f64;
            let bytes_per_tile = bytes as f64 / tiles as f64;
            eprintln!(
                "{what}: {allocs} allocations ({per_tile:.3} per tile), \
                 {bytes} B ({bytes_per_tile:.1} per tile) for {tiles} output tiles"
            );
            assert!(
                per_tile < MAX_ALLOCS_PER_TILE,
                "{what}: {allocs} allocations for {tiles} output tiles \
                 ({per_tile:.3} per tile)"
            );
            assert!(
                bytes_per_tile < MAX_BYTES_PER_TILE,
                "{what}: {bytes} B allocated for {tiles} output tiles \
                 ({bytes_per_tile:.1} per tile)"
            );
        }
    }
}
