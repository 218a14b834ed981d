//! A kept product is handed to the registry, not shared with it. A masked
//! product keeps the mask tiles it misses as empty tiles, and registering
//! it drops them (`TileMatrix::compact`), which moves the entry arrays of a
//! product the registration holds alone and copies one that is still
//! shared. This binary counts the allocations of the product's value array
//! across one kept masked job: one for the product, none for a copy.
//!
//! The counting allocator is process-global, so this binary holds exactly
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tsg_engine::{Engine, EngineConfig};
use tsg_matrix::Coo;
use tsg_serve::{Operand, SchedConfig, Scheduler, SubmitSpec};

struct Watch;

/// Allocation size to count (0: none).
static WATCHED: AtomicUsize = AtomicUsize::new(0);
/// Allocations of exactly [`WATCHED`] bytes (a reallocation counts its new
/// size).
static HITS: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if bytes == WATCHED.load(Ordering::Relaxed) {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Watch {
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
static GLOBAL: Watch = Watch;

/// Diagonal tiles of A·A that the mask keeps whole.
const BLOCKS: usize = 19;

#[test]
fn a_kept_masked_product_registers_without_a_copy() {
    let n = BLOCKS * 16 + 16;
    // A: dense 16×16 blocks on the diagonal, so A·A fills exactly the
    // diagonal tiles.
    let mut a = Coo::new(n, n);
    for blk in 0..BLOCKS as u32 {
        for r in 0..16 {
            for c in 0..16 {
                a.push(blk * 16 + r, blk * 16 + c, 1.0 + f64::from((r + c) % 5));
            }
        }
    }
    // M: the same diagonal tiles plus one entry in each tile right of them,
    // which the product misses.
    let mut m = Coo::new(n, n);
    for blk in 0..BLOCKS as u32 {
        for r in 0..16 {
            for c in 0..16 {
                m.push(blk * 16 + r, blk * 16 + c, 1.0);
            }
        }
        m.push(blk * 16, (blk + 1) * 16 + 3, 1.0);
    }
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let (ia, _) = engine.register(a.to_csr());
    let (im, _) = engine.register(m.to_csr());
    // Convert both operands before counting.
    engine.convert(ia).unwrap();
    engine.convert(im).unwrap();
    let sched = Scheduler::new(Arc::clone(&engine), SchedConfig::default());
    let session = sched.open_session("kept", 1.0, None).unwrap();
    let spec = SubmitSpec {
        mask: Some(Operand::Id(im)),
        keep: true,
        materialize: false,
        ..SubmitSpec::new(ia, ia)
    };

    let vals_bytes = BLOCKS * 256 * std::mem::size_of::<f64>();
    WATCHED.store(vals_bytes, Ordering::Relaxed);
    let done = sched.multiply_now(session, spec).unwrap().unwrap();
    WATCHED.store(0, Ordering::Relaxed);

    let kept = done.kept.expect("kept");
    let (c, _) = engine.resolve_tiled(kept).unwrap();
    assert_eq!(c.tile_count(), BLOCKS, "the missed mask tiles are gone");
    assert_eq!(c.vals.len() * std::mem::size_of::<f64>(), vals_bytes);
    assert_eq!(
        HITS.load(Ordering::Relaxed),
        1,
        "the value array was allocated once, for the product, and moved"
    );
    assert!(sched.shutdown(std::time::Duration::from_secs(10)));
}
