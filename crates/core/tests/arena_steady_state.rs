//! Steady-state allocation audit of the step-2/step-3 hot path.
//!
//! A counting global allocator wraps the system allocator; after one warm
//! pass over every tile row (which grows the scratch arena's buffers to
//! their high-water sizes), a second identical pass must perform **zero**
//! heap allocations — the property the arena module exists to provide. The
//! pass covers both ways step 2 finds a tile's pairs: the row pass the
//! pipeline runs by default, and the paper's per-tile intersection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tilespgemm_core::intersect::intersect_binary_search;
use tilespgemm_core::maskops::row_ptr_from_masks;
use tilespgemm_core::step1::Occupancy;
use tilespgemm_core::step2::{matched_pairs, row_pass, symbolic_tile};
use tilespgemm_core::step3::{numeric_tile_dense, numeric_tile_sparse};
use tilespgemm_core::{multiply, Config};
use tsg_matrix::{Coo, TileMatrix, TILE_DIM};
use tsg_runtime::{MemTracker, Scratch, ScratchPool, ScratchSizes};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn random_tiled(n: usize, per_row: usize, seed: u64) -> TileMatrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coo = Coo::new(n, n);
    for r in 0..n as u32 {
        for _ in 0..per_row {
            let c = (next() % n as u64) as u32;
            coo.push(r, c, (next() % 16) as f64 - 8.0);
        }
    }
    TileMatrix::from_csr(&coo.to_csr())
}

/// Pre-sized output windows of one tile row of the row pass.
struct RowWindows {
    masks: Vec<u16>,
    ends: Vec<u32>,
    pairs: Vec<(u32, u32)>,
    vals: Vec<f64>,
}

/// Runs one tile's numeric kernel over `pairs` into the pre-sized value
/// window and returns the tile's sum.
fn numeric(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    vals: &mut [f64],
    tnnz: usize,
) -> f64 {
    let (row_ptr, nnz) = row_ptr_from_masks(masks.try_into().unwrap());
    let window = &mut vals[..nnz];
    window.fill(0.0);
    if nnz > tnnz {
        numeric_tile_dense(a, b, pairs, masks, window);
    } else {
        numeric_tile_sparse(a, b, pairs, masks, &row_ptr, window);
    }
    window.iter().sum()
}

/// One full pass of the hot path over every tile row of the layout `c`:
/// the row pass and the numeric kernels over its lists, then the paper's
/// binary-search intersection, symbolic mask-OR and numeric kernels over the
/// same tiles, using only `s` and the pre-sized windows for storage.
/// Returns each path's checksum so the work cannot be optimized away.
#[allow(clippy::too_many_arguments)]
fn hot_pass(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    c: &TileMatrix<f64>,
    occupancy: &Occupancy,
    b_cols: &tsg_matrix::TileColIndex,
    s: &mut Scratch,
    w: &mut RowWindows,
    tnnz: usize,
) -> (f64, f64) {
    let (mut rows, mut paper) = (0.0, 0.0);
    for ti in 0..c.tile_m {
        let cols = c.tile_row_cols(ti);
        let (masks, ends) = (
            &mut w.masks[..cols.len() * TILE_DIM],
            &mut w.ends[..cols.len()],
        );
        masks.fill(0);
        ends.fill(0);
        row_pass(a, b, occupancy, ti, cols, s, masks, ends, &mut w.pairs);
        let mut start = 0;
        for (l, &end) in ends.iter().enumerate() {
            let tile_masks = &masks[l * TILE_DIM..(l + 1) * TILE_DIM];
            let pairs = &w.pairs[start..end as usize];
            rows += numeric(a, b, pairs, tile_masks, &mut w.vals, tnnz);
            start = end as usize;
        }
        for &tj in cols {
            matched_pairs(
                a,
                b_cols,
                ti,
                tj as usize,
                intersect_binary_search,
                &mut s.pos_pairs,
                &mut s.id_pairs,
            );
            let sym = symbolic_tile(a, b, &s.id_pairs);
            paper += numeric(a, b, &s.id_pairs, &sym.masks, &mut w.vals, tnnz);
        }
    }
    (rows, paper)
}

#[test]
fn steady_state_hot_path_performs_zero_allocations() {
    let a = random_tiled(160, 6, 97);
    let b = random_tiled(160, 6, 131);
    let c = multiply(&a, &b, &Config::default(), &MemTracker::new())
        .unwrap()
        .c;
    let occupancy = Occupancy::new(&a, &b);
    let b_cols = b.col_index();

    // Windows for the longest tile row and its most candidates.
    let row_tiles = (0..c.tile_m)
        .map(|ti| c.tile_row_range(ti).len())
        .max()
        .unwrap();
    let candidates = (0..a.tile_m)
        .map(|ti| {
            a.tile_row_cols(ti)
                .iter()
                .map(|&k| b.tile_row_range(k as usize).len())
                .sum::<usize>()
        })
        .max()
        .unwrap();
    let mut w = RowWindows {
        masks: vec![0; row_tiles * TILE_DIM],
        ends: vec![0; row_tiles],
        pairs: vec![(0, 0); candidates],
        vals: vec![0.0; 256],
    };
    let pool = ScratchPool::new();
    let reservation = pool
        .reserve(1, ScratchSizes::default(), &MemTracker::new())
        .unwrap();
    let mut guard = reservation.checkout();
    let mut run =
        |w: &mut RowWindows| hot_pass(&a, &b, &c, &occupancy, &b_cols, &mut guard, w, 192);

    // Warm pass: scratch buffers grow to their high-water sizes here.
    let warm = run(&mut w);

    // Steady state: bit-identical work, zero heap traffic.
    let before = ALLOCS.load(Ordering::Relaxed);
    let steady = run(&mut w);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state step-2/3 execution must not touch the allocator"
    );
    assert_eq!(warm, steady, "the two passes did identical work");
    // Both paths feed the kernels the same pairs in the same order.
    assert_eq!(warm.0, warm.1, "the row pass and the intersection agree");
    assert_ne!(warm.0, 0.0, "the product is non-trivial");
}
