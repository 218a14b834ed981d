//! Boundary tests around the paper's tile thresholds, each pinned against
//! the serial reference baseline through the shared comparator:
//!
//! * a tile with exactly `tnnz = 192` nonzeros (last sparse-accumulator
//!   tile) and with 193 (first dense-accumulator tile);
//! * a fully dense 256-nonzero tile;
//! * an index-matched tile pair whose element-level intersection is empty
//!   (no tile allocated);
//! * the threshold knob itself moving the 192 tile across the boundary.
//!
//! The accumulator choice is observed through the recorder's
//! `SparseAccPicks` / `DenseAccPicks` counters, so these tests pin *which
//! kernel ran*, not just that the product came out right.

use tilespgemm_core::{multiply_csr, multiply_with_pool, Config, Output};
use tsg_baselines::reference::reference_spgemm;
use tsg_check::{compare_csr, corpus, ValuePolicy};
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::{CollectingRecorder, Counter, MemTracker, Recorder, ScratchPool};

fn case(name: &str) -> (Csr<f64>, Csr<f64>) {
    corpus::build(name, 0).expect("corpus case exists")
}

/// Runs the tiled pipeline under `config` with a collecting recorder and
/// returns the output plus the (sparse, dense) accumulator pick counts,
/// after pinning the product against the serial reference.
fn run_pinned(a: &Csr<f64>, b: &Csr<f64>, config: &Config) -> (Output<f64>, u64, u64) {
    let tracker = MemTracker::new();
    let recorder = CollectingRecorder::new();
    let (ta, tb) = (TileMatrix::from_csr(a), TileMatrix::from_csr(b));
    let pool = ScratchPool::new();
    let out = multiply_with_pool(&ta, &tb, None, config, &tracker, &recorder, 1, &pool)
        .expect("multiply succeeds");
    assert_eq!(tracker.current_bytes(), 0, "pipeline tracker must balance");
    compare_csr(
        &out.to_csr(),
        &reference_spgemm(a, b),
        &ValuePolicy::default(),
    )
    .expect("tiled product matches the reference baseline");
    let snap = recorder.snapshot();
    (
        out,
        snap.get(Counter::SparseAccPicks),
        snap.get(Counter::DenseAccPicks),
    )
}

#[test]
fn tile_with_exactly_192_nnz_takes_the_sparse_accumulator() {
    let (a, b) = case("tnnz-192");
    let (out, sparse, dense) = run_pinned(&a, &b, &Config::default());
    // I * B: one output tile, symbolic nnz exactly at the threshold.
    assert_eq!(out.c.tile_count(), 1);
    assert_eq!(out.c.nnz(), 192);
    assert_eq!(
        (sparse, dense),
        (1, 0),
        "192 = tnnz stays on the sparse side"
    );
}

#[test]
fn tile_with_193_nnz_takes_the_dense_accumulator() {
    let (a, b) = case("tnnz-193");
    let (out, sparse, dense) = run_pinned(&a, &b, &Config::default());
    assert_eq!(out.c.tile_count(), 1);
    assert_eq!(out.c.nnz(), 193);
    assert_eq!((sparse, dense), (0, 1), "193 > tnnz flips to dense");
}

#[test]
fn fully_dense_256_nnz_tile_takes_the_dense_accumulator() {
    let (a, b) = case("dense-tile-256");
    let (out, sparse, dense) = run_pinned(&a, &b, &Config::default());
    assert_eq!(out.c.tile_count(), 1);
    assert_eq!(out.c.nnz(), 256, "all 256 slots of the tile are stored");
    assert_eq!((sparse, dense), (0, 1));
}

#[test]
fn threshold_knob_moves_the_192_tile_across_the_boundary() {
    let (a, b) = case("tnnz-192");
    // Lowering the threshold by one must flip the very same tile to the
    // dense accumulator — the boundary is the config knob, not a constant.
    let cfg = Config::builder().tnnz_threshold(191).build();
    let (_, sparse, dense) = run_pinned(&a, &b, &cfg);
    assert_eq!((sparse, dense), (0, 1), "192 > 191 picks dense");
}

#[test]
fn empty_intersection_allocates_no_tile() {
    let (a, b) = case("phantom-tile");
    let tracker = MemTracker::new();
    let out = multiply_csr(&a, &b, &Config::default(), &tracker).expect("multiply succeeds");
    // The tile-level product predicts tile (0,0), but the element-level
    // intersection is empty: the pair is dead, so step 1 allocates no tile
    // for it, and only the honest product's tile (1,1) remains.
    let empties = (0..out.c.tile_count())
        .filter(|&t| out.c.tile_nnz_of(t) == 0)
        .count();
    assert_eq!(empties, 0, "no zero-entry tile in the tiled output");
    assert_eq!(out.c.tile_count(), 1);
    // The canonical product still matches the reference exactly: only the
    // honest (20,20) entry survives.
    let gold = reference_spgemm(&a, &b);
    compare_csr(&out.to_csr(), &gold, &ValuePolicy::default()).unwrap();
    assert_eq!(out.to_csr().nnz(), 1);
}
