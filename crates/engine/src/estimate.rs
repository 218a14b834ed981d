//! Per-job cost prediction for admission control.
//!
//! The engine predicts, before running a job, roughly how many flops the
//! product costs and how many device bytes it will touch, in the same spirit
//! as spECK's lightweight pre-analysis: cheap to compute, accurate enough to
//! steer scheduling, and explicitly *not* an upper bound. Nothing is
//! rejected on it: the `tsg-serve` scheduler admits a job once its estimate
//! fits the memory currently free, and defers one whose estimate exceeds
//! the whole budget until the device is idle, then runs it alone. The
//! [`MemTracker`] budget is the backstop: a job can still trip it
//! mid-flight (the estimate ignores most step-2 temporaries and assumes a
//! modest output compression factor), which surfaces as an `out_of_memory`
//! job failure — the engine analogue of the paper's Figure-7 "0.00" bars.
//! Two step-2/3 terms large enough to matter are modelled explicitly: the
//! per-tile pair lists step 2 hands step 3 and the per-worker scratch
//! arenas the pipeline reserves. Arenas are priced from
//! the device's thread count (`threads` below), the pool a job runs in, so
//! an estimate never depends on the thread that computes it.
//!
//! When both operand structures are on hand the engine now prefers the
//! *sampled* estimators ([`estimate_job_sampled`], [`estimate_tiled_sampled`])
//! built on [`tilespgemm_core::sample`]: instead of assuming a fixed
//! compression constant they measure the exact symbolic product on a seeded
//! subset of A's tile rows and admit against the upper edge of the resulting
//! confidence band. The constant-factor model below remains the fallback for
//! shape-only estimates and for the `engine.estimate_sample` failpoint path.
//!
//! [`MemTracker`]: tsg_runtime::MemTracker

use tilespgemm_core::sample::{sample_csr, sample_tiled, SampleStats};
use tsg_matrix::{Csr, Footprint, TileMatrix, TILE_AREA, TILE_DIM};
use tsg_runtime::Scratch;

/// Assumed ratio of intermediate products to output nonzeros. Sparse-sparse
/// products on the paper's dataset typically compact by 1–4×; predicting 4×
/// keeps admission permissive (under-admitting wastes the device, and the
/// tracker still backstops over-admission). Only the fallback paths use this
/// constant now — sampled estimates measure the compression instead.
pub const ASSUMED_COMPRESSION: u64 = 4;

/// How a sampled estimate was obtained — the integer-only band summary kept
/// on [`JobEstimate`] (integers so the estimate stays `Eq` and the sampler's
/// cross-thread bit-reproducibility carries through to the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleInfo {
    /// Tile rows of `A` actually measured.
    pub sampled_tile_rows: u32,
    /// Tile rows of `A` in total (the sampling population).
    pub total_tile_rows: u32,
    /// Lower edge of the 95% band on nnz(C).
    pub nnz_lo: usize,
    /// Upper edge of the 95% band on nnz(C) — what admission charges for.
    pub nnz_hi: usize,
    /// Estimated surviving `(A_ik, B_kj)` tile pairs (pair-list sizing).
    pub est_pairs: usize,
    /// Estimated non-empty output tiles.
    pub est_tiles_c: usize,
    /// The whole population was measured; the band has zero width.
    pub exact: bool,
}

/// Predicted cost of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobEstimate {
    /// Flop count. Exact (2 × intermediate products) when both CSR forms
    /// are on hand; a structural heuristic otherwise (chain intermediates,
    /// resident products whose CSR was never derived).
    pub flops: u64,
    /// Predicted output nonzeros after compaction (the band's point
    /// estimate when [`Self::sample`] is present).
    pub est_nnz_c: usize,
    /// Predicted peak device bytes: tiled operands plus the output. Sampled
    /// estimates charge the band-upper nonzero count here, so admission is
    /// conservative within the measured band rather than within a guessed
    /// constant.
    pub est_bytes: usize,
    /// Present when the estimate came from a sampled symbolic pass.
    pub sample: Option<SampleInfo>,
}

/// The shape summary an estimate needs from an operand — available from the
/// registry without materializing either matrix form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandShape {
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
}

impl OperandShape {
    /// Shape of a CSR operand.
    pub fn of_csr(c: &Csr<f64>) -> Self {
        OperandShape {
            nrows: c.nrows,
            ncols: c.ncols,
            nnz: c.nnz(),
        }
    }

    /// Shape of a tiled operand.
    pub fn of_tiled(t: &TileMatrix<f64>) -> Self {
        OperandShape {
            nrows: t.nrows,
            ncols: t.ncols,
            nnz: t.nnz(),
        }
    }
}

/// Bytes of a tiled matrix without building it: per-nonzero locals
/// (`rowIdx`+`colIdx`+`val`), per-tile overhead (`rowPtr`+`mask` plus the
/// `tileColIdx`/`tileNnz` slots), and the tile-row pointer array. The tile
/// count is unknown before conversion, so it is bounded by nnz (every
/// nonzero in its own tile) and by the grid size.
pub fn est_tiled_bytes(nrows: usize, ncols: usize, nnz: usize) -> usize {
    let tile_m = nrows.div_ceil(TILE_DIM);
    let tile_n = ncols.div_ceil(TILE_DIM);
    let est_tiles = nnz.min(tile_m.saturating_mul(tile_n)).max(1);
    let per_tile = TILE_DIM // rowPtr: u8 per tile row
        + TILE_DIM * 2 // mask: u16 per tile row
        + 4 // tileColIdx
        + 8; // tileNnz slot
             // `tile_nnz` is an offset array of length tiles + 1, hence the extra slot.
    nnz * (1 + 1 + 8) + est_tiles * per_tile + 8 + (tile_m + 1) * 8
}

/// Predicts the cost of `a · b` on a device of `threads` workers. When a
/// tiled form is already cached its exact byte count replaces the
/// structural estimate.
pub fn estimate_job(
    a: &Csr<f64>,
    a_tiled: Option<&TileMatrix<f64>>,
    b: &Csr<f64>,
    b_tiled: Option<&TileMatrix<f64>>,
    threads: usize,
) -> JobEstimate {
    let flops = a.spgemm_flops(b);
    let a_bytes = a_tiled
        .map(Footprint::bytes)
        .unwrap_or_else(|| est_tiled_bytes(a.nrows, a.ncols, a.nnz()));
    let b_bytes = b_tiled
        .map(Footprint::bytes)
        .unwrap_or_else(|| est_tiled_bytes(b.nrows, b.ncols, b.nnz()));
    assemble_product(flops, a.nrows, b.ncols, a_bytes, b_bytes, threads)
}

/// Predicts the cost of a product from operand *shapes* alone — the path
/// for operands whose CSR form does not exist (resident tiled products,
/// chain intermediates that are still hypothetical at admission time).
/// Flops use the uniform-row heuristic `2 · nnz(A) · nnz(B)/nrows(B)`
/// instead of the exact row-by-row count; everything downstream of the flop
/// count is the same model as [`estimate_job`].
pub fn estimate_product(a: OperandShape, b: OperandShape, threads: usize) -> JobEstimate {
    let avg_b_row = if b.nrows == 0 {
        0.0
    } else {
        b.nnz as f64 / b.nrows as f64
    };
    let flops = (2.0 * a.nnz as f64 * avg_b_row).round() as u64;
    assemble_product(
        flops,
        a.nrows,
        b.ncols,
        est_tiled_bytes(a.nrows, a.ncols, a.nnz),
        est_tiled_bytes(b.nrows, b.ncols, b.nnz),
        threads,
    )
}

/// Scratch arenas a job on a device of `threads` workers reserves: the
/// pipeline takes one per worker up front.
fn arena_bytes(threads: usize) -> usize {
    threads.max(1) * Scratch::BASE_BYTES
}

/// Shared byte model downstream of the flop count.
fn assemble_product(
    flops: u64,
    out_rows: usize,
    out_cols: usize,
    a_bytes: usize,
    b_bytes: usize,
    threads: usize,
) -> JobEstimate {
    let products = flops / 2;
    let est_nnz_c = (products / ASSUMED_COMPRESSION)
        .min((out_rows as u64).saturating_mul(out_cols as u64)) as usize;
    // Output: locals + values per nonzero, plus tile bookkeeping folded into
    // the same per-nonzero constant (outputs are at least as clustered as
    // the estimate assumes).
    //
    // Pair lists (pair reuse is the default): a matched pair covers on the
    // order of TILE_AREA intermediate products on clustered inputs, and the
    // offsets array adds 4 bytes per output tile (bounded by output nonzeros
    // / TILE_DIM). The 2 B per pair dates from a packed pair encoding; the
    // lists now take 8 B per live pair, but this shape-only fallback keeps
    // its calibrated weights.
    let est_pairs = (products as usize / TILE_AREA).max(1);
    let est_tiles_c = est_nnz_c.div_ceil(TILE_DIM).max(1);
    let pair_bytes = est_pairs * 2 + (est_tiles_c + 1) * 4;
    let est_bytes = a_bytes + b_bytes + est_nnz_c * (1 + 1 + 8) + pair_bytes + arena_bytes(threads);
    JobEstimate {
        flops,
        est_nnz_c,
        est_bytes,
        sample: None,
    }
}

/// Calibrated per-quantity byte weights for the sampled peak model. Unlike
/// the fallback model (which guesses a *total device footprint* including
/// untracked operand residency), the sampled model predicts the quantity
/// admission actually compares against the budget: the **tracked pipeline
/// peak** — what [`tsg_runtime::MemTracker`] observes while the multiply
/// runs. Calibrated against measured peaks over the bench workloads
/// (fem/scatter/grid squares and mixes), each lands the estimate 5–25%
/// above the true peak:
///
/// * per output nonzero (16 B): tiled-output locals (`rowIdx`+`colIdx`+
///   `val` ≈ 10 B) plus step-3 staging buffers;
/// * per output tile (72 B): the tiled form's per-tile overhead (~60 B of
///   `rowPtr`/`mask`/`tileColIdx`/`tileNnz`) plus step-2 mask scratch and
///   the per-tile count arrays;
/// * per surviving pair (10 B): step 2's per-tile pair lists (8 B per
///   live pair) plus the step-1 tile-pair lists. The sampler counts every
///   index-matched pair, about three per live one on power-law inputs.
const SAMPLED_NNZ_BYTES: usize = 16;
const SAMPLED_TILE_BYTES: usize = 72;
const SAMPLED_PAIR_BYTES: usize = 10;

/// Bytes per output nonzero of the tiled output's own arrays (`rowIdx` +
/// `colIdx` + `val`) — the share of the per-nonzero weights a mask can
/// reclaim.
const OUTPUT_NNZ_BYTES: usize = 1 + 1 + 8;

/// Predicts the cost of `a · b` from a sampled symbolic pass over the CSR
/// operands — the admission path when both CSR forms are on hand and
/// sampling is enabled. The flop count is exact (the sampler's first pass
/// counts every intermediate product); nonzeros, pairs, and tiles come from
/// the scaled sample, and the byte term charges the band-*upper* nonzero
/// count so a job is only admitted when even the pessimistic edge of the
/// measured band fits.
pub fn estimate_job_sampled(
    a: &Csr<f64>,
    b: &Csr<f64>,
    rate: f64,
    seed: u64,
    threads: usize,
) -> JobEstimate {
    assemble_sampled(&sample_csr(a, b, rate, seed), threads)
}

/// Sampled estimate from tiled operands — the path for resident products
/// whose CSR form was never materialized. The flop count is itself sampled
/// here (`products_exact` is false below full rate), but the byte model is
/// identical to [`estimate_job_sampled`].
pub fn estimate_tiled_sampled(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    rate: f64,
    seed: u64,
    threads: usize,
) -> JobEstimate {
    assemble_sampled(&sample_tiled(a, b, rate, seed), threads)
}

/// Byte model for a sampled estimate: the calibrated tracked-peak weights
/// applied to measured quantities — the band-upper nonzero count, the
/// scaled pair count, and the scaled output-tile count — instead of
/// `ASSUMED_COMPRESSION`-derived guesses over an operand-byte guess.
fn assemble_sampled(stats: &SampleStats, threads: usize) -> JobEstimate {
    let nnz_hi = stats.nnz_hi as usize;
    let est_pairs = (stats.est_pairs as usize).max(1);
    let est_tiles_c = (stats.est_tiles_c as usize).max(1);
    let est_bytes = nnz_hi * SAMPLED_NNZ_BYTES
        + est_tiles_c * SAMPLED_TILE_BYTES
        + est_pairs * SAMPLED_PAIR_BYTES
        + arena_bytes(threads);
    JobEstimate {
        flops: stats.products.saturating_mul(2),
        est_nnz_c: stats.est_nnz_c as usize,
        est_bytes,
        sample: Some(SampleInfo {
            sampled_tile_rows: stats.sampled_tile_rows,
            total_tile_rows: stats.total_tile_rows,
            nnz_lo: stats.nnz_lo as usize,
            nnz_hi,
            est_pairs,
            est_tiles_c,
            exact: stats.exact,
        }),
    }
}

/// Output-side byte terms attributable to `est_nnz_c` output nonzeros (the
/// per-nonzero locals plus the pair-offset array) — what mask pruning can
/// reclaim from a product estimate.
fn output_terms(est_nnz_c: usize) -> usize {
    est_nnz_c * OUTPUT_NNZ_BYTES + (est_nnz_c.div_ceil(TILE_DIM).max(1) + 1) * 4
}

/// Prunes a product estimate by a mask: the output cannot exceed the mask's
/// pattern (`C⟨M⟩ = A·B` keeps only positions stored in `M`), so the output
/// nonzeros are capped at `mask.nnz`, flops are scaled by the surviving
/// fraction (mask pushdown skips step-2 work for unmasked tiles), and the
/// mask's own tiled input bytes join the operand term (fallback estimates
/// only — sampled estimates model the tracked pipeline peak, which never
/// includes input residency). On a sampled estimate the whole band is
/// capped, and the byte term gives back only the output arrays of the
/// nonzeros the mask prunes from the band-upper edge (the basis admission
/// charged for): the sampled per-nonzero weight was calibrated on unmasked
/// products, where it also covers the inputs and step-2 temporaries, and
/// those do not shrink under a mask.
pub fn mask_pruned(est: JobEstimate, mask: OperandShape) -> JobEstimate {
    let pruned = est.est_nnz_c.min(mask.nnz);
    let survival = if est.est_nnz_c == 0 {
        1.0
    } else {
        pruned as f64 / est.est_nnz_c as f64
    };
    let flops = ((est.flops as f64 * survival).round() as u64).min(est.flops);
    let byte_basis = est.sample.map_or(est.est_nnz_c, |s| s.nnz_hi);
    let pruned_basis = byte_basis.min(mask.nnz);
    let (removed, added) = if est.sample.is_some() {
        (
            byte_basis * OUTPUT_NNZ_BYTES,
            pruned_basis * OUTPUT_NNZ_BYTES,
        )
    } else {
        let mask_bytes = est_tiled_bytes(mask.nrows, mask.ncols, mask.nnz);
        (
            output_terms(byte_basis),
            output_terms(pruned_basis) + mask_bytes,
        )
    };
    JobEstimate {
        flops,
        est_nnz_c: pruned,
        est_bytes: est.est_bytes - removed + added,
        sample: est.sample.map(|s| SampleInfo {
            nnz_lo: s.nnz_lo.min(mask.nnz),
            nnz_hi: s.nnz_hi.min(mask.nnz),
            ..s
        }),
    }
}

/// Predicts the cost of `alpha·A + beta·B`: one scale-and-merge pass, so
/// flops are `nnz(A) + nnz(B)`, the output is at most the structural union,
/// and the byte term is both tiled operands plus the worst-case output.
pub fn estimate_add(a: OperandShape, b: OperandShape) -> JobEstimate {
    let union = (a.nnz + b.nnz).min(a.nrows.saturating_mul(a.ncols).max(1));
    JobEstimate {
        flops: (a.nnz + b.nnz) as u64,
        est_nnz_c: union,
        est_bytes: est_tiled_bytes(a.nrows, a.ncols, a.nnz)
            + est_tiled_bytes(b.nrows, b.ncols, b.nnz)
            + union * (1 + 1 + 8),
        sample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_gen::suite::GenSpec;
    use tsg_matrix::TileMatrix;

    #[test]
    fn estimate_scales_with_the_input() {
        let small = GenSpec::Scatter {
            n: 64,
            per_row: 3,
            seed: 1,
        }
        .build();
        let big = GenSpec::Scatter {
            n: 512,
            per_row: 8,
            seed: 1,
        }
        .build();
        let e_small = estimate_job(&small, None, &small, None, 2);
        let e_big = estimate_job(&big, None, &big, None, 2);
        assert!(e_small.flops > 0);
        assert!(e_big.flops > e_small.flops);
        assert!(e_big.est_bytes > e_small.est_bytes);
    }

    #[test]
    fn cached_tiled_form_tightens_the_input_term() {
        let a = GenSpec::Scatter {
            n: 256,
            per_row: 5,
            seed: 3,
        }
        .build();
        let ta = TileMatrix::from_csr(&a);
        let structural = estimate_job(&a, None, &a, None, 2);
        let exact = estimate_job(&a, Some(&ta), &a, Some(&ta), 2);
        assert_eq!(structural.flops, exact.flops);
        // The structural tile-count bound (nnz tiles) over-estimates the
        // input term relative to the real conversion.
        assert!(exact.est_bytes <= structural.est_bytes);
    }

    #[test]
    fn structural_estimate_tracks_the_exact_one() {
        let a = GenSpec::Scatter {
            n: 256,
            per_row: 5,
            seed: 3,
        }
        .build();
        let exact = estimate_job(&a, None, &a, None, 2);
        let shaped = estimate_product(OperandShape::of_csr(&a), OperandShape::of_csr(&a), 2);
        // Uniform rows: the heuristic flop count is within 2× of the exact
        // row-by-row count, and the byte model is the same downstream.
        assert!(shaped.flops >= exact.flops / 2 && shaped.flops <= exact.flops * 2);
        assert!(shaped.est_bytes > 0);
    }

    #[test]
    fn mask_prunes_the_estimate() {
        let a = GenSpec::Scatter {
            n: 512,
            per_row: 8,
            seed: 1,
        }
        .build();
        let base = estimate_job(&a, None, &a, None, 2);
        let sparse_mask = OperandShape {
            nrows: a.nrows,
            ncols: a.ncols,
            nnz: 10,
        };
        let pruned = mask_pruned(base, sparse_mask);
        assert_eq!(pruned.est_nnz_c, 10);
        assert!(pruned.flops < base.flops);
        // A mask as dense as the predicted output prunes nothing but still
        // adds its own input bytes.
        let loose_mask = OperandShape {
            nrows: a.nrows,
            ncols: a.ncols,
            nnz: base.est_nnz_c,
        };
        let unpruned = mask_pruned(base, loose_mask);
        assert_eq!(unpruned.est_nnz_c, base.est_nnz_c);
        assert_eq!(unpruned.flops, base.flops);
        assert!(unpruned.est_bytes > base.est_bytes);
    }

    #[test]
    fn add_estimate_is_linear_in_the_operands() {
        let s = OperandShape {
            nrows: 1000,
            ncols: 1000,
            nnz: 5000,
        };
        let e = estimate_add(s, s);
        assert_eq!(e.flops, 10_000);
        assert_eq!(e.est_nnz_c, 10_000);
        assert!(e.est_bytes > 0);
    }

    #[test]
    fn identity_product_estimate_is_tiny() {
        let i = tsg_matrix::Csr::<f64>::identity(64);
        let e = estimate_job(&i, None, &i, None, 3);
        assert_eq!(e.flops, 128); // 64 products × 2
                                  // Beyond the fixed scratch-arena floor, the variable part is small.
        assert!(e.est_bytes < arena_bytes(3) + 10_000);
    }
}
