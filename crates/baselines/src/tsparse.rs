//! tSparse-like baseline: dense tile-wise multiplication (§4.7).
//!
//! Zachariadis et al.'s tSparse stores matrices as tiles (like this paper)
//! but multiplies matched tile pairs as *dense* 16×16 GEMMs on half-precision
//! tensor cores, converting each resulting dense tile back to sparse form.
//! Per DESIGN.md, `f32` micro-GEMMs stand in for the hh→s tensor-core MMA —
//! wasting sparsity in exactly the way the paper's comparison targets — and
//! TileSpGEMM is likewise run in `f32` for Figures 13/14.
//!
//! Two further behaviours the paper calls out are reproduced:
//! * the output buffer is *resized repeatedly* during execution ("the memory
//!   allocation of C needs to be resized repeatedly"), modelled as doubling
//!   re-allocations charged to the tracker and the alloc slice;
//! * per-tile temporary compaction buffers, giving the method its larger
//!   allocation share in Figure 14.

use crate::RunOutcome;
use rayon::prelude::*;
use tilespgemm_core::step1::tile_structure_spgemm;
use tilespgemm_core::step2::matched_pairs;
use tilespgemm_core::SpGemmError;
use tsg_matrix::{Csr, Scalar, TileMatrix, TILE_AREA, TILE_DIM};
use tsg_runtime::{Breakdown, MemTracker, Step};

/// Result of a tSparse-like multiplication (kept in `f32`, the comparison
/// precision of §4.7).
#[derive(Debug)]
pub struct TSparseOutcome {
    /// The product in sparse-tile form.
    pub c: TileMatrix<f32>,
    /// Runtime breakdown (Figure 14's left bars).
    pub breakdown: Breakdown,
    /// Peak tracked bytes.
    pub peak_bytes: usize,
}

/// One compacted output tile.
#[derive(Debug, Default, Clone)]
struct CompactTile {
    rows: Vec<u8>,
    cols: Vec<u8>,
    vals: Vec<f32>,
    masks: [u16; TILE_DIM],
    row_ptr: [u8; TILE_DIM],
}

/// Multiplies tiled `f32` operands the tSparse way.
pub fn multiply_tiled(
    a: &TileMatrix<f32>,
    b: &TileMatrix<f32>,
    tracker: &MemTracker,
) -> Result<TSparseOutcome, SpGemmError> {
    if a.ncols != b.nrows {
        return Err(SpGemmError::ShapeMismatch {
            a: (a.nrows, a.ncols),
            b: (b.nrows, b.ncols),
        });
    }
    let mut breakdown = Breakdown::default();
    let input_bytes = {
        use tsg_matrix::Footprint;
        a.bytes() + b.bytes()
    };
    tracker.on_alloc(input_bytes)?;

    // Step 1: tile-structure symbolic product (same as TileSpGEMM's).
    let c_pattern = breakdown.timed(Step::Step1, || {
        tile_structure_spgemm(
            a.tile_m,
            &a.tile_ptr,
            &a.tile_colidx,
            &b.tile_ptr,
            &b.tile_colidx,
            b.tile_n,
        )
    });
    let num_tiles = c_pattern.nnz();

    let (b_cols, c_rowidx) = breakdown.timed(Step::Step2, || {
        let b_cols = b.col_index();
        let mut c_rowidx = vec![0u32; num_tiles];
        for ti in 0..c_pattern.rows {
            c_rowidx[c_pattern.ptr[ti]..c_pattern.ptr[ti + 1]].fill(ti as u32);
        }
        (b_cols, c_rowidx)
    });

    // Step 3: dense tile products. Each matched pair is multiplied as a
    // full 16x16x16 dense GEMM (the tensor-core stand-in), ignoring operand
    // sparsity by construction.
    let mut tiles: Vec<CompactTile> = vec![CompactTile::default(); num_tiles];
    breakdown.timed(Step::Step3, || {
        tiles.par_iter_mut().enumerate().for_each_init(
            || (Vec::new(), Vec::new()),
            |(scratch, pairs), (t, out)| {
                let ti = c_rowidx[t] as usize;
                let tj = c_pattern.idx[t] as usize;
                matched_pairs(
                    a,
                    &b_cols,
                    ti,
                    tj,
                    tilespgemm_core::intersect::intersect_merge,
                    scratch,
                    pairs,
                );
                let mut acc = [0.0f32; TILE_AREA];
                let mut da = [0.0f32; TILE_AREA];
                let mut db = [0.0f32; TILE_AREA];
                for &(a_id, b_id) in pairs.iter() {
                    // Densify both tiles, then run the full dense MMA.
                    densify(a.tile(a_id as usize), &mut da);
                    densify(b.tile(b_id as usize), &mut db);
                    for r in 0..TILE_DIM {
                        for k in 0..TILE_DIM {
                            let x = da[r * TILE_DIM + k];
                            // No sparsity shortcut: tensor cores process the
                            // whole fragment regardless of zeros.
                            for c in 0..TILE_DIM {
                                acc[r * TILE_DIM + c] += x * db[k * TILE_DIM + c];
                            }
                        }
                    }
                }
                // Convert the dense result back to sparse form.
                let mut nnz = 0usize;
                for r in 0..TILE_DIM {
                    out.row_ptr[r] = nnz as u8;
                    let mut mask = 0u16;
                    for c in 0..TILE_DIM {
                        let v = acc[r * TILE_DIM + c];
                        if v != 0.0 {
                            mask |= 1 << c;
                            out.rows.push(r as u8);
                            out.cols.push(c as u8);
                            out.vals.push(v);
                            nnz += 1;
                        }
                    }
                    out.masks[r] = mask;
                }
            },
        );
    });

    // Assemble, modelling tSparse's repeated output resizing: the value
    // buffer is grown by doubling as tiles are appended, each growth a
    // tracked realloc (Figure 14's outsized allocation slice).
    let total_nnz: usize = tiles.iter().map(|t| t.vals.len()).sum();
    let mut tile_nnz = vec![0usize; num_tiles + 1];
    for (t, tile) in tiles.iter().enumerate() {
        tile_nnz[t + 1] = tile_nnz[t] + tile.vals.len();
    }
    let (row_idx, col_idx, vals, masks, row_ptr) = breakdown.timed(Step::Alloc, || {
        let per_nnz = 2 + std::mem::size_of::<f32>();
        let mut grown = 4096usize;
        tracker.on_alloc(grown * per_nnz)?;
        let mut charged = grown * per_nnz;
        while grown < total_nnz {
            grown *= 2;
            tracker.on_alloc(grown * per_nnz)?;
            tracker.on_free(charged);
            charged = grown * per_nnz;
        }
        tracker.on_alloc(num_tiles * (TILE_DIM * 3 + 8) + 8)?;
        let mut row_idx = Vec::with_capacity(total_nnz);
        let mut col_idx = Vec::with_capacity(total_nnz);
        let mut vals = Vec::with_capacity(total_nnz);
        let mut masks = Vec::with_capacity(num_tiles * TILE_DIM);
        let mut row_ptr = Vec::with_capacity(num_tiles * TILE_DIM);
        for tile in &tiles {
            row_idx.extend_from_slice(&tile.rows);
            col_idx.extend_from_slice(&tile.cols);
            vals.extend_from_slice(&tile.vals);
            masks.extend_from_slice(&tile.masks);
            row_ptr.extend_from_slice(&tile.row_ptr);
        }
        Ok::<_, SpGemmError>((row_idx, col_idx, vals, masks, row_ptr))
    })?;

    let c = TileMatrix {
        nrows: a.nrows,
        ncols: b.ncols,
        tile_m: a.tile_m,
        tile_n: b.tile_n,
        tile_ptr: c_pattern.ptr,
        tile_colidx: c_pattern.idx,
        tile_nnz,
        row_ptr,
        row_idx,
        col_idx,
        vals,
        masks,
    };
    let peak_bytes = tracker.peak_bytes();
    tracker.on_free(input_bytes);
    Ok(TSparseOutcome {
        c,
        breakdown,
        peak_bytes,
    })
}

fn densify<T: Scalar>(tile: tsg_matrix::TileView<'_, T>, out: &mut [T; TILE_AREA]) {
    out.fill(T::ZERO);
    for (r, c, v) in tile.iter() {
        out[r as usize * TILE_DIM + c as usize] = v;
    }
}

/// CSR convenience wrapper used by tests and the shootout example.
pub fn multiply_csr_f32(
    a: &Csr<f32>,
    b: &Csr<f32>,
    tracker: &MemTracker,
) -> Result<RunOutcome, SpGemmError> {
    let ta = TileMatrix::from_csr(a);
    let tb = TileMatrix::from_csr(b);
    let out = multiply_tiled(&ta, &tb, tracker)?;
    Ok(RunOutcome {
        c: out.c.to_csr().cast::<f64>().drop_numeric_zeros(),
        breakdown: out.breakdown,
        peak_bytes: out.peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_spgemm;
    use tsg_matrix::Coo;

    fn random_f32(n: usize, per_row: usize, seed: u64) -> Csr<f32> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = Coo::<f32>::new(n, n);
        for r in 0..n as u32 {
            for _ in 0..per_row {
                coo.push(
                    r,
                    (next() % n as u64) as u32,
                    ((next() % 9) + 1) as f32 * 0.25,
                );
            }
        }
        coo.to_csr()
    }

    #[test]
    fn matches_reference_in_f32() {
        for (n, k, s) in [(48usize, 4usize, 1u64), (100, 6, 2)] {
            let a = random_f32(n, k, s);
            let got = multiply_csr_f32(&a, &a, &MemTracker::new()).unwrap();
            let want = reference_spgemm(&a, &a).cast::<f64>().drop_numeric_zeros();
            assert!(
                got.c.approx_eq_ignoring_zeros(&want, 1e-4),
                "n={n} (f32 tolerance)"
            );
        }
    }

    #[test]
    fn agrees_with_tilespgemm_in_f32() {
        let a = random_f32(120, 5, 7);
        let ta = TileMatrix::from_csr(&a);
        let ts = multiply_tiled(&ta, &ta, &MemTracker::new()).unwrap();
        let tile = tilespgemm_core::multiply(
            &ta,
            &ta,
            &tilespgemm_core::Config::default(),
            &MemTracker::new(),
        )
        .unwrap();
        let x = ts.c.to_csr().drop_numeric_zeros();
        let y = tile.c.to_csr().drop_numeric_zeros();
        assert!(x.approx_eq_ignoring_zeros(&y, 1e-4));
    }

    #[test]
    fn output_tiles_validate() {
        let a = random_f32(200, 4, 9);
        let ta = TileMatrix::from_csr(&a);
        let out = multiply_tiled(&ta, &ta, &MemTracker::new()).unwrap();
        out.c.validate().unwrap();
    }

    #[test]
    fn realloc_churn_is_visible_in_timeline() {
        let a = random_f32(300, 8, 11);
        let ta = TileMatrix::from_csr(&a);
        let tracker = MemTracker::with_timeline(usize::MAX);
        multiply_tiled(&ta, &ta, &tracker).unwrap();
        let tl = tracker.timeline();
        let decreases = tl
            .windows(2)
            .filter(|w| w[1].current_bytes < w[0].current_bytes)
            .count();
        assert!(decreases >= 1, "expected output-resize churn");
    }
}
