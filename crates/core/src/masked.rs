//! Masked SpGEMM: `C⟨M⟩ = A·B`, computing only the entries of the product
//! that fall inside a mask pattern `M`.
//!
//! The paper situates SpGEMM inside GraphBLAS (§1), whose signature
//! operation is the masked product — e.g. linear-algebra triangle counting
//! is `C⟨A⟩ = A·A` followed by a reduction, never materialising the full
//! square. The tiled format makes masking unusually cheap: `M`'s tile
//! layout prunes step 1's output pattern, and `M`'s row bitmasks AND into
//! step 2's symbolic masks, so step 3 touches exactly the surviving
//! entries.

use crate::intersect::MatchedPair;
use crate::maskops;
use crate::simd::{self, Kernel};
use crate::step2::{matched_pairs, symbolic_tile};
use crate::{Config, SpGemmError};
use rayon::prelude::*;
use tsg_matrix::{Scalar, TileMatrix, TILE_DIM};
use tsg_runtime::{split_mut_by_offsets, Breakdown, MemTracker, Step};

/// Computes `C⟨M⟩ = A·B`: the product restricted to the stored pattern of
/// `mask`. Tiles of the product outside `mask`'s tile layout are never
/// formed; inside a surviving tile, only positions present in `mask` are
/// kept.
///
/// Values of `mask` are ignored — only its pattern matters (the GraphBLAS
/// structural mask).
pub fn multiply_masked<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    mask: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<crate::Output<T>, SpGemmError> {
    if a.ncols != b.nrows {
        return Err(SpGemmError::ShapeMismatch {
            a: (a.nrows, a.ncols),
            b: (b.nrows, b.ncols),
        });
    }
    if (mask.nrows, mask.ncols) != (a.nrows, b.ncols) {
        return Err(SpGemmError::ShapeMismatch {
            a: (mask.nrows, mask.ncols),
            b: (a.nrows, b.ncols),
        });
    }
    let mut breakdown = Breakdown::default();
    let input_bytes = crate::pipeline::tile_matrix_bytes(a) + crate::pipeline::tile_matrix_bytes(b);
    tracker.on_alloc(input_bytes)?;

    // Step 1 under a mask degenerates to M's own tile layout: a product
    // tile can only survive where the mask has a tile. (Tiles of M whose
    // product is empty simply come out with zero nonzeros, like the
    // unmasked algorithm's retained empty tiles.)
    let (c_ptr, c_colidx) = breakdown.timed(Step::Step1, || {
        (mask.tile_ptr.clone(), mask.tile_colidx.clone())
    });
    let num_tiles = c_colidx.len();

    let (b_cols, c_rowidx, mut c_masks, mut c_row_ptr) = breakdown.timed(Step::Alloc, || {
        let b_cols = b.col_index();
        let mut c_rowidx = vec![0u32; num_tiles];
        for ti in 0..mask.tile_m {
            c_rowidx[c_ptr[ti]..c_ptr[ti + 1]].fill(ti as u32);
        }
        (
            b_cols,
            c_rowidx,
            vec![0u16; num_tiles * TILE_DIM],
            vec![0u8; num_tiles * TILE_DIM],
        )
    });
    // Every charge below is credited back on every exit path, as in the
    // unmasked pipeline: the tracker returns to its pre-call level whether
    // the product succeeds or the budget refuses it.
    let temp_bytes = num_tiles * (4 + TILE_DIM * 3 + 8) + b_cols.rowidx.len() * 16;
    if let Err(e) = tracker.on_alloc(temp_bytes) {
        tracker.on_free(input_bytes);
        return Err(e.into());
    }

    // Step 2 with the mask ANDed in. The kernel level and dense-tile
    // threshold are run constants, like the unmasked pipeline's.
    let simd_level = simd::resolve_level(config.simd);
    let dense_tile_nnz = simd::dense_tile_threshold(config.tnnz_threshold, config.est_hints);
    let mut c_counts = vec![0usize; num_tiles];
    breakdown.timed(Step::Step2, || {
        c_masks
            .par_chunks_mut(TILE_DIM)
            .zip(c_row_ptr.par_chunks_mut(TILE_DIM))
            .zip(c_counts.par_iter_mut())
            .enumerate()
            .for_each_init(
                || (Vec::<MatchedPair>::new(), Vec::<(u32, u32)>::new()),
                |(scratch, pairs), (t, ((mask_w, row_ptr_w), count))| {
                    let ti = c_rowidx[t] as usize;
                    let tj = c_colidx[t] as usize;
                    matched_pairs(a, &b_cols, ti, tj, config.intersection, scratch, pairs);
                    let sym = symbolic_tile(a, b, pairs);
                    let m_tile = mask.tile(t);
                    let mut m_masks = [0u16; TILE_DIM];
                    m_masks.copy_from_slice(m_tile.masks);
                    let allowed = maskops::and_masks(&sym.masks, &m_masks, simd_level);
                    let (row_ptr, nnz) = maskops::row_ptr_from_masks(&allowed);
                    mask_w.copy_from_slice(&allowed);
                    row_ptr_w.copy_from_slice(&row_ptr);
                    *count = nnz;
                },
            );
    });

    let mut c_offsets = vec![0usize; num_tiles + 1];
    let nnz_c = tsg_runtime::exclusive_scan_to(&c_counts, &mut c_offsets);
    let output_bytes = nnz_c * (2 + std::mem::size_of::<T>());
    let alloc_res = breakdown.timed(Step::Alloc, || {
        tracker.on_alloc(output_bytes)?;
        Ok::<_, SpGemmError>((
            tracker.timed_alloc(|| vec![0u8; nnz_c]),
            tracker.timed_alloc(|| vec![0u8; nnz_c]),
            tracker.timed_alloc(|| vec![T::ZERO; nnz_c]),
        ))
    });
    let (mut c_row_idx, mut c_col_idx, mut c_vals) = match alloc_res {
        Ok(v) => v,
        Err(e) => {
            tracker.on_free(input_bytes + temp_bytes);
            return Err(e);
        }
    };

    // Step 3: numeric, but products whose column is masked out are dropped
    // by the sparse accumulator's rank addressing — we give it the masked
    // row masks, so only surviving positions exist. The dense accumulator
    // computes the full tile then compresses through the masked masks.
    breakdown.timed(Step::Step3, || {
        let row_idx_w = split_mut_by_offsets(&mut c_row_idx, &c_offsets);
        let col_idx_w = split_mut_by_offsets(&mut c_col_idx, &c_offsets);
        let vals_w = split_mut_by_offsets(&mut c_vals, &c_offsets);
        row_idx_w
            .into_par_iter()
            .zip(col_idx_w)
            .zip(vals_w)
            .enumerate()
            .for_each_init(
                || (Vec::<MatchedPair>::new(), Vec::<(u32, u32)>::new()),
                |(scratch, pairs), (t, ((ri_w, ci_w), vals_w))| {
                    let ti = c_rowidx[t] as usize;
                    let tj = c_colidx[t] as usize;
                    let masks = &c_masks[t * TILE_DIM..(t + 1) * TILE_DIM];
                    simd::fill_indices_fast(masks, ri_w, ci_w, simd_level);
                    matched_pairs(a, &b_cols, ti, tj, config.intersection, scratch, pairs);
                    // The sparse path cannot be used directly: products may
                    // fall outside the masked pattern. Use the dense
                    // accumulator (vector micro-kernel where the level has
                    // one) and compress through the masked masks — except
                    // when the mask kept everything, where the adaptive
                    // kernel choice applies unchanged.
                    let full_inside = {
                        let sym = symbolic_tile(a, b, pairs);
                        (0..TILE_DIM).all(|r| sym.masks[r] & !masks[r] == 0)
                    };
                    let kernel = simd::select_kernel(
                        config.simd,
                        simd_level,
                        vals_w.len(),
                        config.accumulator,
                        config.tnnz_threshold,
                        dense_tile_nnz,
                    );
                    let row_ptr = &c_row_ptr[t * TILE_DIM..(t + 1) * TILE_DIM];
                    let kernel = match kernel {
                        Kernel::SparseScalar | Kernel::SparseSimd if full_inside => kernel,
                        Kernel::SparseScalar => Kernel::DenseScalar,
                        Kernel::SparseSimd => Kernel::DenseSimd,
                        dense => dense,
                    };
                    simd::run_numeric(kernel, simd_level, a, b, pairs, masks, row_ptr, vals_w);
                },
            );
    });

    let c = TileMatrix {
        nrows: a.nrows,
        ncols: b.ncols,
        tile_m: mask.tile_m,
        tile_n: mask.tile_n,
        tile_ptr: c_ptr,
        tile_colidx: c_colidx,
        tile_nnz: c_offsets,
        row_ptr: c_row_ptr,
        row_idx: c_row_idx,
        col_idx: c_col_idx,
        vals: c_vals,
        masks: c_masks,
    };
    let peak_bytes = tracker.peak_bytes();
    // Inputs, step-2 temporaries and the output arrays (handed back to the
    // host) are all released.
    tracker.on_free(input_bytes + temp_bytes + output_bytes);
    Ok(crate::Output {
        c,
        breakdown,
        peak_bytes,
        pair_buffer: None,
        conversion: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::{ops, Coo, Csr};

    fn random(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
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
                coo.push(
                    r,
                    (next() % n as u64) as u32,
                    ((next() % 9) + 1) as f64 * 0.5,
                );
            }
        }
        coo.to_csr()
    }

    fn masked_oracle(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        let full = crate::multiply_csr(a, b, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        let pattern = mask.map_values(|_| 1.0);
        ops::hadamard(&full, &pattern)
    }

    #[test]
    fn masked_product_matches_hadamard_oracle() {
        for seed in [1u64, 7, 23] {
            let a = random(80, 5, seed);
            let b = random(80, 5, seed + 50);
            let mask = random(80, 8, seed + 99);
            let ta = TileMatrix::from_csr(&a);
            let tb = TileMatrix::from_csr(&b);
            let tm = TileMatrix::from_csr(&mask);
            let out =
                multiply_masked(&ta, &tb, &tm, &Config::default(), &MemTracker::new()).unwrap();
            out.c.validate().unwrap();
            let got = out.c.to_csr().drop_numeric_zeros();
            let want = masked_oracle(&a, &b, &mask).drop_numeric_zeros();
            assert!(got.approx_eq_ignoring_zeros(&want, 1e-10), "seed {seed}");
        }
    }

    #[test]
    fn self_mask_gives_triangle_counting_kernel() {
        // C<A> = A·A on a small undirected graph: per-edge common-neighbour
        // counts.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let adj = coo.to_csr();
        let t = TileMatrix::from_csr(&adj);
        let out = multiply_masked(&t, &t, &t, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        // Edge (0,1): common neighbour {2} -> 1. Edge (2,3): no common
        // neighbour, so the position is absent from the product pattern and
        // the mask intersection drops it.
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(2, 3), None);
        // Triangle count = sum / 6.
        assert_eq!(ops::sum_all(&c), 6.0);
    }

    #[test]
    fn masked_output_never_exceeds_mask_pattern() {
        let a = random(60, 6, 3);
        let mask = random(60, 2, 4);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&mask);
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        for row in 0..60 {
            let (cols, _) = c.row(row);
            let (mcols, _) = mask.row(row);
            for &col in cols {
                assert!(mcols.contains(&col), "({row},{col}) outside the mask");
            }
        }
        assert!(out.c.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let a = random(40, 5, 9);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&Csr::zero(40, 40));
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.c.tile_count(), 0);
    }

    #[test]
    fn tracker_returns_to_baseline_after_success_and_refusal() {
        let a = random(80, 5, 31);
        let mask = random(80, 8, 32);
        let (ta, tm) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&mask));
        // A resident charge the multiply must leave exactly as it found it.
        let baseline = 4096;
        let tracker = MemTracker::new();
        tracker.on_alloc(baseline).unwrap();
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap();
        assert!(out.c.nnz() > 0);
        assert_eq!(tracker.current_bytes(), baseline, "success credits all");

        // Refuse each charge in turn: the inputs, the step-2 temporaries
        // (the inputs fit), and the output arrays (everything else fits).
        let inputs = crate::pipeline::tile_matrix_bytes(&ta) * 2;
        for budget in [baseline + 1, baseline + inputs + 1, out.peak_bytes - 1] {
            let tracker = MemTracker::with_budget(budget);
            tracker.on_alloc(baseline).unwrap();
            let err = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap_err();
            assert!(matches!(err, SpGemmError::OutOfMemory(_)), "{err:?}");
            assert_eq!(tracker.current_bytes(), baseline, "budget {budget}");
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        let m = TileMatrix::from_csr(&Csr::<f64>::identity(48));
        let err = multiply_masked(&a, &a, &m, &Config::default(), &MemTracker::new()).unwrap_err();
        assert!(matches!(err, SpGemmError::ShapeMismatch { .. }));
    }
}
