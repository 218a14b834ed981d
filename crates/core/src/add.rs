//! Element-wise addition on the tiled format.
//!
//! AMG pipelines interleave SpGEMMs with sums (`A + σI`, coarse-operator
//! corrections), and the paper's premise is that matrices *stay* tiled
//! between kernels. Tile-level addition is a two-level merge: union the two
//! tile layouts per tile row, then OR the row masks and merge the nonzeros
//! of coinciding tiles — all bounded per-tile state, like the SpGEMM steps.

use rayon::prelude::*;
use tsg_matrix::{Scalar, TileMatrix, TILE_DIM};
use tsg_runtime::split_mut_by_offsets;

use crate::step2::chunk_bounds;

/// Computes `C = alpha·A + beta·B` for tiled operands of identical shape.
///
/// Entries cancelling to exact zero are kept as explicit zeros (structural
/// union), mirroring the SpGEMM kernels' no-cancellation rule; use
/// [`TileMatrix::to_csr`] + [`tsg_matrix::Csr::drop_numeric_zeros`] to
/// compact.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add<T: Scalar>(alpha: T, a: &TileMatrix<T>, beta: T, b: &TileMatrix<T>) -> TileMatrix<T> {
    assert_eq!(
        (a.nrows, a.ncols),
        (b.nrows, b.ncols),
        "shape mismatch in tiled add"
    );

    // Pass 1 (parallel over tile rows): union of the tile layouts, plus per
    // output tile the (a_tile, b_tile) sources and the merged nnz.
    struct RowPlan {
        cols: Vec<u32>,
        sources: Vec<(Option<u32>, Option<u32>)>,
        nnz: Vec<u32>,
        masks: Vec<[u16; TILE_DIM]>,
    }
    let plans: Vec<RowPlan> = (0..a.tile_m)
        .into_par_iter()
        .map(|ti| {
            let (ar, br) = (a.tile_row_range(ti), b.tile_row_range(ti));
            let acols = &a.tile_colidx[ar.clone()];
            let bcols = &b.tile_colidx[br.clone()];
            let mut plan = RowPlan {
                cols: Vec::with_capacity(acols.len() + bcols.len()),
                sources: Vec::new(),
                nnz: Vec::new(),
                masks: Vec::new(),
            };
            let (mut p, mut q) = (0usize, 0usize);
            while p < acols.len() || q < bcols.len() {
                let take_a = q >= bcols.len() || (p < acols.len() && acols[p] < bcols[q]);
                let take_b = p >= acols.len() || (q < bcols.len() && bcols[q] < acols[p]);
                let (col, src) = if take_a {
                    let t = (ar.start + p) as u32;
                    p += 1;
                    (acols[p - 1], (Some(t), None))
                } else if take_b {
                    let t = (br.start + q) as u32;
                    q += 1;
                    (bcols[q - 1], (None, Some(t)))
                } else {
                    let (ta, tb) = ((ar.start + p) as u32, (br.start + q) as u32);
                    p += 1;
                    q += 1;
                    (acols[p - 1], (Some(ta), Some(tb)))
                };
                let mut masks = [0u16; TILE_DIM];
                if let (Some(t), _) = src {
                    for (r, m) in masks.iter_mut().enumerate() {
                        *m |= a.tile(t as usize).masks[r];
                    }
                }
                if let (_, Some(t)) = src {
                    for (r, m) in masks.iter_mut().enumerate() {
                        *m |= b.tile(t as usize).masks[r];
                    }
                }
                let nnz: u32 = masks.iter().map(|m| m.count_ones()).sum();
                plan.cols.push(col);
                plan.sources.push(src);
                plan.nnz.push(nnz);
                plan.masks.push(masks);
            }
            plan
        })
        .collect();

    // Assemble the high-level structure.
    let mut tile_ptr = vec![0usize; a.tile_m + 1];
    for (ti, plan) in plans.iter().enumerate() {
        tile_ptr[ti + 1] = tile_ptr[ti] + plan.cols.len();
    }
    let num_tiles = tile_ptr[a.tile_m];
    let mut tile_colidx = vec![0u32; num_tiles];
    let mut tile_nnz = vec![0usize; num_tiles + 1];
    let mut masks = vec![0u16; num_tiles * TILE_DIM];
    {
        let mut t = 0usize;
        for plan in &plans {
            for k in 0..plan.cols.len() {
                tile_colidx[t] = plan.cols[k];
                tile_nnz[t + 1] = plan.nnz[k] as usize;
                masks[t * TILE_DIM..(t + 1) * TILE_DIM].copy_from_slice(&plan.masks[k]);
                t += 1;
            }
        }
    }
    for t in 0..num_tiles {
        tile_nnz[t + 1] += tile_nnz[t];
    }
    let nnz = tile_nnz[num_tiles];

    // Pass 2: fill per-tile arrays, parallel over the chunks of tiles the
    // pipeline's steps 2 and 3 run. The arrays are split at chunk
    // boundaries only; a task slices each tile's window from `tile_nnz`.
    let mut row_ptr = vec![0u8; num_tiles * TILE_DIM];
    let mut row_idx = vec![0u8; nnz];
    let mut col_idx = vec![0u8; nnz];
    let mut vals = vec![T::ZERO; nnz];
    let sources_flat: Vec<(Option<u32>, Option<u32>)> = plans
        .iter()
        .flat_map(|p| p.sources.iter().copied())
        .collect();
    let fill_tile =
        |t: usize, rp_w: &mut [u8], ri_w: &mut [u8], ci_w: &mut [u8], vals_w: &mut [T]| {
            let tile_masks = &masks[t * TILE_DIM..(t + 1) * TILE_DIM];
            // Indices from the union masks.
            crate::step3::fill_indices_from_masks(tile_masks, ri_w, ci_w);
            let mut k = 0usize;
            for (r, &m) in tile_masks.iter().enumerate() {
                rp_w[r] = k as u8;
                k += m.count_ones() as usize;
            }
            // Scatter: for each source tile, add its values at the rank
            // positions of the union masks.
            let mut scatter = |tile: tsg_matrix::TileView<'_, T>, scale: T| {
                for (r, c, v) in tile.iter() {
                    let m = tile_masks[r as usize];
                    let rank = (m & ((1u16 << c) - 1)).count_ones() as usize;
                    let base = rp_w[r as usize] as usize;
                    vals_w[base + rank] += scale * v;
                }
            };
            let (sa, sb) = sources_flat[t];
            if let Some(ta) = sa {
                scatter(a.tile(ta as usize), alpha);
            }
            if let Some(tb) = sb {
                scatter(b.tile(tb as usize), beta);
            }
        };
    {
        let runs = chunk_bounds(num_tiles, rayon::current_num_threads());
        let rp_bounds: Vec<usize> = runs.iter().map(|&t| t * TILE_DIM).collect();
        let elem_bounds: Vec<usize> = runs.iter().map(|&t| tile_nnz[t]).collect();
        let rp_runs = split_mut_by_offsets(&mut row_ptr, &rp_bounds);
        let ri_runs = split_mut_by_offsets(&mut row_idx, &elem_bounds);
        let ci_runs = split_mut_by_offsets(&mut col_idx, &elem_bounds);
        let vals_runs = split_mut_by_offsets(&mut vals, &elem_bounds);
        rp_runs
            .into_par_iter()
            .zip(ri_runs)
            .zip(ci_runs)
            .zip(vals_runs)
            .enumerate()
            .for_each(|(r, (((rp_r, ri_r), ci_r), vals_r))| {
                for t in runs[r]..runs[r + 1] {
                    let k = t - runs[r];
                    let lo = tile_nnz[t] - elem_bounds[r];
                    let hi = tile_nnz[t + 1] - elem_bounds[r];
                    fill_tile(
                        t,
                        &mut rp_r[k * TILE_DIM..(k + 1) * TILE_DIM],
                        &mut ri_r[lo..hi],
                        &mut ci_r[lo..hi],
                        &mut vals_r[lo..hi],
                    );
                }
            });
    }

    let out = TileMatrix {
        nrows: a.nrows,
        ncols: a.ncols,
        tile_m: a.tile_m,
        tile_n: a.tile_n,
        tile_ptr,
        tile_colidx,
        tile_nnz,
        row_ptr,
        row_idx,
        col_idx,
        vals,
        masks,
    };
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_matrix::{ops, Coo, Csr};

    fn random(n: usize, nnz: usize, seed: u64) -> Csr<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = Coo::new(n, n);
        for _ in 0..nnz {
            coo.push(
                (next() % n as u64) as u32,
                (next() % n as u64) as u32,
                ((next() % 9) + 1) as f64 * 0.5,
            );
        }
        coo.to_csr()
    }

    #[test]
    fn matches_csr_add() {
        for seed in [1u64, 5, 9] {
            let a = random(70, 400, seed);
            let b = random(70, 300, seed + 100);
            let ta = TileMatrix::from_csr(&a);
            let tb = TileMatrix::from_csr(&b);
            let got = add(2.0, &ta, -0.5, &tb);
            got.validate().unwrap();
            let want = ops::add(2.0, &a, -0.5, &b);
            assert!(got
                .to_csr()
                .drop_numeric_zeros()
                .approx_eq_ignoring_zeros(&want, 1e-12));
        }
    }

    #[test]
    fn chunked_fill_agrees_bitwise_at_every_thread_count() {
        // ~600 output tiles: 16 to 40 chunks at 2–8 workers, ragged at 3.
        let a = TileMatrix::from_csr(&random(400, 6000, 11));
        let b = TileMatrix::from_csr(&random(400, 5000, 12));
        let on = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| add(1.5, &a, -0.25, &b))
        };
        let serial = on(1);
        serial.validate().unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(on(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn disjoint_patterns_concatenate() {
        let mut ca = Coo::new(32, 32);
        ca.push(0, 0, 1.0);
        let mut cb = Coo::new(32, 32);
        cb.push(20, 20, 2.0);
        let ta = TileMatrix::from_csr(&ca.to_csr());
        let tb = TileMatrix::from_csr(&cb.to_csr());
        let sum = add(1.0, &ta, 1.0, &tb);
        assert_eq!(sum.tile_count(), 2);
        assert_eq!(sum.nnz(), 2);
        let csr = sum.to_csr();
        assert_eq!(csr.get(0, 0), Some(1.0));
        assert_eq!(csr.get(20, 20), Some(2.0));
    }

    #[test]
    fn cancellation_keeps_structural_union() {
        let a = random(40, 200, 3);
        let ta = TileMatrix::from_csr(&a);
        let zero = add(1.0, &ta, -1.0, &ta);
        // Structure preserved, values exactly zero.
        assert_eq!(zero.nnz(), a.nnz());
        assert!(zero.vals.iter().all(|&v| v == 0.0));
        assert_eq!(zero.to_csr().drop_numeric_zeros().nnz(), 0);
    }

    #[test]
    fn shifted_identity_for_amg_smoothing() {
        // A + sigma*I, the AMG smoother construction.
        let a = random(50, 300, 7);
        let i = TileMatrix::from_csr(&Csr::identity(50));
        let ta = TileMatrix::from_csr(&a);
        let shifted = add(1.0, &ta, 4.0, &i);
        let want = ops::add(1.0, &a, 4.0, &Csr::identity(50));
        assert!(shifted
            .to_csr()
            .drop_numeric_zeros()
            .approx_eq_ignoring_zeros(&want, 1e-12));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(16));
        let b = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        add(1.0, &a, 1.0, &b);
    }
}
