//! Step 3: per-tile numeric phase (§3.3, Algorithm 3).
//!
//! With `C`'s structure fixed by step 2, each task computes its tile's
//! values. Two accumulators, selected adaptively by the tile's nonzero
//! count against the threshold `tnnz` (the paper uses 192 = 75% of 256):
//!
//! * [`sparse accumulator`](numeric_tile_sparse) — for sparse output tiles:
//!   each intermediate product `a(r,c) · b(c,k)` lands directly at its final
//!   position, computed by a *rank* query on the row mask
//!   (`row_ptr[r] + popcount(mask[r] & low_bits(k))`). No 256-slot buffer is
//!   touched, so sparse tiles stay cache-resident.
//! * [`dense accumulator`](numeric_tile_dense) — for near-dense tiles: a
//!   256-slot scratch tile absorbs products at `r*16 + k`, then is
//!   compressed through the mask. Costs a full-tile sweep but each product
//!   is a single indexed add.
//!
//! Both run on the stack; the paper's `atomicAdd` degenerates to plain adds
//! because one task owns each output tile.

use tsg_matrix::{Scalar, TileMatrix, TILE_AREA, TILE_DIM};

/// Accumulator policy for step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulatorKind {
    /// Sparse for tiles with `nnz <= tnnz`, dense above (paper default).
    Adaptive,
    /// Always use the sparse (rank-indexed) accumulator.
    AlwaysSparse,
    /// Always use the dense 256-slot accumulator.
    AlwaysDense,
}

impl AccumulatorKind {
    /// Resolves the policy for a tile with `nnz` stored nonzeros.
    #[inline]
    pub fn use_dense(self, nnz: usize, tnnz: usize) -> bool {
        match self {
            AccumulatorKind::Adaptive => nnz > tnnz,
            AccumulatorKind::AlwaysSparse => false,
            AccumulatorKind::AlwaysDense => true,
        }
    }
}

/// Fills `row_idx`/`col_idx` for a tile from its row masks, in the
/// `(row, col)` order the format stores. Returns the nonzero count.
pub fn fill_indices_from_masks(masks: &[u16], row_idx: &mut [u8], col_idx: &mut [u8]) -> usize {
    let mut k = 0usize;
    for (r, &m) in masks.iter().enumerate() {
        let next = crate::maskops::decode_mask_cols(m, col_idx, k);
        row_idx[k..next].fill(r as u8);
        k = next;
    }
    k
}

/// Numeric phase with the sparse accumulator: products are scattered
/// straight into the output window via mask-rank addressing.
///
/// `vals` is the tile's output value window (length == tile nnz, zeroed by
/// the caller); `masks`/`row_ptr` are the tile's symbolic structure.
pub fn numeric_tile_sparse<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    row_ptr: &[u8],
    vals: &mut [T],
) {
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_tile = b.tile(b_id as usize);
        for ((&r, &c), &va) in a_tile
            .row_idx
            .iter()
            .zip(a_tile.col_idx.iter())
            .zip(a_tile.vals.iter())
        {
            let base = row_ptr[r as usize] as usize;
            let mask = masks[r as usize];
            for kb in b_tile.row_range(c as usize) {
                let k = b_tile.col_idx[kb];
                let vb = b_tile.vals[kb];
                // Rank of column k within this row's mask.
                let rank = crate::maskops::rank16(mask, k as u32);
                debug_assert!(mask & (1 << k) != 0, "product outside symbolic mask");
                vals[base + rank] += va * vb;
            }
        }
    }
}

/// Numeric phase with the dense accumulator: a full 256-slot scratch tile,
/// compressed through the mask at the end.
pub fn numeric_tile_dense<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    vals: &mut [T],
) {
    let mut acc = [T::ZERO; TILE_AREA];
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_tile = b.tile(b_id as usize);
        for ((&r, &c), &va) in a_tile
            .row_idx
            .iter()
            .zip(a_tile.col_idx.iter())
            .zip(a_tile.vals.iter())
        {
            let row_base = r as usize * TILE_DIM;
            for kb in b_tile.row_range(c as usize) {
                let k = b_tile.col_idx[kb] as usize;
                acc[row_base + k] += va * b_tile.vals[kb];
            }
        }
    }
    // Compress: walk the masks in (row, col) order.
    let mut out = 0usize;
    for (r, &m) in masks.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            vals[out] = acc[r * TILE_DIM + c];
            bits &= bits - 1;
            out += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step2::symbolic_tile;
    use tsg_matrix::{Coo, Dense};

    fn tiled(entries: &[(u32, u32, f64)]) -> TileMatrix<f64> {
        let mut coo = Coo::new(16, 16);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        TileMatrix::from_csr(&coo.to_csr())
    }

    fn oracle(a: &TileMatrix<f64>, b: &TileMatrix<f64>) -> Dense<f64> {
        Dense::from_csr(&a.to_csr()).matmul(&Dense::from_csr(&b.to_csr()))
    }

    fn run_both(a: &TileMatrix<f64>, b: &TileMatrix<f64>) {
        let pairs = [(0u32, 0u32)];
        let sym = symbolic_tile(a, b, &pairs);
        let expect = oracle(a, b);

        let mut row_idx = vec![0u8; sym.nnz];
        let mut col_idx = vec![0u8; sym.nnz];
        assert_eq!(
            fill_indices_from_masks(&sym.masks, &mut row_idx, &mut col_idx),
            sym.nnz
        );

        for dense_path in [false, true] {
            let mut vals = vec![0.0f64; sym.nnz];
            if dense_path {
                numeric_tile_dense(a, b, &pairs, &sym.masks, &mut vals);
            } else {
                numeric_tile_sparse(a, b, &pairs, &sym.masks, &sym.row_ptr, &mut vals);
            }
            for k in 0..sym.nnz {
                let (r, c) = (row_idx[k] as usize, col_idx[k] as usize);
                assert!(
                    (vals[k] - expect.get(r, c)).abs() < 1e-12,
                    "path dense={dense_path} mismatch at ({r},{c}): {} vs {}",
                    vals[k],
                    expect.get(r, c)
                );
            }
        }
    }

    #[test]
    fn both_accumulators_match_dense_oracle_sparse_tile() {
        let a = tiled(&[(0, 0, 2.0), (0, 2, 3.0), (5, 1, -1.0), (15, 15, 4.0)]);
        let b = tiled(&[(0, 1, 1.5), (2, 1, 2.0), (1, 7, -3.0), (15, 0, 1.0)]);
        run_both(&a, &b);
    }

    #[test]
    fn both_accumulators_match_dense_oracle_full_tile() {
        let all_a: Vec<(u32, u32, f64)> = (0..16u32)
            .flat_map(|r| {
                (0..16u32).map(move |c| (r, c, (r as f64 + 1.0) * 0.25 - c as f64 * 0.125))
            })
            .collect();
        let all_b: Vec<(u32, u32, f64)> = (0..16u32)
            .flat_map(|r| (0..16u32).map(move |c| c as f64 - r as f64 * 0.5 + 1.0))
            .zip(0..256u32)
            .map(|(v, k)| (k / 16, k % 16, v))
            .collect();
        let a = tiled(&all_a);
        let b = tiled(&all_b);
        run_both(&a, &b);
    }

    #[test]
    fn accumulated_products_sum_across_pairs() {
        // Two matched pairs contributing to the same output position must
        // sum. Build 32x32 so two tiles of A's row 0 hit one C tile.
        let mut coo_a = Coo::new(32, 32);
        coo_a.push(0, 0, 1.0); // tile (0,0)
        coo_a.push(0, 16, 2.0); // tile (0,1)
        let a = TileMatrix::from_csr(&coo_a.to_csr());
        let mut coo_b = Coo::new(32, 32);
        coo_b.push(0, 0, 5.0); // tile (0,0): feeds via A(0,0)
        coo_b.push(16, 0, 7.0); // tile (1,0): feeds via A(0,16)
        let b = TileMatrix::from_csr(&coo_b.to_csr());

        let b_cols = b.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        crate::step2::matched_pairs(
            &a,
            &b_cols,
            0,
            0,
            crate::intersect::intersect_binary_search,
            &mut scratch,
            &mut pairs,
        );
        assert_eq!(pairs.len(), 2);
        let sym = symbolic_tile(&a, &b, &pairs);
        assert_eq!(sym.nnz, 1);
        let mut vals = vec![0.0f64];
        numeric_tile_sparse(&a, &b, &pairs, &sym.masks, &sym.row_ptr, &mut vals);
        assert_eq!(vals[0], 1.0 * 5.0 + 2.0 * 7.0);
        let mut vals_d = vec![0.0f64];
        numeric_tile_dense(&a, &b, &pairs, &sym.masks, &mut vals_d);
        assert_eq!(vals_d[0], 19.0);
    }

    #[test]
    fn adaptive_policy_thresholds() {
        assert!(!AccumulatorKind::Adaptive.use_dense(192, 192));
        assert!(AccumulatorKind::Adaptive.use_dense(193, 192));
        assert!(!AccumulatorKind::AlwaysSparse.use_dense(256, 192));
        assert!(AccumulatorKind::AlwaysDense.use_dense(0, 192));
    }

    #[test]
    fn fill_indices_orders_row_major() {
        let mut masks = [0u16; 16];
        masks[1] = 0b1001; // (1,0), (1,3)
        masks[4] = 0b0010; // (4,1)
        let mut ri = [0u8; 3];
        let mut ci = [0u8; 3];
        assert_eq!(fill_indices_from_masks(&masks, &mut ri, &mut ci), 3);
        assert_eq!(ri, [1, 1, 4]);
        assert_eq!(ci, [0, 3, 1]);
    }
}
