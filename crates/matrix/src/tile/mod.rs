//! The paper's sparse-tile format (§3.2).
//!
//! A matrix is partitioned into a grid of 16×16 tiles; only non-empty tiles
//! are stored. Two levels of structure:
//!
//! **High level** — the tile layout, itself a CSR over the tile grid:
//! * `tile_ptr` (`tilePtr`, length `tile_m + 1`) — offsets of each tile row's
//!   tiles;
//! * `tile_colidx` (`tileColIdx`, length `num_tiles`) — tile column indices;
//! * `tile_nnz` (`tileNnz`, length `num_tiles + 1`) — offsets of each tile's
//!   nonzeros in the low-level arrays. (The paper stores this as offsets so
//!   that the omitted 17th row-pointer entry of each tile can be recovered —
//!   we keep exactly that design.)
//!
//! **Low level** — per-tile CSR-style storage with 8-bit locals:
//! * `row_ptr` (`rowPtr`, 16 `u8` entries *per tile*) — local row pointers.
//!   Only 16 entries are stored, not 17: a full tile has 256 nonzeros, which
//!   does not fit in a `u8`; the end of the last row is derived from
//!   `tile_nnz` exactly as the paper describes;
//! * `row_idx` / `col_idx` (`u8` each, length `nnz`) — local coordinates in
//!   `0..16` (each fits in 4 bits; the paper also stores them as unsigned
//!   chars);
//! * `vals` (length `nnz`) — values in tile order, `(row, col)` sorted within
//!   a tile;
//! * `masks` (`u16`, 16 entries per tile) — per-row occupancy bitmasks, bit
//!   `c` of `masks[t * 16 + r]` set iff local `(r, c)` is stored. These drive
//!   the step-2 symbolic phase (`AtomicOr` in the paper) and the step-3
//!   sparse accumulator's rank computation.

mod build;

pub use build::tile_dims;

use crate::{FormatError, Scalar};
use build::{tsg_scan, tsg_split};
use rayon::prelude::*;

/// Below this tile count the index-building helpers (`expand_tile_rowidx`,
/// `col_index`) stay serial; the fork/join and per-chunk bookkeeping overhead
/// dominates for small tile grids.
const INDEX_PAR_THRESHOLD: usize = 1 << 14;

/// Tile edge length. Fixed at 16 by the paper: local indices fill 4 bits
/// (two per `u8`), row masks fill a `u16`, and pointers fill a `u8`.
pub const TILE_DIM: usize = 16;

/// Maximum nonzeros per tile (`TILE_DIM`²).
pub const TILE_AREA: usize = 256;

/// A sparse matrix stored as a CSR-of-sparse-tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMatrix<T = f64> {
    /// Number of scalar rows.
    pub nrows: usize,
    /// Number of scalar columns.
    pub ncols: usize,
    /// Number of tile rows (`ceil(nrows / 16)`).
    pub tile_m: usize,
    /// Number of tile columns (`ceil(ncols / 16)`).
    pub tile_n: usize,
    /// High-level tile row pointers, length `tile_m + 1`.
    pub tile_ptr: Vec<usize>,
    /// Tile column indices, ascending within a tile row.
    pub tile_colidx: Vec<u32>,
    /// Per-tile nonzero offsets, length `num_tiles + 1`.
    pub tile_nnz: Vec<usize>,
    /// Local row pointers: 16 `u8` entries per tile.
    pub row_ptr: Vec<u8>,
    /// Local row index of each nonzero (`0..16`).
    pub row_idx: Vec<u8>,
    /// Local column index of each nonzero (`0..16`).
    pub col_idx: Vec<u8>,
    /// Values in tile order.
    pub vals: Vec<T>,
    /// Row bitmasks: 16 `u16` entries per tile.
    pub masks: Vec<u16>,
}

/// A borrowed view of one sparse tile.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a, T> {
    /// Local row pointers (16 entries).
    pub row_ptr: &'a [u8],
    /// Local row indices of the tile's nonzeros.
    pub row_idx: &'a [u8],
    /// Local column indices of the tile's nonzeros.
    pub col_idx: &'a [u8],
    /// Values of the tile's nonzeros.
    pub vals: &'a [T],
    /// Row bitmasks (16 entries).
    pub masks: &'a [u16],
}

impl<'a, T: Scalar> TileView<'a, T> {
    /// Number of nonzeros in the tile.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Range of this tile's nonzero arrays covered by local row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        let start = self.row_ptr[r] as usize;
        let end = if r + 1 < TILE_DIM {
            self.row_ptr[r + 1] as usize
        } else {
            self.nnz()
        };
        start..end
    }

    /// Iterates `(local_row, local_col, value)` in `(row, col)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u8, T)> + 'a {
        self.row_idx
            .iter()
            .zip(self.col_idx.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Expands the tile into a dense 256-slot row-major buffer.
    pub fn to_dense(&self) -> [T; TILE_AREA] {
        let mut out = [T::ZERO; TILE_AREA];
        for (r, c, v) in self.iter() {
            out[r as usize * TILE_DIM + c as usize] = v;
        }
        out
    }
}

impl<T: Scalar> TileMatrix<T> {
    /// Number of stored (non-empty or retained-empty) tiles.
    pub fn tile_count(&self) -> usize {
        self.tile_colidx.len()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The range of tile ids in tile row `ti`.
    pub fn tile_row_range(&self, ti: usize) -> std::ops::Range<usize> {
        self.tile_ptr[ti]..self.tile_ptr[ti + 1]
    }

    /// The tile column indices of tile row `ti`.
    pub fn tile_row_cols(&self, ti: usize) -> &[u32] {
        &self.tile_colidx[self.tile_row_range(ti)]
    }

    /// A view of tile `t` (a flat tile id in `0..tile_count()`).
    pub fn tile(&self, t: usize) -> TileView<'_, T> {
        let nz = self.tile_nnz[t]..self.tile_nnz[t + 1];
        TileView {
            row_ptr: &self.row_ptr[t * TILE_DIM..(t + 1) * TILE_DIM],
            row_idx: &self.row_idx[nz.clone()],
            col_idx: &self.col_idx[nz.clone()],
            vals: &self.vals[nz],
            masks: &self.masks[t * TILE_DIM..(t + 1) * TILE_DIM],
        }
    }

    /// Number of nonzeros in tile `t`.
    pub fn tile_nnz_of(&self, t: usize) -> usize {
        self.tile_nnz[t + 1] - self.tile_nnz[t]
    }

    /// Drops the tiles that store no entry.
    ///
    /// Such tiles come from a layout predicted structurally rather than from
    /// the entries: the paper's step 1 keeps the tiles whose candidate
    /// positions all miss (the `phantom-tile` case), and a masked product
    /// keeps the mask tiles it misses. They carry no values but still cost
    /// every downstream consumer: operand-side step-1 intersection walks
    /// them, and per-tile metadata (34 bytes each) inflates the resident
    /// footprint. Compacting rewrites the tile metadata only — empty tiles
    /// own no entries, so the entry arrays move over untouched, and a matrix
    /// without empty tiles comes back as it is.
    pub fn compact(self) -> Self {
        let empties = (0..self.tile_count())
            .filter(|&t| self.tile_nnz_of(t) == 0)
            .count();
        if empties == 0 {
            return self;
        }
        let kept = self.tile_count() - empties;
        let mut tile_ptr = vec![0usize; self.tile_m + 1];
        let mut tile_colidx = Vec::with_capacity(kept);
        let mut tile_nnz = Vec::with_capacity(kept + 1);
        tile_nnz.push(0usize);
        let mut row_ptr = Vec::with_capacity(kept * TILE_DIM);
        let mut masks = Vec::with_capacity(kept * TILE_DIM);
        for ti in 0..self.tile_m {
            for t in self.tile_row_range(ti) {
                let nnz = self.tile_nnz_of(t);
                if nnz == 0 {
                    continue;
                }
                tile_colidx.push(self.tile_colidx[t]);
                tile_nnz.push(tile_nnz.last().unwrap() + nnz);
                row_ptr.extend_from_slice(&self.row_ptr[t * TILE_DIM..(t + 1) * TILE_DIM]);
                masks.extend_from_slice(&self.masks[t * TILE_DIM..(t + 1) * TILE_DIM]);
            }
            tile_ptr[ti + 1] = tile_colidx.len();
        }
        Self {
            tile_ptr,
            tile_colidx,
            tile_nnz,
            row_ptr,
            masks,
            ..self
        }
    }

    /// Expands `tile_ptr` into a per-tile tile-row index (the
    /// `tileRowIdx` array Algorithms 2 and 3 read).
    pub fn expand_tile_rowidx(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.tile_count()];
        if self.tile_count() < INDEX_PAR_THRESHOLD {
            for ti in 0..self.tile_m {
                out[self.tile_row_range(ti)].fill(ti as u32);
            }
        } else {
            tsg_split(&mut out, &self.tile_ptr)
                .into_par_iter()
                .enumerate()
                .for_each(|(ti, w)| w.fill(ti as u32));
        }
        out
    }

    /// Builds the column-major tile index (`tileColPtr` / `tileRowIdx` of
    /// the paper's Algorithm 2) used to walk `B`'s tile columns in step 2.
    ///
    /// Small grids run the classic serial counting sort; large grids run a
    /// chunked two-pass variant: each chunk of `tile_colidx` is counting-
    /// sorted privately, then per-column windows are gathered from the chunks
    /// in order. Visiting chunks in ascending order keeps tile ids ascending
    /// within a column, so both paths produce identical output.
    pub fn col_index(&self) -> TileColIndex {
        let ntiles = self.tile_count();
        if ntiles < INDEX_PAR_THRESHOLD {
            return self.col_index_serial();
        }
        let rowidx_exp = self.expand_tile_rowidx();
        let chunk = ntiles
            .div_ceil(rayon::current_num_threads().max(1) * 4)
            .max(1);
        // Pass 1: counting-sort each chunk of tile ids by tile column.
        struct ChunkSort {
            /// Per-column offsets into `ids`, length `tile_n + 1`.
            bounds: Vec<usize>,
            /// This chunk's tile ids grouped by column, ascending within one.
            ids: Vec<u32>,
        }
        let chunks: Vec<ChunkSort> = self
            .tile_colidx
            .par_chunks(chunk)
            .enumerate()
            .map(|(ci, cols)| {
                let base = ci * chunk;
                let mut bounds = vec![0usize; self.tile_n + 1];
                for &tc in cols {
                    bounds[tc as usize + 1] += 1;
                }
                for j in 0..self.tile_n {
                    bounds[j + 1] += bounds[j];
                }
                let mut cursor = bounds[..self.tile_n].to_vec();
                let mut ids = vec![0u32; cols.len()];
                for (k, &tc) in cols.iter().enumerate() {
                    ids[cursor[tc as usize]] = (base + k) as u32;
                    cursor[tc as usize] += 1;
                }
                ChunkSort { bounds, ids }
            })
            .collect();
        // Global per-column offsets, then gather each column's window from
        // the chunk-local sorts.
        let col_counts: Vec<usize> = (0..self.tile_n)
            .into_par_iter()
            .map(|j| {
                chunks
                    .iter()
                    .map(|c| c.bounds[j + 1] - c.bounds[j])
                    .sum::<usize>()
            })
            .collect();
        let mut colptr = vec![0usize; self.tile_n + 1];
        tsg_scan(&col_counts, &mut colptr);
        let mut rowidx = vec![0u32; ntiles];
        let mut tile_id = vec![0u32; ntiles];
        let rowidx_w = tsg_split(&mut rowidx, &colptr);
        let tile_id_w = tsg_split(&mut tile_id, &colptr);
        rowidx_w
            .into_par_iter()
            .zip(tile_id_w)
            .enumerate()
            .for_each(|(j, (rowidx_w, tile_id_w))| {
                let mut cur = 0usize;
                for c in &chunks {
                    for &id in &c.ids[c.bounds[j]..c.bounds[j + 1]] {
                        rowidx_w[cur] = rowidx_exp[id as usize];
                        tile_id_w[cur] = id;
                        cur += 1;
                    }
                }
            });
        TileColIndex {
            tile_n: self.tile_n,
            colptr,
            rowidx,
            tile_id,
        }
    }

    fn col_index_serial(&self) -> TileColIndex {
        let mut colptr = vec![0usize; self.tile_n + 1];
        for &tc in &self.tile_colidx {
            colptr[tc as usize + 1] += 1;
        }
        for j in 0..self.tile_n {
            colptr[j + 1] += colptr[j];
        }
        let mut cursor = colptr[..self.tile_n].to_vec();
        let mut rowidx = vec![0u32; self.tile_count()];
        let mut tile_id = vec![0u32; self.tile_count()];
        for ti in 0..self.tile_m {
            for t in self.tile_row_range(ti) {
                let tc = self.tile_colidx[t] as usize;
                let dst = cursor[tc];
                rowidx[dst] = ti as u32;
                tile_id[dst] = t as u32;
                cursor[tc] += 1;
            }
        }
        TileColIndex {
            tile_n: self.tile_n,
            colptr,
            rowidx,
            tile_id,
        }
    }

    /// Checks every structural invariant of the format (§3.2 plus the
    /// derived-17th-pointer rule). Used heavily by tests; cheap enough to
    /// run on every conversion in debug builds.
    pub fn validate(&self) -> Result<(), FormatError> {
        let ntiles = self.tile_count();
        let err = |msg: String| Err(FormatError::Invalid(msg));
        if self.tile_m != self.nrows.div_ceil(TILE_DIM)
            || self.tile_n != self.ncols.div_ceil(TILE_DIM)
        {
            return err("tile grid dimensions disagree with scalar dimensions".into());
        }
        if self.tile_ptr.len() != self.tile_m + 1 {
            return err("tile_ptr length mismatch".into());
        }
        if self.tile_ptr[0] != 0 || *self.tile_ptr.last().unwrap() != ntiles {
            return err("tile_ptr endpoints wrong".into());
        }
        if self.tile_nnz.len() != ntiles + 1 {
            return err("tile_nnz length mismatch".into());
        }
        if self.tile_nnz[0] != 0 || *self.tile_nnz.last().unwrap() != self.nnz() {
            return err("tile_nnz endpoints wrong".into());
        }
        if self.row_ptr.len() != ntiles * TILE_DIM || self.masks.len() != ntiles * TILE_DIM {
            return err("per-tile row_ptr/masks arrays have wrong length".into());
        }
        if self.row_idx.len() != self.nnz() || self.col_idx.len() != self.nnz() {
            return err("row_idx/col_idx length mismatch".into());
        }
        for ti in 0..self.tile_m {
            if self.tile_ptr[ti] > self.tile_ptr[ti + 1] {
                return err("tile_ptr not monotone".into());
            }
            let cols = self.tile_row_cols(ti);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return err(format!("tile row {ti} tile columns not strictly ascending"));
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= self.tile_n {
                    return err(format!("tile row {ti} has tile column {last} out of range"));
                }
            }
        }
        for t in 0..ntiles {
            if self.tile_nnz[t] > self.tile_nnz[t + 1] {
                return err("tile_nnz not monotone".into());
            }
            let tile = self.tile(t);
            let nnz = tile.nnz();
            if nnz > TILE_AREA {
                return err(format!("tile {t} has {nnz} > 256 nonzeros"));
            }
            if tile.row_ptr[0] != 0 {
                return err(format!("tile {t} row_ptr[0] != 0"));
            }
            for r in 0..TILE_DIM {
                let range = tile.row_range(r);
                if range.start > range.end || range.end > nnz {
                    return err(format!("tile {t} row {r} pointer range invalid"));
                }
                let mut mask_check = 0u16;
                let mut prev: Option<u8> = None;
                for k in range.clone() {
                    if tile.row_idx[k] as usize != r {
                        return err(format!("tile {t} nonzero {k} has wrong row_idx"));
                    }
                    let c = tile.col_idx[k];
                    if c as usize >= TILE_DIM {
                        return err(format!("tile {t} local column {c} out of range"));
                    }
                    if let Some(p) = prev {
                        if c <= p {
                            return err(format!("tile {t} row {r} columns not ascending"));
                        }
                    }
                    prev = Some(c);
                    mask_check |= 1 << c;
                }
                if mask_check != tile.masks[r] {
                    return err(format!(
                        "tile {t} row {r} mask {:#06x} disagrees with stored {:#06x}",
                        mask_check, tile.masks[r]
                    ));
                }
            }
            let mask_popcount: u32 = tile.masks.iter().map(|m| m.count_ones()).sum();
            if mask_popcount as usize != nnz {
                return err(format!("tile {t} mask popcount != nnz"));
            }
        }
        Ok(())
    }

    /// Casts values to another scalar type, keeping all structure.
    pub fn cast<U: Scalar>(&self) -> TileMatrix<U> {
        TileMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            tile_m: self.tile_m,
            tile_n: self.tile_n,
            tile_ptr: self.tile_ptr.clone(),
            tile_colidx: self.tile_colidx.clone(),
            tile_nnz: self.tile_nnz.clone(),
            row_ptr: self.row_ptr.clone(),
            row_idx: self.row_idx.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.iter().map(|v| U::from_f64(v.to_f64())).collect(),
            masks: self.masks.clone(),
        }
    }
}

/// Column-major index over the tile grid: for each tile column, the tile
/// rows present and the flat tile ids, mirroring the `tileColPtr_B` /
/// `tileRowidx_B` arrays of the paper's Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileColIndex {
    /// Number of tile columns.
    pub tile_n: usize,
    /// Per-tile-column offsets, length `tile_n + 1`.
    pub colptr: Vec<usize>,
    /// Tile row indices, ascending within each tile column.
    pub rowidx: Vec<u32>,
    /// Flat tile ids corresponding to `rowidx`.
    pub tile_id: Vec<u32>,
}

impl TileColIndex {
    /// The `(tile_rows, tile_ids)` of tile column `tj`.
    pub fn col(&self, tj: usize) -> (&[u32], &[u32]) {
        let range = self.colptr[tj]..self.colptr[tj + 1];
        (&self.rowidx[range.clone()], &self.tile_id[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    /// 20x20 matrix with entries in several tiles, including tile (1,1)
    /// boundary rows.
    fn sample() -> Csr<f64> {
        let mut coo = crate::Coo::new(20, 20);
        // Tile (0,0)
        coo.push(0, 0, 1.0);
        coo.push(0, 15, 2.0);
        coo.push(15, 3, 3.0);
        // Tile (0,1)
        coo.push(2, 16, 4.0);
        // Tile (1,0)
        coo.push(16, 2, 5.0);
        coo.push(19, 15, 6.0);
        // Tile (1,1)
        coo.push(17, 17, 7.0);
        coo.push(19, 19, 8.0);
        coo.to_csr()
    }

    #[test]
    fn structure_and_views() {
        let t = TileMatrix::from_csr(&sample());
        t.validate().unwrap();
        assert_eq!(t.tile_m, 2);
        assert_eq!(t.tile_n, 2);
        assert_eq!(t.tile_count(), 4);
        assert_eq!(t.nnz(), 8);
        assert_eq!(t.tile_row_cols(0), &[0, 1]);
        assert_eq!(t.tile_row_cols(1), &[0, 1]);

        let t00 = t.tile(0);
        assert_eq!(t00.nnz(), 3);
        assert_eq!(t00.masks[0], (1 << 0) | (1 << 15));
        assert_eq!(t00.masks[15], 1 << 3);
        let entries: Vec<_> = t00.iter().collect();
        assert_eq!(entries, vec![(0, 0, 1.0), (0, 15, 2.0), (15, 3, 3.0)]);
        assert_eq!(t00.row_range(0), 0..2);
        assert_eq!(t00.row_range(15), 2..3);
    }

    #[test]
    fn expand_tile_rowidx_matches_layout() {
        let t = TileMatrix::from_csr(&sample());
        assert_eq!(t.expand_tile_rowidx(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn col_index_inverts_row_layout() {
        let t = TileMatrix::from_csr(&sample());
        let ci = t.col_index();
        let (rows0, ids0) = ci.col(0);
        assert_eq!(rows0, &[0, 1]);
        let (rows1, ids1) = ci.col(1);
        assert_eq!(rows1, &[0, 1]);
        // Every referenced tile id must have the matching tile column.
        for &id in ids0 {
            assert_eq!(t.tile_colidx[id as usize], 0);
        }
        for &id in ids1 {
            assert_eq!(t.tile_colidx[id as usize], 1);
        }
    }

    #[test]
    fn col_index_parallel_matches_serial_on_large_grid() {
        // Enough tiles to cross INDEX_PAR_THRESHOLD: a diagonal plus a
        // hashed off-diagonal entry per row gives roughly two tiles per
        // tile row.
        let n = TILE_DIM * INDEX_PAR_THRESHOLD;
        let mut coo = crate::Coo::new(n, n);
        for r in 0..n as u32 {
            coo.push(r, r, 1.0);
            coo.push(r, r.wrapping_mul(2654435761) % n as u32, 2.0);
        }
        let t = TileMatrix::<f64>::from_csr(&coo.to_csr());
        assert!(t.tile_count() >= INDEX_PAR_THRESHOLD);
        assert_eq!(t.col_index(), t.col_index_serial());
        let serial_rowidx = {
            let mut out = vec![0u32; t.tile_count()];
            for ti in 0..t.tile_m {
                out[t.tile_row_range(ti)].fill(ti as u32);
            }
            out
        };
        assert_eq!(t.expand_tile_rowidx(), serial_rowidx);
    }

    #[test]
    fn dense_expansion_of_tile() {
        let t = TileMatrix::from_csr(&sample());
        let dense = t.tile(0).to_dense();
        assert_eq!(dense[0], 1.0);
        assert_eq!(dense[15], 2.0);
        assert_eq!(dense[15 * 16 + 3], 3.0);
        assert_eq!(dense.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    fn validate_catches_corrupted_mask() {
        let mut t = TileMatrix::from_csr(&sample());
        t.masks[0] ^= 1 << 7;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_corrupted_rowptr() {
        let mut t = TileMatrix::from_csr(&sample());
        t.row_ptr[1] = 200;
        assert!(t.validate().is_err());
    }

    #[test]
    fn cast_preserves_structure() {
        let t = TileMatrix::from_csr(&sample());
        let f: TileMatrix<f32> = t.cast();
        f.validate().unwrap();
        assert_eq!(f.masks, t.masks);
        assert_eq!(f.vals.len(), t.vals.len());
    }

    #[test]
    fn compact_drops_phantom_tiles_and_moves_the_entries() {
        // No empties: the matrix comes back as it is, buffers included.
        let t = TileMatrix::from_csr(&sample());
        let copy = t.clone();
        let copy_at = copy.vals.as_ptr();
        let same = copy.compact();
        assert_eq!(same, t, "no empties: compact is the identity");
        assert_eq!(same.vals.as_ptr(), copy_at, "and copies nothing");
        // Splice an empty (phantom) tile (0,2) after tile row 0's real
        // tiles — the shape the paper's step 1 produces when every
        // candidate of a predicted tile misses: flat index 2, zero entries,
        // zeroed row pointers and masks.
        let mut padded = t.clone();
        padded.ncols = 33;
        padded.tile_n = 3;
        padded.tile_colidx.insert(2, 2);
        let at = padded.tile_nnz[2];
        padded.tile_nnz.insert(2, at);
        for _ in 0..TILE_DIM {
            padded.row_ptr.insert(2 * TILE_DIM, 0);
            padded.masks.insert(2 * TILE_DIM, 0);
        }
        for p in &mut padded.tile_ptr[1..] {
            *p += 1;
        }
        padded.validate().expect("padded form is well-formed");
        let csr = padded.to_csr();
        let entries_at = (
            padded.row_idx.as_ptr(),
            padded.col_idx.as_ptr(),
            padded.vals.as_ptr(),
        );
        let compacted = padded.compact();
        compacted.validate().unwrap();
        assert_eq!(compacted.tile_count(), t.tile_count());
        assert_eq!(compacted.to_csr(), csr, "same matrix");
        assert_eq!(
            (
                compacted.row_idx.as_ptr(),
                compacted.col_idx.as_ptr(),
                compacted.vals.as_ptr()
            ),
            entries_at,
            "the entry arrays move over uncopied"
        );
    }
}
