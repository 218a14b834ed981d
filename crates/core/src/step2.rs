//! Step 2: per-tile symbolic phase (§3.3, Algorithm 2, Figures 4–5).
//!
//! Every tile `C_ij` found by step 1 needs its live pairs `(A_ik, B_kj)`,
//! those whose occupancy words meet (see [`crate::step1`]): a dead pair
//! adds nothing to the tile. For each live pair, each nonzero `(r, c)` of
//! `A_ik` pulls `B_kj`'s row mask `c` and ORs it into `C_ij`'s row mask `r`
//! (the paper's `AtomicOr` — plain OR here because one task owns the tile),
//! and the 16 row masks popcount into the tile's local row pointers and its
//! nonzero count.
//!
//! Two ways to find the pairs:
//!
//! * **The paper's per-tile intersection** ([`matched_pairs`],
//!   [`symbolic_tile`]): one task per tile intersects `A`'s tile row `i`
//!   with `B`'s tile column `j` by binary search
//!   ([`crate::intersect::intersect_binary_search`]) and keeps the live
//!   matches. Step 3 repeats the intersection. This is the
//!   `pair_reuse = false` reference behind Figure 10.
//! * **The row pass** ([`row_pass`], the default): one walk per tile row,
//!   the row-wise formulation KKMEM's symbolic phase uses. It re-walks the
//!   candidates step 1 gathered from — `A_ik` against `B`'s tile row `k` —
//!   and finds `C_ij` through a slot table indexed by tile column, so no
//!   search is needed. It ORs the masks straight into `C`'s window, then
//!   counting-sorts the row's live pairs into flat per-tile lists that
//!   step 3 reads as they are. A tile's pairs come out in ascending `k`,
//!   the order the intersection yields them, so `C` is bitwise identical
//!   on both paths.
//!
//! All per-tile state is a few `u16`s on the stack; the row pass's slot
//! table and gathered pairs live in the worker's scratch arena.

use crate::intersect::MatchedPair;
use crate::step1::{Occupancy, NO_SLOT};
use tsg_matrix::{Scalar, TileColIndex, TileMatrix, TILE_DIM};
use tsg_runtime::Scratch;

/// Most output tiles one per-tile task chunk covers.
const CHUNK_TILES: usize = 512;

/// Task chunks each worker gets at least, so the self-scheduling executor
/// can still balance a small product.
const CHUNKS_PER_WORKER: usize = 8;

/// Tiles per task chunk of a per-tile pass over a product of `num_tiles`
/// output tiles on `threads` workers.
///
/// Each parallel task walks a contiguous run of tiles, so a pass costs a
/// few allocations per chunk, none per tile. Large products get
/// `CHUNK_TILES`-tile chunks; small ones are cut finer, to at least 8
/// chunks per worker.
pub(crate) fn chunk_len(num_tiles: usize, threads: usize) -> usize {
    num_tiles
        .div_ceil(threads.max(1) * CHUNKS_PER_WORKER)
        .clamp(1, CHUNK_TILES)
}

/// Tile boundaries of the [`chunk_len`] chunks of a per-tile pass:
/// `[0, len, 2·len, …, num_tiles]`, the CSR-shaped bounds a parallel pass
/// splits its output arrays at. Each task then walks its chunk's tiles and
/// slices each tile's window from the tile offsets, as the paper's warps
/// find theirs from `tileNnz` — no per-tile table of slices is built.
pub(crate) fn chunk_bounds(num_tiles: usize, threads: usize) -> Vec<usize> {
    let len = chunk_len(num_tiles, threads);
    (0..=num_tiles.div_ceil(len))
        .map(|c| (c * len).min(num_tiles))
        .collect()
}

/// Row boundaries of the row pass's task chunks: contiguous runs of whole
/// tile rows, balanced by weight — live pairs (`pair_ptr`) plus tiles
/// (`tile_ptr`), both row pointers. A chunk closes once it reaches an even
/// share of [`CHUNKS_PER_WORKER`] chunks per worker, or before a row that
/// would take it past the share, so a row heavier than the share makes a
/// chunk of its own. The last chunk takes what is left.
pub(crate) fn row_chunk_bounds(
    pair_ptr: &[usize],
    tile_ptr: &[usize],
    threads: usize,
) -> Vec<usize> {
    let rows = tile_ptr.len() - 1;
    let weight = |i: usize| pair_ptr[i] + tile_ptr[i];
    let share = weight(rows)
        .div_ceil(threads.max(1) * CHUNKS_PER_WORKER)
        .max(1);
    let mut bounds = vec![0];
    for i in 0..rows {
        let open = bounds[bounds.len() - 1];
        if i > open && weight(i + 1) - weight(open) > share {
            bounds.push(i);
        }
        if weight(i + 1) - weight(bounds[bounds.len() - 1]) >= share {
            bounds.push(i + 1);
        }
    }
    if bounds[bounds.len() - 1] != rows {
        bounds.push(rows);
    }
    bounds
}

/// Step 2's row pass over tile row `ti` of `C`, whose tile columns are
/// `c_cols` (ascending): finds every live pair `(A_ik, B_kj)` with `j` in
/// `c_cols`, ORs it into the row's masks and groups the pairs per tile.
///
/// * `masks` is the row's window of `C`'s row masks, 16 per tile of
///   `c_cols`, zeroed on entry. It leaves holding each tile's symbolic
///   masks, before any output mask is applied.
/// * `ends`, one per tile and zeroed on entry, counts each tile's pairs and
///   leaves holding each tile's end offset within `pairs`.
/// * `pairs` receives the row's live pairs as flat `(a_tile_id, b_tile_id)`
///   ids, tile after tile, each tile's in ascending `k` — the order
///   [`matched_pairs`] yields them. It must hold at least the row's count.
///
/// A candidate's tile is found through `s.slots`, a table over `B`'s tile
/// columns that the pass sets for `c_cols` and resets before it returns —
/// or, where `B`'s tile row `k` is far longer than `c_cols` (a mask much
/// sparser than the product), by searching each of `c_cols` in it. The
/// pairs are gathered in `s.row_pairs` and then counting-sorted into
/// place. With both reserved up front a pass allocates nothing. Returns
/// the number of pairs written.
#[allow(clippy::too_many_arguments)]
pub fn row_pass<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    occupancy: &Occupancy,
    ti: usize,
    c_cols: &[u32],
    s: &mut Scratch,
    masks: &mut [u16],
    ends: &mut [u32],
    pairs: &mut [(u32, u32)],
) -> usize {
    if s.slots.len() < b.tile_n {
        s.slots.resize(b.tile_n, NO_SLOT);
    }
    for (l, &j) in c_cols.iter().enumerate() {
        s.slots[j as usize] = l as u32;
    }
    let (slots, gathered) = (&s.slots, &mut s.row_pairs);
    gathered.clear();
    let slot = |j: usize| slots[j];
    occupancy.for_each_live_in(a, b, ti, c_cols, slot, |a_id, b_id, l| {
        let a_tile = a.tile(a_id);
        let b_masks = &b.masks[b_id * TILE_DIM..(b_id + 1) * TILE_DIM];
        let c_masks = &mut masks[l * TILE_DIM..(l + 1) * TILE_DIM];
        for (&r, &c) in a_tile.row_idx.iter().zip(a_tile.col_idx) {
            c_masks[r as usize] |= b_masks[c as usize];
        }
        ends[l] += 1;
        gathered.push((l as u32, a_id as u32, b_id as u32));
    });
    for &j in c_cols {
        s.slots[j as usize] = NO_SLOT;
    }
    // Counting sort: the counts become each tile's start, and each placed
    // pair advances its tile's cursor, which ends on the tile's end.
    let mut start = 0u32;
    for e in ends.iter_mut() {
        let count = *e;
        *e = start;
        start += count;
    }
    for &(l, a_id, b_id) in &s.row_pairs {
        let at = &mut ends[l as usize];
        pairs[*at as usize] = (a_id, b_id);
        *at += 1;
    }
    s.row_pairs.len()
}

/// Every tile's live pairs, grouped as [`row_pass`] groups them, for the
/// tile layout `c_ptr`/`c_idx` (a row pointer and ascending tile columns,
/// as in [`TileMatrix::tile_ptr`]/[`TileMatrix::tile_colidx`]) of `a·b`:
/// one list per tile, in layout order. For tests and ablations — it
/// allocates per row, where the pipeline writes into its own windows.
pub fn row_pass_lists<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    c_ptr: &[usize],
    c_idx: &[u32],
) -> Vec<Vec<(u32, u32)>> {
    let occupancy = Occupancy::new(a, b);
    let mut s = Scratch::default();
    let mut lists = Vec::with_capacity(c_idx.len());
    for ti in 0..c_ptr.len() - 1 {
        let cols = &c_idx[c_ptr[ti]..c_ptr[ti + 1]];
        let candidates = a
            .tile_row_cols(ti)
            .iter()
            .map(|&k| b.tile_row_range(k as usize).len())
            .sum();
        let mut masks = vec![0u16; cols.len() * TILE_DIM];
        let mut ends = vec![0u32; cols.len()];
        let mut pairs = vec![(0, 0); candidates];
        row_pass(
            a, b, &occupancy, ti, cols, &mut s, &mut masks, &mut ends, &mut pairs,
        );
        let mut start = 0;
        for &end in &ends {
            lists.push(pairs[start..end as usize].to_vec());
            start = end as usize;
        }
    }
    lists
}

/// The per-tile symbolic result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSymbolic {
    /// Row bitmasks of the output tile.
    pub masks: [u16; TILE_DIM],
    /// Local row pointers (16 entries, derived 17th == `nnz`).
    pub row_ptr: [u8; TILE_DIM],
    /// Stored nonzeros of the tile.
    pub nnz: usize,
}

/// Finds the matched `(a_tile_id, b_tile_id)` pairs for output tile
/// `(ti, tj)` with the list kernel `intersect` — the paper path passes
/// [`crate::intersect::intersect_binary_search`], the tSparse baseline
/// [`crate::intersect::intersect_merge`].
///
/// `a` contributes its tile row `ti`; `b_cols` (the column index of `B`)
/// contributes its tile column `tj`. `scratch` is left holding the
/// list-position pairs; `pairs` gets them translated to flat tile ids.
/// Both are cleared first.
pub fn matched_pairs<T: Scalar>(
    a: &TileMatrix<T>,
    b_cols: &TileColIndex,
    ti: usize,
    tj: usize,
    intersect: fn(&[u32], &[u32], &mut Vec<MatchedPair>),
    scratch: &mut Vec<MatchedPair>,
    pairs: &mut Vec<(u32, u32)>,
) {
    let a_base = a.tile_ptr[ti];
    let (b_rows, b_ids) = b_cols.col(tj);
    scratch.clear();
    intersect(a.tile_row_cols(ti), b_rows, scratch);
    pairs.clear();
    pairs.extend(
        scratch
            .iter()
            .map(|&(pa, pb)| ((a_base + pa as usize) as u32, b_ids[pb as usize])),
    );
}

/// Computes the symbolic tile `C_ij` from its matched pairs (Figure 5).
pub fn symbolic_tile<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
) -> TileSymbolic {
    let mut masks = [0u16; TILE_DIM];
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_masks = b.tile(b_id as usize).masks;
        // Every nonzero (r, c) of A_ik routes B_kj's row mask c into C row r.
        for (&r, &c) in a_tile.row_idx.iter().zip(a_tile.col_idx.iter()) {
            masks[r as usize] |= b_masks[c as usize];
        }
    }
    let (row_ptr, nnz) = crate::maskops::row_ptr_from_masks(&masks);
    TileSymbolic {
        masks,
        row_ptr,
        nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{intersect_binary_search, intersect_merge};
    use tsg_matrix::{Coo, Csr};

    /// Builds a tiled matrix from triplets on a 32x32 grid (2x2 tiles).
    fn tiled(entries: &[(u32, u32)]) -> TileMatrix<f64> {
        let mut coo = Coo::new(32, 32);
        for &(r, c) in entries {
            coo.push(r, c, 1.0);
        }
        TileMatrix::from_csr(&coo.to_csr())
    }

    #[test]
    fn figure5_style_mask_or() {
        // A has one tile (0,0) with nonzeros at rows 0: cols {0, 2}.
        // B has one tile (0,0) with row masks: row0 = {0,1}, row2 = {1,3}.
        // C tile (0,0) row 0 must get mask {0,1} | {1,3} = {0,1,3}.
        let a = tiled(&[(0, 0), (0, 2)]);
        let b = tiled(&[(0, 0), (0, 1), (2, 1), (2, 3)]);
        let sym = symbolic_tile(&a, &b, &[(0, 0)]);
        assert_eq!(sym.masks[0], 0b1011);
        assert_eq!(sym.nnz, 3);
        assert_eq!(sym.row_ptr[0], 0);
        assert_eq!(sym.row_ptr[1], 3);
        assert_eq!(sym.row_ptr[15], 3);
    }

    #[test]
    fn symbolic_counts_match_exact_product_pattern() {
        // Random 32x32: symbolic nnz per tile must equal the true tile nnz
        // of the CSR product computed densely.
        let mut state = 31u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ea: Vec<(u32, u32)> = (0..150)
            .map(|_| ((next() % 32) as u32, (next() % 32) as u32))
            .collect();
        let eb: Vec<(u32, u32)> = (0..150)
            .map(|_| ((next() % 32) as u32, (next() % 32) as u32))
            .collect();
        let a = tiled(&ea);
        let b = tiled(&eb);
        // Dense positive-values oracle (no numeric cancellation possible).
        let ac: Csr<f64> = a.to_csr();
        let bc: Csr<f64> = b.to_csr();
        let dense = tsg_matrix::Dense::from_csr(&ac).matmul(&tsg_matrix::Dense::from_csr(&bc));
        let c_exact = TileMatrix::from_csr(&dense.to_csr());

        let b_cols = b.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        for ti in 0..2usize {
            for tj in 0..2usize {
                matched_pairs(
                    &a,
                    &b_cols,
                    ti,
                    tj,
                    intersect_binary_search,
                    &mut scratch,
                    &mut pairs,
                );
                let sym = symbolic_tile(&a, &b, &pairs);
                // Find the exact tile, if present.
                let exact_nnz = c_exact
                    .tile_row_cols(ti)
                    .iter()
                    .position(|&tc| tc == tj as u32)
                    .map(|off| c_exact.tile_nnz_of(c_exact.tile_ptr[ti] + off))
                    .unwrap_or(0);
                assert_eq!(sym.nnz, exact_nnz, "tile ({ti},{tj})");
            }
        }
    }

    #[test]
    fn no_pairs_gives_empty_tile() {
        let a = tiled(&[(0, 0)]);
        let b = tiled(&[(0, 0)]);
        let sym = symbolic_tile(&a, &b, &[]);
        assert_eq!(sym.nnz, 0);
        assert_eq!(sym.masks, [0u16; 16]);
        assert_eq!(sym.row_ptr, [0u8; 16]);
    }

    #[test]
    fn full_tile_symbolic_reaches_256() {
        // Dense A tile times dense B tile -> full mask.
        let all: Vec<(u32, u32)> = (0..16u32)
            .flat_map(|r| (0..16u32).map(move |c| (r, c)))
            .collect();
        let a = tiled(&all);
        let b = tiled(&all);
        let sym = symbolic_tile(&a, &b, &[(0, 0)]);
        assert_eq!(sym.nnz, 256);
        assert_eq!(sym.masks, [0xFFFF; 16]);
        assert_eq!(sym.row_ptr[15], 240);
    }

    #[test]
    fn matched_pairs_translates_to_flat_ids() {
        // A row 0 has tiles at tile-cols {0, 1}; B col 1 has tiles at
        // tile-rows {0, 1}. Intersection of {0,1} (A's cols) with {0,1}
        // (B's rows) = both.
        let a = tiled(&[(0, 0), (0, 16), (16, 16)]);
        let b = tiled(&[(0, 16), (16, 16)]);
        let b_cols = b.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        matched_pairs(
            &a,
            &b_cols,
            0,
            1,
            intersect_binary_search,
            &mut scratch,
            &mut pairs,
        );
        assert_eq!(pairs.len(), 2);
        // First pair: A tile (0,0) id 0 with B tile (0,1) id 0.
        // Second: A tile (0,1) id 1 with B tile (1,1) id 1.
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        // The merge kernel (the tSparse baseline's) clears both buffers and
        // yields the same ids for every tile.
        for (ti, tj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut want = Vec::new();
            matched_pairs(
                &a,
                &b_cols,
                ti,
                tj,
                intersect_binary_search,
                &mut scratch,
                &mut want,
            );
            matched_pairs(
                &a,
                &b_cols,
                ti,
                tj,
                intersect_merge,
                &mut scratch,
                &mut pairs,
            );
            assert_eq!(pairs, want, "tile ({ti},{tj})");
        }
    }

    #[test]
    fn row_pass_groups_each_tiles_live_pairs_in_intersection_order() {
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut random = |n: usize, count: usize| {
            let mut coo = Coo::new(n, n);
            for _ in 0..count {
                coo.push((next() % n as u64) as u32, (next() % n as u64) as u32, 1.0);
            }
            TileMatrix::<f64>::from_csr(&coo.to_csr())
        };
        let (a, b) = (random(320, 1500), random(320, 3000));
        let occ = Occupancy::new(&a, &b);
        let b_cols = b.col_index();
        let mut s = Scratch::default();
        let (mut positions, mut want) = (Vec::new(), Vec::new());
        let mut searched = false;
        // Every tile column, then every 7th: the row pass must find nothing
        // for a tile without live pairs and the intersection's live pairs
        // for every other, whether it walks B's tile rows or, for a row this
        // much sparser than them, searches them.
        for (ti, stride) in (0..a.tile_m).flat_map(|ti| [(ti, 1), (ti, 7)]) {
            let c_cols: Vec<u32> = (0..b.tile_n as u32).step_by(stride).collect();
            searched |= a.tile_row_cols(ti).iter().any(|&k| {
                let len = b.tile_row_range(k as usize).len();
                c_cols.len() * ((usize::BITS - len.leading_zeros()) as usize) < len
            });
            let mut masks = vec![0u16; c_cols.len() * TILE_DIM];
            let mut ends = vec![0u32; c_cols.len()];
            let mut pairs = vec![(0, 0); a.tile_count() * b.tile_count()];
            let n = row_pass(
                &a, &b, &occ, ti, &c_cols, &mut s, &mut masks, &mut ends, &mut pairs,
            );
            assert_eq!(n, ends.last().copied().unwrap_or(0) as usize);
            for (l, &tj) in c_cols.iter().enumerate() {
                matched_pairs(
                    &a,
                    &b_cols,
                    ti,
                    tj as usize,
                    intersect_binary_search,
                    &mut positions,
                    &mut want,
                );
                want.retain(|&(a_id, b_id)| occ.live(a_id as usize, b_id as usize));
                let start = if l == 0 { 0 } else { ends[l - 1] as usize };
                let got = &pairs[start..ends[l] as usize];
                assert_eq!(got, &want[..], "tile ({ti},{tj}), stride {stride}");
                let sym = symbolic_tile(&a, &b, &want);
                assert_eq!(&masks[l * TILE_DIM..(l + 1) * TILE_DIM], &sym.masks);
            }
            assert!(s.slots.iter().all(|&slot| slot == NO_SLOT), "slots reset");
        }
        assert!(searched, "some sparse row searches B's tile rows");
    }

    #[test]
    fn row_chunks_cover_every_row_and_isolate_heavy_rows() {
        // Five rows; row 2 holds most of the weight, row 3 none.
        let tile_ptr = [0usize, 1, 2, 40, 40, 41];
        let pair_ptr = [0usize, 1, 2, 500, 500, 501];
        let bounds = row_chunk_bounds(&pair_ptr, &tile_ptr, 2);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&5));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds.contains(&2) && bounds.contains(&3), "{bounds:?}");
        // No rows: one empty chunk boundary pair.
        assert_eq!(row_chunk_bounds(&[0], &[0], 3), vec![0]);
    }
}
