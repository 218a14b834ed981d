//! Step 2: per-tile symbolic phase (§3.3, Algorithm 2, Figures 4–5).
//!
//! For every tile `C_ij` found by step 1, one task (the paper's warp):
//!
//! 1. intersects `A`'s tile row `i` with `B`'s tile column `j`
//!    ([`crate::intersect`]) to find the matched pairs `(A_ik, B_kj)`, and
//!    keeps the live ones, whose occupancy words meet (see [`crate::step1`]):
//!    a dead pair adds nothing to the tile;
//! 2. for each live pair, walks `A_ik`'s nonzeros; a nonzero at local `(r, c)`
//!    pulls `B_kj`'s row mask `c` and ORs it into `C_ij`'s row mask `r`
//!    (the paper's `AtomicOr` — plain OR here because one task owns the
//!    tile);
//! 3. popcounts the 16 row masks into the tile's local row pointers and its
//!    nonzero count.
//!
//! All state is a few `u16`s on the stack, honouring the paper's bound that
//! step 2 never allocates global intermediate memory.

use crate::intersect::{
    intersect_bitmap, intersect_into, resolve_kind, IntersectionKind, MatchedPair,
};
use tsg_matrix::{ListBitmaps, Scalar, TileColIndex, TileMatrix, TILE_DIM};

/// Escape word of the packed pair encoding: the next four words carry the
/// absolute `(pos_a, pos_b)` positions (lo/hi halves). Unreachable as a
/// delta word because deltas are capped below 255 (high byte ≤ 254).
pub const PAIR_ESCAPE: u16 = u16::MAX;

/// Most output tiles one step-2 staging chunk covers.
const STAGING_CHUNK_TILES: usize = 512;

/// Staging chunks each worker gets at least, so the self-scheduling
/// executor can still balance a small product.
const STAGING_CHUNKS_PER_WORKER: usize = 8;

/// Tiles per step-2 staging chunk for a product of `num_tiles` output
/// tiles on `threads` workers.
///
/// With pair reuse on, each parallel step-2 task appends the packed words
/// of a contiguous run of tiles to one buffer — the CPU analogue of the
/// paper's warps writing into on-chip memory — so staging costs a few
/// allocations per chunk, none per tile. Large products get
/// `STAGING_CHUNK_TILES`-tile chunks; small ones are cut finer, to at
/// least 8 chunks per worker.
pub(crate) fn staging_chunk_len(num_tiles: usize, threads: usize) -> usize {
    num_tiles
        .div_ceil(threads.max(1) * STAGING_CHUNKS_PER_WORKER)
        .clamp(1, STAGING_CHUNK_TILES)
}

/// Tile boundaries of the [`staging_chunk_len`] chunks of a per-tile pass:
/// `[0, len, 2·len, …, num_tiles]`, the CSR-shaped bounds a parallel pass
/// splits its output arrays at. Each task then walks its chunk's tiles and
/// slices each tile's window from the tile offsets, as the paper's warps
/// find theirs from `tileNnz` — no per-tile table of slices is built.
pub(crate) fn chunk_bounds(num_tiles: usize, threads: usize) -> Vec<usize> {
    let len = staging_chunk_len(num_tiles, threads);
    (0..=num_tiles.div_ceil(len))
        .map(|c| (c * len).min(num_tiles))
        .collect()
}

/// Turns per-tile word counts into [`PairBuffer::offsets`] in place:
/// `offsets[0]` is 0 and `offsets[t + 1]` holds tile `t`'s word count on
/// entry, its end offset on exit. Returns the total word count.
pub(crate) fn scan_word_counts(offsets: &mut [u32]) -> usize {
    let mut total = 0usize;
    for o in offsets.iter_mut() {
        total += *o as usize;
        *o = total as u32;
    }
    total
}

/// The live matched pairs of every output tile, delta-coded into packed
/// `u16` words: tile `t` owns `words[offsets[t]..offsets[t + 1]]`.
///
/// Step 2 persists this when [`crate::Config::pair_reuse`] is on, so step 3
/// reads the lists back instead of re-running the tile-row/tile-column set
/// intersection (the paper's kernels recompute it; see DESIGN.md §7).
///
/// What is stored are the intersection's *list positions* `(pos_a, pos_b)`,
/// not flat tile ids: both positions rise strictly within a tile, so
/// successive pairs delta-code into a single word `(da << 8) | db` whenever
/// both deltas fit a byte (the overwhelmingly common case — ≈2 bytes per
/// pair against 8 for the flat form). Rare wide deltas spill to a
/// [`PAIR_ESCAPE`] word plus four absolute half-words.
/// [`PairBuffer::decode_tile`] re-derives the flat ids from the tile-row
/// base and the tile-column id list, exactly as [`matched_pairs`] does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairBuffer {
    /// Per-tile *word* offsets into `words`, length `num_tiles + 1`.
    pub offsets: Vec<u32>,
    /// Packed delta words, grouped per output tile.
    pub words: Vec<u16>,
}

impl PairBuffer {
    /// Assembles the buffer from step 2's chunk-local staging.
    ///
    /// `offsets` are the final per-tile offsets ([`scan_word_counts`]).
    /// Chunk `c` of `chunks` holds the words of the ascending run of tiles
    /// one task staged, back to back, so the chunks are simply
    /// concatenated. Each chunk is freed as soon as it is copied.
    pub(crate) fn from_staged(offsets: Vec<u32>, chunks: Vec<Vec<u16>>) -> PairBuffer {
        let total = offsets.last().map_or(0, |&o| o as usize);
        let mut words = Vec::with_capacity(total);
        for chunk in chunks {
            words.extend_from_slice(&chunk);
        }
        debug_assert_eq!(words.len(), total);
        PairBuffer { offsets, words }
    }

    /// The packed words of output tile `t`.
    pub fn tile_words(&self, t: usize) -> &[u16] {
        &self.words[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Number of output tiles covered.
    pub fn tile_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Decodes tile `t` back to list positions `(pos_a, pos_b)`.
    pub fn decode_positions(&self, t: usize, out: &mut Vec<MatchedPair>) {
        out.clear();
        decode_words(self.tile_words(t), |pa, pb| out.push((pa, pb)));
    }

    /// Decodes tile `t` to flat `(a_tile_id, b_tile_id)` pairs (cleared
    /// first): `a_base` is `a.tile_ptr[ti]` and `b_ids` the tile-id list of
    /// `B`'s tile column `tj` — the same translation [`matched_pairs`]
    /// applies.
    pub fn decode_tile(&self, t: usize, a_base: u32, b_ids: &[u32], out: &mut Vec<(u32, u32)>) {
        out.clear();
        decode_words(self.tile_words(t), |pa, pb| {
            out.push((a_base + pa, b_ids[pb as usize]));
        });
    }

    /// Total number of pairs stored across every tile. Escape groups are
    /// self-delimiting (five words), so a linear walk suffices.
    pub fn pair_count(&self) -> usize {
        let mut n = 0usize;
        let mut i = 0usize;
        while i < self.words.len() {
            i += if self.words[i] == PAIR_ESCAPE { 5 } else { 1 };
            n += 1;
        }
        n
    }

    /// Tracked size of the buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u16>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

/// Appends the packed encoding of one tile's position pairs (strictly
/// ascending in both components) to `out`.
pub fn encode_pairs(pairs: &[MatchedPair], out: &mut Vec<u16>) {
    let (mut prev_a, mut prev_b) = (0u32, 0u32);
    for &(pa, pb) in pairs {
        let (da, db) = (pa - prev_a, pb - prev_b);
        if da < 255 && db < 255 {
            out.push(((da as u16) << 8) | db as u16);
        } else {
            out.push(PAIR_ESCAPE);
            out.push(pa as u16);
            out.push((pa >> 16) as u16);
            out.push(pb as u16);
            out.push((pb >> 16) as u16);
        }
        (prev_a, prev_b) = (pa, pb);
    }
}

/// Walks one tile's packed words, yielding each `(pos_a, pos_b)`.
fn decode_words(words: &[u16], mut emit: impl FnMut(u32, u32)) {
    let (mut pa, mut pb) = (0u32, 0u32);
    let mut i = 0usize;
    while i < words.len() {
        let w = words[i];
        if w == PAIR_ESCAPE {
            pa = words[i + 1] as u32 | (words[i + 2] as u32) << 16;
            pb = words[i + 3] as u32 | (words[i + 4] as u32) << 16;
            i += 5;
        } else {
            pa += (w >> 8) as u32;
            pb += (w & 0xFF) as u32;
            i += 1;
        }
        emit(pa, pb);
    }
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
/// `(ti, tj)`, appending to `pairs` (cleared first).
///
/// `a` contributes its tile row `ti`; `b_cols` (the column index of `B`)
/// contributes its tile column `tj`. Positions returned by the intersection
/// are translated to flat tile ids.
pub fn matched_pairs<T: Scalar>(
    a: &TileMatrix<T>,
    b_cols: &TileColIndex,
    ti: usize,
    tj: usize,
    kind: IntersectionKind,
    scratch: &mut Vec<MatchedPair>,
    pairs: &mut Vec<(u32, u32)>,
) {
    matched_pairs_with(a, b_cols, ti, tj, kind, None, scratch, pairs);
}

/// [`matched_pairs`] with optional bitmap sidecars: `bitmaps` are the
/// [`ListBitmaps`] of `A`'s tile rows and `B`'s tile columns (when the
/// pipeline's footprint gate built them). The kind resolves per tile —
/// `Adaptive` through the cost model, `Bitmap` degrading to binary search
/// when the sidecars are absent — and the resolved concrete kind is
/// returned for the chosen-kernel histogram. `scratch` is left holding the
/// list-position pairs (what [`encode_pairs`] packs); `pairs` gets the
/// translated flat tile ids.
#[allow(clippy::too_many_arguments)]
pub fn matched_pairs_with<T: Scalar>(
    a: &TileMatrix<T>,
    b_cols: &TileColIndex,
    ti: usize,
    tj: usize,
    kind: IntersectionKind,
    bitmaps: Option<(&ListBitmaps, &ListBitmaps)>,
    scratch: &mut Vec<MatchedPair>,
    pairs: &mut Vec<(u32, u32)>,
) -> IntersectionKind {
    let a_base = a.tile_ptr[ti];
    let a_cols = a.tile_row_cols(ti);
    let (b_rows, b_ids) = b_cols.col(tj);
    let words = bitmaps.map(|(am, _)| am.words_per_list());
    let resolved = resolve_kind(kind, a_cols.len(), b_rows.len(), words);
    if resolved == IntersectionKind::Bitmap {
        let (am, bm) = bitmaps.expect("Bitmap only resolves with sidecars present");
        let (aw, ar) = am.list(ti);
        let (bw, br) = bm.list(tj);
        intersect_bitmap(aw, ar, bw, br, scratch);
    } else {
        intersect_into(resolved, a_cols, b_rows, scratch);
    }
    pairs.clear();
    pairs.extend(
        scratch
            .iter()
            .map(|&(pa, pb)| ((a_base + pa as usize) as u32, b_ids[pb as usize])),
    );
    resolved
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
                    IntersectionKind::BinarySearch,
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
            IntersectionKind::BinarySearch,
            &mut scratch,
            &mut pairs,
        );
        assert_eq!(pairs.len(), 2);
        // First pair: A tile (0,0) id 0 with B tile (0,1) id 0.
        // Second: A tile (0,1) id 1 with B tile (1,1) id 1.
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn matched_pairs_with_bitmap_sidecars_matches_list_kernels() {
        let a = tiled(&[(0, 0), (0, 16), (16, 16)]);
        let b = tiled(&[(0, 16), (16, 16)]);
        let b_cols = b.col_index();
        // Sidecars over the shared universe K = a.tile_n = b.tile_m = 2.
        let am = ListBitmaps::from_csr(&a.tile_ptr, &a.tile_colidx, a.tile_n);
        let bm = ListBitmaps::from_csr(&b_cols.colptr, &b_cols.rowidx, b.tile_m);
        let (mut scratch, mut pairs) = (Vec::new(), Vec::new());
        for kind in [
            IntersectionKind::BinarySearch,
            IntersectionKind::Merge,
            IntersectionKind::Bitmap,
            IntersectionKind::Adaptive,
        ] {
            for ti in 0..2usize {
                for tj in 0..2usize {
                    matched_pairs(
                        &a,
                        &b_cols,
                        ti,
                        tj,
                        IntersectionKind::BinarySearch,
                        &mut scratch,
                        &mut pairs,
                    );
                    let want = pairs.clone();
                    let resolved = matched_pairs_with(
                        &a,
                        &b_cols,
                        ti,
                        tj,
                        kind,
                        Some((&am, &bm)),
                        &mut scratch,
                        &mut pairs,
                    );
                    assert_eq!(pairs, want, "{kind:?} tile ({ti},{tj})");
                    assert_ne!(resolved, IntersectionKind::Adaptive);
                    // Without sidecars, Bitmap degrades but output is identical.
                    let degraded = matched_pairs_with(
                        &a,
                        &b_cols,
                        ti,
                        tj,
                        kind,
                        None,
                        &mut scratch,
                        &mut pairs,
                    );
                    assert_eq!(pairs, want);
                    assert_ne!(degraded, IntersectionKind::Bitmap);
                }
            }
        }
    }

    #[test]
    fn packed_pairs_round_trip_with_and_without_escapes() {
        // Tight deltas, a wide pos_a jump, a wide pos_b jump, and a pair
        // beyond u16 range — all must survive the escape path.
        let pairs: Vec<MatchedPair> = vec![
            (0, 0),
            (1, 3),
            (254, 4),   // da = 253: still a single word
            (510, 5),   // da = 256: escape
            (511, 300), // db = 295: escape
            (80_000, 70_000),
            (80_001, 70_001),
        ];
        let mut words = Vec::new();
        encode_pairs(&pairs, &mut words);
        // 4 single words + 3 escapes of 5 words each.
        assert_eq!(words.len(), 4 + 3 * 5);
        let buf = PairBuffer {
            offsets: vec![0, words.len() as u32],
            words,
        };
        let mut decoded = vec![(9, 9)];
        buf.decode_positions(0, &mut decoded);
        assert_eq!(decoded, pairs);
        assert_eq!(buf.tile_count(), 1);
        assert_eq!(buf.bytes(), buf.words.len() * 2 + 2 * 4);
    }

    #[test]
    fn decode_tile_translates_like_matched_pairs() {
        let a = tiled(&[(0, 0), (0, 16), (16, 16)]);
        let b = tiled(&[(0, 16), (16, 16)]);
        let b_cols = b.col_index();
        let (mut scratch, mut flat) = (Vec::new(), Vec::new());
        matched_pairs(
            &a,
            &b_cols,
            0,
            1,
            IntersectionKind::BinarySearch,
            &mut scratch,
            &mut flat,
        );
        // Pack the positions, then decode with the same base/id context.
        let mut words = Vec::new();
        encode_pairs(&scratch, &mut words);
        let buf = PairBuffer {
            offsets: vec![0, words.len() as u32],
            words,
        };
        let mut decoded = Vec::new();
        let (_, b_ids) = b_cols.col(1);
        buf.decode_tile(0, a.tile_ptr[0] as u32, b_ids, &mut decoded);
        assert_eq!(decoded, flat);
    }

    #[test]
    fn dense_delta_streams_pack_to_one_word_per_pair() {
        let pairs: Vec<MatchedPair> = (0..1000u32).map(|i| (i, i)).collect();
        let mut words = Vec::new();
        encode_pairs(&pairs, &mut words);
        assert_eq!(words.len(), pairs.len());
    }
}
