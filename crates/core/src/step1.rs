//! Step 1: symbolic SpGEMM on the high-level tile structure (§3.3).
//!
//! Treating each sparse tile as a single "nonzero", the tile layout of
//! `C = A·B` is the pattern of `C' = A'·B'` where `A'`/`B'` are the tile
//! layouts of `A`/`B` (the paper's Figure 3). The paper calls NSPARSE for
//! this small symbolic product; our NSPARSE stand-in is the same kernel:
//! each row gathers its candidate tile columns, then a per-row accumulator
//! switches between sort-dedup (short rows) and open-addressing hashing
//! (long rows).
//!
//! The paper's step 1 ([`tile_structure_spgemm`]) gathers every `B'` tile
//! an `A'` tile's column index reaches, so a tile of `C'` may turn out to
//! hold zero nonzeros after step 2 and is then kept as an empty tile ("the
//! final C is allowed to store empty tiles"). The pipeline runs
//! `live_tile_structure` instead: it gathers `B_kj` into `C_ij`'s tile row
//! only through a *live* pair `(A_ik, B_kj)`, one whose 16-bit occupancy
//! words meet (`Occupancy`), so an unmasked `C`'s layout is exactly its
//! non-empty tiles.
//! Numeric cancellation is still not considered: a live tile whose values
//! cancel keeps its stored zeros.

use crate::intersect::MatchedPair;
use rayon::prelude::*;
use tsg_matrix::{Scalar, TileMatrix, TILE_DIM};

/// The 16-bit occupancy words of a product's operand tiles, which decide
/// exactly whether a tile pair contributes to the product.
///
/// Row `r` of `C_ij` receives row `c` of `B_kj` for each nonzero `(r, c)`
/// of `A_ik`, so the pair `(A_ik, B_kj)` adds to some entry iff an occupied
/// local column of `A_ik` is an occupied local row of `B_kj`: one AND of
/// the two words. A *dead* pair (AND zero) adds nothing to any slot, so
/// dropping it leaves every stored value bitwise unchanged.
#[derive(Debug)]
pub(crate) struct Occupancy {
    /// Per tile of `A`: bit `c` set iff local column `c` holds an entry
    /// (the OR of the tile's 16 row masks).
    a_cols: Vec<u16>,
    /// Per tile of `B`: bit `r` set iff local row `r` holds an entry.
    b_rows: Vec<u16>,
}

impl Occupancy {
    /// The occupancy words of `a`'s tiles (columns) and `b`'s (rows).
    pub(crate) fn new<T: Scalar>(a: &TileMatrix<T>, b: &TileMatrix<T>) -> Self {
        Self {
            a_cols: tile_words(&a.masks, |rows| rows.iter().fold(0, |acc, &m| acc | m)),
            b_rows: tile_words(&b.masks, |rows| {
                (0..TILE_DIM).fold(0, |acc, r| acc | (u16::from(rows[r] != 0) << r))
            }),
        }
    }

    /// Whether the pair of `A` tile `a_id` and `B` tile `b_id` is live.
    #[inline]
    fn live(&self, a_id: usize, b_id: usize) -> bool {
        self.a_cols[a_id] & self.b_rows[b_id] != 0
    }

    /// Drops the dead pairs of one tile's matched-pair lists in place:
    /// `pairs` holds flat `(a_id, b_id)` tile ids and `positions` the
    /// intersection's list positions of the same pairs, index for index.
    /// The live pairs keep their order.
    pub(crate) fn retain_live(
        &self,
        positions: &mut Vec<MatchedPair>,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        debug_assert_eq!(positions.len(), pairs.len());
        let mut kept = 0;
        for i in 0..pairs.len() {
            let (a_id, b_id) = pairs[i];
            if self.live(a_id as usize, b_id as usize) {
                pairs[kept] = pairs[i];
                positions[kept] = positions[i];
                kept += 1;
            }
        }
        pairs.truncate(kept);
        positions.truncate(kept);
    }

    /// Tracked size in bytes: one `u16` per operand tile.
    pub(crate) fn bytes(&self) -> usize {
        (self.a_cols.len() + self.b_rows.len()) * std::mem::size_of::<u16>()
    }
}

/// One word per tile of a matrix's row masks (16 per tile).
fn tile_words(masks: &[u16], word: impl Fn(&[u16; TILE_DIM]) -> u16) -> Vec<u16> {
    masks
        .chunks_exact(TILE_DIM)
        .map(|rows| word(rows.try_into().expect("a tile has 16 row masks")))
        .collect()
}

/// The pattern of one level of tile structure: a CSR without values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePattern {
    /// Number of tile rows.
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
    /// Row pointers (length `rows + 1`).
    pub ptr: Vec<usize>,
    /// Column indices, ascending per row.
    pub idx: Vec<u32>,
}

impl TilePattern {
    /// The tile ids of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.idx[self.ptr[i]..self.ptr[i + 1]]
    }

    /// Number of stored tiles.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// Rows with at most this many gathered candidates use sort-dedup; longer
/// rows use the hash accumulator. Mirrors NSPARSE's binning intent at the
/// granularity step 1 needs.
const SORT_PATH_MAX: usize = 128;

/// Computes the symbolic product pattern `C' = A'·B'` over tile structures
/// — the paper's step 1, which keeps every tile an index match predicts.
///
/// `a_ptr`/`a_idx` describe `A'` (one entry per sparse tile of `A`), and
/// likewise for `B'`. Output rows are sorted.
pub fn tile_structure_spgemm(
    a_rows: usize,
    a_ptr: &[usize],
    a_idx: &[u32],
    b_ptr: &[usize],
    b_idx: &[u32],
    b_cols: usize,
) -> TilePattern {
    structure_with(a_rows, a_ptr, a_idx, b_ptr, b_idx, b_cols, None)
}

/// The exact tile layout of `C = A·B`: [`tile_structure_spgemm`] gathering
/// each `B` tile through live pairs only, so every tile it yields holds at
/// least one entry and every non-empty tile of the product is present.
pub(crate) fn live_tile_structure<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    occupancy: &Occupancy,
) -> TilePattern {
    structure_with(
        a.tile_m,
        &a.tile_ptr,
        &a.tile_colidx,
        &b.tile_ptr,
        &b.tile_colidx,
        b.tile_n,
        Some(occupancy),
    )
}

/// The symbolic tile product, gathering each `B'` tile through each `A'`
/// tile whose column index matches its row — or, given `occupancy`, only
/// through the live ones.
fn structure_with(
    a_rows: usize,
    a_ptr: &[usize],
    a_idx: &[u32],
    b_ptr: &[usize],
    b_idx: &[u32],
    b_cols: usize,
    occupancy: Option<&Occupancy>,
) -> TilePattern {
    // Each task gathers a row's candidates into one reused buffer, then
    // dedups them by sorting (short rows) or through one reused hash table
    // (long rows), and allocates the row at its final length. The path
    // follows the gathered count, not the index-level bound: under live
    // gathering, most candidates of a power-law product never make it in.
    let rows: Vec<Vec<u32>> = (0..a_rows)
        .into_par_iter()
        .map_init(
            || (Vec::new(), Vec::new()),
            |(gathered, table), i| {
                gathered.clear();
                let a_base = a_ptr[i];
                for (a_id, &k) in (a_base..).zip(&a_idx[a_base..a_ptr[i + 1]]) {
                    let b_tiles = b_ptr[k as usize]..b_ptr[k as usize + 1];
                    let cols = &b_idx[b_tiles.clone()];
                    match occupancy {
                        None => gathered.extend_from_slice(cols),
                        Some(occ) => {
                            let a_word = occ.a_cols[a_id];
                            for (&col, &b_word) in cols.iter().zip(&occ.b_rows[b_tiles]) {
                                if a_word & b_word != 0 {
                                    gathered.push(col);
                                }
                            }
                        }
                    }
                }
                if gathered.len() <= SORT_PATH_MAX {
                    gathered.sort_unstable();
                    gathered.dedup();
                    gathered.to_vec()
                } else {
                    symbolic_row_hash(gathered, table)
                }
            },
        )
        .collect();

    let mut ptr = vec![0usize; a_rows + 1];
    for (i, r) in rows.iter().enumerate() {
        ptr[i + 1] = ptr[i] + r.len();
    }
    let mut idx = Vec::with_capacity(ptr[a_rows]);
    for r in rows {
        idx.extend_from_slice(&r);
    }
    TilePattern {
        rows: a_rows,
        cols: b_cols,
        ptr,
        idx,
    }
}

/// The distinct columns of `gathered`, ascending, through an
/// open-addressing (linear probing) hash set over `u32` keys in the scratch
/// `table`, sized to the next power of two above twice the gathered count
/// — the NSPARSE symbolic-phase design.
fn symbolic_row_hash(gathered: &[u32], table: &mut Vec<u32>) -> Vec<u32> {
    const EMPTY: u32 = u32::MAX;
    let capacity = (2 * gathered.len()).next_power_of_two();
    let mask = capacity - 1;
    table.clear();
    table.resize(capacity, EMPTY);
    let mut count = 0usize;
    for &col in gathered {
        let mut slot = (col as usize).wrapping_mul(0x9E37_79B9) & mask;
        loop {
            let cur = table[slot];
            if cur == col {
                break;
            }
            if cur == EMPTY {
                table[slot] = col;
                count += 1;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    let mut out = Vec::with_capacity(count);
    out.extend(table.iter().copied().filter(|&c| c != EMPTY));
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle.
    fn oracle(
        a_rows: usize,
        a_ptr: &[usize],
        a_idx: &[u32],
        b_ptr: &[usize],
        b_idx: &[u32],
    ) -> Vec<Vec<u32>> {
        (0..a_rows)
            .map(|i| {
                let mut set = std::collections::BTreeSet::new();
                for &k in &a_idx[a_ptr[i]..a_ptr[i + 1]] {
                    for &c in &b_idx[b_ptr[k as usize]..b_ptr[k as usize + 1]] {
                        set.insert(c);
                    }
                }
                set.into_iter().collect()
            })
            .collect()
    }

    #[test]
    fn figure3_style_example() {
        // Figure-3-style example: an A' with 8 tiles times a B' with 6 tiles
        // yields a C' whose nonzeros are the union of the referenced B'
        // rows. A' rows: {0,1,3}, {2}, {0,3}, {1,2};
        // B' rows: {1}, {2}, {1,3}, {0,2}.
        let a_ptr = [0usize, 3, 4, 6, 8];
        let a_idx = [0u32, 1, 3, 2, 0, 3, 1, 2];
        let b_ptr = [0usize, 1, 2, 4, 6];
        let b_idx = [1u32, 2, 1, 3, 0, 2];
        let c = tile_structure_spgemm(4, &a_ptr, &a_idx, &b_ptr, &b_idx, 4);
        assert_eq!(c.row(0), &[0, 1, 2]);
        assert_eq!(c.row(1), &[1, 3]);
        assert_eq!(c.row(2), &[0, 1, 2]);
        assert_eq!(c.row(3), &[1, 2, 3]);
        assert_eq!(c.nnz(), 11);
    }

    #[test]
    fn matches_oracle_on_random_patterns_both_paths() {
        let mut state = 999u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for rows in [1usize, 7, 40] {
            for density in [2usize, 30] {
                // density=30 with rows=40 pushes rows past SORT_PATH_MAX so
                // the hash path runs too.
                let mut a_ptr = vec![0usize];
                let mut a_idx = Vec::new();
                for _ in 0..rows {
                    let mut cols: Vec<u32> = (0..density)
                        .map(|_| (next() % rows as u64) as u32)
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    a_idx.extend_from_slice(&cols);
                    a_ptr.push(a_idx.len());
                }
                let (b_ptr, b_idx) = (a_ptr.clone(), a_idx.clone());
                let c = tile_structure_spgemm(rows, &a_ptr, &a_idx, &b_ptr, &b_idx, rows);
                let want = oracle(rows, &a_ptr, &a_idx, &b_ptr, &b_idx);
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(c.row(i), &w[..], "row {i}, density {density}");
                }
            }
        }
    }

    #[test]
    fn empty_structure_gives_empty_product() {
        let c = tile_structure_spgemm(3, &[0, 0, 0, 0], &[], &[0, 0, 0, 0], &[], 3);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.ptr, vec![0, 0, 0, 0]);
    }

    /// A tiled matrix on a `tiles`×`tiles` grid from `(row, col)` entries.
    fn tiled(tiles: usize, entries: &[(u32, u32)]) -> TileMatrix<f64> {
        let mut coo = tsg_matrix::Coo::new(tiles * TILE_DIM, tiles * TILE_DIM);
        for &(r, c) in entries {
            coo.push(r, c, 1.0);
        }
        TileMatrix::from_csr(&coo.to_csr())
    }

    #[test]
    fn occupancy_words_decide_which_pairs_are_live() {
        // A tile (0,1) holds (2, 16+3) and (7, 16+3): local column 3 only.
        // B tile (1,0) holds row 3 -> live with it; B tile (1,1) holds only
        // local row 4 -> dead; the index-level product predicts both.
        let a = tiled(2, &[(2, 19), (7, 19)]);
        let b = tiled(2, &[(19, 5), (20, 16 + 9)]);
        let occ = Occupancy::new(&a, &b);
        assert_eq!(occ.a_cols, vec![1 << 3]);
        assert_eq!(occ.b_rows, vec![1 << 3, 1 << 4]);
        assert!(occ.live(0, 0));
        assert!(!occ.live(0, 1));
        assert_eq!(occ.bytes(), 6);
        let paper = tile_structure_spgemm(
            2,
            &a.tile_ptr,
            &a.tile_colidx,
            &b.tile_ptr,
            &b.tile_colidx,
            2,
        );
        assert_eq!(paper.row(0), &[0, 1], "the paper keeps the dead tile");
        let live = live_tile_structure(&a, &b, &occ);
        assert_eq!(live.row(0), &[0]);
        assert_eq!(live.ptr, vec![0, 1, 1]);

        let (mut positions, mut pairs) = (vec![(0, 0), (0, 1)], vec![(0, 0), (0, 1)]);
        occ.retain_live(&mut positions, &mut pairs);
        assert_eq!((positions, pairs), (vec![(0, 0)], vec![(0, 0)]));
    }

    #[test]
    fn live_structure_is_the_exact_product_layout_on_both_paths() {
        let mut state = 4242u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // The 12-tile grids keep every row on the sort path; the 40-tile
        // grid's rows gather past SORT_PATH_MAX candidates (hash path).
        for (tiles, count) in [(12usize, 60usize), (12, 400), (40, 3000)] {
            let n = (tiles * TILE_DIM) as u64;
            let mut entries = |count: usize| -> Vec<(u32, u32)> {
                (0..count)
                    .map(|_| ((next() % n) as u32, (next() % n) as u32))
                    .collect()
            };
            let (a, b) = (tiled(tiles, &entries(count)), tiled(tiles, &entries(count)));
            let exact = TileMatrix::from_csr(
                &tsg_matrix::Dense::from_csr(&a.to_csr())
                    .matmul(&tsg_matrix::Dense::from_csr(&b.to_csr()))
                    .to_csr(),
            );
            let live = live_tile_structure(&a, &b, &Occupancy::new(&a, &b));
            assert_eq!(live.ptr, exact.tile_ptr, "{tiles} tiles, {count} entries");
            assert_eq!(
                live.idx, exact.tile_colidx,
                "{tiles} tiles, {count} entries"
            );
        }
    }

    #[test]
    fn hash_path_handles_adversarial_collisions() {
        // All columns map near each other: many probes, still exact.
        let b_idx: Vec<u32> = (0..200u32).map(|i| i * 64).collect();
        let got = symbolic_row_hash(&b_idx, &mut Vec::new());
        assert_eq!(got, b_idx);
    }
}
