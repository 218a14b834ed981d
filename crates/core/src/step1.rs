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
//! words meet ([`Occupancy`]), so an unmasked `C`'s layout is exactly its
//! non-empty tiles.
//! Numeric cancellation is still not considered: a live tile whose values
//! cancel keeps its stored zeros.
//!
//! The gather also counts each tile row's live pairs — one per gathered
//! candidate — and returns them as a row pointer. Step 2's row pass
//! ([`crate::step2::row_pass`]) sizes its per-tile pair lists, balances its
//! row chunks and reserves its scratch from those counts. Under a mask `C`
//! takes `M`'s tile layout, and `masked_pair_ptr` counts only the live
//! pairs that land in `M`'s tiles.

use crate::intersect::MatchedPair;
use rayon::prelude::*;
use tsg_matrix::{Scalar, TileMatrix, TILE_DIM};

/// Marks a tile column with no tile in the current tile row, in the slot
/// lookups of [`Occupancy::for_each_live_in`].
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// The 16-bit occupancy words of a product's operand tiles, which decide
/// exactly whether a tile pair contributes to the product.
///
/// Row `r` of `C_ij` receives row `c` of `B_kj` for each nonzero `(r, c)`
/// of `A_ik`, so the pair `(A_ik, B_kj)` adds to some entry iff an occupied
/// local column of `A_ik` is an occupied local row of `B_kj`: one AND of
/// the two words. A *dead* pair (AND zero) adds nothing to any slot, so
/// dropping it leaves every stored value bitwise unchanged.
#[derive(Debug)]
pub struct Occupancy {
    /// Per tile of `A`: bit `c` set iff local column `c` holds an entry
    /// (the OR of the tile's 16 row masks).
    a_cols: Vec<u16>,
    /// Per tile of `B`: bit `r` set iff local row `r` holds an entry.
    b_rows: Vec<u16>,
}

impl Occupancy {
    /// The occupancy words of `a`'s tiles (columns) and `b`'s (rows).
    pub fn new<T: Scalar>(a: &TileMatrix<T>, b: &TileMatrix<T>) -> Self {
        Self {
            a_cols: tile_words(&a.masks, |rows| rows.iter().fold(0, |acc, &m| acc | m)),
            b_rows: tile_words(&b.masks, |rows| {
                (0..TILE_DIM).fold(0, |acc, r| acc | (u16::from(rows[r] != 0) << r))
            }),
        }
    }

    /// Whether the pair of `A` tile `a_id` and `B` tile `b_id` is live.
    #[inline]
    pub(crate) fn live(&self, a_id: usize, b_id: usize) -> bool {
        self.a_cols[a_id] & self.b_rows[b_id] != 0
    }

    /// Calls `f(a_id, b_id, l)` for each live pair `(A_ik, B_kj)` of tile
    /// row `ti` of `a·b` whose tile column `j` is `c_cols[l]`, in ascending
    /// `k` — the candidate walk step 1 gathers from, restricted to a row's
    /// known tile columns (`c_cols`, ascending). `slot(j)` maps a tile
    /// column to its `l`, or to [`NO_SLOT`] when the row has no tile there.
    ///
    /// `A_ik` meets `B`'s tile row `k` by a walk over that row, looking each
    /// column up in `slot` — or, when the row is much longer than `c_cols`
    /// (a mask far sparser than the product), by a binary search for each
    /// of `c_cols` in it. Both yield the same pairs, ascending `k` per tile.
    #[inline]
    pub(crate) fn for_each_live_in<T: Scalar>(
        &self,
        a: &TileMatrix<T>,
        b: &TileMatrix<T>,
        ti: usize,
        c_cols: &[u32],
        slot: impl Fn(usize) -> u32,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        for a_id in a.tile_row_range(ti) {
            let k = a.tile_colidx[a_id] as usize;
            let a_word = self.a_cols[a_id];
            let b_tiles = b.tile_ptr[k]..b.tile_ptr[k + 1];
            let b_cols = &b.tile_colidx[b_tiles.clone()];
            let log = (usize::BITS - b_cols.len().leading_zeros()) as usize;
            if c_cols.len() * log < b_cols.len() {
                let mut lo = 0;
                for (l, &j) in c_cols.iter().enumerate() {
                    match b_cols[lo..].binary_search(&j) {
                        Ok(p) => {
                            let b_id = b_tiles.start + lo + p;
                            if a_word & self.b_rows[b_id] != 0 {
                                f(a_id, b_id, l);
                            }
                            lo += p + 1;
                        }
                        Err(p) => lo += p,
                    }
                    if lo == b_cols.len() {
                        break;
                    }
                }
            } else {
                let words = &self.b_rows[b_tiles.clone()];
                for ((b_id, &j), &b_word) in b_tiles.zip(b_cols).zip(words) {
                    if a_word & b_word != 0 {
                        let l = slot(j as usize);
                        if l != NO_SLOT {
                            f(a_id, b_id, l as usize);
                        }
                    }
                }
            }
        }
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
    structure_with(a_rows, a_ptr, a_idx, b_ptr, b_idx, b_cols, None).0
}

/// The exact tile layout of `C = A·B`: [`tile_structure_spgemm`] gathering
/// each `B` tile through live pairs only, so every tile it yields holds at
/// least one entry and every non-empty tile of the product is present.
///
/// Also returns the live pairs per tile row as a row pointer (`rows + 1`
/// entries): tile row `i` of `C` accumulates `ptr[i + 1] - ptr[i]` live
/// pairs.
pub(crate) fn live_tile_structure<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    occupancy: &Occupancy,
) -> (TilePattern, Vec<usize>) {
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
/// through the live ones — and the row pointer of the gathered counts.
fn structure_with(
    a_rows: usize,
    a_ptr: &[usize],
    a_idx: &[u32],
    b_ptr: &[usize],
    b_idx: &[u32],
    b_cols: usize,
    occupancy: Option<&Occupancy>,
) -> (TilePattern, Vec<usize>) {
    // Each task gathers a row's candidates into one reused buffer, then
    // dedups them by sorting (short rows) or through one reused hash table
    // (long rows), and allocates the row at its final length. The path
    // follows the gathered count, not the index-level bound: under live
    // gathering, most candidates of a power-law product never make it in.
    let rows: Vec<(Vec<u32>, usize)> = (0..a_rows)
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
                let count = gathered.len();
                let row = if count <= SORT_PATH_MAX {
                    gathered.sort_unstable();
                    gathered.dedup();
                    gathered.to_vec()
                } else {
                    symbolic_row_hash(gathered, table)
                };
                (row, count)
            },
        )
        .collect();

    let mut ptr = vec![0usize; a_rows + 1];
    let mut pair_ptr = vec![0usize; a_rows + 1];
    for (i, (r, count)) in rows.iter().enumerate() {
        ptr[i + 1] = ptr[i] + r.len();
        pair_ptr[i + 1] = pair_ptr[i] + count;
    }
    let mut idx = Vec::with_capacity(ptr[a_rows]);
    for (r, _) in rows {
        idx.extend_from_slice(&r);
    }
    let pattern = TilePattern {
        rows: a_rows,
        cols: b_cols,
        ptr,
        idx,
    };
    (pattern, pair_ptr)
}

/// The live pairs per tile row of `a·b` that land in a tile of `pattern`
/// (a mask's tile layout), as a row pointer like [`live_tile_structure`]'s.
/// Each task marks its row's tile columns in a bitset over `B`'s tile
/// columns, walks the row's candidates, and clears the marks again.
pub(crate) fn masked_pair_ptr<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pattern: &TilePattern,
    occupancy: &Occupancy,
) -> Vec<usize> {
    let counts: Vec<usize> = (0..pattern.rows)
        .into_par_iter()
        .map_init(
            || vec![0u64; b.tile_n.div_ceil(64)],
            |marks, i| {
                let cols = pattern.row(i);
                if cols.is_empty() {
                    return 0;
                }
                for &j in cols {
                    marks[j as usize / 64] |= 1 << (j % 64);
                }
                let marked = |j: usize| {
                    if marks[j / 64] >> (j % 64) & 1 != 0 {
                        0
                    } else {
                        NO_SLOT
                    }
                };
                let mut count = 0;
                occupancy.for_each_live_in(a, b, i, cols, marked, |_, _, _| count += 1);
                for &j in cols {
                    marks[j as usize / 64] = 0;
                }
                count
            },
        )
        .collect();
    let mut ptr = vec![0usize; counts.len() + 1];
    for (i, c) in counts.into_iter().enumerate() {
        ptr[i + 1] = ptr[i] + c;
    }
    ptr
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
        let (live, pair_ptr) = live_tile_structure(&a, &b, &occ);
        assert_eq!(live.row(0), &[0]);
        assert_eq!(live.ptr, vec![0, 1, 1]);
        assert_eq!(pair_ptr, vec![0, 1, 1], "one live pair, in tile row 0");
        // A mask holding only the dead pair's tile (0,1) admits no live pair.
        let mask = TilePattern {
            rows: 2,
            cols: 2,
            ptr: vec![0, 1, 1],
            idx: vec![1],
        };
        assert_eq!(masked_pair_ptr(&a, &b, &mask, &occ), vec![0, 0, 0]);
        assert_eq!(masked_pair_ptr(&a, &b, &live, &occ), pair_ptr);

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
            let occ = Occupancy::new(&a, &b);
            let (live, pair_ptr) = live_tile_structure(&a, &b, &occ);
            assert_eq!(live.ptr, exact.tile_ptr, "{tiles} tiles, {count} entries");
            assert_eq!(
                live.idx, exact.tile_colidx,
                "{tiles} tiles, {count} entries"
            );
            // Each row's count is its live candidates, and a mask equal to
            // the live layout keeps every one of them.
            for i in 0..tiles {
                let mut live_pairs = 0;
                for a_id in a.tile_row_range(i) {
                    let k = a.tile_colidx[a_id] as usize;
                    live_pairs += b
                        .tile_row_range(k)
                        .filter(|&b_id| occ.live(a_id, b_id))
                        .count();
                }
                assert_eq!(pair_ptr[i + 1] - pair_ptr[i], live_pairs, "row {i}");
            }
            assert_eq!(masked_pair_ptr(&a, &b, &live, &occ), pair_ptr);
        }
    }

    #[test]
    fn restricted_walk_finds_the_same_pairs_by_search_or_by_slot() {
        let mut state = 1717u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // B's tile rows hold about two thirds of the 24 tile columns, so a
        // short column list is searched in them rather than walked, and
        // most searches miss a column before they hit the next. A's entries
        // sit in local column 0 and B's in local row 0 or 1, so a matched
        // pair is live unless its B tile holds row 1 only.
        let n = 24 * TILE_DIM as u64;
        let mut entries = |count: usize, local_col: bool| -> Vec<(u32, u32)> {
            (0..count)
                .map(|_| {
                    let (r, c) = ((next() % n) as u32, (next() % n) as u32);
                    let local = (next() % 2) as u32;
                    match local_col {
                        true => (r, c / 16 * 16),
                        false => (r / 16 * 16 + local, c),
                    }
                })
                .collect()
        };
        let (a, b) = (
            tiled(24, &entries(300, true)),
            tiled(24, &entries(600, false)),
        );
        let occ = Occupancy::new(&a, &b);
        let mut searched = false;
        for ti in 0..24 {
            for trial in 0..24u32 {
                // 1 to 6 columns, clustered or spread by the trial number.
                let mut c_cols: Vec<u32> = (0..1 + trial % 6)
                    .map(|i| (ti as u32 + i * (1 + trial % 4) + trial) % 24)
                    .collect();
                c_cols.sort_unstable();
                c_cols.dedup();
                searched |= a.tile_row_cols(ti).iter().any(|&k| {
                    let len = b.tile_row_range(k as usize).len();
                    c_cols.len() * ((usize::BITS - len.leading_zeros()) as usize) < len
                });
                let slot = |j: usize| {
                    c_cols
                        .binary_search(&(j as u32))
                        .map_or(NO_SLOT, |l| l as u32)
                };
                let mut got = Vec::new();
                occ.for_each_live_in(&a, &b, ti, &c_cols, slot, |a_id, b_id, l| {
                    got.push((a_id, b_id, l))
                });
                let mut want = Vec::new();
                for a_id in a.tile_row_range(ti) {
                    let k = a.tile_colidx[a_id] as usize;
                    for b_id in b.tile_row_range(k) {
                        let l = c_cols.binary_search(&b.tile_colidx[b_id]);
                        if let (true, Ok(l)) = (occ.live(a_id, b_id), l) {
                            want.push((a_id, b_id, l));
                        }
                    }
                }
                assert_eq!(got, want, "row {ti}, columns {c_cols:?}");
            }
        }
        assert!(searched, "some column list is searched");
    }

    #[test]
    fn hash_path_handles_adversarial_collisions() {
        // All columns map near each other: many probes, still exact.
        let b_idx: Vec<u32> = (0..200u32).map(|i| i * 64).collect();
        let got = symbolic_row_hash(&b_idx, &mut Vec::new());
        assert_eq!(got, b_idx);
    }
}
