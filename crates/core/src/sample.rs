//! OCEAN-style sampled estimation of SpGEMM cost.
//!
//! The engine's original admission model predicted nnz(C) from a fixed
//! compression constant (`products / 4`), which systematically over-predicts
//! stencil-like products (their intermediate products collapse ~15×) and
//! under-predicts scattered ones (which barely compact at all). Following
//! the OCEAN paper's observation that *sampled* symbolic execution is cheap
//! and accurate enough to drive kernel and memory decisions, this module
//! runs the exact tile-row symbolic product on a deterministic, seeded
//! subset of A's tile rows and scales the measurements up with a stratified
//! estimator and a finite-population confidence band.
//!
//! Design points:
//!
//! * **Tile-row granularity.** A sample unit is one 16-row block of `A` —
//!   the same unit the pipeline's tile layout uses — so the sampled numbers
//!   (nonzeros, matched tile pairs, output tiles) are exactly the quantities
//!   steps 1–3 will later produce for that block.
//! * **Exact first pass.** A cheap `O(nnz(A))` pass computes the exact
//!   intermediate-product count per tile row (CSR path) or a proportional
//!   proxy (tiled path). The flop count therefore never depends on sampling
//!   on the CSR path, and the per-row weights drive the skew handling below.
//! * **Heavy rows are always sampled.** Any tile row holding more than a
//!   `1/m` share of the total products is measured exactly, so a single
//!   ultra-skewed row (the classic sampler-killer) can never be missed; the
//!   stratified estimator only has to cover the well-behaved remainder.
//! * **Deterministic and serial.** Row selection is a pure function of
//!   `(weights, rate, seed)` and the measurement loop is serial integer
//!   arithmetic, so the same inputs produce bit-identical [`SampleStats`]
//!   on any thread count — a property the check suite pins.
//!
//! The band is a 95% normal-approximation interval over the stratified
//! estimate with a finite-population correction: at `rate = 1` every row is
//! measured, the correction zeroes the width, and the estimate degenerates
//! to the exact count.

use tsg_matrix::{Csr, Scalar, TileMatrix, TILE_DIM};

/// Default fraction of A's tile rows the engine samples per estimate. One
/// sixteenth keeps the estimator's cost a small slice of the symbolic phase
/// it predicts while leaving dozens of sample blocks on any matrix large
/// enough for the estimate to matter.
pub const DEFAULT_SAMPLE_RATE: f64 = 1.0 / 16.0;

/// Sampling floor: matrices with up to this many tile rows are measured
/// exactly (the "sample" is the whole population), and larger ones never
/// sample fewer blocks than this.
pub const MIN_SAMPLED_TILE_ROWS: usize = 16;

/// z-score of the two-sided 95% normal interval the band targets.
const Z_95: f64 = 1.959964;

/// What a sampled symbolic pass measured, scaled to the full product.
///
/// All fields are integers so the struct stays `Eq`/hashable and the
/// cross-thread determinism contract is exact, not approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleStats {
    /// Tile rows of `A` (the sampling population).
    pub total_tile_rows: u32,
    /// Tile rows actually measured (heavy rows + one per stratum).
    pub sampled_tile_rows: u32,
    /// Intermediate products (`flops / 2`). Exact on the CSR path; a
    /// ratio-scaled estimate on the tiled path (see [`Self::products_exact`]).
    pub products: u64,
    /// Whether [`Self::products`] is exact rather than scaled up.
    pub products_exact: bool,
    /// Point estimate of nnz(C) after compaction.
    pub est_nnz_c: u64,
    /// Lower edge of the 95% band on nnz(C). Never below the nonzeros the
    /// sampled rows were *observed* to produce.
    pub nnz_lo: u64,
    /// Upper edge of the 95% band on nnz(C). Never above the product count
    /// or the dense capacity.
    pub nnz_hi: u64,
    /// Estimated matched `(A_ik, B_kj)` tile pairs (step 2's output, the
    /// pair-list sizing input).
    pub est_pairs: u64,
    /// Estimated non-empty output tiles.
    pub est_tiles_c: u64,
    /// Every tile row was measured: the estimate *is* the exact count and
    /// the band has zero width.
    pub exact: bool,
}

impl SampleStats {
    /// Half-width of the nnz band relative to the point estimate (0 when
    /// exact or when the estimate is zero).
    pub fn rel_halfwidth(&self) -> f64 {
        if self.est_nnz_c == 0 {
            return 0.0;
        }
        (self.nnz_hi.saturating_sub(self.nnz_lo)) as f64 / 2.0 / self.est_nnz_c as f64
    }
}

/// splitmix64 finalizer — the per-stratum offset hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Quantities one measured tile row contributes.
#[derive(Debug, Clone, Copy, Default)]
struct RowMeasure {
    products: u64,
    nnz: u64,
    pairs: u64,
    tiles: u64,
}

/// The seeded row selection: heavy rows (measured exactly, outside the
/// estimator) plus one row per contiguous stratum of the remainder.
struct Selection {
    heavy: Vec<u32>,
    /// `(row index, stratum size)` per stratum pick, in stratum order.
    picks: Vec<(u32, u32)>,
    /// Rows in the stratified remainder (the scaled population).
    rest_count: u64,
}

impl Selection {
    fn sampled_rows(&self) -> u32 {
        (self.heavy.len() + self.picks.len()) as u32
    }
}

/// Chooses which tile rows to measure. Pure in `(w, rate, seed)`.
fn select_rows(w: &[u64], rate: f64, seed: u64) -> Selection {
    let n = w.len();
    let m = if rate >= 1.0 {
        n
    } else {
        (((rate.max(0.0) * n as f64).ceil() as usize).max(MIN_SAMPLED_TILE_ROWS)).min(n)
    };
    if m >= n {
        // Full measurement: every row is "heavy", nothing is estimated.
        return Selection {
            heavy: (0..n as u32).collect(),
            picks: Vec::new(),
            rest_count: 0,
        };
    }
    let total: u128 = w.iter().map(|&x| x as u128).sum();
    // A row holding more than a 1/m share of the work is measured exactly;
    // strictly more than m-1 rows can never qualify, so the heavy set fits
    // the sampling budget.
    let mut heavy = Vec::new();
    let mut rest = Vec::with_capacity(n);
    for (i, &wi) in w.iter().enumerate() {
        if (wi as u128) * (m as u128) > total {
            heavy.push(i as u32);
        } else {
            rest.push(i as u32);
        }
    }
    let budget = m.saturating_sub(heavy.len()).max(1).min(rest.len());
    let mut picks = Vec::with_capacity(budget);
    for s in 0..budget {
        let lo = s * rest.len() / budget;
        let hi = (s + 1) * rest.len() / budget;
        if hi > lo {
            let off = (mix(seed ^ (s as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                % (hi - lo) as u64) as usize;
            picks.push((rest[lo + off], (hi - lo) as u32));
        }
    }
    Selection {
        heavy,
        picks,
        rest_count: rest.len() as u64,
    }
}

/// Scales per-stratum samples up to a population total with a 95% band.
///
/// `heavy` is the exact contribution of the heavy rows; `xs` pairs each
/// stratum sample with its stratum size. The band uses the collapsed-strata
/// variance (sample variance of the picks treated as an SRS of the
/// remainder) with a finite-population correction — conservative for an
/// ordered population, and exactly zero once every row is measured.
fn scale_up(heavy: u64, xs: &[(u64, u32)], rest_count: u64, cap: u64) -> (u64, u64, u64) {
    let clamp = |v: u128| -> u64 { v.min(cap as u128) as u64 };
    if xs.is_empty() {
        // Nothing estimated: the heavy sum is the exact total.
        let t = heavy.min(cap);
        return (t, t, t);
    }
    let observed: u64 = xs.iter().map(|&(x, _)| x).sum();
    let point_wide: u128 = heavy as u128
        + xs.iter()
            .map(|&(x, ns)| x as u128 * ns as u128)
            .sum::<u128>();
    let point = clamp(point_wide);
    let m = xs.len() as f64;
    let floor = heavy.saturating_add(observed).min(cap);
    if xs.len() < 2 {
        // One stratum: no variance estimate — band spans what was observed
        // up to the structural cap.
        return (point, floor, cap);
    }
    let mean = xs.iter().map(|&(x, _)| x as f64).sum::<f64>() / m;
    let s2 = xs
        .iter()
        .map(|&(x, _)| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (m - 1.0);
    let nr = rest_count as f64;
    let fpc = 1.0 - (m / nr).min(1.0);
    let sd = (nr * nr * fpc * s2 / m).sqrt();
    let hw = Z_95 * sd;
    let lo = ((point as f64 - hw).max(0.0) as u64).max(floor).min(cap);
    let hi = (((point as f64 + hw).ceil()) as u64).max(lo).min(cap);
    (point, lo, hi)
}

/// Assembles [`SampleStats`] from a selection and its per-row measurements.
/// `exact_products` carries the pass-1 total when the caller computed it
/// exactly (the CSR path); `None` scales the sampled product counts up.
fn assemble(
    total_rows: usize,
    sel: &Selection,
    heavy_m: RowMeasure,
    picks_m: &[(RowMeasure, u32)],
    nnz_cap: u64,
    tiles_cap: u64,
    exact_products: Option<u64>,
) -> SampleStats {
    let field = |f: fn(&RowMeasure) -> u64| -> Vec<(u64, u32)> {
        picks_m.iter().map(|(m, ns)| (f(m), *ns)).collect()
    };
    let (nnz, nnz_lo, nnz_hi) = scale_up(heavy_m.nnz, &field(|m| m.nnz), sel.rest_count, nnz_cap);
    let (pairs, _, _) = scale_up(heavy_m.pairs, &field(|m| m.pairs), sel.rest_count, u64::MAX);
    let (tiles, _, _) = scale_up(
        heavy_m.tiles,
        &field(|m| m.tiles),
        sel.rest_count,
        tiles_cap,
    );
    let products = exact_products.unwrap_or_else(|| {
        scale_up(
            heavy_m.products,
            &field(|m| m.products),
            sel.rest_count,
            u64::MAX,
        )
        .0
    });
    let exact = sel.sampled_rows() as usize == total_rows;
    SampleStats {
        total_tile_rows: total_rows as u32,
        sampled_tile_rows: sel.sampled_rows(),
        products,
        products_exact: exact_products.is_some() || exact,
        est_nnz_c: nnz,
        nnz_lo: if exact { nnz } else { nnz_lo },
        nnz_hi: if exact { nnz } else { nnz_hi },
        est_pairs: pairs,
        est_tiles_c: tiles,
        exact,
    }
}

/// Zero-work stats for a degenerate (empty) product.
fn empty_stats(total_rows: usize) -> SampleStats {
    SampleStats {
        total_tile_rows: total_rows as u32,
        sampled_tile_rows: total_rows as u32,
        products: 0,
        products_exact: true,
        est_nnz_c: 0,
        nnz_lo: 0,
        nnz_hi: 0,
        est_pairs: 0,
        est_tiles_c: 0,
        exact: true,
    }
}

/// A set over `0..n` that empties in O(1): a slot is a member while its
/// stamp equals the current generation. The measured passes count distinct
/// columns with these instead of sorting and deduplicating unions.
struct Marker {
    stamps: Vec<u32>,
    generation: u32,
}

impl Marker {
    fn new(n: usize) -> Self {
        Marker {
            stamps: vec![0; n],
            generation: 1,
        }
    }

    /// Empties the set.
    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Adds `i`, returning whether it was absent.
    fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.generation;
        self.stamps[i] = self.generation;
        fresh
    }
}

/// Measures every selected row: the heavy rows summed, and each stratum
/// pick paired with its stratum size.
fn measure_selection(
    sel: &Selection,
    mut measure: impl FnMut(u32) -> RowMeasure,
) -> (RowMeasure, Vec<(RowMeasure, u32)>) {
    let mut heavy_m = RowMeasure::default();
    for &i in &sel.heavy {
        let m = measure(i);
        heavy_m.products += m.products;
        heavy_m.nnz += m.nnz;
        heavy_m.pairs += m.pairs;
        heavy_m.tiles += m.tiles;
    }
    let picks_m = sel.picks.iter().map(|&(i, ns)| (measure(i), ns)).collect();
    (heavy_m, picks_m)
}

/// The measured pass over CSR operands: the exact row-union symbolic of one
/// 16-row block of `A` at a time, as `(nnz, pairs, tiles)`.
struct CsrBlocks<'m, T> {
    a: &'m Csr<T>,
    b: &'m Csr<T>,
    /// B's columns in the current A row's union.
    cols: Marker,
    /// B's tile columns the block's output touches.
    c_tiles: Marker,
    /// A's tile columns (B's tile rows) the block reads, and their list.
    k_tiles: Marker,
    block_k: Vec<u32>,
    /// Distinct tile columns per B tile row, filled on first use
    /// (`u64::MAX` until then): pair counting revisits the same inner tile
    /// rows constantly.
    b_row_tiles: Vec<u64>,
}

impl<'m, T: Scalar> CsrBlocks<'m, T> {
    fn new(a: &'m Csr<T>, b: &'m Csr<T>) -> Self {
        CsrBlocks {
            a,
            b,
            cols: Marker::new(b.ncols),
            c_tiles: Marker::new(b.ncols.div_ceil(TILE_DIM)),
            k_tiles: Marker::new(a.ncols.div_ceil(TILE_DIM)),
            block_k: Vec::new(),
            b_row_tiles: vec![u64::MAX; b.nrows.div_ceil(TILE_DIM)],
        }
    }

    fn measure(&mut self, ti: u32) -> (u64, u64, u64) {
        let (a, b) = (self.a, self.b);
        let r0 = ti as usize * TILE_DIM;
        let r1 = (r0 + TILE_DIM).min(a.nrows);
        let (mut nnz, mut tiles) = (0u64, 0u64);
        self.c_tiles.clear();
        self.k_tiles.clear();
        self.block_k.clear();
        for r in r0..r1 {
            self.cols.clear();
            for &k in a.row(r).0 {
                if self.k_tiles.insert(k as usize / TILE_DIM) {
                    self.block_k.push(k / TILE_DIM as u32);
                }
                for &j in b.row(k as usize).0 {
                    if self.cols.insert(j as usize) {
                        nnz += 1;
                        tiles += u64::from(self.c_tiles.insert(j as usize / TILE_DIM));
                    }
                }
            }
        }
        // The block's tiles are counted, so `c_tiles` is free to count the
        // tile columns of B tile rows not seen before.
        let mut pairs = 0u64;
        for &kt in &self.block_k {
            let cached = &mut self.b_row_tiles[kt as usize];
            if *cached == u64::MAX {
                self.c_tiles.clear();
                let b0 = kt as usize * TILE_DIM;
                let b1 = (b0 + TILE_DIM).min(b.nrows);
                *cached = (b0..b1)
                    .flat_map(|r| b.row(r).0)
                    .filter(|&&j| self.c_tiles.insert(j as usize / TILE_DIM))
                    .count() as u64;
            }
            pairs += *cached;
        }
        (nnz, pairs, tiles)
    }
}

/// Samples the symbolic product `A·B` from CSR operands.
///
/// Pass 1 computes the exact intermediate-product count per tile row of `A`
/// (so `products` is always exact here); the sampled pass then runs the
/// exact row-union symbolic on the selected 16-row blocks and scales
/// nonzeros, matched tile pairs, and output tiles up to the full product.
///
/// Requires `a.ncols == b.nrows`; row indices of `A` outside `B`'s row
/// space would be a shape error upstream.
pub fn sample_csr<T: Scalar>(a: &Csr<T>, b: &Csr<T>, rate: f64, seed: u64) -> SampleStats {
    let total_rows = a.nrows.div_ceil(TILE_DIM);
    if a.nnz() == 0 || b.nnz() == 0 || total_rows == 0 {
        return empty_stats(total_rows);
    }
    // Pass 1: exact products per tile row, O(nnz(A)) lookups into B.
    let mut w = vec![0u64; total_rows];
    for r in 0..a.nrows {
        let (cols, _) = a.row(r);
        let p: u64 = cols.iter().map(|&c| b.row_nnz(c as usize) as u64).sum();
        w[r / TILE_DIM] += p;
    }
    let total_products: u64 = w.iter().sum();
    let sel = select_rows(&w, rate, seed);

    let mut blocks = CsrBlocks::new(a, b);
    let (heavy_m, picks_m) = measure_selection(&sel, |ti| {
        let (nnz, pairs, tiles) = blocks.measure(ti);
        RowMeasure {
            products: w[ti as usize],
            nnz,
            pairs,
            tiles,
        }
    });
    let nnz_cap = total_products.min((a.nrows as u64).saturating_mul(b.ncols as u64));
    let tiles_cap = (total_rows as u64).saturating_mul(b.ncols.div_ceil(TILE_DIM) as u64);
    assemble(
        total_rows,
        &sel,
        heavy_m,
        &picks_m,
        nnz_cap,
        tiles_cap,
        Some(total_products),
    )
}

/// Samples the symbolic product `A·B` from tiled operands — the path for
/// resident products whose CSR form was never materialized.
///
/// The selection weight is a proportional proxy (`tile nnz × inner tile-row
/// nnz`); the sampled blocks then run the exact mask-OR symbolic of step 2
/// at tile granularity, so `nnz`/`pairs`/`tiles` are exact per sampled row
/// and `products` is itself a scaled estimate (`products_exact` is false
/// unless every row was measured).
pub fn sample_tiled<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    rate: f64,
    seed: u64,
) -> SampleStats {
    let total_rows = a.tile_m;
    if a.nnz() == 0 || b.nnz() == 0 || total_rows == 0 {
        return empty_stats(total_rows);
    }
    let b_row_nnz: Vec<u64> = (0..b.tile_m)
        .map(|k| (b.tile_nnz[b.tile_ptr[k + 1]] - b.tile_nnz[b.tile_ptr[k]]) as u64)
        .collect();
    let mut w = vec![0u64; total_rows];
    for (ti, wi) in w.iter_mut().enumerate() {
        for t in a.tile_row_range(ti) {
            let k = a.tile_colidx[t] as usize;
            if k < b.tile_m {
                *wi = wi.saturating_add(a.tile_nnz_of(t) as u64 * b_row_nnz[k]);
            }
        }
    }
    let sel = select_rows(&w, rate, seed);

    let mut blocks = TiledBlocks::new(a, b);
    let (heavy_m, picks_m) = measure_selection(&sel, |ti| blocks.measure(ti));
    let nnz_cap = (a.nrows as u64).saturating_mul(b.ncols as u64);
    let tiles_cap = (total_rows as u64).saturating_mul(b.tile_n as u64);
    assemble(
        total_rows, &sel, heavy_m, &picks_m, nnz_cap, tiles_cap, None,
    )
}

/// The measured pass over tiled operands: the mask-OR symbolic of step 2
/// for one tile row of `A` at a time.
struct TiledBlocks<'m, T> {
    a: &'m TileMatrix<T>,
    b: &'m TileMatrix<T>,
    /// The block's output row masks, one slot per B tile column; a slot
    /// holds this block's masks while its column is marked.
    slots: Vec<[u16; TILE_DIM]>,
    live: Marker,
    touched: Vec<u32>,
}

impl<'m, T: Scalar> TiledBlocks<'m, T> {
    fn new(a: &'m TileMatrix<T>, b: &'m TileMatrix<T>) -> Self {
        TiledBlocks {
            a,
            b,
            slots: vec![[0; TILE_DIM]; b.tile_n],
            live: Marker::new(b.tile_n),
            touched: Vec::new(),
        }
    }

    fn measure(&mut self, ti: u32) -> RowMeasure {
        let (a, b) = (self.a, self.b);
        self.live.clear();
        self.touched.clear();
        let mut products = 0u64;
        let mut pairs = 0u64;
        for t in a.tile_row_range(ti as usize) {
            let k = a.tile_colidx[t] as usize;
            if k >= b.tile_m {
                continue;
            }
            let at = a.tile(t);
            // Column occupancy of the A tile (how many rows hit inner
            // element column c) — the per-element product count is then a
            // dot product with B's per-row popcounts.
            let mut colcount = [0u16; TILE_DIM];
            for &m in at.masks {
                let mut m = m;
                while m != 0 {
                    colcount[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
            }
            for bt in b.tile_row_range(k) {
                pairs += 1;
                let bt_masks = b.tile(bt).masks;
                for c in 0..TILE_DIM {
                    products += colcount[c] as u64 * bt_masks[c].count_ones() as u64;
                }
                let j = b.tile_colidx[bt] as usize;
                if self.live.insert(j) {
                    self.slots[j] = [0; TILE_DIM];
                    self.touched.push(j as u32);
                }
                let slot = &mut self.slots[j];
                for (r, &am) in at.masks.iter().enumerate() {
                    let mut m = am;
                    while m != 0 {
                        slot[r] |= bt_masks[m.trailing_zeros() as usize];
                        m &= m - 1;
                    }
                }
            }
        }
        let nnz: u64 = self
            .touched
            .iter()
            .flat_map(|&j| self.slots[j as usize])
            .map(|m| m.count_ones() as u64)
            .sum();
        RowMeasure {
            products,
            nnz,
            pairs,
            tiles: self.touched.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use tsg_runtime::MemTracker;

    fn scatter(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
        tsg_gen::random::erdos_renyi(n, n, n * per_row, seed)
    }

    #[test]
    fn full_rate_is_exact_and_matches_the_pipeline() {
        let a = scatter(800, 6, 3);
        let s = sample_csr(&a, &a, 1.0, 42);
        assert!(s.exact);
        assert_eq!(s.nnz_lo, s.est_nnz_c);
        assert_eq!(s.nnz_hi, s.est_nnz_c);
        assert_eq!(s.products * 2, a.spgemm_flops(&a));
        let ta = TileMatrix::from_csr(&a);
        let out = crate::multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(s.est_nnz_c, out.c.nnz() as u64);
        // The tiled path measures the same structure.
        let st = sample_tiled(&ta, &ta, 1.0, 42);
        assert_eq!(st.est_nnz_c, s.est_nnz_c);
        assert_eq!(st.products, s.products);
        assert_eq!(st.est_tiles_c, s.est_tiles_c);
        assert!(st.exact && st.products_exact);
    }

    #[test]
    fn sampled_estimate_brackets_the_truth_on_uniform_inputs() {
        let a = scatter(4096, 5, 9);
        let full = sample_csr(&a, &a, 1.0, 1);
        let s = sample_csr(&a, &a, DEFAULT_SAMPLE_RATE, 1);
        assert!(!s.exact);
        assert!(s.sampled_tile_rows < s.total_tile_rows);
        // Exact products regardless of sampling (CSR path).
        assert_eq!(s.products, full.products);
        // Uniform scatter: the sampled estimate lands well within 2×.
        assert!(s.est_nnz_c >= full.est_nnz_c / 2 && s.est_nnz_c <= full.est_nnz_c * 2);
        assert!(s.nnz_lo <= s.est_nnz_c && s.est_nnz_c <= s.nnz_hi);
    }

    #[test]
    fn heavy_rows_are_always_measured() {
        // One tile row carries ~90% of the products; uniform sampling at
        // 1/16 would miss it most of the time, the heavy rule never does.
        let w: Vec<u64> = (0..256)
            .map(|i| if i == 97 { 90_000 } else { 40 })
            .collect();
        for seed in 0..32 {
            let sel = select_rows(&w, DEFAULT_SAMPLE_RATE, seed);
            assert!(sel.heavy.contains(&97), "seed {seed}");
        }
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let w: Vec<u64> = (0..500).map(|i| (i % 17) as u64 + 1).collect();
        let a = select_rows(&w, 0.1, 7);
        let b = select_rows(&w, 0.1, 7);
        assert_eq!(a.picks, b.picks);
        assert_eq!(a.heavy, b.heavy);
        let c = select_rows(&w, 0.1, 8);
        assert_ne!(a.picks, c.picks, "a new seed moves the picks");
    }

    /// The sort-and-dedup measurement the marker pass replaced, kept as
    /// its reference: `(nnz, pairs, tiles)` of CSR block `ti`.
    fn sorted_csr_block(a: &Csr<f64>, b: &Csr<f64>, ti: u32) -> (u64, u64, u64) {
        let r0 = ti as usize * TILE_DIM;
        let r1 = (r0 + TILE_DIM).min(a.nrows);
        let mut nnz = 0u64;
        let mut block_tiles: Vec<u32> = Vec::new();
        let mut a_tiles: Vec<u32> = Vec::new();
        for r in r0..r1 {
            let mut union: Vec<u32> = Vec::new();
            for &c in a.row(r).0 {
                a_tiles.push(c >> 4);
                union.extend_from_slice(b.row(c as usize).0);
            }
            union.sort_unstable();
            union.dedup();
            nnz += union.len() as u64;
            block_tiles.extend(union.iter().map(|&c| c >> 4));
        }
        block_tiles.sort_unstable();
        block_tiles.dedup();
        a_tiles.sort_unstable();
        a_tiles.dedup();
        let pairs = a_tiles
            .iter()
            .map(|&kt| {
                let b0 = kt as usize * TILE_DIM;
                let b1 = (b0 + TILE_DIM).min(b.nrows);
                let mut tiles: Vec<u32> = (b0..b1)
                    .flat_map(|r| b.row(r).0.iter().map(|&c| c >> 4))
                    .collect();
                tiles.sort_unstable();
                tiles.dedup();
                tiles.len() as u64
            })
            .sum();
        (nnz, pairs, block_tiles.len() as u64)
    }

    /// The hash-map measurement of the tiled sampler, kept as the dense
    /// slot pass's reference: `(products, nnz, pairs, tiles)` of block `ti`.
    fn hashed_tiled_block(a: &TileMatrix<f64>, b: &TileMatrix<f64>, ti: u32) -> [u64; 4] {
        let mut out: std::collections::HashMap<u32, [u16; TILE_DIM]> = Default::default();
        let (mut products, mut pairs) = (0u64, 0u64);
        for t in a.tile_row_range(ti as usize) {
            let k = a.tile_colidx[t] as usize;
            if k >= b.tile_m {
                continue;
            }
            let at = a.tile(t);
            for bt in b.tile_row_range(k) {
                pairs += 1;
                let bt_masks = b.tile(bt).masks;
                let slot = out.entry(b.tile_colidx[bt]).or_insert([0u16; TILE_DIM]);
                for (r, &am) in at.masks.iter().enumerate() {
                    for (c, &bm) in bt_masks.iter().enumerate() {
                        if am >> c & 1 == 1 {
                            products += bm.count_ones() as u64;
                            slot[r] |= bm;
                        }
                    }
                }
            }
        }
        let nnz = out
            .values()
            .flat_map(|masks| masks.iter())
            .map(|m| m.count_ones() as u64)
            .sum();
        [products, nnz, pairs, out.len() as u64]
    }

    fn from_triplets(nrows: usize, ncols: usize, entries: Vec<(u32, u32, f64)>) -> Csr<f64> {
        tsg_matrix::Coo::from_triplets(nrows, ncols, entries)
            .unwrap()
            .to_csr()
    }

    /// `(A, B)` pairs the marker passes must count exactly like their
    /// references: uniform scatter, rectangular, skewed rows, a dense block,
    /// and a mostly-empty grid.
    fn block_cases() -> Vec<(&'static str, Csr<f64>, Csr<f64>)> {
        let skewed = tsg_gen::special::arrow(700, 3, 2, 5);
        let rmat = tsg_gen::rmat::rmat(10, 9_000, tsg_gen::rmat::RmatParams::GRAPH500, 2);
        let dense: Vec<(u32, u32, f64)> = (0..300u32)
            .map(|i| (i, (i * 7) % 300, 1.0))
            .chain((40..88u32).flat_map(|r| (100..150u32).map(move |c| (r, c, 2.0))))
            .collect();
        let dense = from_triplets(300, 300, dense);
        let empty = from_triplets(
            2_000,
            2_000,
            vec![(3, 1_999, 1.0), (1_999, 3, 1.0), (1_000, 1_000, 1.0)],
        );
        vec![
            ("scatter", scatter(900, 6, 11), scatter(900, 6, 12)),
            (
                "rectangular",
                tsg_gen::random::erdos_renyi(333, 517, 3_000, 4),
                tsg_gen::random::erdos_renyi(517, 203, 2_500, 5),
            ),
            ("skew-row", skewed.clone(), skewed),
            ("rmat", rmat.clone(), rmat),
            ("dense-block", dense.clone(), dense),
            ("mostly-empty", empty.clone(), empty),
        ]
    }

    #[test]
    fn marker_csr_pass_counts_like_sort_and_dedup() {
        for (name, a, b) in block_cases() {
            let mut blocks = CsrBlocks::new(&a, &b);
            for ti in 0..a.nrows.div_ceil(TILE_DIM) as u32 {
                assert_eq!(
                    blocks.measure(ti),
                    sorted_csr_block(&a, &b, ti),
                    "{name}, block {ti}"
                );
            }
        }
    }

    #[test]
    fn dense_slot_tiled_pass_counts_like_the_hash_map() {
        for (name, a, b) in block_cases() {
            let (ta, tb) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
            let mut blocks = TiledBlocks::new(&ta, &tb);
            for ti in 0..ta.tile_m as u32 {
                let m = blocks.measure(ti);
                assert_eq!(
                    [m.products, m.nnz, m.pairs, m.tiles],
                    hashed_tiled_block(&ta, &tb, ti),
                    "{name}, block {ti}"
                );
            }
        }
    }

    #[test]
    fn marker_generations_survive_wrapping() {
        let mut m = Marker::new(4);
        m.generation = u32::MAX;
        assert!(m.insert(2));
        m.clear();
        assert_eq!(m.generation, 1);
        assert!(m.insert(2), "a wrapped marker starts empty");
        assert!(!m.insert(2));
    }

    #[test]
    fn empty_operands_are_exact_zeros() {
        let z = Csr::<f64>::zero(64, 64);
        let s = sample_csr(&z, &z, 0.1, 1);
        assert!(s.exact);
        assert_eq!(s.est_nnz_c, 0);
        assert_eq!(s.nnz_hi, 0);
        assert_eq!(s.products, 0);
    }
}
