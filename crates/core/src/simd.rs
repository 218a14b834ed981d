//! Runtime-dispatched SIMD numeric kernels for step 3.
//!
//! The 16×16 tile with 16-bit row masks maps directly onto vector lanes: a
//! tile row is four f64 lanes × four strips on AVX2 (two lanes × eight
//! strips on NEON), and a row mask nibble selects the live lanes of one
//! strip. This module layers two pieces over the scalar kernels in
//! [`crate::step3`]:
//!
//! 1. **Runtime dispatch** ([`detected_level`]): `is_x86_feature_detected!`
//!    picks AVX2 on x86_64, NEON is baseline on aarch64, and everything else
//!    (or `TSG_SIMD=scalar` in the environment, or the `core.simd_dispatch`
//!    failpoint) falls back to the scalar reference kernels.
//! 2. **A policy knob** ([`SimdPolicy`], `Config::simd`): `Auto` runs the
//!    paper's sparse/dense accumulator split on the vector kernels, and
//!    `ForceScalar` pins the scalar reference for ablations and
//!    differential checks. Tiles the accumulator rule sends dense (above
//!    `tnnz`) run the dense 16×16 micro-kernel — expanded B rows, C's row
//!    held in registers, blended lane adds.
//!
//! **Bitwise identity.** Every path here produces output bit-identical to
//! the scalar sparse accumulator. Two invariants make that possible: each
//! output slot receives its products in the same order on every path (pairs
//! in order, A nonzeros in order, B row entries in ascending column — lanes
//! only parallelize across *distinct* slots), and the vector kernels use
//! separate multiply and add instructions (never FMA), matching the scalar
//! `acc += va * vb` two-rounding sequence. Lanes outside a B row mask are
//! blended away rather than fed zeros, so they cannot flip a sign of zero or
//! launder `inf * 0` into the output. The tsg-check oracle pins this
//! equality across the whole corpus.

use std::any::TypeId;
use std::sync::OnceLock;

use tsg_matrix::{Scalar, TileMatrix, TILE_AREA, TILE_DIM};

use crate::maskops;
use crate::step3::{
    fill_indices_from_masks, numeric_tile_dense, numeric_tile_sparse, AccumulatorKind,
};

/// The instruction set the numeric kernels run on, resolved once per
/// process by [`detected_level`] (and forced down by policy or failpoint
/// per multiply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernels — the bit-identical reference path.
    Scalar,
    /// 256-bit AVX2 lanes (x86_64, runtime-detected).
    Avx2,
    /// 128-bit NEON lanes (aarch64 baseline).
    Neon,
}

impl SimdLevel {
    /// Wire name for protocol/bench surfaces.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Which numeric implementation step 3 uses — the `AccumulatorKind`-style
/// knob carried by `Config::simd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// The vector kernels when the hardware has them (default), under the
    /// paper's sparse/dense accumulator split.
    Auto,
    /// Pin the scalar reference kernels (pre-SIMD behavior, and the pivot
    /// the oracle compares every other policy against).
    ForceScalar,
}

/// Detects the best vector level this process can use. Cached after the
/// first call; `TSG_SIMD=scalar` in the environment pins the scalar
/// reference kernels for a whole run (the CI force-disable leg).
pub fn detected_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var_os("TSG_SIMD").is_some_and(|v| v == "scalar") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // `popcnt` predates AVX2 on every real part, but the tight
            // sparse kernel compiles with both features enabled, so gate on
            // both rather than assume.
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
            {
                return SimdLevel::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return SimdLevel::Neon;
        }
        #[allow(unreachable_code)]
        SimdLevel::Scalar
    })
}

/// Resolves the level one multiply runs at: the policy's force-down, then
/// the `core.simd_dispatch` failpoint (which forces the scalar path so
/// fault drills can pin the fallback), then hardware detection.
pub fn resolve_level(policy: SimdPolicy) -> SimdLevel {
    if policy == SimdPolicy::ForceScalar {
        return SimdLevel::Scalar;
    }
    #[cfg(feature = "failpoints")]
    if tsg_runtime::failpoint::should_fail("core.simd_dispatch") {
        return SimdLevel::Scalar;
    }
    detected_level()
}

/// The per-tile kernel choice — a pure function of run-constant facts plus
/// the tile's nonzero count, so the observability replay re-derives exactly
/// what the hot loop ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scalar sparse (rank-addressed) accumulator — the reference path.
    SparseScalar,
    /// Scalar dense 256-slot accumulator.
    DenseScalar,
    /// Sparse accumulator with lane-built rank tables.
    SparseSimd,
    /// Vector dense micro-kernel.
    DenseSimd,
}

/// Selects the kernel for a tile with `nnz` stored output nonzeros at
/// `level` (already forced down to scalar by [`SimdPolicy::ForceScalar`]):
/// the accumulator rule picks sparse or dense, the level picks the
/// implementation.
pub fn select_kernel(level: SimdLevel, nnz: usize, acc: AccumulatorKind, tnnz: usize) -> Kernel {
    match (level != SimdLevel::Scalar, acc.use_dense(nnz, tnnz)) {
        (true, true) => Kernel::DenseSimd,
        (true, false) => Kernel::SparseSimd,
        (false, true) => Kernel::DenseScalar,
        (false, false) => Kernel::SparseScalar,
    }
}

/// Runs the numeric phase for one tile through the selected kernel.
///
/// All four kernels produce bit-identical `vals`; see the module docs for
/// why. Non-`f64` element types always take the scalar reference kernels
/// (the vector kernels are f64-lane specializations).
#[allow(clippy::too_many_arguments)]
pub fn run_numeric<T: Scalar>(
    kernel: Kernel,
    level: SimdLevel,
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    row_ptr: &[u8],
    vals: &mut [T],
) {
    match kernel {
        Kernel::SparseScalar => numeric_tile_sparse(a, b, pairs, masks, row_ptr, vals),
        Kernel::DenseScalar => numeric_tile_dense(a, b, pairs, masks, vals),
        Kernel::SparseSimd => numeric_tile_sparse_fast(a, b, pairs, masks, row_ptr, vals, level),
        Kernel::DenseSimd => numeric_tile_dense_simd(a, b, pairs, masks, vals, level),
    }
}

/// The tuned sparse accumulator. Same triple loop as
/// [`numeric_tile_sparse`] — pairs in order, A nonzeros in order, B row
/// entries ascending — so every output slot sees its additions in the
/// reference order and the result is bit-identical. What changes is the
/// cost per product: tile windows are resolved once per pair without view
/// construction, rank queries compile to a hardware `popcnt`, and on AVX2
/// the B-row multiplies run four lanes at a time (the adds stay scalar, in
/// order; a vector lane multiply rounds exactly like the scalar one).
///
/// Power-law workloads put ~80% of output tiles below 9 stored nonzeros,
/// so the per-pair/per-product overhead is what the SIMD rung actually
/// buys back — the wide dense strips only pay on near-dense tiles
/// (DESIGN.md §15).
pub fn numeric_tile_sparse_fast<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    row_ptr: &[u8],
    vals: &mut [T],
    level: SimdLevel,
) {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; level is runtime-detected.
        unsafe {
            let af = &*(a as *const TileMatrix<T> as *const TileMatrix<f64>);
            let bf = &*(b as *const TileMatrix<T> as *const TileMatrix<f64>);
            let vf = &mut *(vals as *mut [T] as *mut [f64]);
            sparse_fast_avx2(af, bf, pairs, masks, row_ptr, vf);
        }
        return;
    }
    let _ = level;
    // SAFETY: the structural invariants checked inside the body hold for
    // any well-formed TileMatrix pair produced by steps 1–2.
    unsafe { sparse_fast_body(a, b, pairs, masks, row_ptr, vals) }
}

/// Index fill from the symbolic row masks, dispatched like the numeric
/// kernels: the scalar level keeps the per-bit reference
/// [`fill_indices_from_masks`], the vector levels decode each mask byte
/// through [`maskops::BYTE_DECODE`] with unconditional 8-byte stores
/// (branch-free SWAR — the decode table is the mask-driven
/// scatter/compress primitive, just applied to structure instead of
/// values). Output bytes are identical either way; only the store pattern
/// differs.
pub fn fill_indices_fast(
    masks: &[u16],
    row_idx: &mut [u8],
    col_idx: &mut [u8],
    level: SimdLevel,
) -> usize {
    if level == SimdLevel::Scalar {
        return fill_indices_from_masks(masks, row_idx, col_idx);
    }
    // The unconditional 8-byte stores spill up to 15 bytes past a row's
    // entries, and most power-law tiles hold fewer than 16 nonzeros total —
    // so decode into a stack scratch with slack and copy the live prefix
    // out. The copy is at most TILE_AREA bytes per array and the scratch
    // stays in L1.
    let mut cols = [0u8; TILE_AREA + 16];
    let mut rows = [0u8; TILE_AREA + 16];
    let cp = cols.as_mut_ptr();
    let rp = rows.as_mut_ptr();
    let mut k = 0usize;
    for (r, &m) in masks.iter().enumerate().take(TILE_DIM) {
        if m == 0 {
            continue;
        }
        let (lo, hi) = (m as u8 as usize, (m >> 8) as usize);
        let pop_lo = lo.count_ones() as usize;
        // SAFETY: k <= TILE_AREA - pop so far, and each pair of stores ends
        // by k + pop_lo + 8 <= TILE_AREA + 16.
        unsafe {
            let lo_cols = u64::from_le_bytes(maskops::BYTE_DECODE[lo].0);
            let hi_cols = u64::from_le_bytes(maskops::BYTE_DECODE[hi].0) + 0x0808_0808_0808_0808;
            cp.add(k).cast::<u64>().write_unaligned(lo_cols);
            cp.add(k + pop_lo).cast::<u64>().write_unaligned(hi_cols);
            let row8 = (r as u64) * 0x0101_0101_0101_0101;
            rp.add(k).cast::<u64>().write_unaligned(row8);
            rp.add(k + 8).cast::<u64>().write_unaligned(row8);
        }
        k += pop_lo + hi.count_ones() as usize;
    }
    let n = k.min(row_idx.len()).min(col_idx.len());
    row_idx[..n].copy_from_slice(&rows[..n]);
    col_idx[..n].copy_from_slice(&cols[..n]);
    k
}

/// `popcnt` is universal on AVX2 hardware; compiling the body with both
/// features turns every rank query into a single instruction and lets the
/// vectorizer use 256-bit registers for the strip loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn sparse_fast_avx2(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    row_ptr: &[u8],
    vals: &mut [f64],
) {
    sparse_fast_body(a, b, pairs, masks, row_ptr, vals)
}

/// Shared tight body; `#[inline(always)]` so the `target_feature` wrappers
/// compile it with their feature sets.
#[inline(always)]
unsafe fn sparse_fast_body<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    row_ptr: &[u8],
    vals: &mut [T],
) {
    debug_assert!(masks.len() >= TILE_DIM && row_ptr.len() >= TILE_DIM);
    let vp = vals.as_mut_ptr();
    for &(a_id, b_id) in pairs {
        let (a_id, b_id) = (a_id as usize, b_id as usize);
        debug_assert!(a_id + 1 < a.tile_nnz.len() && b_id + 1 < b.tile_nnz.len());
        let a_lo = *a.tile_nnz.get_unchecked(a_id);
        let a_len = *a.tile_nnz.get_unchecked(a_id + 1) - a_lo;
        let b_lo = *b.tile_nnz.get_unchecked(b_id);
        let b_len = *b.tile_nnz.get_unchecked(b_id + 1) - b_lo;
        let a_rows = a.row_idx.as_ptr().add(a_lo);
        let a_cols = a.col_idx.as_ptr().add(a_lo);
        let a_vals = a.vals.as_ptr().add(a_lo);
        let b_rp = b.row_ptr.as_ptr().add(b_id * TILE_DIM);
        let b_cols = b.col_idx.as_ptr().add(b_lo);
        let b_vals = b.vals.as_ptr().add(b_lo);
        for i in 0..a_len {
            let r = *a_rows.add(i) as usize;
            let c = *a_cols.add(i) as usize;
            let va = *a_vals.add(i);
            let s = *b_rp.add(c) as usize;
            let e = if c + 1 < TILE_DIM {
                *b_rp.add(c + 1) as usize
            } else {
                b_len
            };
            if s == e {
                continue;
            }
            let mask = *masks.get_unchecked(r) as u32;
            let base = *row_ptr.get_unchecked(r) as usize;
            for kb in s..e {
                let k = *b_cols.add(kb) as u32;
                let vb = *b_vals.add(kb);
                debug_assert!(mask & (1 << k) != 0, "product outside symbolic mask");
                let rank = (mask & ((1u32 << k) - 1)).count_ones() as usize;
                let slot = vp.add(base + rank);
                *slot += va * vb;
            }
        }
    }
}

/// Dense 16×16 micro-kernel: each pair's B tile is expanded to dense rows,
/// and each run of A nonzeros sharing a local row adds into that row of the
/// 256-slot accumulator, blending every product in through B's row mask. The
/// accumulator is compressed through the output masks at the end. Falls back
/// to the scalar dense accumulator when the level is scalar or the element
/// type has no lane kernel.
pub fn numeric_tile_dense_simd<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    vals: &mut [T],
    level: SimdLevel,
) {
    if level != SimdLevel::Scalar && TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; the reference casts
        // re-view the same types.
        let (af, bf) = unsafe {
            (
                &*(a as *const TileMatrix<T> as *const TileMatrix<f64>),
                &*(b as *const TileMatrix<T> as *const TileMatrix<f64>),
            )
        };
        let vf = unsafe { &mut *(vals as *mut [T] as *mut [f64]) };
        #[cfg(target_arch = "x86_64")]
        if level == SimdLevel::Avx2 {
            // SAFETY: level is runtime-detected AVX2.
            unsafe { dense_tile_avx2(af, bf, pairs, masks, vf) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        if level == SimdLevel::Neon {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { dense_tile_neon(af, bf, pairs, masks, vf) };
            return;
        }
        let _ = (af, bf, vf);
    }
    numeric_tile_dense(a, b, pairs, masks, vals);
}

/// Mask-ordered compress of a 256-slot accumulator into the tile's value
/// window, via the byte-decode table. Identical output order to the
/// `trailing_zeros` walk in [`numeric_tile_dense`].
fn compress_acc<T: Scalar>(acc: &[T; TILE_AREA], masks: &[u16], vals: &mut [T]) {
    let mut cols = [0u8; TILE_DIM];
    let mut out = 0usize;
    for (r, &m) in masks.iter().enumerate().take(TILE_DIM) {
        let n = maskops::decode_mask_cols(m, &mut cols, 0);
        let row = r * TILE_DIM;
        for &c in &cols[..n] {
            vals[out] = acc[row + c as usize];
            out += 1;
        }
    }
    debug_assert_eq!(out, vals.len());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_tile_avx2(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    vals: &mut [f64],
) {
    use std::arch::x86_64::*;
    let mut acc = [0f64; TILE_AREA];
    // B-row expansion scratch. Lanes outside the *current* pair's row masks
    // may hold stale values from an earlier pair; they are never selected by
    // the blend, so the buffer is not re-zeroed between pairs.
    let mut bd = [0f64; TILE_AREA];
    // Per strip `g`, the shifts that move bit `4g + lane` of a broadcast B
    // row mask into the lane's sign bit, the only bit `vblendvpd` reads: the
    // blend selectors cost one shift per strip and no branch per nibble.
    let shifts = [
        _mm256_setr_epi64x(63, 62, 61, 60),
        _mm256_setr_epi64x(59, 58, 57, 56),
        _mm256_setr_epi64x(55, 54, 53, 52),
        _mm256_setr_epi64x(51, 50, 49, 48),
    ];
    let ap = acc.as_mut_ptr();
    let bp = bd.as_ptr();
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_tile = b.tile(b_id as usize);
        for ((&r, &k), &v) in b_tile.row_idx.iter().zip(b_tile.col_idx).zip(b_tile.vals) {
            bd[r as usize * TILE_DIM + k as usize] = v;
        }
        let (a_cols, a_vals) = (a_tile.col_idx, a_tile.vals);
        for r in 0..TILE_DIM {
            let run = a_tile.row_range(r);
            if run.is_empty() {
                continue;
            }
            // C's row `r` stays in four registers for the whole run of A's
            // row `r`: one load and one store per run, not per nonzero. Each
            // slot still takes its products in A's stored order.
            let crow = ap.add(r * TILE_DIM);
            let mut c = [
                _mm256_loadu_pd(crow),
                _mm256_loadu_pd(crow.add(4)),
                _mm256_loadu_pd(crow.add(8)),
                _mm256_loadu_pd(crow.add(12)),
            ];
            // SAFETY: a well-formed tile's row ranges lie inside its entry
            // arrays and its local columns are below TILE_DIM.
            for i in run {
                let k = *a_cols.get_unchecked(i) as usize;
                debug_assert!(k < TILE_DIM);
                let va = _mm256_set1_pd(*a_vals.get_unchecked(i));
                let bm = _mm256_set1_epi64x(i64::from(*b_tile.masks.get_unchecked(k)));
                let brow = bp.add(k * TILE_DIM);
                for (g, cg) in c.iter_mut().enumerate() {
                    let sel = _mm256_castsi256_pd(_mm256_sllv_epi64(bm, shifts[g]));
                    // Separate mul then add — never FMA — to match the
                    // scalar kernel's two-rounding sequence bit for bit.
                    let sum =
                        _mm256_add_pd(*cg, _mm256_mul_pd(va, _mm256_loadu_pd(brow.add(g * 4))));
                    *cg = _mm256_blendv_pd(*cg, sum, sel);
                }
            }
            for (g, cg) in c.iter().enumerate() {
                _mm256_storeu_pd(crow.add(g * 4), *cg);
            }
        }
    }
    compress_acc(&acc, masks, vals);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dense_tile_neon(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    pairs: &[(u32, u32)],
    masks: &[u16],
    vals: &mut [f64],
) {
    use std::arch::aarch64::*;
    // Mask bit-pair -> 2-lane select (all-ones lanes take the new sum).
    static PAIR_SELECT: [[u64; 2]; 4] =
        [[0, 0], [u64::MAX, 0], [0, u64::MAX], [u64::MAX, u64::MAX]];
    let mut acc = [0f64; TILE_AREA];
    let mut bd = [0f64; TILE_AREA];
    for &(a_id, b_id) in pairs {
        let a_tile = a.tile(a_id as usize);
        let b_tile = b.tile(b_id as usize);
        for r in 0..TILE_DIM {
            for kb in b_tile.row_range(r) {
                bd[r * TILE_DIM + b_tile.col_idx[kb] as usize] = b_tile.vals[kb];
            }
        }
        for ((&r, &c), &va) in a_tile
            .row_idx
            .iter()
            .zip(a_tile.col_idx.iter())
            .zip(a_tile.vals.iter())
        {
            let bm = b_tile.masks[c as usize];
            if bm == 0 {
                continue;
            }
            let vav = vdupq_n_f64(va);
            let arow = acc.as_mut_ptr().add(r as usize * TILE_DIM);
            let brow = bd.as_ptr().add(c as usize * TILE_DIM);
            for g in 0..8 {
                let bits = ((bm >> (g * 2)) & 0b11) as usize;
                if bits == 0 {
                    continue;
                }
                let sel = vld1q_u64(PAIR_SELECT[bits].as_ptr());
                let bv = vld1q_f64(brow.add(g * 2));
                let cur = vld1q_f64(arow.add(g * 2));
                // Separate mul then add — never FMA — to match the scalar
                // kernel's two-rounding sequence bit for bit.
                let sum = vaddq_f64(cur, vmulq_f64(vav, bv));
                vst1q_f64(arow.add(g * 2), vbslq_f64(sel, sum, cur));
            }
        }
    }
    compress_acc(&acc, masks, vals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step2::symbolic_tile;
    use tsg_matrix::Coo;

    /// Tiles every entry pushed to `coo`, signed zeros included: CSR
    /// assembly drops zero values, so zeros pass through it as stand-ins.
    fn tiled_coo(mut coo: Coo<f64>) -> TileMatrix<f64> {
        const STAND_IN: f64 = 4096.0;
        for e in &mut coo.entries {
            assert_ne!(e.2.abs(), STAND_IN, "the stand-in is not a test value");
            if e.2 == 0.0 {
                e.2 = STAND_IN.copysign(e.2);
            }
        }
        let mut t = TileMatrix::from_csr(&coo.to_csr());
        for x in t.vals.iter_mut().filter(|x| x.abs() == STAND_IN) {
            *x = 0.0f64.copysign(*x);
        }
        t
    }

    fn tiled(entries: &[(u32, u32, f64)]) -> TileMatrix<f64> {
        let mut coo = Coo::new(16, 16);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        tiled_coo(coo)
    }

    /// Runs `kernel` over one output tile with the given masks.
    fn run_tile(
        kernel: Kernel,
        a: &TileMatrix<f64>,
        b: &TileMatrix<f64>,
        pairs: &[(u32, u32)],
        masks: &[u16; TILE_DIM],
    ) -> Vec<f64> {
        let (row_ptr, nnz) = maskops::row_ptr_from_masks(masks);
        let mut vals = vec![0.0f64; nnz];
        run_numeric(
            kernel,
            detected_level(),
            a,
            b,
            pairs,
            masks,
            &row_ptr,
            &mut vals,
        );
        vals
    }

    fn assert_bitwise_equal(kernel: Kernel, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{kernel:?} diverged from the scalar sparse kernel at entry {i}: {x} vs {y}"
            );
        }
    }

    /// Runs every kernel over the output tile `pairs` feed, checks each
    /// against the scalar sparse kernel bit for bit, and returns its values.
    fn assert_all_kernels_bitwise_equal(
        a: &TileMatrix<f64>,
        b: &TileMatrix<f64>,
        pairs: &[(u32, u32)],
    ) -> Vec<f64> {
        let masks = symbolic_tile(a, b, pairs).masks;
        let reference = run_tile(Kernel::SparseScalar, a, b, pairs, &masks);
        for kernel in [Kernel::DenseScalar, Kernel::SparseSimd, Kernel::DenseSimd] {
            let vals = run_tile(kernel, a, b, pairs, &masks);
            assert_bitwise_equal(kernel, &vals, &reference);
        }
        reference
    }

    #[test]
    fn all_kernels_bitwise_equal_on_a_full_tile() {
        let entries: Vec<(u32, u32, f64)> = (0..256u32)
            .map(|k| {
                (
                    k / 16,
                    k % 16,
                    ((k as f64) * 0.37 - 41.0) * if k % 3 == 0 { -1.0 } else { 1.0 },
                )
            })
            .collect();
        let a = tiled(&entries);
        assert_all_kernels_bitwise_equal(&a, &a, &[(0, 0)]);
    }

    #[test]
    fn all_kernels_bitwise_equal_on_sparse_and_signed_zero_tiles() {
        let a = tiled(&[(0, 0, -1.0), (0, 3, 0.0), (7, 7, 1.25e300), (15, 0, -0.5)]);
        let b = tiled(&[(0, 1, 0.0), (3, 1, -0.0), (7, 7, 1.25e300), (0, 15, 2.0)]);
        assert_eq!((a.nnz(), b.nnz()), (4, 4), "the zeros are stored");
        assert_all_kernels_bitwise_equal(&a, &b, &[(0, 0)]);
        assert_all_kernels_bitwise_equal(&b, &a, &[(0, 0)]);
    }

    /// One output tile fed by three pairs, so the dense kernels' B-row
    /// buffer carries lanes from one pair into the next. The first pair's B
    /// holds NaN, ±inf and −0.0 in rows its A never reads, at lanes the
    /// second pair's B rows leave uncovered; the third pair's full B row puts
    /// those lanes in C's masks, so a stale lane that leaked into a sum would
    /// show. A has an empty row, a one-entry row and a full row; B has rows of
    /// every popcount from 0 to 16. The products are not dyadic, so a change
    /// in any slot's addition order shows too.
    #[test]
    fn all_kernels_bitwise_equal_across_pairs_with_stale_special_lanes() {
        let v = |i: u32| f64::from(i * 37 % 101) * 0.173 - 8.0;
        let mut a = Coo::new(16, 48);
        let mut b = Coo::new(48, 16);
        // Pair 0: A reads only B's rows 0..8; B's rows 8..16 hold the
        // special values at lanes `c..16`, which B1's row `c` leaves stale.
        for r in 3..16u32 {
            for j in 0..=r % 4 {
                a.push(r, (r + 3 * j) % 8, v(r * 16 + j));
            }
        }
        for c in 0..8u32 {
            for k in (c % 3..16).step_by(3) {
                b.push(c, k, v(300 + c * 16 + k));
            }
        }
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        for c in 8..16u32 {
            for k in c..16 {
                b.push(c, k, specials[k as usize % 4]);
            }
        }
        // Pair 1: a full A row, a one-entry A row, and A entries that read
        // B's rows 8..16, whose row `i` covers lanes `0..i` (popcount i).
        for k in 0..16u32 {
            a.push(0, 16 + k, v(600 + k));
        }
        a.push(1, 16 + 9, v(640));
        for r in 3..16u32 {
            for j in 0..3 {
                a.push(r, 16 + 8 + (r + j) % 8, v(700 + r * 4 + j));
            }
            a.push(r, 16 + r % 8, v(800 + r));
        }
        for i in 0..16u32 {
            for k in 0..i {
                b.push(16 + i, k, v(900 + i * 16 + k));
            }
        }
        // Pair 2: B's row 15 is full (popcount 16), so every A row that
        // reads it owns lane 15 in C's masks.
        for r in 3..16u32 {
            a.push(r, 32 + 15, v(1200 + r));
            a.push(r, 32 + 4, v(1300 + r));
        }
        for k in 0..16u32 {
            b.push(32 + 15, k, v(1400 + k));
        }
        for k in [1u32, 6, 11] {
            b.push(32 + 4, k, v(1500 + k));
        }
        let (a, b) = (tiled_coo(a), tiled_coo(b));
        assert_eq!((a.tile_count(), b.tile_count()), (3, 3));
        for x in specials {
            let stored = b.tile(0).vals.iter().any(|y| y.to_bits() == x.to_bits());
            assert!(stored, "{x} is stored in the first pair's B");
        }
        let pairs = [(0u32, 0u32), (1, 1), (2, 2)];
        let reference = assert_all_kernels_bitwise_equal(&a, &b, &pairs);
        assert!(
            reference.iter().all(|x| x.is_finite()),
            "no special value reaches C legitimately"
        );

        // The same tile under narrower masks, as a mask cut leaves it. Only
        // the dense kernels run a cut tile (the sparse ones rank-address
        // through the masks), and each kept slot must read as in the uncut
        // product.
        let sym = symbolic_tile(&a, &b, &pairs);
        let mut cut = sym.masks;
        for (r, m) in cut.iter_mut().enumerate() {
            *m &= 0x6db6_u16.rotate_left(r as u32);
        }
        assert!(cut != sym.masks);
        let mut want = Vec::new();
        let mut at = 0;
        for (&m, &kept) in sym.masks.iter().zip(&cut) {
            for k in 0..TILE_DIM {
                if m & (1 << k) != 0 {
                    if kept & (1 << k) != 0 {
                        want.push(reference[at]);
                    }
                    at += 1;
                }
            }
        }
        for kernel in [Kernel::DenseScalar, Kernel::DenseSimd] {
            assert_bitwise_equal(kernel, &run_tile(kernel, &a, &b, &pairs, &cut), &want);
        }
    }

    #[test]
    fn selection_follows_the_accumulator_rule_at_the_level() {
        use AccumulatorKind::*;
        // Scalar level never yields vector kernels.
        for nnz in [0, 64, 200] {
            let k = select_kernel(SimdLevel::Scalar, nnz, Adaptive, 192);
            assert!(matches!(k, Kernel::SparseScalar | Kernel::DenseScalar));
        }
        // A vector level: sparse up to tnnz, dense above, and the
        // accumulator ablation knobs keep their meaning.
        let lvl = SimdLevel::Avx2;
        assert_eq!(select_kernel(lvl, 192, Adaptive, 192), Kernel::SparseSimd);
        assert_eq!(select_kernel(lvl, 193, Adaptive, 192), Kernel::DenseSimd);
        assert_eq!(
            select_kernel(lvl, 200, AlwaysSparse, 192),
            Kernel::SparseSimd
        );
        assert_eq!(select_kernel(lvl, 1, AlwaysDense, 192), Kernel::DenseSimd);
        assert_eq!(
            select_kernel(SimdLevel::Scalar, 200, Adaptive, 192),
            Kernel::DenseScalar
        );
    }

    #[test]
    fn force_scalar_resolves_to_scalar_level() {
        assert_eq!(resolve_level(SimdPolicy::ForceScalar), SimdLevel::Scalar);
    }

    #[test]
    fn fill_indices_fast_matches_scalar_fill_bytewise() {
        // Adversarial mask sets: empty, full, single high bit, byte
        // boundaries, and an xorshift-scrambled batch — sized exactly, so
        // the branch-free path must hand off to the tail loop correctly.
        let mut cases: Vec<[u16; TILE_DIM]> = vec![
            [0u16; TILE_DIM],
            [u16::MAX; TILE_DIM],
            [0x8000; TILE_DIM],
            [0x0100; TILE_DIM],
            [0x00ff; TILE_DIM],
            [0xff00; TILE_DIM],
        ];
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..64 {
            let mut m = [0u16; TILE_DIM];
            for slot in m.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = x as u16;
            }
            cases.push(m);
        }
        for masks in &cases {
            let nnz: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
            let mut ri_s = vec![0xaau8; nnz];
            let mut ci_s = vec![0xaau8; nnz];
            let n_s = fill_indices_from_masks(masks, &mut ri_s, &mut ci_s);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon] {
                let mut ri = vec![0x55u8; nnz];
                let mut ci = vec![0x55u8; nnz];
                let n = fill_indices_fast(masks, &mut ri, &mut ci, level);
                assert_eq!(n, n_s, "count mismatch at {level:?} for {masks:?}");
                assert_eq!(ri, ri_s, "row_idx mismatch at {level:?} for {masks:?}");
                assert_eq!(ci, ci_s, "col_idx mismatch at {level:?} for {masks:?}");
            }
        }
    }
}
