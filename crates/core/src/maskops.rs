//! Shared mask algebra for 16×16 tiles — the single source of truth for the
//! OR/AND/popcount/rank operations that step 2 (masked or not) and step 3
//! build on.
//!
//! Every helper here is pure integer work, so the SIMD variants (dispatched
//! by [`crate::simd::SimdLevel`]) are exactly identical to the scalar ones —
//! there is no rounding to preserve, only bits. The float kernels that
//! consume these ranks live in [`crate::step3`] (scalar reference) and
//! [`crate::simd`] (lane kernels).

use tsg_matrix::TILE_DIM;

use crate::simd::SimdLevel;

/// Rank of bit `k` within a 16-bit row mask: how many set bits lie strictly
/// below it. This is the sparse accumulator's scatter address (§3.3).
#[inline(always)]
pub fn rank16(mask: u16, k: u32) -> usize {
    (mask & ((1u16 << k) - 1)).count_ones() as usize
}

/// Local row pointers and nonzero count from a tile's row masks — the
/// popcount scan step 2 runs after the mask OR (Figure 5) and the masked
/// kernel runs after ANDing the mask pattern in.
#[inline]
pub fn row_ptr_from_masks(masks: &[u16; TILE_DIM]) -> ([u8; TILE_DIM], usize) {
    let mut row_ptr = [0u8; TILE_DIM];
    let mut nnz = 0usize;
    for r in 0..TILE_DIM {
        // At most 15 full rows precede any pointer: 15 * 16 = 240 <= u8::MAX.
        debug_assert!(nnz <= 240);
        row_ptr[r] = nnz as u8;
        nnz += masks[r].count_ones() as usize;
    }
    (row_ptr, nnz)
}

/// Elementwise AND of two 16-row mask sets — a masked product's step-2
/// pruning reduction. One 256-bit op on AVX2, two 128-bit ops on NEON.
#[inline]
pub fn and_masks(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM], level: SimdLevel) -> [u16; TILE_DIM] {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        // SAFETY: the level was runtime-detected, so AVX2 is available.
        return unsafe { and_masks_avx2(x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { and_masks_neon(x, y) };
    }
    let _ = level;
    let mut out = [0u16; TILE_DIM];
    for r in 0..TILE_DIM {
        out[r] = x[r] & y[r];
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_masks_avx2(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM]) -> [u16; TILE_DIM] {
    use std::arch::x86_64::*;
    let mut out = [0u16; TILE_DIM];
    let a = _mm256_loadu_si256(x.as_ptr() as *const __m256i);
    let b = _mm256_loadu_si256(y.as_ptr() as *const __m256i);
    _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, _mm256_and_si256(a, b));
    out
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn and_masks_neon(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM]) -> [u16; TILE_DIM] {
    use std::arch::aarch64::*;
    let mut out = [0u16; TILE_DIM];
    for half in 0..2 {
        let a = vld1q_u16(x.as_ptr().add(half * 8));
        let b = vld1q_u16(y.as_ptr().add(half * 8));
        vst1q_u16(out.as_mut_ptr().add(half * 8), vandq_u16(a, b));
    }
    out
}

/// Elementwise OR of two 16-row mask sets (the step-2 reduction when two
/// symbolic sources merge). Same dispatch shape as [`and_masks`].
#[inline]
pub fn or_masks(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM], level: SimdLevel) -> [u16; TILE_DIM] {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        // SAFETY: the level was runtime-detected, so AVX2 is available.
        return unsafe { or_masks_avx2(x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { or_masks_neon(x, y) };
    }
    let _ = level;
    let mut out = [0u16; TILE_DIM];
    for r in 0..TILE_DIM {
        out[r] = x[r] | y[r];
    }
    out
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn or_masks_avx2(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM]) -> [u16; TILE_DIM] {
    use std::arch::x86_64::*;
    let mut out = [0u16; TILE_DIM];
    let a = _mm256_loadu_si256(x.as_ptr() as *const __m256i);
    let b = _mm256_loadu_si256(y.as_ptr() as *const __m256i);
    _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, _mm256_or_si256(a, b));
    out
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn or_masks_neon(x: &[u16; TILE_DIM], y: &[u16; TILE_DIM]) -> [u16; TILE_DIM] {
    use std::arch::aarch64::*;
    let mut out = [0u16; TILE_DIM];
    for half in 0..2 {
        let a = vld1q_u16(x.as_ptr().add(half * 8));
        let b = vld1q_u16(y.as_ptr().add(half * 8));
        vst1q_u16(out.as_mut_ptr().add(half * 8), vorrq_u16(a, b));
    }
    out
}

/// For every byte value: its set-bit positions in ascending order, padded
/// with zeros, plus the count — the branch-free decode table behind
/// [`crate::step3::fill_indices_from_masks`] and the dense compress.
pub static BYTE_DECODE: [([u8; 8], u8); 256] = {
    let mut table = [([0u8; 8], 0u8); 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut k = 0u8;
        let mut bit = 0u8;
        while bit < 8 {
            if byte & (1 << bit) != 0 {
                table[byte].0[k as usize] = bit;
                k += 1;
            }
            bit += 1;
        }
        table[byte].1 = k;
        byte += 1;
    }
    table
};

/// Appends the set-bit positions of `mask` (offset by nothing for bits 0–7,
/// by 8 for bits 8–15) into `cols[out..]`, returning the new cursor. Output
/// order is ascending, identical to a `trailing_zeros` walk.
#[inline]
pub fn decode_mask_cols(mask: u16, cols: &mut [u8], mut out: usize) -> usize {
    let (lo, lo_n) = BYTE_DECODE[(mask & 0xFF) as usize];
    cols[out..out + lo_n as usize].copy_from_slice(&lo[..lo_n as usize]);
    out += lo_n as usize;
    let (hi, hi_n) = BYTE_DECODE[(mask >> 8) as usize];
    for i in 0..hi_n as usize {
        cols[out + i] = hi[i] + 8;
    }
    out + hi_n as usize
}

/// Per-row prefix-rank tables: `tables[r][k]` is the rank of column `k`
/// within `masks[r]` — the sparse accumulator's whole scatter-address space
/// precomputed so the per-product popcount disappears from the inner loop.
///
/// The AVX2/NEON builders compute all 16 ranks of a row in lanes (mask
/// broadcast, AND with the 16 prefix masks, popcount per lane); the scalar
/// builder walks the bits. All produce identical tables.
#[inline]
pub fn rank_tables(masks: &[u16], level: SimdLevel) -> [[u8; TILE_DIM]; TILE_DIM] {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        // SAFETY: the level was runtime-detected, so AVX2 is available.
        return unsafe { rank_tables_avx2(masks) };
    }
    #[cfg(target_arch = "aarch64")]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { rank_tables_neon(masks) };
    }
    let _ = level;
    rank_tables_scalar(masks)
}

fn rank_tables_scalar(masks: &[u16]) -> [[u8; TILE_DIM]; TILE_DIM] {
    let mut tables = [[0u8; TILE_DIM]; TILE_DIM];
    for (r, &m) in masks.iter().enumerate().take(TILE_DIM) {
        let mut rank = 0u8;
        for (k, slot) in tables[r].iter_mut().enumerate() {
            *slot = rank;
            rank += ((m >> k) & 1) as u8;
        }
    }
    tables
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rank_tables_avx2(masks: &[u16]) -> [[u8; TILE_DIM]; TILE_DIM] {
    use std::arch::x86_64::*;
    // (1 << k) - 1 for k = 0..16, as sixteen u16 lanes.
    static PREFIX: [u16; TILE_DIM] = {
        let mut p = [0u16; TILE_DIM];
        let mut k = 0;
        while k < TILE_DIM {
            p[k] = (1u16 << k).wrapping_sub(1);
            k += 1;
        }
        p
    };
    let prefix = _mm256_loadu_si256(PREFIX.as_ptr() as *const __m256i);
    let nibble_lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low_nibbles = _mm256_set1_epi8(0x0F);
    let ones = _mm256_set1_epi8(1);
    let mut tables = [[0u8; TILE_DIM]; TILE_DIM];
    for (r, &m) in masks.iter().enumerate().take(TILE_DIM) {
        // Sixteen prefix-masked copies of the row mask, popcounted per lane.
        let v = _mm256_and_si256(_mm256_set1_epi16(m as i16), prefix);
        let lo = _mm256_and_si256(v, low_nibbles);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_nibbles);
        let byte_counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(nibble_lut, lo),
            _mm256_shuffle_epi8(nibble_lut, hi),
        );
        // Sum adjacent byte counts into the sixteen u16 lanes, then narrow.
        let lane_counts = _mm256_maddubs_epi16(byte_counts, ones);
        let mut counts16 = [0u16; TILE_DIM];
        _mm256_storeu_si256(counts16.as_mut_ptr() as *mut __m256i, lane_counts);
        for k in 0..TILE_DIM {
            tables[r][k] = counts16[k] as u8;
        }
    }
    tables
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn rank_tables_neon(masks: &[u16]) -> [[u8; TILE_DIM]; TILE_DIM] {
    use std::arch::aarch64::*;
    static PREFIX: [u16; TILE_DIM] = {
        let mut p = [0u16; TILE_DIM];
        let mut k = 0;
        while k < TILE_DIM {
            p[k] = (1u16 << k).wrapping_sub(1);
            k += 1;
        }
        p
    };
    let mut tables = [[0u8; TILE_DIM]; TILE_DIM];
    for (r, &m) in masks.iter().enumerate().take(TILE_DIM) {
        let bc = vdupq_n_u16(m);
        for half in 0..2 {
            let pref = vld1q_u16(PREFIX.as_ptr().add(half * 8));
            let v = vandq_u16(bc, pref);
            // Per-byte popcount, then pairwise byte sums -> per-u16 counts.
            let counts = vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u16(v)));
            let mut lane = [0u16; 8];
            vst1q_u16(lane.as_mut_ptr(), counts);
            for k in 0..8 {
                tables[r][half * 8 + k] = lane[k] as u8;
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank16_counts_bits_below() {
        assert_eq!(rank16(0b1011, 0), 0);
        assert_eq!(rank16(0b1011, 1), 1);
        assert_eq!(rank16(0b1011, 3), 2);
        assert_eq!(rank16(0xFFFF, 15), 15);
    }

    #[test]
    fn row_ptr_matches_running_popcount() {
        let mut masks = [0u16; TILE_DIM];
        masks[0] = 0b111;
        masks[2] = 0x8001;
        let (row_ptr, nnz) = row_ptr_from_masks(&masks);
        assert_eq!(nnz, 5);
        assert_eq!(row_ptr[0], 0);
        assert_eq!(row_ptr[1], 3);
        assert_eq!(row_ptr[2], 3);
        assert_eq!(row_ptr[3], 5);
        assert_eq!(row_ptr[15], 5);
    }

    #[test]
    fn and_or_masks_match_scalar_on_every_level() {
        let mut x = [0u16; TILE_DIM];
        let mut y = [0u16; TILE_DIM];
        for r in 0..TILE_DIM {
            x[r] = (0x9E37u16).rotate_left(r as u32);
            y[r] = (0x5BD1u16).rotate_right(r as u32 * 3);
        }
        let and_ref = and_masks(&x, &y, SimdLevel::Scalar);
        let or_ref = or_masks(&x, &y, SimdLevel::Scalar);
        let level = crate::simd::detected_level();
        assert_eq!(and_masks(&x, &y, level), and_ref);
        assert_eq!(or_masks(&x, &y, level), or_ref);
        for r in 0..TILE_DIM {
            assert_eq!(and_ref[r], x[r] & y[r]);
            assert_eq!(or_ref[r], x[r] | y[r]);
        }
    }

    #[test]
    fn byte_decode_matches_trailing_zeros_walk() {
        for (byte, &(positions, count)) in BYTE_DECODE.iter().enumerate() {
            let mut bits = byte as u8;
            let mut k = 0usize;
            while bits != 0 {
                assert_eq!(positions[k], bits.trailing_zeros() as u8);
                bits &= bits - 1;
                k += 1;
            }
            assert_eq!(count as usize, k);
        }
    }

    #[test]
    fn decode_mask_cols_covers_both_bytes() {
        let mut cols = [0u8; 16];
        let n = decode_mask_cols(0x8103, &mut cols, 0);
        assert_eq!(&cols[..n], &[0, 1, 8, 15]);
    }

    #[test]
    fn rank_tables_agree_with_popcount_definition() {
        let mut masks = [0u16; TILE_DIM];
        for (r, slot) in masks.iter_mut().enumerate() {
            *slot = (0xACE1u16).rotate_left(r as u32) ^ (r as u16 * 257);
        }
        masks[3] = 0;
        masks[7] = 0xFFFF;
        let scalar = rank_tables_scalar(&masks);
        for (r, &m) in masks.iter().enumerate() {
            for (k, &rank) in scalar[r].iter().enumerate() {
                assert_eq!(rank as usize, rank16(m, k as u32), "({r},{k})");
            }
        }
        let level = crate::simd::detected_level();
        assert_eq!(rank_tables(&masks, level), scalar);
        assert_eq!(rank_tables(&masks, SimdLevel::Scalar), scalar);
    }
}
