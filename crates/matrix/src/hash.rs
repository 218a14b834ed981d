//! Content hashing for matrices.
//!
//! The engine layer keys its matrix registry by *content*, so that loading
//! the same matrix twice (from a file, a generator, or a wire payload)
//! resolves to one registry entry and one cached tiled conversion. The hash
//! covers the matrix's logical content — dimensions, structure arrays, and
//! the IEEE bit patterns of the values — so it is stable across processes
//! and independent of allocation capacities.
//!
//! The hash runs on every registration of a kept product, so it has to keep
//! up with memory rather than cost a fraction of the product it names. It
//! reads the content as 64-bit little-endian words (narrow arrays packed,
//! each section prefixed by its element count) and deals the words
//! round-robin over four independent lanes. Each word is fully mixed by a
//! folded 64×64→128-bit multiply before it meets its lane, so a change in
//! any bit of a word — the sign bit included — reaches every bit of the
//! lane; the lane update itself (rotate, xor, odd multiply) is a bijection
//! of the lane state, so no word can erase what came before it. Plain FNV
//! over 64-bit words would not do: its multiply only carries upwards, so a
//! flipped top bit stays the top bit and two sign flips cancel.
//!
//! The hash is not collision-resistant against adversarial inputs; the
//! registry treats it as an identifier chosen by the client, exactly as a
//! content-addressed store does, and the failure mode of a collision is
//! serving the colliding matrix, not memory unsafety.

use crate::{Csr, Scalar, TileMatrix};

/// Starting state of the four lanes (the first 256 bits of π's fraction).
const SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const LANES: usize = 4;
/// Word pre-whitening and folded-multiply constants.
const WORD_KEY: u64 = 0x9e37_79b9_7f4a_7c15;
const WORD_MUL: u64 = 0xbf58_476d_1ce4_e5b9;
/// Odd lane multiplier (a bijection of the lane state).
const LANE_MUL: u64 = 0x94d0_49bb_1331_11eb;
/// Domain tags absorbed first, so the CSR and tiled hashes of one matrix
/// never coincide by construction.
const CSR_DOMAIN: u64 = u64::from_le_bytes(*b"csr\0\0\0\0\0");
const TILED_DOMAIN: u64 = u64::from_le_bytes(*b"tiled\0\0\0");

/// Low and high halves of the 128-bit product, xored together.
#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Absorbs one fully mixed word into a lane.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane.rotate_left(29) ^ fold_mul(word ^ WORD_KEY, WORD_MUL)).wrapping_mul(LANE_MUL)
}

/// The four-lane word hasher behind both content hashes.
struct LaneHasher {
    lanes: [u64; LANES],
}

impl LaneHasher {
    fn new(domain: u64) -> Self {
        let mut h = LaneHasher { lanes: SEEDS };
        h.lanes[0] = absorb(h.lanes[0], domain);
        h
    }

    /// Deals `words` round-robin over the lanes, starting at lane 1 (lane 0
    /// took the section length).
    #[inline(always)]
    fn words(&mut self, mut words: impl Iterator<Item = u64>) {
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        while let Some(w) = words.next() {
            l1 = absorb(l1, w);
            let Some(w) = words.next() else { break };
            l2 = absorb(l2, w);
            let Some(w) = words.next() else { break };
            l3 = absorb(l3, w);
            let Some(w) = words.next() else { break };
            l0 = absorb(l0, w);
        }
        self.lanes = [l0, l1, l2, l3];
    }

    /// Absorbs one section: its element count, then its elements packed
    /// little-endian `N` to a 64-bit word (`widen` must fit each element
    /// in `64 / N` bits). A short last word is zero-padded; the count
    /// disambiguates it.
    #[inline(always)]
    fn section<T: Copy, const N: usize>(&mut self, items: &[T], widen: impl Fn(T) -> u64) {
        let bits = (64 / N) as u32;
        let pack = |chunk: &[T]| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &x)| w | widen(x) << (bits * i as u32))
        };
        self.lanes[0] = absorb(self.lanes[0], items.len() as u64);
        let chunks = items.chunks_exact(N);
        let tail = chunks.remainder();
        self.words(chunks.map(pack));
        if !tail.is_empty() {
            self.lanes[0] = absorb(self.lanes[0], pack(tail));
        }
    }

    /// Folds the lanes in order and finishes with the splitmix64 avalanche.
    fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(0, |h, &l| absorb(h, l));
        h ^= h >> 30;
        h = h.wrapping_mul(WORD_MUL);
        h ^= h >> 27;
        h = h.wrapping_mul(LANE_MUL);
        h ^ (h >> 31)
    }
}

impl<T: Scalar> Csr<T> {
    /// A 64-bit content hash of this matrix: dimensions, structure, and the
    /// IEEE bit patterns of the values (via the `f64` widening, so `f32` and
    /// `f64` matrices with identical widened values collide deliberately —
    /// they represent the same logical operand).
    ///
    /// `-0.0` and `+0.0` hash differently (different bit patterns); `NaN`
    /// payloads are hashed as stored.
    pub fn content_hash(&self) -> u64 {
        let mut h = LaneHasher::new(CSR_DOMAIN);
        h.section::<_, 1>(&[self.nrows, self.ncols], |d| d as u64);
        h.section::<_, 1>(&self.rowptr, |p| p as u64);
        h.section::<_, 2>(&self.colidx, u64::from);
        h.section::<_, 1>(&self.vals, |v| v.to_f64().to_bits());
        h.finish()
    }
}

impl<T: Scalar> TileMatrix<T> {
    /// A 64-bit content hash of this tiled matrix: dimensions, tile
    /// structure, intra-tile structure, and the IEEE bit patterns of the
    /// values (widened to `f64`, like [`Csr::content_hash`]).
    ///
    /// The hash is domain-separated from the CSR hash (a different domain
    /// tag is absorbed first), so a tiled matrix and its CSR form never
    /// collide by construction — a product registered from its tiled form
    /// gets a different registry id than the same matrix registered from
    /// CSR. Within the tiled domain the hash is canonical: two structurally
    /// identical tiled matrices (same tiles, same intra-tile layout, same
    /// value bits) hash equal, which is what the registry's deduplication
    /// of repeated chain intermediates relies on.
    pub fn content_hash(&self) -> u64 {
        let mut h = LaneHasher::new(TILED_DOMAIN);
        h.section::<_, 1>(&[self.nrows, self.ncols], |d| d as u64);
        h.section::<_, 1>(&self.tile_ptr, |p| p as u64);
        h.section::<_, 2>(&self.tile_colidx, u64::from);
        // `tile_nnz` is derivable from the per-tile row pointers, but it is
        // part of the format's invariants, so absorb it too.
        h.section::<_, 1>(&self.tile_nnz, |n| n as u64);
        h.section::<_, 8>(&self.row_ptr, u64::from);
        h.section::<_, 8>(&self.row_idx, u64::from);
        h.section::<_, 8>(&self.col_idx, u64::from);
        h.section::<_, 4>(&self.masks, u64::from);
        h.section::<_, 1>(&self.vals, |v| v.to_f64().to_bits());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample(seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(40, 40);
        let mut state = seed | 1;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            coo.push(
                (state % 40) as u32,
                (state / 64 % 40) as u32,
                (state % 17) as f64 - 8.0,
            );
        }
        coo.to_csr()
    }

    #[test]
    fn equal_content_hashes_equal() {
        let a = sample(3);
        let b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn different_values_or_structure_change_the_hash() {
        let a = sample(3);
        let mut b = a.clone();
        b.vals[0] += 1.0;
        assert_ne!(a.content_hash(), b.content_hash());
        let c = sample(4);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn dimensions_are_part_of_the_content() {
        // Same (empty) structure, different shapes.
        let a = Csr::<f64>::zero(8, 8);
        let b = Csr::<f64>::zero(8, 9);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn hash_ignores_allocation_capacity() {
        let a = sample(9);
        let mut b = a.clone();
        b.vals.reserve(1024);
        b.colidx.reserve(1024);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn tiled_hash_is_canonical_and_domain_separated() {
        let a = sample(5);
        let ta = TileMatrix::from_csr(&a);
        let tb = TileMatrix::from_csr(&a.clone());
        assert_eq!(ta.content_hash(), tb.content_hash());
        // Tiled and CSR forms of the same matrix live in different hash
        // domains, so their ids never alias.
        assert_ne!(ta.content_hash(), a.content_hash());
        let tc = TileMatrix::from_csr(&sample(6));
        assert_ne!(ta.content_hash(), tc.content_hash());
    }

    #[test]
    fn golden_values_pin_the_hash_on_every_platform() {
        // The hash is defined on explicit little-endian words; these values
        // are registry handles clients may have stored, so a change here is
        // a protocol-visible break.
        let a = sample(3);
        assert_eq!(a.content_hash(), 0x9011_9894_9361_7f3d);
        assert_eq!(
            TileMatrix::from_csr(&a).content_hash(),
            0xfae7_e188_5cf6_810a
        );
    }

    #[test]
    fn sign_flips_swaps_and_moved_nonzeros_change_the_hash() {
        let a = sample(7);
        let base = a.content_hash();
        // Flipping the sign bits of two values: word-wise FNV cancels here.
        let mut flipped = a.clone();
        flipped.vals[1] = -flipped.vals[1];
        flipped.vals[6] = -flipped.vals[6];
        assert_ne!(flipped.content_hash(), base);
        // The same two flips four words apart land in one lane.
        let mut same_lane = a.clone();
        same_lane.vals[2] = -same_lane.vals[2];
        same_lane.vals[6] = -same_lane.vals[6];
        assert_ne!(same_lane.content_hash(), base);
        // Swapping two distinct values.
        let (i, j) = (0..a.vals.len())
            .flat_map(|i| (i + 1..a.vals.len()).map(move |j| (i, j)))
            .find(|&(i, j)| a.vals[i] != a.vals[j])
            .expect("the sample has distinct values");
        let mut swapped = a.clone();
        swapped.vals.swap(i, j);
        assert_ne!(swapped.content_hash(), base);
        // Moving the last nonzero of a row to the start of the next row:
        // same column and value arrays, one row pointer differs.
        let row = (0..a.nrows - 1)
            .find(|&r| a.rowptr[r + 1] > a.rowptr[r])
            .expect("a non-empty row");
        let mut moved = a.clone();
        moved.rowptr[row + 1] -= 1;
        assert_ne!(moved.content_hash(), base);
    }

    #[test]
    fn signed_zeros_hash_apart_and_widened_equal_values_collide() {
        let mut plus = Csr::<f64>::identity(4);
        plus.vals[2] = 0.0;
        let mut minus = plus.clone();
        minus.vals[2] = -0.0;
        assert_ne!(plus.content_hash(), minus.content_hash());
        let tp = TileMatrix::from_csr(&plus);
        let tm = TileMatrix::from_csr(&minus);
        assert_ne!(tp.content_hash(), tm.content_hash());
        // f32 and f64 matrices with equal widened values are one operand.
        let a = sample(11);
        let narrow = Csr::<f32> {
            nrows: a.nrows,
            ncols: a.ncols,
            rowptr: a.rowptr.clone(),
            colidx: a.colidx.clone(),
            vals: a.vals.iter().map(|&v| v as f32).collect(),
        };
        assert_eq!(narrow.content_hash(), a.content_hash());
        assert_eq!(
            TileMatrix::from_csr(&narrow).content_hash(),
            TileMatrix::from_csr(&a).content_hash()
        );
    }
}
