//! Per-worker reusable scratch arenas for the step-2/step-3 hot path.
//!
//! On the GPU the paper's kernels keep all per-tile working state — matched
//! pair lists, 16 row bitmasks, a 256-slot accumulator — in registers and
//! shared memory; nothing is allocated per tile. The CPU port originally
//! re-created that state with fresh `Vec`s inside each parallel task, which
//! shows up as ~75 allocation sites on the hot path. A [`ScratchPool`] is
//! the CPU analogue of shared memory: each worker checks out a [`Scratch`]
//! once per task chunk, the buffers grow to their high-water size during the
//! first few tiles, and from then on steady-state execution performs zero
//! heap allocations.
//!
//! Accounting: [`ScratchPool::reserve`] pre-grows the pool — arena count and
//! pair-list capacity, sized to the caller's per-tile bound — and charges
//! the footprint to a [`MemTracker`] (with an `arena.grow` failpoint so
//! tests can force the charge to fail); [`ScratchPool::bytes`] and
//! [`ScratchPool::high_water_bytes`] let the caller reconcile any growth
//! beyond the reservation. The pool never frees scratch between multiplies —
//! reuse is the whole point — so the owner credits the tracker when the
//! operation that charged it completes.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::tracker::{BudgetExceeded, MemTracker};

/// Number of scalar slots in a dense per-tile accumulator (16 × 16).
pub const DENSE_SLOTS: usize = 256;
/// Rows per tile, and therefore mask words per tile.
pub const MASK_ROWS: usize = 16;

/// Reusable per-worker working state for one in-flight tile task.
///
/// The vectors keep their capacity across [`Scratch::reset`], so a warmed
/// scratch serves any later tile without touching the allocator. The
/// fixed-size arrays mirror the paper's shared-memory tile state.
#[derive(Debug)]
pub struct Scratch {
    /// Matched `(pos_a, pos_b)` list-position pairs (step 2 intersection).
    pub pos_pairs: Vec<(u32, u32)>,
    /// Matched `(tile_a, tile_b)` flat tile-id pairs (step 3 input).
    pub id_pairs: Vec<(u32, u32)>,
    /// Packed `u16` words (pair-buffer encoding scratch).
    pub words: Vec<u16>,
    /// General index scratch (ranks, offsets).
    pub idx: Vec<u32>,
    /// Per-row column bitmasks of the tile under construction.
    pub masks: [u16; MASK_ROWS],
    /// Dense accumulator slots (values are re-zeroed by the numeric kernel).
    pub dense: [f64; DENSE_SLOTS],
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            pos_pairs: Vec::new(),
            id_pairs: Vec::new(),
            words: Vec::new(),
            idx: Vec::new(),
            masks: [0; MASK_ROWS],
            dense: [0.0; DENSE_SLOTS],
        }
    }
}

impl Scratch {
    /// Clears lengths (not capacities) and zeroes the masks.
    pub fn reset(&mut self) {
        self.pos_pairs.clear();
        self.id_pairs.clear();
        self.words.clear();
        self.idx.clear();
        self.masks = [0; MASK_ROWS];
    }

    /// Heap bytes held by the growable buffers (the fixed arrays are inline).
    pub fn heap_bytes(&self) -> usize {
        self.pos_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.id_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.words.capacity() * std::mem::size_of::<u16>()
            + self.idx.capacity() * std::mem::size_of::<u32>()
    }

    /// Heap bytes [`Self::reserve_pairs`] would add for `pairs`: both pair
    /// lists grow to exactly `pairs` entries when they hold fewer.
    fn pair_growth(&self, pairs: usize) -> usize {
        let short = |v: &Vec<(u32, u32)>| pairs.saturating_sub(v.capacity());
        (short(&self.pos_pairs) + short(&self.id_pairs)) * std::mem::size_of::<(u32, u32)>()
    }

    /// Grows both pair lists to hold `pairs` entries without reallocating.
    /// An idle arena still holds its last tile's pairs, and `reserve_exact`
    /// counts from the length, so the lists are cleared first.
    fn reserve_pairs(&mut self, pairs: usize) {
        self.pos_pairs.clear();
        self.id_pairs.clear();
        self.pos_pairs.reserve_exact(pairs);
        self.id_pairs.reserve_exact(pairs);
    }

    /// Bytes one `Scratch` occupies regardless of list growth: the struct
    /// itself (inline masks + dense accumulator) boxed on the heap.
    pub const BASE_BYTES: usize = std::mem::size_of::<Scratch>();
}

/// A pool of [`Scratch`] arenas shared by the workers of one (or many
/// successive) multiplies.
///
/// Workers call [`ScratchPool::checkout`] at task-chunk start; the returned
/// guard hands the scratch back on drop. The pool tracks its total footprint
/// (`BASE_BYTES` + heap bytes per arena) and a high-water mark so callers
/// can fold scratch memory into `peak_bytes` reporting.
#[derive(Debug, Default)]
pub struct ScratchPool {
    // Boxed so checkout/checkin move a pointer, not the ~2 KB struct, and
    // the guard hands out a stable address while the free list reallocates.
    #[allow(clippy::vec_box)]
    free: Mutex<Vec<Box<Scratch>>>,
    /// Arenas ever created (free + checked out).
    created: AtomicUsize,
    /// Current total footprint of all arenas, updated at checkout/checkin
    /// boundaries (a checked-out arena's growth is folded in at checkin).
    bytes: AtomicUsize,
    /// High-water mark of [`Self::bytes`].
    high_water: AtomicUsize,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arenas ever created by this pool.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Current total footprint (struct + heap bytes of every arena), as of
    /// the last checkin of each arena.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::bytes`] over the pool's lifetime.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    fn add_bytes(&self, delta: usize) {
        let now = self.bytes.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Ensures at least `count` arenas exist and that every idle arena's
    /// pair lists hold `pair_cap` entries, charging the pool's *total*
    /// footprint to `tracker` and returning the charged byte count (the
    /// caller credits it back when the tracked operation completes).
    ///
    /// Sizing the lists up front to a per-tile bound the caller derives
    /// from its operands means no arena grows mid-phase, so the charge —
    /// and every peak that includes it — depends on the operands alone, not
    /// on which worker happened to draw the heaviest tile.
    ///
    /// Growth is fallible: the `arena.grow` failpoint (and the tracker's own
    /// budget) can refuse it, in which case nothing is charged and the pool
    /// keeps whatever arenas it already had — warmed scratch is never torn
    /// down by a failed reservation.
    pub fn reserve(
        &self,
        count: usize,
        pair_cap: usize,
        tracker: &MemTracker,
    ) -> Result<usize, BudgetExceeded> {
        let mut free = self.free.lock();
        let missing = count.saturating_sub(self.created());
        let fresh = Scratch::default().pair_growth(pair_cap);
        let growth = missing * (Scratch::BASE_BYTES + fresh)
            + free.iter().map(|s| s.pair_growth(pair_cap)).sum::<usize>();
        if growth > 0 {
            // Failpoint `arena.grow`: refuse pool growth before any arena is
            // built or charged, mirroring `tracker.alloc` semantics.
            #[cfg(feature = "failpoints")]
            if crate::failpoint::should_fail("arena.grow") {
                return Err(BudgetExceeded {
                    requested: growth,
                    in_use: tracker.current_bytes(),
                    budget: tracker.budget(),
                });
            }
        }
        let charge = self.bytes() + growth;
        tracker.on_alloc(charge)?;
        if growth > 0 {
            let heap = |free: &[Box<Scratch>]| free.iter().map(|s| s.heap_bytes()).sum::<usize>();
            let before = heap(&free);
            for s in free.iter_mut() {
                s.reserve_pairs(pair_cap);
            }
            for _ in 0..missing {
                let mut s = Box::<Scratch>::default();
                s.reserve_pairs(pair_cap);
                free.push(s);
            }
            self.created.fetch_add(missing, Ordering::Relaxed);
            // Record what the allocator actually handed out; any excess
            // over the predicted charge surfaces in the caller's
            // end-of-run reconciliation against `bytes()`.
            self.add_bytes(missing * Scratch::BASE_BYTES + heap(&free) - before);
        }
        Ok(charge)
    }

    /// Checks out an arena (creating one if the pool is empty), reset and
    /// ready for use. The guard returns it on drop and folds any buffer
    /// growth into the pool's footprint accounting.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        let scratch = self.free.lock().pop().unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            self.add_bytes(Scratch::BASE_BYTES);
            Box::default()
        });
        let mut guard = ScratchGuard {
            bytes_at_checkout: scratch.heap_bytes(),
            scratch: Some(scratch),
            pool: self,
        };
        guard.reset();
        guard
    }
}

/// RAII checkout of a [`Scratch`] from a [`ScratchPool`].
#[derive(Debug)]
pub struct ScratchGuard<'p> {
    scratch: Option<Box<Scratch>>,
    bytes_at_checkout: usize,
    pool: &'p ScratchPool,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let scratch = self.scratch.take().expect("scratch present until drop");
        let grown = scratch.heap_bytes().saturating_sub(self.bytes_at_checkout);
        if grown > 0 {
            self.pool.add_bytes(grown);
        }
        self.pool.free.lock().push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_warmed_arenas() {
        let pool = ScratchPool::new();
        {
            let mut s = pool.checkout();
            s.pos_pairs.reserve(1024);
            s.masks[3] = 0xffff;
        }
        assert_eq!(pool.created(), 1);
        let s = pool.checkout();
        // Same arena back: capacity survives, state is reset.
        assert!(s.pos_pairs.capacity() >= 1024);
        assert!(s.pos_pairs.is_empty());
        assert_eq!(s.masks, [0; MASK_ROWS]);
        drop(s);
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn footprint_tracks_growth_and_high_water() {
        let pool = ScratchPool::new();
        assert_eq!(pool.bytes(), 0);
        {
            let mut s = pool.checkout();
            s.idx.reserve_exact(256);
        }
        let after_growth = pool.bytes();
        assert!(after_growth >= Scratch::BASE_BYTES + 256 * 4);
        assert_eq!(pool.high_water_bytes(), after_growth);
        // A second checkout of the same arena adds nothing.
        drop(pool.checkout());
        assert_eq!(pool.bytes(), after_growth);
    }

    #[test]
    fn reserve_creates_and_charges() {
        let tracker = MemTracker::new();
        let pool = ScratchPool::new();
        let charged = pool.reserve(3, 0, &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(charged, 3 * Scratch::BASE_BYTES);
        assert_eq!(tracker.current_bytes(), charged);
        // A later reserve charges the (possibly grown) total again.
        tracker.on_free(charged);
        {
            let mut s = pool.checkout();
            s.words.reserve_exact(100);
        }
        let charged2 = pool.reserve(3, 0, &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(charged2, pool.bytes());
        assert!(charged2 > charged);
        tracker.on_free(charged2);
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn reserve_presizes_pair_lists_so_checkouts_never_grow() {
        let tracker = MemTracker::new();
        let pool = ScratchPool::new();
        let pair_bytes = 2 * 40 * std::mem::size_of::<(u32, u32)>();
        let charged = pool.reserve(2, 40, &tracker).unwrap();
        assert_eq!(charged, 2 * (Scratch::BASE_BYTES + pair_bytes));
        assert_eq!(pool.bytes(), charged, "the charge is the footprint");
        for _ in 0..2 {
            let mut s = pool.checkout();
            assert!(s.pos_pairs.capacity() >= 40 && s.id_pairs.capacity() >= 40);
            s.pos_pairs.extend((0..40).map(|i| (i, i)));
            s.id_pairs.extend((0..40).map(|i| (i, i)));
        }
        assert_eq!(pool.bytes(), charged, "filling to the bound grows nothing");
        // The same reservation again charges the same total: the charge is
        // a function of (count, bound), not of what earlier runs drew.
        tracker.on_free(charged);
        assert_eq!(pool.reserve(2, 40, &tracker).unwrap(), charged);
        assert_eq!(
            pool.reserve(2, 10, &tracker).unwrap(),
            charged,
            "never shrinks"
        );
        tracker.on_free(2 * charged);
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn reserve_over_budget_fails_cleanly() {
        let tracker = MemTracker::with_budget(1);
        let pool = ScratchPool::new();
        let err = pool.reserve(2, 16, &tracker).unwrap_err();
        assert_eq!(err.budget, 1);
        assert_eq!(tracker.current_bytes(), 0);
        assert_eq!(pool.created(), 0);
        assert_eq!(pool.bytes(), 0);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_arenas() {
        use rayon::prelude::*;
        let pool = ScratchPool::new();
        (0..64usize).into_par_iter().for_each(|i| {
            let mut s = pool.checkout();
            s.idx.push(i as u32);
            assert_eq!(s.idx.len(), 1);
        });
        assert!(pool.created() >= 1);
        // All checked back in.
        assert_eq!(pool.free.lock().len(), pool.created());
    }
}
