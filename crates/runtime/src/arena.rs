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
//! list capacities, sized to bounds the caller derives from its operands
//! ([`ScratchSizes`]) — and charges the footprint to a [`MemTracker`] (with an `arena.grow` failpoint so
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
    /// Matched `(pos_a, pos_b)` list-position pairs (the per-tile
    /// intersection of the paper's step 2).
    pub pos_pairs: Vec<(u32, u32)>,
    /// Matched `(tile_a, tile_b)` flat tile-id pairs (the per-tile
    /// intersection's output, step 3's input on the paper path).
    pub id_pairs: Vec<(u32, u32)>,
    /// Step 2's row pass: per tile column, the position of that column's
    /// tile within the current tile row, or `u32::MAX`. Every entry is
    /// `u32::MAX` between rows; a row sets its own columns and resets them.
    pub slots: Vec<u32>,
    /// Step 2's row pass: the row's live pairs in walk order, as
    /// `(tile within the row, tile_a, tile_b)`.
    pub row_pairs: Vec<(u32, u32, u32)>,
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
            slots: Vec::new(),
            row_pairs: Vec::new(),
            masks: [0; MASK_ROWS],
            dense: [0.0; DENSE_SLOTS],
        }
    }
}

impl Scratch {
    /// Clears lengths (not capacities) and zeroes the masks. The slot
    /// table keeps its length: its entries are reset row by row.
    pub fn reset(&mut self) {
        self.pos_pairs.clear();
        self.id_pairs.clear();
        self.row_pairs.clear();
        self.masks = [0; MASK_ROWS];
    }

    /// Heap bytes held by the growable buffers (the fixed arrays are inline).
    pub fn heap_bytes(&self) -> usize {
        self.pos_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.id_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.row_pairs.capacity() * std::mem::size_of::<(u32, u32, u32)>()
    }

    /// Heap bytes [`Self::reserve_for`] would add for `sizes`: each list
    /// grows to exactly its size when it holds fewer entries.
    fn growth(&self, sizes: ScratchSizes) -> usize {
        fn short<E>(v: &Vec<E>, want: usize) -> usize {
            want.saturating_sub(v.capacity()) * std::mem::size_of::<E>()
        }
        short(&self.pos_pairs, sizes.pairs)
            + short(&self.id_pairs, sizes.pairs)
            + short(&self.slots, sizes.slots)
            + short(&self.row_pairs, sizes.row_pairs)
    }

    /// Grows every list to its size in `sizes` without reallocating later.
    /// An idle arena still holds its last task's entries, and
    /// `reserve_exact` counts from the length, so the lists are cleared
    /// first — all but the slot table, whose length is its state.
    fn reserve_for(&mut self, sizes: ScratchSizes) {
        self.reset();
        self.pos_pairs.reserve_exact(sizes.pairs);
        self.id_pairs.reserve_exact(sizes.pairs);
        self.slots
            .reserve_exact(sizes.slots.saturating_sub(self.slots.len()));
        self.row_pairs.reserve_exact(sizes.row_pairs);
    }

    /// Bytes one `Scratch` occupies regardless of list growth: the struct
    /// itself (inline masks + dense accumulator) boxed on the heap.
    pub const BASE_BYTES: usize = std::mem::size_of::<Scratch>();
}

/// List capacities every arena of a [`ScratchPool::reserve`] call holds,
/// each a bound the caller derives from its operands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchSizes {
    /// Entries of both per-tile intersection lists (`pos_pairs`,
    /// `id_pairs`): the most pairs one tile can match.
    pub pairs: usize,
    /// Entries of the row pass's slot table: `B`'s tile columns.
    pub slots: usize,
    /// Entries of the row pass's gathered pairs: the live pairs of the
    /// heaviest tile row.
    pub row_pairs: usize,
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
    /// lists hold `sizes` entries, charging the pool's *total* footprint to
    /// `tracker` and returning the charged byte count (the caller credits
    /// it back when the tracked operation completes).
    ///
    /// Sizing the lists up front to bounds the caller derives from its
    /// operands means no arena grows mid-phase, so the charge — and every
    /// peak that includes it — depends on the operands alone, not on which
    /// worker happened to draw the heaviest tile or tile row.
    ///
    /// Growth is fallible: the `arena.grow` failpoint (and the tracker's own
    /// budget) can refuse it, in which case nothing is charged and the pool
    /// keeps whatever arenas it already had — warmed scratch is never torn
    /// down by a failed reservation.
    pub fn reserve(
        &self,
        count: usize,
        sizes: ScratchSizes,
        tracker: &MemTracker,
    ) -> Result<usize, BudgetExceeded> {
        let mut free = self.free.lock();
        let missing = count.saturating_sub(self.created());
        let fresh = Scratch::default().growth(sizes);
        let growth = missing * (Scratch::BASE_BYTES + fresh)
            + free.iter().map(|s| s.growth(sizes)).sum::<usize>();
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
                s.reserve_for(sizes);
            }
            for _ in 0..missing {
                let mut s = Box::<Scratch>::default();
                s.reserve_for(sizes);
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
        let mut scratch = self.scratch.take().expect("scratch present until drop");
        // A task that panicked mid-row may leave slots set; an empty table
        // is refilled (within its capacity) by the next row pass.
        if std::thread::panicking() {
            scratch.slots.clear();
        }
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
            s.slots.reserve_exact(256);
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
        let charged = pool.reserve(3, ScratchSizes::default(), &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(charged, 3 * Scratch::BASE_BYTES);
        assert_eq!(tracker.current_bytes(), charged);
        // A later reserve charges the (possibly grown) total again.
        tracker.on_free(charged);
        {
            let mut s = pool.checkout();
            s.row_pairs.reserve_exact(100);
        }
        let charged2 = pool.reserve(3, ScratchSizes::default(), &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(charged2, pool.bytes());
        assert!(charged2 > charged);
        tracker.on_free(charged2);
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn reserve_presizes_lists_so_checkouts_never_grow() {
        let tracker = MemTracker::new();
        let pool = ScratchPool::new();
        let sizes = ScratchSizes {
            pairs: 40,
            slots: 64,
            row_pairs: 30,
        };
        let list_bytes = 2 * 40 * std::mem::size_of::<(u32, u32)>()
            + 64 * std::mem::size_of::<u32>()
            + 30 * std::mem::size_of::<(u32, u32, u32)>();
        let charged = pool.reserve(2, sizes, &tracker).unwrap();
        assert_eq!(charged, 2 * (Scratch::BASE_BYTES + list_bytes));
        assert_eq!(pool.bytes(), charged, "the charge is the footprint");
        for _ in 0..2 {
            let mut s = pool.checkout();
            assert!(s.pos_pairs.capacity() >= 40 && s.id_pairs.capacity() >= 40);
            s.pos_pairs.extend((0..40).map(|i| (i, i)));
            s.id_pairs.extend((0..40).map(|i| (i, i)));
            s.slots.resize(64, u32::MAX);
            s.row_pairs.extend((0..30).map(|i| (i, i, i)));
        }
        assert_eq!(pool.bytes(), charged, "filling to the bound grows nothing");
        // The same reservation again charges the same total: the charge is
        // a function of (count, sizes), not of what earlier runs drew.
        tracker.on_free(charged);
        assert_eq!(pool.reserve(2, sizes, &tracker).unwrap(), charged);
        let smaller = ScratchSizes {
            pairs: 10,
            slots: 8,
            row_pairs: 1,
        };
        assert_eq!(
            pool.reserve(2, smaller, &tracker).unwrap(),
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
        let sizes = ScratchSizes {
            pairs: 16,
            ..ScratchSizes::default()
        };
        let err = pool.reserve(2, sizes, &tracker).unwrap_err();
        assert_eq!(err.budget, 1);
        assert_eq!(tracker.current_bytes(), 0);
        assert_eq!(pool.created(), 0);
        assert_eq!(pool.bytes(), 0);
    }

    #[test]
    fn a_panicking_task_hands_back_an_empty_slot_table() {
        let pool = ScratchPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = pool.checkout();
            s.slots.resize(8, u32::MAX);
            s.slots[3] = 0;
            panic!("mid-row");
        }));
        assert!(caught.is_err());
        let s = pool.checkout();
        assert!(s.slots.is_empty(), "a half-set table is not handed out");
        assert!(s.slots.capacity() >= 8, "its capacity is kept");
    }

    #[test]
    fn concurrent_checkouts_get_distinct_arenas() {
        use rayon::prelude::*;
        let pool = ScratchPool::new();
        (0..64usize).into_par_iter().for_each(|i| {
            let mut s = pool.checkout();
            s.row_pairs.push((i as u32, 0, 0));
            assert_eq!(s.row_pairs.len(), 1);
        });
        assert!(pool.created() >= 1);
        // All checked back in.
        assert_eq!(pool.free.lock().len(), pool.created());
    }
}
