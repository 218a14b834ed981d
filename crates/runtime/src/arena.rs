//! Per-worker reusable scratch arenas for the step-2/step-3 hot path.
//!
//! On the GPU the paper's kernels keep all per-tile working state — matched
//! pair lists, 16 row bitmasks, a 256-slot accumulator — in registers and
//! shared memory; nothing is allocated per tile. The CPU port originally
//! re-created the growable part of that state (the pair lists) with fresh
//! `Vec`s inside each parallel task, which shows up as ~75 allocation sites
//! on the hot path; the fixed-size part lives on the kernels' stacks. A
//! [`ScratchPool`] is the CPU analogue of shared memory: each worker checks
//! out a [`Scratch`] once per task chunk, the lists grow to their high-water
//! size during the first few tiles, and from then on steady-state execution
//! performs zero heap allocations.
//!
//! Accounting: [`ScratchPool::reserve`] sets aside one arena per worker of a
//! running multiply — taken off the free list, created if the list runs
//! short, and with list capacities sized to bounds the caller derives from
//! its operands ([`ScratchSizes`]) — and charges their footprint to a
//! [`MemTracker`] (with an `arena.grow` failpoint so tests can force the
//! charge to fail). The multiply's workers check out of that
//! [`ScratchReservation`] only, so concurrent multiplies on one pool each
//! find their own sized arenas; [`ScratchReservation::bytes`] lets the
//! caller reconcile any growth beyond the charge. The pool never frees
//! scratch between multiplies — reuse is the whole point — so the owner
//! credits the tracker when the operation that charged it completes, and
//! the reservation hands its arenas back to the pool when it drops.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::tracker::{BudgetExceeded, MemTracker};

/// Reusable per-worker working state for one in-flight tile task: the
/// lists whose length depends on the operands. The numeric kernels keep
/// their fixed-size tile state (row masks, the 256-slot accumulator, the
/// expanded B rows) on their own stacks.
///
/// The vectors keep their capacity across [`Scratch::reset`], so a warmed
/// scratch serves any later tile without touching the allocator.
#[derive(Debug, Default)]
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
}

impl Scratch {
    /// Clears lengths (not capacities). The slot table keeps its length:
    /// its entries are reset row by row.
    pub fn reset(&mut self) {
        self.pos_pairs.clear();
        self.id_pairs.clear();
        self.row_pairs.clear();
    }

    /// Heap bytes held by the lists.
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
    /// itself (four list headers) boxed on the heap.
    pub const BASE_BYTES: usize = std::mem::size_of::<Scratch>();

    /// The whole footprint: the struct plus its lists' heap bytes.
    fn footprint(&self) -> usize {
        Self::BASE_BYTES + self.heap_bytes()
    }
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

/// Boxed arenas: checkout and checkin move a pointer, and a guard hands out
/// a stable address while the list it came from reallocates.
#[allow(clippy::vec_box)]
type Arenas = Mutex<Vec<Box<Scratch>>>;

/// A pool of [`Scratch`] arenas shared by the workers of one or many
/// multiplies, successive or concurrent.
///
/// A multiply takes its workers' arenas out with [`ScratchPool::reserve`]
/// and its workers check them out of the returned [`ScratchReservation`] at
/// task-chunk start; each guard hands its scratch back on drop. The pool
/// tracks its total footprint (`BASE_BYTES` + heap bytes per arena) and a
/// high-water mark.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Idle arenas: neither reserved nor checked out.
    free: Arenas,
    /// Arenas ever created (idle, reserved or checked out).
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

    /// Sets aside `count` arenas for one running multiply — one per worker
    /// — with lists holding `sizes` entries, and charges their footprint to
    /// `tracker` ([`ScratchReservation::charged`]; the caller credits it
    /// back when the tracked operation completes). Idle arenas are taken
    /// first and new ones created for the rest, so concurrent multiplies on
    /// one pool each hold `count` arenas of their own.
    ///
    /// Sizing the lists up front to bounds the caller derives from its
    /// operands means no arena grows mid-phase, so no worker's checkout
    /// depends on which worker happened to draw the heaviest tile or tile
    /// row, nor on what another multiply is running.
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
    ) -> Result<ScratchReservation<'_>, BudgetExceeded> {
        let mut free = self.free.lock();
        let kept = free.len().saturating_sub(count);
        let missing = count - (free.len() - kept);
        let taken = &free[kept..];
        let growth = missing * (Scratch::BASE_BYTES + Scratch::default().growth(sizes))
            + taken.iter().map(|s| s.growth(sizes)).sum::<usize>();
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
        let charge = taken.iter().map(|s| s.footprint()).sum::<usize>() + growth;
        tracker.on_alloc(charge)?;
        let mut arenas = free.split_off(kept);
        drop(free);
        let before: usize = arenas.iter().map(|s| s.footprint()).sum();
        arenas.extend((0..missing).map(|_| Box::<Scratch>::default()));
        for s in arenas.iter_mut() {
            s.reserve_for(sizes);
        }
        self.created.fetch_add(missing, Ordering::Relaxed);
        // Record what the allocator actually handed out; any excess over
        // the predicted charge surfaces in the caller's end-of-run
        // reconciliation against `ScratchReservation::bytes`.
        self.add_bytes(arenas.iter().map(|s| s.footprint()).sum::<usize>() - before);
        Ok(ScratchReservation {
            pool: self,
            arenas: Mutex::new(arenas),
            charged: charge,
        })
    }
}

/// The arenas [`ScratchPool::reserve`] set aside for one running multiply.
/// Its workers check out of it; dropping it hands every arena back to the
/// pool's idle list.
#[derive(Debug)]
pub struct ScratchReservation<'p> {
    pool: &'p ScratchPool,
    arenas: Arenas,
    charged: usize,
}

impl ScratchReservation<'_> {
    /// Bytes the reservation charged to the tracker: the footprint of its
    /// arenas once sized.
    pub fn charged(&self) -> usize {
        self.charged
    }

    /// Current footprint of the reservation's checked-in arenas — all of
    /// them once the multiply's parallel phases have joined. Above
    /// [`Self::charged`] only if a checkout grew an arena past its reserved
    /// sizes, or found none left and created one.
    pub fn bytes(&self) -> usize {
        self.arenas.lock().iter().map(|s| s.footprint()).sum()
    }

    /// Checks out one of the reservation's arenas (creating one in the pool
    /// if all are out), reset and ready for use. The guard returns it here
    /// on drop and folds any buffer growth into the pool's footprint
    /// accounting.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        let scratch = self.arenas.lock().pop().unwrap_or_else(|| {
            self.pool.created.fetch_add(1, Ordering::Relaxed);
            self.pool.add_bytes(Scratch::BASE_BYTES);
            Box::default()
        });
        let mut guard = ScratchGuard {
            bytes_at_checkout: scratch.heap_bytes(),
            scratch: Some(scratch),
            owner: self,
        };
        guard.reset();
        guard
    }
}

impl Drop for ScratchReservation<'_> {
    fn drop(&mut self) {
        self.pool.free.lock().append(self.arenas.get_mut());
    }
}

/// RAII checkout of a [`Scratch`] from a [`ScratchReservation`].
#[derive(Debug)]
pub struct ScratchGuard<'r> {
    scratch: Option<Box<Scratch>>,
    bytes_at_checkout: usize,
    owner: &'r ScratchReservation<'r>,
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
            self.owner.pool.add_bytes(grown);
        }
        self.owner.arenas.lock().push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One arena, reserved without list sizes.
    fn reserve_one(pool: &ScratchPool) -> ScratchReservation<'_> {
        pool.reserve(1, ScratchSizes::default(), &MemTracker::new())
            .unwrap()
    }

    #[test]
    fn checkout_reuses_warmed_arenas() {
        let pool = ScratchPool::new();
        let r = reserve_one(&pool);
        {
            let mut s = r.checkout();
            s.pos_pairs.reserve(1024);
            s.row_pairs.push((1, 2, 3));
        }
        drop(r);
        assert_eq!(pool.created(), 1);
        let r = reserve_one(&pool);
        let s = r.checkout();
        // Same arena back: capacity survives, state is reset.
        assert!(s.pos_pairs.capacity() >= 1024);
        assert!(s.pos_pairs.is_empty() && s.row_pairs.is_empty());
        drop(s);
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn footprint_tracks_growth_and_high_water() {
        let pool = ScratchPool::new();
        assert_eq!(pool.bytes(), 0);
        let r = reserve_one(&pool);
        {
            let mut s = r.checkout();
            s.slots.reserve_exact(256);
        }
        let after_growth = pool.bytes();
        assert!(after_growth >= Scratch::BASE_BYTES + 256 * 4);
        assert_eq!(pool.high_water_bytes(), after_growth);
        assert_eq!(r.bytes(), after_growth, "the growth is the reservation's");
        // A second checkout of the same arena adds nothing.
        drop(r.checkout());
        assert_eq!(pool.bytes(), after_growth);
    }

    #[test]
    fn reserve_creates_and_charges() {
        let tracker = MemTracker::new();
        let pool = ScratchPool::new();
        let r = pool.reserve(3, ScratchSizes::default(), &tracker).unwrap();
        let charged = r.charged();
        assert_eq!(pool.created(), 3);
        assert_eq!(charged, 3 * Scratch::BASE_BYTES);
        assert_eq!(tracker.current_bytes(), charged);
        {
            let mut s = r.checkout();
            s.row_pairs.reserve_exact(100);
        }
        drop(r);
        // A later reserve takes the same arenas back and charges their
        // grown footprint.
        tracker.on_free(charged);
        let r = pool.reserve(3, ScratchSizes::default(), &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(r.charged(), pool.bytes());
        assert!(r.charged() > charged);
        tracker.on_free(r.charged());
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
        let r = pool.reserve(2, sizes, &tracker).unwrap();
        let charged = r.charged();
        assert_eq!(charged, 2 * (Scratch::BASE_BYTES + list_bytes));
        assert_eq!(pool.bytes(), charged, "the charge is the footprint");
        for _ in 0..2 {
            let mut s = r.checkout();
            assert!(s.pos_pairs.capacity() >= 40 && s.id_pairs.capacity() >= 40);
            s.pos_pairs.extend((0..40).map(|i| (i, i)));
            s.id_pairs.extend((0..40).map(|i| (i, i)));
            s.slots.resize(64, u32::MAX);
            s.row_pairs.extend((0..30).map(|i| (i, i, i)));
        }
        assert_eq!(r.bytes(), charged, "filling to the bound grows nothing");
        drop(r);
        assert_eq!(pool.bytes(), charged);
        // The same reservation again charges the same total: the charge is
        // a function of (count, sizes), not of what earlier runs drew.
        tracker.on_free(charged);
        assert_eq!(pool.reserve(2, sizes, &tracker).unwrap().charged(), charged);
        let smaller = ScratchSizes {
            pairs: 10,
            slots: 8,
            row_pairs: 1,
        };
        assert_eq!(
            pool.reserve(2, smaller, &tracker).unwrap().charged(),
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

    /// Two multiplies sharing a pool reserve at once, each for two workers
    /// and with its own sizes, and hold all four arenas checked out at the
    /// same time: each finds its own sized arenas, and no checkout grows.
    #[test]
    fn concurrent_reservations_each_find_their_sized_arenas() {
        let tracker = MemTracker::new();
        let pool = ScratchPool::new();
        let both_reserved = std::sync::Barrier::new(2);
        let all_out = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for n in [64usize, 512] {
                let (pool, tracker) = (&pool, &tracker);
                let (both_reserved, all_out) = (&both_reserved, &all_out);
                scope.spawn(move || {
                    let sizes = ScratchSizes {
                        pairs: n,
                        slots: n,
                        row_pairs: n,
                    };
                    let r = pool.reserve(2, sizes, tracker).unwrap();
                    both_reserved.wait();
                    let mut guards = [r.checkout(), r.checkout()];
                    all_out.wait();
                    for s in &mut guards {
                        s.pos_pairs.extend((0..n as u32).map(|i| (i, i)));
                        s.id_pairs.extend((0..n as u32).map(|i| (i, i)));
                        s.slots.resize(n, u32::MAX);
                        s.row_pairs.extend((0..n as u32).map(|i| (i, i, i)));
                    }
                    drop(guards);
                    assert_eq!(r.bytes(), r.charged(), "a checkout grew at size {n}");
                    tracker.on_free(r.charged());
                });
            }
        });
        assert_eq!(pool.created(), 4, "two arenas per running multiply");
        assert_eq!(pool.free.lock().len(), 4, "every arena handed back");
        assert_eq!(tracker.current_bytes(), 0);
    }

    #[test]
    fn a_panicking_task_hands_back_an_empty_slot_table() {
        let pool = ScratchPool::new();
        let r = reserve_one(&pool);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = r.checkout();
            s.slots.resize(8, u32::MAX);
            s.slots[3] = 0;
            panic!("mid-row");
        }));
        assert!(caught.is_err());
        let s = r.checkout();
        assert!(s.slots.is_empty(), "a half-set table is not handed out");
        assert!(s.slots.capacity() >= 8, "its capacity is kept");
    }

    #[test]
    fn concurrent_checkouts_get_distinct_arenas() {
        use rayon::prelude::*;
        let pool = ScratchPool::new();
        let r = reserve_one(&pool);
        (0..64usize).into_par_iter().for_each(|i| {
            let mut s = r.checkout();
            s.row_pairs.push((i as u32, 0, 0));
            assert_eq!(s.row_pairs.len(), 1);
        });
        assert!(pool.created() >= 1);
        // All checked back in, and handed to the pool with the reservation.
        assert_eq!(r.arenas.lock().len(), pool.created());
        drop(r);
        assert_eq!(pool.free.lock().len(), pool.created());
    }
}
