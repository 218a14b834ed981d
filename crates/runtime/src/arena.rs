//! Per-worker reusable scratch arenas for the step-2/step-3 hot path, and
//! the idle typed buffers every multiply's large arrays are recycled
//! through.
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
//!
//! Job buffers: the same pool keeps idle typed `Vec`s, the way KKMEM hands
//! its SpGEMM work memory out of a reusable pool. [`ScratchPool::take`]
//! checks out a buffer of the asked length — an idle one of the same type
//! whose capacity is within 2× of it, else a fresh one faulted in — as a
//! [`PooledBuf`] that goes back idle when it drops, or leaves the pool lent
//! with [`PooledBuf::into_vec`] (an output array that goes out with its
//! product); [`ScratchPool::give`] takes a buffer back. It keeps only
//! buffers larger than [`ALLOCATOR_MAPS_ABOVE`], the blocks the allocator
//! maps fresh every time; smaller ones pass through. The pool's idle,
//! checked-out and lent bytes together never exceed the high-water mark of
//! the bytes its checked-out and lent buffers were asked for — what the
//! same multiplies hold at their busiest without a pool — unless the
//! buffers in use alone do (a reused buffer holds up to twice what it was
//! asked for), and then none is idle: before a fresh allocation, and
//! whenever a buffer comes back, the least recently used idle buffers are
//! freed until they fit. Idle bytes are charged to no tracker.

use parking_lot::Mutex;
use std::any::{Any, TypeId};
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

/// The size above which [`ScratchPool::new`] keeps buffers: glibc's
/// `DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit targets. glibc's dynamic mmap
/// threshold never rises past it, so a larger block is always a fresh
/// mapping — faulted in page by page, unmapped on free — while a smaller
/// one, once the threshold has risen past its size, comes back from
/// glibc's own free lists already resident. Keeping those too would hold
/// the same memory twice, once idle here and once free there.
pub const ALLOCATOR_MAPS_ABOVE: usize = 32 << 20;

/// Boxed arenas: checkout and checkin move a pointer, and a guard hands out
/// a stable address while the list it came from reallocates.
#[allow(clippy::vec_box)]
type Arenas = Mutex<Vec<Box<Scratch>>>;

/// A pool of [`Scratch`] arenas and idle typed buffers shared by one or
/// many multiplies, successive or concurrent.
///
/// A multiply takes its workers' arenas out with [`ScratchPool::reserve`]
/// and its workers check them out of the returned [`ScratchReservation`] at
/// task-chunk start; each guard hands its scratch back on drop. The pool
/// tracks the arenas' total footprint (`BASE_BYTES` + heap bytes per
/// arena) and a high-water mark. Its per-multiply arrays come from
/// [`ScratchPool::take`] (see the module docs), counted apart from the
/// arenas in [`ScratchPool::buffer_stats`].
#[derive(Debug)]
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
    /// Idle typed buffers and their bookkeeping.
    buffers: Mutex<Buffers>,
    /// Buffers of at most this many bytes pass through.
    keep_above: usize,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters of a [`ScratchPool`]'s typed buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Checkouts of a buffer the pool keeps that an idle one served.
    pub reused: u64,
    /// Checkouts of a buffer the pool keeps that allocated a fresh one.
    pub fresh: u64,
    /// Bytes of the idle buffers.
    pub idle_bytes: usize,
    /// Bytes of the buffers checked out now.
    pub checked_out_bytes: usize,
    /// Bytes of the buffers lent out with [`PooledBuf::into_vec`] and not
    /// given back yet (a buffer given back settles at most what is lent;
    /// one that is never given back stays counted).
    pub lent_bytes: usize,
    /// High-water mark of the bytes checked-out and lent buffers were
    /// asked for — what the same multiplies hold at once without a pool —
    /// which bounds idle, checked-out and lent bytes together. (A reused
    /// buffer may hold up to twice what it was asked for.)
    pub high_water_bytes: usize,
}

/// One idle buffer: a boxed `Vec<E>` with its element type and capacity
/// in bytes.
struct IdleBuf {
    buf: Box<dyn Any + Send>,
    elem: TypeId,
    bytes: usize,
    /// Value of [`Buffers::clock`] when the buffer went idle.
    used: u64,
}

impl std::fmt::Debug for IdleBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdleBuf")
            .field("bytes", &self.bytes)
            .field("used", &self.used)
            .finish()
    }
}

#[derive(Debug, Default)]
struct Buffers {
    idle: Vec<IdleBuf>,
    /// Ticks once per buffer that goes idle, ordering them by last use.
    clock: u64,
    stats: BufferStats,
    /// Bytes the checked-out buffers were asked for.
    asked_out: usize,
    /// Bytes the lent buffers were asked for.
    asked_lent: usize,
}

impl Buffers {
    /// Adds `buf` to the idle buffers, then trims them to the bound. The
    /// caller drops what comes back after releasing the lock.
    fn park<E: Copy + Send + 'static>(&mut self, buf: Vec<E>) -> Vec<IdleBuf> {
        self.clock += 1;
        let bytes = buf.capacity() * std::mem::size_of::<E>();
        self.idle.push(IdleBuf {
            buf: Box::new(buf),
            elem: TypeId::of::<E>(),
            bytes,
            used: self.clock,
        });
        self.stats.idle_bytes += bytes;
        self.trim()
    }

    /// Records a checkout of `bytes` asked for, held in `held` bytes.
    fn check_out(&mut self, bytes: usize, held: usize) {
        self.asked_out += bytes;
        self.stats.checked_out_bytes += held;
        let asked = self.asked_out + self.asked_lent;
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(asked);
    }

    /// Takes idle buffers out, least recently used first, until idle,
    /// checked-out and lent bytes fit under the high-water mark, or none is
    /// idle: reused buffers in use may hold more than was asked of them.
    fn trim(&mut self) -> Vec<IdleBuf> {
        let s = &mut self.stats;
        let mut evicted = Vec::new();
        while s.idle_bytes > 0
            && s.idle_bytes + s.checked_out_bytes + s.lent_bytes > s.high_water_bytes
        {
            let lru = (0..self.idle.len())
                .min_by_key(|&i| self.idle[i].used)
                .expect("idle bytes are held by idle buffers");
            let b = self.idle.swap_remove(lru);
            s.idle_bytes -= b.bytes;
            evicted.push(b);
        }
        evicted
    }
}

impl ScratchPool {
    /// An empty pool keeping buffers larger than [`ALLOCATOR_MAPS_ABOVE`].
    pub fn new() -> Self {
        Self::keeping_above(ALLOCATOR_MAPS_ABOVE)
    }

    /// An empty pool keeping buffers larger than `bytes`.
    pub fn keeping_above(bytes: usize) -> Self {
        ScratchPool {
            free: Arenas::default(),
            created: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            buffers: Mutex::new(Buffers::default()),
            keep_above: bytes,
        }
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
    /// — with lists holding `sizes` entries, and charges `tracker` what
    /// `count` arenas of those sizes take ([`ScratchReservation::charged`];
    /// the caller credits it back when the tracked operation completes).
    /// Idle arenas are taken first and new ones created for the rest, so
    /// concurrent multiplies on one pool each hold `count` arenas of their
    /// own.
    ///
    /// Sizing the lists up front to bounds the caller derives from its
    /// operands means no arena grows mid-phase, so no worker's checkout
    /// depends on which worker happened to draw the heaviest tile or tile
    /// row, nor on what another multiply is running. The charge is computed
    /// from the sizes, not from the taken arenas' footprint, so it does not
    /// depend on which earlier multiply warmed them either.
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
        let charge = count * (Scratch::BASE_BYTES + Scratch::default().growth(sizes));
        tracker.on_alloc(charge)?;
        let mut arenas = free.split_off(kept);
        drop(free);
        let before: usize = arenas.iter().map(|s| s.footprint()).sum();
        arenas.extend((0..missing).map(|_| Box::<Scratch>::default()));
        for s in arenas.iter_mut() {
            s.reserve_for(sizes);
        }
        self.created.fetch_add(missing, Ordering::Relaxed);
        // Record what the allocator actually handed out; any growth past
        // the reserved sizes surfaces in the caller's end-of-run
        // reconciliation against `ScratchReservation::grown`.
        let reserved = arenas.iter().map(|s| s.footprint()).sum::<usize>();
        self.add_bytes(reserved - before);
        Ok(ScratchReservation {
            pool: self,
            arenas: Mutex::new(arenas),
            charged: charge,
            reserved,
        })
    }

    /// Checks out a buffer of `len` elements for an array the caller
    /// overwrites in full before reading it: a reused buffer holds whatever
    /// its last user left, a fresh one `zero`s.
    ///
    /// A fresh buffer has every page touched, so a buffer the allocator
    /// maps fresh is resident before the phase that fills it. A buffer the
    /// pool keeps (see [`Self::keeping_above`]) is served by an idle one of
    /// the same element type whose capacity is within 2× of `len` (the
    /// smallest such, the most recently used among equals) if there is one;
    /// before a fresh one is allocated, the least recently used idle
    /// buffers are freed until idle and in-use bytes fit under their bound
    /// (see [`BufferStats::high_water_bytes`]).
    pub fn take<E: Copy + Send + 'static>(&self, len: usize, zero: E) -> PooledBuf<'_, E> {
        self.checkout_buf(len, zero, false)
    }

    /// [`Self::take`] for an array the caller reads before it writes: every
    /// element is `zero`.
    pub fn take_zeroed<E: Copy + Send + 'static>(&self, len: usize, zero: E) -> PooledBuf<'_, E> {
        self.checkout_buf(len, zero, true)
    }

    fn checkout_buf<E: Copy + Send + 'static>(
        &self,
        len: usize,
        zero: E,
        zeroed: bool,
    ) -> PooledBuf<'_, E> {
        let size = std::mem::size_of::<E>();
        if len.saturating_mul(size) <= self.keep_above || size == 0 {
            return PooledBuf {
                pool: self,
                buf: if len == 0 {
                    Vec::new()
                } else {
                    faulted(vec![zero; len])
                },
                bytes: 0,
                asked: 0,
                fresh: true,
            };
        }
        let mut b = self.buffers.lock();
        let fits = len * size..=len.saturating_mul(2 * size);
        let hit = (0..b.idle.len())
            .filter(|&i| b.idle[i].elem == TypeId::of::<E>() && fits.contains(&b.idle[i].bytes))
            .min_by_key(|&i| (b.idle[i].bytes, std::cmp::Reverse(b.idle[i].used)));
        if let Some(i) = hit {
            let idle = b.idle.swap_remove(i);
            b.stats.idle_bytes -= idle.bytes;
            b.check_out(len * size, idle.bytes);
            b.stats.reused += 1;
            drop(b);
            let mut buf = *idle
                .buf
                .downcast::<Vec<E>>()
                .expect("an idle buffer holds its recorded element type");
            if zeroed {
                buf.clear();
            }
            buf.resize(len, zero);
            return PooledBuf {
                pool: self,
                buf,
                bytes: idle.bytes,
                asked: len * size,
                fresh: false,
            };
        }
        let bytes = len * size;
        b.check_out(bytes, bytes);
        b.stats.fresh += 1;
        let evicted = b.trim();
        drop(b);
        drop(evicted);
        PooledBuf {
            pool: self,
            buf: faulted(vec![zero; len]),
            bytes,
            asked: bytes,
            fresh: true,
        }
    }

    /// Takes back a buffer lent out by [`PooledBuf::into_vec`] — or any
    /// buffer the pool keeps; it drops others — as idle, settling its bytes
    /// against the lent counts, then frees idle buffers, least recently
    /// used first, while idle, checked-out and lent bytes exceed their
    /// bound (`buf` itself last).
    pub fn give<E: Copy + Send + 'static>(&self, buf: Vec<E>) {
        let size = std::mem::size_of::<E>();
        if buf.capacity() * size <= self.keep_above || size == 0 {
            return;
        }
        let evicted = {
            let mut b = self.buffers.lock();
            let (held, asked) = (buf.capacity() * size, buf.len() * size);
            b.stats.lent_bytes -= held.min(b.stats.lent_bytes);
            b.asked_lent -= asked.min(b.asked_lent);
            b.park(buf)
        };
        drop(evicted);
    }

    /// The typed buffers' counters.
    pub fn buffer_stats(&self) -> BufferStats {
        self.buffers.lock().stats
    }
}

/// Stores to one element of every 4 KiB page of `v`, so a buffer the
/// allocator mapped fresh (zero pages the kernel has not backed yet) is
/// resident before the phase that fills it. Each store rewrites the value
/// already there, through a volatile write: a plain store of a value the
/// compiler knows to be zero could be elided.
fn faulted<T: Copy>(mut v: Vec<T>) -> Vec<T> {
    let step = (4096 / std::mem::size_of::<T>().max(1)).max(1);
    for x in v.iter_mut().step_by(step) {
        let value = *x;
        // SAFETY: `x` is a valid, aligned, exclusive reference.
        unsafe { std::ptr::write_volatile(x, value) };
    }
    v
}

/// A buffer checked out of a [`ScratchPool`] by [`ScratchPool::take`]. It
/// derefs to its elements, goes back to the pool's idle buffers when it
/// drops — a multiply that fails or panics returns what it checked out —
/// and leaves the pool lent with [`PooledBuf::into_vec`].
#[derive(Debug)]
pub struct PooledBuf<'p, E: Copy + Send + 'static> {
    pool: &'p ScratchPool,
    buf: Vec<E>,
    /// Bytes the checkout added to the pool's checked-out count: 0 for a
    /// buffer the pool does not keep.
    bytes: usize,
    /// Bytes the checkout asked for.
    asked: usize,
    /// Allocated by the checkout, so every element is the `zero` it was
    /// given; a reused buffer holds what its last user left.
    fresh: bool,
}

impl<E: Copy + Send + 'static> PooledBuf<'_, E> {
    /// Whether the checkout allocated the buffer, so every element is the
    /// `zero` it was given. A caller that reads an element of a
    /// [`ScratchPool::take`] buffer before writing it must clear it when
    /// this is `false`.
    pub fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// The buffer, moved from the checked-out count to the lent one: it
    /// stays counted against the pool's bound until someone
    /// [`ScratchPool::give`]s it back.
    pub fn into_vec(mut self) -> Vec<E> {
        if self.bytes > 0 {
            let b = &mut *self.pool.buffers.lock();
            b.stats.checked_out_bytes -= self.bytes;
            b.stats.lent_bytes += self.bytes;
            b.asked_out -= self.asked;
            b.asked_lent += self.asked;
        }
        self.bytes = 0;
        std::mem::take(&mut self.buf)
    }
}

impl<E: Copy + Send + 'static> std::ops::Deref for PooledBuf<'_, E> {
    type Target = [E];
    fn deref(&self) -> &[E] {
        &self.buf
    }
}

impl<E: Copy + Send + 'static> std::ops::DerefMut for PooledBuf<'_, E> {
    fn deref_mut(&mut self) -> &mut [E] {
        &mut self.buf
    }
}

impl<E: Copy + Send + 'static> Drop for PooledBuf<'_, E> {
    fn drop(&mut self) {
        if self.bytes == 0 {
            return;
        }
        let evicted = {
            let mut b = self.pool.buffers.lock();
            b.stats.checked_out_bytes -= self.bytes;
            b.asked_out -= self.asked;
            b.park(std::mem::take(&mut self.buf))
        };
        drop(evicted);
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
    /// Footprint of the arenas once sized.
    reserved: usize,
}

impl ScratchReservation<'_> {
    /// Bytes the reservation charged to the tracker: what its arenas take
    /// at the reserved sizes.
    pub fn charged(&self) -> usize {
        self.charged
    }

    /// Current footprint of the reservation's checked-in arenas — all of
    /// them once the multiply's parallel phases have joined. Warm arenas
    /// may hold longer lists than the reserved sizes.
    pub fn bytes(&self) -> usize {
        self.arenas.lock().iter().map(|s| s.footprint()).sum()
    }

    /// Bytes the arenas grew since they were reserved: nonzero only if a
    /// checkout grew an arena past its reserved sizes, or found none left
    /// and created one.
    pub fn grown(&self) -> usize {
        self.bytes().saturating_sub(self.reserved)
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
        // reserved sizes again, not the footprint they grew to.
        tracker.on_free(charged);
        let r = pool.reserve(3, ScratchSizes::default(), &tracker).unwrap();
        assert_eq!(pool.created(), 3);
        assert_eq!(r.charged(), charged);
        assert!(pool.bytes() > charged);
        assert_eq!(r.grown(), 0, "the growth predates the reservation");
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
        assert_eq!(r.grown(), 0);
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
        let smaller_bytes = 2 * 10 * std::mem::size_of::<(u32, u32)>()
            + 8 * std::mem::size_of::<u32>()
            + std::mem::size_of::<(u32, u32, u32)>();
        let r = pool.reserve(2, smaller, &tracker).unwrap();
        assert_eq!(
            r.charged(),
            2 * (Scratch::BASE_BYTES + smaller_bytes),
            "charged by its own sizes, not by the longer lists it holds"
        );
        assert_eq!(r.bytes(), charged, "the lists never shrink");
        tracker.on_free(charged + r.charged());
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
                    assert_eq!(r.grown(), 0, "a checkout grew at size {n}");
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
    fn take_reuses_an_idle_buffer_within_twice_the_request() {
        let pool = ScratchPool::keeping_above(0);
        let first = pool.take(100, 0u32);
        let ptr = first.as_ptr();
        drop(first);
        let again = pool.take(60, 0u32);
        assert_eq!(again.as_ptr(), ptr, "capacity 100 serves 60");
        assert_eq!(again.len(), 60);
        drop(again);
        assert_ne!(pool.take(40, 0u32).as_ptr(), ptr, "100 is over 2 × 40");
        assert_ne!(pool.take(120, 0u32).as_ptr(), ptr, "100 cannot hold 120");
        drop(pool.take(100, 0u16));
        let s = pool.buffer_stats();
        assert_eq!((s.reused, s.fresh), (1, 4), "element types do not mix");
        assert_eq!(s.checked_out_bytes, 0);
    }

    #[test]
    fn take_leaves_stale_elements_and_take_zeroed_clears_them() {
        let pool = ScratchPool::keeping_above(0);
        let mut b = pool.take(10, 0u32);
        assert!(b.iter().all(|&x| x == 0), "a fresh buffer holds zeros");
        b.fill(7);
        drop(b);
        assert_eq!(&pool.take(8, 0u32)[..], &[7; 8], "stale elements stay");
        let mut b = pool.take(10, 0u32);
        assert_eq!(&b[..8], &[7; 8]);
        assert_eq!(&b[8..], &[0; 2], "elements past the last length are zero");
        b.fill(9);
        drop(b);
        assert!(pool.take_zeroed(6, 0u32).iter().all(|&x| x == 0));
        assert_eq!(pool.buffer_stats().reused, 3);
    }

    #[test]
    fn idle_bytes_stay_under_the_checked_out_high_water() {
        let pool = ScratchPool::keeping_above(0);
        // Two buffers out at once set the bound: 300 bytes.
        let (a, b) = (pool.take(100, 0u8), pool.take(200, 0u8));
        let (a_ptr, b_ptr) = (a.as_ptr(), b.as_ptr());
        drop(a);
        drop(b);
        let s = pool.buffer_stats();
        assert_eq!((s.idle_bytes, s.high_water_bytes), (300, 300));
        // A miss of 30 bytes makes room by freeing the least recently used
        // idle buffer, the 100-byte one; the 200-byte one stays.
        drop(pool.take(30, 0u8));
        let s = pool.buffer_stats();
        assert_eq!((s.idle_bytes, s.high_water_bytes), (230, 300));
        assert_eq!(pool.take(150, 0u8).as_ptr(), b_ptr);
        let c = pool.take(100, 0u8);
        assert_ne!(c.as_ptr(), a_ptr, "freed, so allocated afresh");
        drop(c);
        assert!(pool.buffer_stats().idle_bytes <= 300);
    }

    #[test]
    fn a_buffer_leaves_with_into_vec_and_comes_back_with_give() {
        let pool = ScratchPool::keeping_above(0);
        let v = pool.take(64, 0u64).into_vec();
        let s = pool.buffer_stats();
        assert_eq!(
            (s.checked_out_bytes, s.lent_bytes, s.idle_bytes),
            (0, 512, 0)
        );
        assert_eq!(s.high_water_bytes, 512);
        let ptr = v.as_ptr();
        pool.give(v);
        let s = pool.buffer_stats();
        assert_eq!((s.lent_bytes, s.idle_bytes), (0, 512));
        assert_eq!(pool.take(40, 0u64).as_ptr(), ptr);
        // A buffer over the bound is freed as it comes back.
        pool.give(vec![0u64; 100]);
        assert_eq!(pool.buffer_stats().idle_bytes, 0);
        // So is everything once the bound is spent on checkouts.
        let out = pool.take(64, 0u64);
        pool.give(vec![0u64; 8]);
        assert_eq!(pool.buffer_stats().idle_bytes, 0);
        drop(out);
        assert_eq!(pool.buffer_stats().idle_bytes, 512);
    }

    #[test]
    fn buffers_up_to_the_floor_pass_through() {
        let pool = ScratchPool::keeping_above(1024);
        let small = pool.take(128, 0u64);
        assert_eq!(small.len(), 128);
        drop(small);
        pool.give(vec![0u64; 128]);
        assert_eq!(
            pool.buffer_stats(),
            BufferStats::default(),
            "1 KiB is not kept"
        );
        drop(pool.take(129, 0u64));
        let s = pool.buffer_stats();
        assert_eq!((s.fresh, s.idle_bytes), (1, 1032));
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
