//! Offline stand-in for the `rayon` crate.
//!
//! This workspace vendors the subset of rayon's data-parallel iterator API it
//! actually uses, because the build environment has no network access to
//! crates.io. Unlike a serial mock, the executor here is genuinely parallel:
//! every terminal operation splits its indexed producer into small chunks and
//! drains them from a shared queue on `std::thread::scope` workers, so chunks
//! self-schedule dynamically — heavy chunks keep one worker busy while the
//! rest of the queue drains elsewhere. That property is what lets the
//! per-tile dispatch in `tilespgemm-core` balance uneven tiles.
//!
//! Supported surface (all of it exercised by this workspace):
//! * `par_iter` / `par_iter_mut` / `into_par_iter` (slices, `Vec`, ranges)
//! * `par_chunks` / `par_chunks_mut`
//! * `map`, `map_init`, `zip`, `enumerate`
//! * `for_each`, `for_each_init`, `sum`, `min`, `collect::<Vec<_>>`
//! * `current_num_threads`, `ThreadPoolBuilder` / `ThreadPool::install`

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread-count plumbing.
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Number of worker threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(default_threads)
}

/// Error from [`ThreadPoolBuilder::build`]. The shim never fails to build.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the options used here.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count (0 means the default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Accepted for API compatibility; worker threads are unnamed.
    pub fn thread_name<F: FnMut(usize) -> String>(self, _f: F) -> Self {
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads.unwrap_or_else(default_threads),
        })
    }
}

/// A logical pool: parallel operations inside [`ThreadPool::install`] use the
/// pool's thread count. Workers are spawned per operation (scoped), not kept
/// resident, which keeps the shim dependency-free.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count as the ambient parallelism.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(self.threads)));
        let out = f();
        THREAD_OVERRIDE.with(|o| o.set(prev));
        out
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

// ---------------------------------------------------------------------------
// The parallel iterator trait.
// ---------------------------------------------------------------------------

/// A splittable, exactly-sized source of items — the shim's fusion of rayon's
/// `ParallelIterator` + `IndexedParallelIterator` + `Producer` layers.
pub trait ParallelIterator: Sized + Send {
    /// Item type produced.
    type Item: Send;
    /// Sequential iterator a chunk decays to.
    type Seq: Iterator<Item = Self::Item>;

    /// Remaining items.
    fn pi_len(&self) -> usize;
    /// Splits into `[0, index)` and `[index, len)`.
    fn pi_split_at(self, index: usize) -> (Self, Self);
    /// Decays into a sequential iterator.
    fn pi_into_seq(self) -> Self::Seq;

    /// Maps each item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send + Clone,
    {
        Map { base: self, f }
    }

    /// Maps with per-chunk state created by `init`.
    fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
    where
        R: Send,
        INIT: Fn() -> T + Sync + Send + Clone,
        F: Fn(&mut T, Self::Item) -> R + Sync + Send + Clone,
    {
        MapInit {
            base: self,
            init,
            f,
        }
    }

    /// Pairs items positionally with another parallel iterator.
    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Attaches the item index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Runs `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_chunked(self, &|_, chunk: Self| chunk.pi_into_seq().for_each(&f));
    }

    /// Runs `f` on every item with per-chunk state from `init`.
    fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, Self::Item) + Sync + Send,
    {
        run_chunked(self, &|_, chunk: Self| {
            let mut state = init();
            for item in chunk.pi_into_seq() {
                f(&mut state, item);
            }
        });
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let partials: Mutex<Vec<S>> = Mutex::new(Vec::new());
        run_chunked(self, &|_, chunk: Self| {
            let part: S = chunk.pi_into_seq().sum();
            partials.lock().unwrap().push(part);
        });
        partials.into_inner().unwrap().into_iter().sum()
    }

    /// Minimum item, if any.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let partials: Mutex<Vec<Self::Item>> = Mutex::new(Vec::new());
        run_chunked(self, &|_, chunk: Self| {
            if let Some(m) = chunk.pi_into_seq().min() {
                partials.lock().unwrap().push(m);
            }
        });
        partials.into_inner().unwrap().into_iter().min()
    }

    /// Collects into a container (only `Vec<T>` is supported).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Collection from a parallel iterator (shim: `Vec` only).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds the collection, preserving item order.
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        let total = p.pi_len();
        let slots: Vec<Mutex<Vec<T>>> = (0..chunk_count(total))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        run_chunked(p, &|idx, chunk: P| {
            let mut out = Vec::with_capacity(chunk.pi_len());
            out.extend(chunk.pi_into_seq());
            *slots[idx].lock().unwrap() = out;
        });
        let mut result = Vec::with_capacity(total);
        for slot in slots {
            result.append(&mut slot.into_inner().unwrap());
        }
        result
    }
}

// ---------------------------------------------------------------------------
// The executor: chunk queue + scoped workers.
// ---------------------------------------------------------------------------

/// Number of chunks a `len`-item workload splits into (same formula the
/// executor uses, exposed so `collect` can pre-size its slot table).
fn chunk_count(len: usize) -> usize {
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 {
        return 1;
    }
    let target = threads * 4;
    let chunk = len.div_ceil(target).max(1);
    len.div_ceil(chunk)
}

fn run_chunked<P: ParallelIterator>(p: P, per_chunk: &(impl Fn(usize, P) + Sync)) {
    let len = p.pi_len();
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 {
        per_chunk(0, p);
        return;
    }
    let target = threads * 4;
    let chunk = len.div_ceil(target).max(1);
    // Peel chunks off the back. Splitting a `Vec`-backed producer moves the
    // items after the split point into a new buffer, so back-peeling moves
    // each item at most once; peeling off the front would re-copy the whole
    // remaining tail at every split.
    let mut chunks = Vec::with_capacity(len.div_ceil(chunk));
    let mut rest = p;
    let mut start = (len - 1) / chunk * chunk;
    while start > 0 {
        let (head, tail) = rest.pi_split_at(start);
        chunks.push(tail);
        rest = head;
        start -= chunk;
    }
    chunks.push(rest);
    chunks.reverse();
    debug_assert_eq!(chunks.len(), chunk_count(len));

    let queue: Vec<Mutex<Option<P>>> = chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(queue.len());
    let work = |with_override: bool| {
        // Leaf code running on a worker must not fan out again: nested
        // parallel calls inside a chunk would oversubscribe the machine.
        let prev = if with_override {
            THREAD_OVERRIDE.with(|o| o.replace(Some(1)))
        } else {
            None
        };
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= queue.len() {
                break;
            }
            let chunk = queue[i].lock().unwrap().take().expect("chunk taken twice");
            per_chunk(i, chunk);
        }
        if with_override {
            THREAD_OVERRIDE.with(|o| o.set(prev));
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| work(true));
        }
        work(false);
    });
}

// ---------------------------------------------------------------------------
// Concrete producers.
// ---------------------------------------------------------------------------

/// Parallel iterator over a range of integers.
pub struct RangeIter<T> {
    range: std::ops::Range<T>,
}

/// Integer types usable as parallel range endpoints. A single generic
/// `IntoParallelIterator` impl over this trait (rather than one impl per
/// integer type) lets `(0..n).into_par_iter()` with an untyped literal resolve
/// through the i32 fallback, matching rayon.
pub trait RangeInteger: Sized + Send + Copy {
    /// Length of `range` as a usize (0 when inverted).
    fn ri_len(range: &std::ops::Range<Self>) -> usize;
    /// `start` advanced by `by` positions.
    fn ri_advance(start: Self, by: usize) -> Self;
}

macro_rules! impl_range_integer {
    ($($t:ty),*) => {$(
        impl RangeInteger for $t {
            fn ri_len(range: &std::ops::Range<$t>) -> usize {
                (range.end.max(range.start) - range.start) as usize
            }
            fn ri_advance(start: $t, by: usize) -> $t {
                start + by as $t
            }
        }
    )*};
}

impl_range_integer!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

impl<T: RangeInteger> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Iter = RangeIter<T>;
    fn into_par_iter(self) -> RangeIter<T> {
        RangeIter { range: self }
    }
}

impl<T: RangeInteger> ParallelIterator for RangeIter<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Seq = std::ops::Range<T>;
    fn pi_len(&self) -> usize {
        T::ri_len(&self.range)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let mid = T::ri_advance(self.range.start, index);
        (
            RangeIter {
                range: self.range.start..mid,
            },
            RangeIter {
                range: mid..self.range.end,
            },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.range
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (SliceIter { slice: a }, SliceIter { slice: b })
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct SliceIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (SliceIterMut { slice: a }, SliceIterMut { slice: b })
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

/// Parallel iterator over fixed-size chunks of `&[T]`.
pub struct ChunksIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksIter<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (
            ChunksIter {
                slice: a,
                size: self.size,
            },
            ChunksIter {
                slice: b,
                size: self.size,
            },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

/// Parallel iterator over fixed-size chunks of `&mut [T]`.
pub struct ChunksIterMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksIterMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;
    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksIterMut {
                slice: a,
                size: self.size,
            },
            ChunksIterMut {
                slice: b,
                size: self.size,
            },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

/// Parallel iterator taking ownership of a `Vec`'s items. A split moves the
/// items after the split point into a new buffer; the head keeps the
/// original allocation.
pub struct VecIntoIter<T> {
    vec: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIntoIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;
    fn pi_len(&self) -> usize {
        self.vec.len()
    }
    fn pi_split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecIntoIter { vec: tail })
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

// ---------------------------------------------------------------------------
// Combinator producers.
// ---------------------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send + Clone,
{
    type Item = R;
    type Seq = std::iter::Map<P::Seq, F>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.base.pi_into_seq().map(self.f)
    }
}

/// Sequential side of [`MapInit`]: state is created lazily per chunk.
pub struct MapInitSeq<I, T, F> {
    inner: I,
    state: T,
    f: F,
}

impl<I, T, R, F> Iterator for MapInitSeq<I, T, F>
where
    I: Iterator,
    F: Fn(&mut T, I::Item) -> R,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        let item = self.inner.next()?;
        Some((self.f)(&mut self.state, item))
    }
}

/// See [`ParallelIterator::map_init`].
pub struct MapInit<P, INIT, F> {
    base: P,
    init: INIT,
    f: F,
}

impl<P, T, R, INIT, F> ParallelIterator for MapInit<P, INIT, F>
where
    P: ParallelIterator,
    R: Send,
    INIT: Fn() -> T + Sync + Send + Clone,
    F: Fn(&mut T, P::Item) -> R + Sync + Send + Clone,
{
    type Item = R;
    type Seq = MapInitSeq<P::Seq, T, F>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            MapInit {
                base: a,
                init: self.init.clone(),
                f: self.f.clone(),
            },
            MapInit {
                base: b,
                init: self.init,
                f: self.f,
            },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        MapInitSeq {
            inner: self.base.pi_into_seq(),
            state: (self.init)(),
            f: self.f,
        }
    }
}

/// See [`ParallelIterator::zip`]. Truncates to the shorter side, like rayon.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.a.pi_split_at(index);
        let (b1, b2) = self.b.pi_split_at(index);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn pi_into_seq(self) -> Self::Seq {
        self.a.pi_into_seq().zip(self.b.pi_into_seq())
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, P::Seq>;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.pi_split_at(index);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + index,
            },
        )
    }
    fn pi_into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.pi_into_seq())
    }
}

// ---------------------------------------------------------------------------
// Conversion traits.
// ---------------------------------------------------------------------------

/// Types convertible into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// The parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Performs the conversion.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIntoIter<T>;
    fn into_par_iter(self) -> VecIntoIter<T> {
        VecIntoIter { vec: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = SliceIterMut<'a, T>;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut { slice: self }
    }
}

macro_rules! impl_into_par_identity {
    ($name:ty, [$($g:tt)*]) => {
        impl<$($g)*> IntoParallelIterator for $name
        where
            Self: ParallelIterator,
        {
            type Item = <Self as ParallelIterator>::Item;
            type Iter = Self;
            fn into_par_iter(self) -> Self {
                self
            }
        }
    };
}

impl_into_par_identity!(RangeIter<T>, [T]);
impl_into_par_identity!(SliceIter<'a, T>, ['a, T]);
impl_into_par_identity!(SliceIterMut<'a, T>, ['a, T]);
impl_into_par_identity!(ChunksIter<'a, T>, ['a, T]);
impl_into_par_identity!(ChunksIterMut<'a, T>, ['a, T]);
impl_into_par_identity!(VecIntoIter<T>, [T]);
impl_into_par_identity!(Map<P, F>, [P, F]);
impl_into_par_identity!(MapInit<P, I, F>, [P, I, F]);
impl_into_par_identity!(Zip<A, B>, [A, B]);
impl_into_par_identity!(Enumerate<P>, [P]);

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over the elements.
    fn par_iter(&self) -> SliceIter<'_, T>;
    /// Parallel iterator over `size`-element chunks.
    fn par_chunks(&self, size: usize) -> ChunksIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { slice: self }
    }
    fn par_chunks(&self, size: usize) -> ChunksIter<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ChunksIter { slice: self, size }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T>;
    /// Parallel iterator over mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ChunksIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T> {
        SliceIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, size: usize) -> ChunksIterMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ChunksIterMut { slice: self, size }
    }
}

/// The traits parallel-iterator call sites need in scope.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_sum_matches_serial() {
        let par: u64 = (0u64..10_000).into_par_iter().sum();
        assert_eq!(par, (0u64..10_000).sum::<u64>());
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0usize..5_000).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v, (0..5_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zip_enumerate_for_each_writes_disjointly() {
        let mut a = vec![0usize; 1000];
        let mut b = vec![0usize; 1000];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                *x = i;
                *y = 2 * i;
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i));
        assert!(b.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn chunks_mut_fills_every_chunk() {
        let mut data = vec![0u8; 103];
        data.par_chunks_mut(10)
            .enumerate()
            .for_each(|(i, c)| c.fill(i as u8));
        assert_eq!(data[0], 0);
        assert_eq!(data[99], 9);
        assert_eq!(data[102], 10);
    }

    #[test]
    fn map_init_reuses_state_within_chunk() {
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0usize..10_000)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.push(i);
                    scratch.len()
                },
            )
            .collect();
        assert_eq!(out.len(), 10_000);
        // Far fewer inits than items proves per-chunk state reuse.
        assert!(inits.load(Ordering::Relaxed) <= 10_000 / 64);
    }

    /// An owned item that counts its drops in a shared table.
    struct Tracked<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn split_vecs_drop_each_item_once_and_keep_order_and_indices() {
        // 103 items cut into ragged multi-chunk regions: chunks of 13, 9 and
        // 4 items at 2, 3 and 8 threads.
        const N: usize = 103;
        for threads in [1usize, 2, 3, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let chunks = crate::chunk_count(N);
                assert_eq!(
                    chunks > 1,
                    threads > 1,
                    "{threads} threads: {chunks} chunks"
                );
                let drops: Vec<AtomicUsize> = (0..2 * N).map(|_| AtomicUsize::new(0)).collect();
                let items = |from: usize| -> Vec<Tracked<'_>> {
                    (from..from + N)
                        .map(|id| Tracked { id, drops: &drops })
                        .collect()
                };
                let dropped_once = |ids: std::ops::Range<usize>, what: &str| {
                    for id in ids {
                        let n = drops[id].swap(0, Ordering::Relaxed);
                        assert_eq!(n, 1, "{what} at {threads} threads: item {id} dropped {n}×");
                    }
                };

                let seen: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                items(0).into_par_iter().for_each(|t| {
                    seen[t.id].fetch_add(1, Ordering::Relaxed);
                });
                assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
                dropped_once(0..N, "for_each");

                let ids: Vec<usize> = items(0).into_par_iter().map(|t| t.id).collect();
                assert_eq!(ids, (0..N).collect::<Vec<_>>(), "map+collect order");
                dropped_once(0..N, "map+collect");

                // Collected items are moved, not dropped, until the result is.
                let kept: Vec<Tracked<'_>> = items(0).into_par_iter().map(|t| t).collect();
                assert!(kept.iter().map(|t| t.id).eq(0..N), "collect order");
                assert!(drops.iter().all(|d| d.load(Ordering::Relaxed) == 0));
                drop(kept);
                dropped_once(0..N, "collect");

                // Every index matches its item, so both sides of every chunk
                // boundary carry the right one.
                items(0)
                    .into_par_iter()
                    .zip(items(N))
                    .enumerate()
                    .for_each(|(i, (a, b))| {
                        assert_eq!((a.id, b.id), (i, N + i), "enumerate index");
                    });
                dropped_once(0..2 * N, "zip+enumerate");
            });
        }
    }

    #[test]
    fn min_on_vec_into_iter() {
        let v: Vec<i32> = (0..1000).rev().collect();
        assert_eq!(v.into_par_iter().min(), Some(0));
    }

    #[test]
    fn pool_install_controls_current_num_threads() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.install(crate::current_num_threads), 3);
    }

    #[test]
    fn serial_pool_still_runs_everything() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let total: usize = pool.install(|| (0usize..100).into_par_iter().map(|i| i + 1).sum());
        assert_eq!(total, 5050);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        if crate::current_num_threads() < 2 {
            return; // single-core CI runner: nothing to assert
        }
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        (0usize..256).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert!(ids.lock().unwrap().len() > 1);
    }
}
