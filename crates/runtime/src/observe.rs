//! Structured observability: spans, counters, and recorders.
//!
//! The paper's whole evaluation is measurement — per-step breakdowns
//! (Figure 10), peak device memory (Figures 7/9), accumulator and
//! intersection ablations — and a serving stack needs the same numbers *per
//! job, while running*. This module is the zero-dependency substrate both
//! layers share:
//!
//! * [`Recorder`] — the trait the pipeline reports into: named **spans**
//!   nested under a job id (enter/exit) and monotonic **counters**
//!   ([`Counter`]).
//! * [`NullRecorder`] — the disabled fast path. [`Recorder::is_enabled`]
//!   returns `false`, so instrumented hot loops skip their bookkeeping
//!   entirely; the measured overhead against the uninstrumented seed
//!   pipeline is within noise (see `DESIGN.md` §9 for the methodology and
//!   the committed numbers in `BENCH_pipeline.json`).
//! * [`CollectingRecorder`] — keeps everything: a lock-free sharded counter
//!   array aggregated across rayon workers into a [`MetricsSnapshot`], and a
//!   per-job span tree ([`SpanNode`]) for tests, benches, and the engine's
//!   `profile`/`wait` protocol responses.
//!
//! Counter flushes from worker threads land in cache-line-padded shards
//! indexed by a per-thread slot, so parallel tile tasks do not contend on a
//! single atomic. Spans are phase-granular (a handful per multiply), so a
//! mutex-guarded tree is fine there.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// The monotonic counters the pipeline and engine report.
///
/// Each variant is one slot in a [`MetricsSnapshot`]; the meaning (and the
/// ground truth each is tested against) is documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(usize)]
pub enum Counter {
    /// Output tiles visited by the per-tile symbolic phase (step 2). Equals
    /// the step-1 structure's nnz — one visit per predicted output tile.
    TilesVisited,
    /// Matched `(A_ik, B_kj)` tile pairs found by the set intersection,
    /// summed over all output tiles.
    MatchedPairs,
    /// Set-intersection lookups issued: for binary search, one per element
    /// of the shorter tile list; for merge, one per pointer advance bound
    /// (`|a| + |b|`). A cheap, deterministic proxy for intersection work.
    IntersectionProbes,
    /// Step-3 tiles accumulated through the rank-based sparse accumulator.
    SparseAccPicks,
    /// Step-3 tiles accumulated through the dense 256-slot accumulator.
    DenseAccPicks,
    /// Bytes attributed to the device through a [`crate::MemTracker`] with
    /// this recorder attached.
    BytesAlloc,
    /// Bytes credited back to the device through an attached tracker.
    BytesFreed,
    /// Output tiles whose intersection resolved to the binary-search kernel
    /// (the chosen-kernel histogram of `IntersectionKind::Adaptive`; fixed
    /// kinds also report here so the three picks always sum to the visited
    /// tiles).
    IsectBinaryPicks,
    /// Output tiles whose intersection resolved to the merge kernel.
    IsectMergePicks,
    /// Output tiles whose intersection resolved to the bitmap kernel.
    IsectBitmapPicks,
    /// Completed jobs whose measured peak was ≤ ¼ of the admission estimate
    /// (log₂(peak/est) ≤ −2: the estimator over-predicted by 4× or more).
    EstErrLeQuarter,
    /// Completed jobs with log₂(peak/est) = −1 (estimate 2–4× the peak).
    EstErrHalf,
    /// Completed jobs whose estimate landed within 2× of the measured peak
    /// (log₂(peak/est) = 0) — the estimator's "got it right" bucket.
    EstErrWithin2x,
    /// Completed jobs with log₂(peak/est) = +1 (peak 2–4× the estimate).
    EstErrDouble,
    /// Completed jobs whose measured peak was ≥ 4× the admission estimate
    /// (log₂(peak/est) ≥ +2: the under-prediction band admission control
    /// must band-limit, per the OCEAN estimation plan).
    EstErrGeQuad,
    /// Serving sessions opened (`open_session`).
    SessionsOpened,
    /// Jobs accepted into a serving-session queue (single or batched).
    ServeEnqueued,
    /// Backpressure hints issued to clients because a session queue stayed
    /// full past its hold window (the replacement for queue-full shedding).
    ServeBackpressureHints,
    /// Jobs parked by deferred admission (estimate exceeded the *free*
    /// device budget at dispatch time) before being re-evaluated.
    ServeDeferred,
    /// Jobs that arrived as members of a `multiply_many` batch.
    ServeBatchJobs,
    /// Multiply links of chain and power expressions (a chain of `n`
    /// operands has `n - 1` links; plain multiplies have none). An engine
    /// `Chain`/`Power` job adds its links when it completes; `tsg-serve`,
    /// which lowers `chain`/`power` requests to batches of linked
    /// multiplies, adds a batch's links when it queues the batch.
    ChainLinks,
    /// Masked-multiply jobs completed (`MaskedMultiply`, or a chain whose
    /// final link carried a mask).
    MaskedJobs,
    /// Completed jobs whose admission estimate came from the sampled
    /// symbolic pass (an `est_sample_*` band was attached).
    EstSampleJobs,
    /// Tile rows measured by sampled estimates, summed over completed jobs
    /// — `est_sample_rows / est_sample_jobs` is the mean sample size.
    EstSampleRows,
    /// Sampled estimates that measured the whole population (sample rate
    /// reached 100% of tile rows; the band had zero width).
    EstSampleExact,
    /// Multiply-shaped jobs whose estimate fell back to the constant
    /// compression model: sampling disabled, the `engine.estimate_sample`
    /// failpoint, or operands with no materialized structure to sample.
    EstSampleFallback,
    /// Step-3 tiles run through the SIMD sparse kernel (lane-built rank
    /// tables). A subset of `sparse_acc_picks`; zero on the scalar path.
    SimdSparsePicks,
    /// Step-3 tiles run through the SIMD dense micro-kernel (the paper's
    /// `tnnz` rule, or a masked tile the mask cut, picked the dense
    /// accumulator). A subset of `dense_acc_picks`; zero on the scalar path.
    SimdDensePicks,
}

/// Number of counter slots. Kept in sync with [`Counter`]; new counters are
/// appended (the enum is `#[non_exhaustive]`).
pub const COUNTER_COUNT: usize = 28;

/// Every counter, in slot order, with its snake_case wire name.
pub const COUNTERS: [(Counter, &str); COUNTER_COUNT] = [
    (Counter::TilesVisited, "tiles_visited"),
    (Counter::MatchedPairs, "matched_pairs"),
    (Counter::IntersectionProbes, "intersection_probes"),
    (Counter::SparseAccPicks, "sparse_acc_picks"),
    (Counter::DenseAccPicks, "dense_acc_picks"),
    (Counter::BytesAlloc, "bytes_alloc"),
    (Counter::BytesFreed, "bytes_freed"),
    (Counter::IsectBinaryPicks, "isect_binary_picks"),
    (Counter::IsectMergePicks, "isect_merge_picks"),
    (Counter::IsectBitmapPicks, "isect_bitmap_picks"),
    (Counter::EstErrLeQuarter, "est_err_le_quarter"),
    (Counter::EstErrHalf, "est_err_half"),
    (Counter::EstErrWithin2x, "est_err_within_2x"),
    (Counter::EstErrDouble, "est_err_double"),
    (Counter::EstErrGeQuad, "est_err_ge_quad"),
    (Counter::SessionsOpened, "sessions_opened"),
    (Counter::ServeEnqueued, "serve_enqueued"),
    (Counter::ServeBackpressureHints, "serve_backpressure_hints"),
    (Counter::ServeDeferred, "serve_deferred"),
    (Counter::ServeBatchJobs, "serve_batch_jobs"),
    (Counter::ChainLinks, "chain_links"),
    (Counter::MaskedJobs, "masked_jobs"),
    (Counter::EstSampleJobs, "est_sample_jobs"),
    (Counter::EstSampleRows, "est_sample_rows"),
    (Counter::EstSampleExact, "est_sample_exact"),
    (Counter::EstSampleFallback, "est_sample_fallback"),
    (Counter::SimdSparsePicks, "simd_sparse_picks"),
    (Counter::SimdDensePicks, "simd_dense_picks"),
];

/// The five estimator-error buckets in ascending log₂(peak/est) order, so a
/// report can print the histogram without naming each variant.
pub const EST_ERR_BUCKETS: [Counter; 5] = [
    Counter::EstErrLeQuarter,
    Counter::EstErrHalf,
    Counter::EstErrWithin2x,
    Counter::EstErrDouble,
    Counter::EstErrGeQuad,
];

/// Buckets a completed job's estimator error: `log₂(peak/est)` rounded to
/// the nearest integer and clamped to `[-2, +2]`, mapped onto the five
/// `est_err_*` counters. A zero estimate or peak lands in the saturating end
/// buckets (`peak == 0` → most over-predicted, `est == 0` → most
/// under-predicted), so every completed job falls in exactly one bucket.
pub fn est_error_bucket(est_bytes: usize, peak_bytes: usize) -> Counter {
    if peak_bytes == 0 {
        return Counter::EstErrLeQuarter;
    }
    if est_bytes == 0 {
        return Counter::EstErrGeQuad;
    }
    let log2 = (peak_bytes as f64 / est_bytes as f64).log2().round();
    match log2 as i64 {
        i64::MIN..=-2 => Counter::EstErrLeQuarter,
        -1 => Counter::EstErrHalf,
        0 => Counter::EstErrWithin2x,
        1 => Counter::EstErrDouble,
        _ => Counter::EstErrGeQuad,
    }
}

impl Counter {
    /// The counter's slot index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The counter's stable snake_case name (used on the JSON wire).
    pub fn name(self) -> &'static str {
        COUNTERS[self.index()].1
    }
}

/// An aggregated, point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, indexed by [`Counter::index`].
    pub totals: [u64; COUNTER_COUNT],
}

impl MetricsSnapshot {
    /// The total for one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.totals[counter.index()]
    }

    /// Iterates `(counter, name, total)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, &'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .map(move |&(c, name)| (c, name, self.totals[c.index()]))
    }

    /// Difference `self - earlier`, saturating at zero per slot. Used to
    /// attribute a window (e.g. one job) out of cumulative totals.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut totals = [0u64; COUNTER_COUNT];
        for (slot, t) in totals.iter_mut().enumerate() {
            *t = self.totals[slot].saturating_sub(earlier.totals[slot]);
        }
        MetricsSnapshot { totals }
    }
}

/// A queue-depth gauge: current depth plus its high-water mark. Unlike the
/// monotonic [`Counter`]s this goes up *and* down, so it lives outside the
/// [`Recorder`] snapshot; the serving layer keeps one per session and one
/// global, and reports both through the `stats` verb.
#[derive(Debug, Default)]
pub struct QueueGauge {
    depth: AtomicU64,
    high_water: AtomicU64,
}

impl QueueGauge {
    /// A gauge at depth zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` entries arriving; returns the new depth.
    pub fn add(&self, n: u64) -> u64 {
        let depth = self.depth.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        depth
    }

    /// Records `n` entries leaving (saturating at zero).
    pub fn sub(&self, n: u64) {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .depth
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current depth.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// A wait-time gauge: accumulated wait and sample count, so a stats report
/// can show the mean queue wait of a session without keeping per-job state.
#[derive(Debug, Default)]
pub struct WaitGauge {
    total_micros: AtomicU64,
    samples: AtomicU64,
}

impl WaitGauge {
    /// A gauge with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one wait.
    pub fn record(&self, wait: Duration) {
        self.total_micros
            .fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded wait.
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_micros.load(Ordering::Relaxed))
    }

    /// Number of recorded waits.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Mean wait over the recorded samples (zero when empty).
    pub fn mean(&self) -> Duration {
        self.total_micros
            .load(Ordering::Relaxed)
            .checked_div(self.samples())
            .map_or(Duration::ZERO, Duration::from_micros)
    }
}

/// Identifier of an open span, returned by [`Recorder::span_enter`] and
/// passed back to [`Recorder::span_exit`].
///
/// `SpanId::NULL` marks "no span" (the [`NullRecorder`] path); exits with it
/// are no-ops everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    /// The job the span belongs to.
    pub job: u64,
    /// Index of the span within the job's tree; `u32::MAX` means null.
    pub idx: u32,
}

impl SpanId {
    /// The "no span" sentinel.
    pub const NULL: SpanId = SpanId {
        job: 0,
        idx: u32::MAX,
    };

    /// Whether this is the null sentinel.
    pub fn is_null(self) -> bool {
        self.idx == u32::MAX
    }
}

/// The sink the pipeline and engine report observations into.
///
/// Implementations must be cheap when disabled: callers gate per-tile
/// bookkeeping on [`Recorder::is_enabled`], but still issue the handful of
/// phase-level span calls unconditionally, so those must be O(1) no-ops on a
/// disabled recorder.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Whether observations are being kept. Hot loops skip their local
    /// bookkeeping when this is `false`.
    fn is_enabled(&self) -> bool;

    /// Opens a named span under `job`, nested inside the job's currently
    /// open span (if any).
    fn span_enter(&self, job: u64, name: &'static str) -> SpanId;

    /// Closes a span opened by [`Recorder::span_enter`], recording its wall
    /// time. Must accept [`SpanId::NULL`] as a no-op.
    fn span_exit(&self, span: SpanId);

    /// Adds `n` to a counter.
    fn add(&self, counter: Counter, n: u64);

    /// Current aggregated counter totals.
    fn snapshot(&self) -> MetricsSnapshot;
}

/// The compiled-out fast path: keeps nothing, answers `false` to
/// [`Recorder::is_enabled`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }

    fn span_enter(&self, _job: u64, _name: &'static str) -> SpanId {
        SpanId::NULL
    }

    fn span_exit(&self, _span: SpanId) {}

    fn add(&self, _counter: Counter, _n: u64) {}

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// A shared [`NullRecorder`], for call sites that need an `Arc<dyn Recorder>`
/// without allocating one each time.
pub fn null_recorder() -> Arc<dyn Recorder> {
    Arc::new(NullRecorder)
}

/// Counter shards. 16 shards × cache-line padding keeps rayon workers from
/// bouncing one cache line; 16 ≥ the worker counts the simulated devices use.
const SHARDS: usize = 16;

/// One cache-line-padded shard of counter slots.
#[repr(align(64))]
#[derive(Debug)]
struct Shard {
    slots: [AtomicU64; COUNTER_COUNT],
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Returns this thread's shard index. Threads are dealt shards round-robin
/// on first use; the assignment is stable for the thread's lifetime.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// One recorded span: name, position in the job's tree, and wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's name (e.g. `"step2"`).
    pub name: &'static str,
    /// Wall time between enter and exit. Zero until the span exits.
    pub elapsed: Duration,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Finds the first direct child with `name`.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// Flat span record while a job's tree is being built.
#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    parent: Option<u32>,
    start: Instant,
    elapsed: Duration,
}

/// Span state of one job: flat nodes plus the currently-open stack.
#[derive(Debug, Default)]
struct JobSpans {
    nodes: Vec<OpenSpan>,
    stack: Vec<u32>,
}

impl JobSpans {
    /// Reassembles the flat records into trees of the root spans.
    fn to_trees(&self) -> Vec<SpanNode> {
        // Children attach in index order, which is open order.
        let mut trees: Vec<SpanNode> = Vec::new();
        // Map flat index -> path of child positions, built incrementally.
        let mut paths: Vec<Vec<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let built = SpanNode {
                name: node.name,
                elapsed: node.elapsed,
                children: Vec::new(),
            };
            match node.parent {
                None => {
                    trees.push(built);
                    paths.push(vec![trees.len() - 1]);
                }
                Some(p) => {
                    let mut path = paths[p as usize].clone();
                    let slot = {
                        let parent = resolve_mut(&mut trees, &path);
                        parent.children.push(built);
                        parent.children.len() - 1
                    };
                    path.push(slot);
                    paths.push(path);
                }
            }
        }
        trees
    }
}

/// Walks `path` (root index, then child positions) to a mutable node.
fn resolve_mut<'a>(trees: &'a mut [SpanNode], path: &[usize]) -> &'a mut SpanNode {
    let mut node = &mut trees[path[0]];
    for &c in &path[1..] {
        node = &mut node.children[c];
    }
    node
}

/// A recorder that keeps everything: sharded counters plus per-job span
/// trees. Used by tests, the benches, and the engine's `--profile` mode.
#[derive(Debug)]
pub struct CollectingRecorder {
    shards: [Shard; SHARDS],
    spans: Mutex<Vec<(u64, JobSpans)>>,
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingRecorder {
    /// An empty collecting recorder.
    pub fn new() -> Self {
        CollectingRecorder {
            shards: std::array::from_fn(|_| Shard::default()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorded span trees of `job`, roots in open order. Empty if the
    /// job recorded no spans.
    pub fn span_tree(&self, job: u64) -> Vec<SpanNode> {
        self.spans
            .lock()
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, s)| s.to_trees())
            .unwrap_or_default()
    }

    /// Job ids that have recorded spans, in first-seen order.
    pub fn jobs(&self) -> Vec<u64> {
        self.spans.lock().iter().map(|(j, _)| *j).collect()
    }

    /// Drops all recorded spans and zeroes the counters.
    pub fn reset(&self) {
        self.spans.lock().clear();
        for shard in &self.shards {
            for slot in &shard.slots {
                slot.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Recorder for CollectingRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, job: u64, name: &'static str) -> SpanId {
        let mut spans = self.spans.lock();
        let entry = match spans.iter_mut().position(|(j, _)| *j == job) {
            Some(i) => &mut spans[i].1,
            None => {
                spans.push((job, JobSpans::default()));
                &mut spans.last_mut().expect("just pushed").1
            }
        };
        let idx = entry.nodes.len() as u32;
        entry.nodes.push(OpenSpan {
            name,
            parent: entry.stack.last().copied(),
            start: Instant::now(),
            elapsed: Duration::ZERO,
        });
        entry.stack.push(idx);
        SpanId { job, idx }
    }

    fn span_exit(&self, span: SpanId) {
        if span.is_null() {
            return;
        }
        let mut spans = self.spans.lock();
        if let Some((_, entry)) = spans.iter_mut().find(|(j, _)| *j == span.job) {
            if let Some(node) = entry.nodes.get_mut(span.idx as usize) {
                node.elapsed = node.start.elapsed();
            }
            // Pop the stack down to (and including) this span; exits arrive
            // in LIFO order from well-formed instrumentation, but tolerate
            // an out-of-order exit by unwinding past it.
            if let Some(pos) = entry.stack.iter().rposition(|&i| i == span.idx) {
                entry.stack.truncate(pos);
            }
        }
    }

    fn add(&self, counter: Counter, n: u64) {
        self.shards[shard_index()].slots[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = [0u64; COUNTER_COUNT];
        for shard in &self.shards {
            for (slot, t) in totals.iter_mut().enumerate() {
                *t += shard.slots[slot].load(Ordering::Relaxed);
            }
        }
        MetricsSnapshot { totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.is_enabled());
        let span = r.span_enter(1, "x");
        assert!(span.is_null());
        r.span_exit(span);
        r.add(Counter::TilesVisited, 10);
        assert_eq!(r.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        use rayon::prelude::*;
        let r = CollectingRecorder::new();
        (0..1000usize).into_par_iter().for_each(|_| {
            r.add(Counter::MatchedPairs, 3);
            r.add(Counter::TilesVisited, 1);
        });
        let snap = r.snapshot();
        assert_eq!(snap.get(Counter::MatchedPairs), 3000);
        assert_eq!(snap.get(Counter::TilesVisited), 1000);
        assert_eq!(snap.get(Counter::DenseAccPicks), 0);
    }

    #[test]
    fn span_tree_nests_under_the_open_parent() {
        let r = CollectingRecorder::new();
        let job = r.span_enter(7, "job");
        let s1 = r.span_enter(7, "step1");
        r.span_exit(s1);
        let s2 = r.span_enter(7, "step2");
        let inner = r.span_enter(7, "scan");
        r.span_exit(inner);
        r.span_exit(s2);
        r.span_exit(job);

        let trees = r.span_tree(7);
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.name, "job");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "step1");
        let step2 = root.child("step2").expect("step2 child");
        assert_eq!(step2.children[0].name, "scan");
        assert!(root.elapsed >= step2.elapsed);
        // Other jobs are independent.
        assert!(r.span_tree(8).is_empty());
        assert_eq!(r.jobs(), vec![7]);
    }

    #[test]
    fn snapshot_since_subtracts_per_slot() {
        let r = CollectingRecorder::new();
        r.add(Counter::BytesAlloc, 100);
        let before = r.snapshot();
        r.add(Counter::BytesAlloc, 50);
        r.add(Counter::BytesFreed, 150);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.get(Counter::BytesAlloc), 50);
        assert_eq!(delta.get(Counter::BytesFreed), 150);
    }

    #[test]
    fn counter_names_are_stable_and_in_slot_order() {
        for (i, (c, name)) in COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.name(), *name);
        }
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.iter().count(), COUNTER_COUNT);
    }

    #[test]
    fn est_error_buckets_cover_the_ratio_line() {
        // Exact powers of two land in their own buckets…
        assert_eq!(est_error_bucket(400, 100), Counter::EstErrLeQuarter);
        assert_eq!(est_error_bucket(200, 100), Counter::EstErrHalf);
        assert_eq!(est_error_bucket(100, 100), Counter::EstErrWithin2x);
        assert_eq!(est_error_bucket(100, 200), Counter::EstErrDouble);
        assert_eq!(est_error_bucket(100, 400), Counter::EstErrGeQuad);
        // …the tails saturate…
        assert_eq!(est_error_bucket(1 << 30, 1), Counter::EstErrLeQuarter);
        assert_eq!(est_error_bucket(1, 1 << 30), Counter::EstErrGeQuad);
        // …and degenerate inputs still land in exactly one bucket.
        assert_eq!(est_error_bucket(100, 0), Counter::EstErrLeQuarter);
        assert_eq!(est_error_bucket(0, 100), Counter::EstErrGeQuad);
        // The committed burst's worst row: est 4.5 MB vs peak 69 MB is the
        // ≥4× under-prediction band.
        assert_eq!(
            est_error_bucket(4_506_576, 69_326_916),
            Counter::EstErrGeQuad
        );
    }

    #[test]
    fn queue_gauge_tracks_depth_and_high_water() {
        let g = QueueGauge::new();
        assert_eq!(g.depth(), 0);
        assert_eq!(g.add(3), 3);
        assert_eq!(g.add(2), 5);
        g.sub(4);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.high_water(), 5);
        // Saturates instead of underflowing.
        g.sub(10);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn wait_gauge_reports_the_mean() {
        let g = WaitGauge::new();
        assert_eq!(g.mean(), Duration::ZERO);
        g.record(Duration::from_millis(10));
        g.record(Duration::from_millis(30));
        assert_eq!(g.samples(), 2);
        assert_eq!(g.mean(), Duration::from_millis(20));
        assert_eq!(g.total(), Duration::from_millis(40));
    }

    #[test]
    fn reset_clears_spans_and_counters() {
        let r = CollectingRecorder::new();
        let s = r.span_enter(1, "job");
        r.span_exit(s);
        r.add(Counter::TilesVisited, 5);
        r.reset();
        assert!(r.span_tree(1).is_empty());
        assert_eq!(r.snapshot(), MetricsSnapshot::default());
    }
}
