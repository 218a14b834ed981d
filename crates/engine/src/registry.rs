//! Content-addressed matrix registry with a cached, LRU-evicted tiled form.
//!
//! The TileSpGEMM paper (and Ocean after it) points out that the CSR→tiled
//! conversion costs several single-product runtimes and only pays off when
//! amortized across repeated multiplies. The registry is where that
//! amortization lives: matrices are stored once (keyed by
//! [`Csr::content_hash`], so re-loading the same operand dedupes), and the
//! tiled conversion is built lazily on first use, cached, and evicted
//! least-recently-used when the cache's byte budget — accounted through the
//! same [`MemTracker`] machinery the multiply pipeline uses — fills up.
//!
//! Entries come in two flavours since the op-expression redesign:
//!
//! * **CSR-primary** ([`Registry::insert`]) — the classic form: the CSR is
//!   authoritative, the tiled form is a cache line that LRU eviction may
//!   drop and a later lookup rebuilds.
//! * **Tiled-primary / resident** ([`Registry::insert_tiled`]) — pipeline
//!   products registered straight from their tiled form, keyed by
//!   [`TileMatrix::content_hash`]. The tiled form *is* the data, so it is
//!   never LRU-evicted and its bytes live outside the cache budget
//!   ([`Registry::resident_bytes`]); the CSR form is derived lazily only if
//!   a client asks for it ([`RegistryStats::csr_derivations`] counts those —
//!   a chained multiply that stays tiled keeps the counter at zero).
//!
//! Nothing is pinned: a job holds its resolved operands as `Arc`s, so an
//! eviction never disturbs a running job. A served chain runs one job per
//! link, so an operand evicted between links is converted again; its
//! intermediates are resident entries, which eviction never takes.
//!
//! Each entry also memoizes the sampled estimates of the products it was
//! the left operand of (DESIGN §14.5). A sampled estimate is a
//! bit-reproducible function of both operands' contents, the engine's fixed
//! sample rate, and a seed derived from the two handles; handles are content
//! hashes, so a memoized estimate is exactly the one sampling again would
//! compute.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tsg_matrix::{Csr, Footprint, TileMatrix};
use tsg_runtime::{MemTracker, Recorder};

use crate::estimate::JobEstimate;
use crate::EngineError;

/// Content-derived identifier of a registered matrix.
///
/// Displays as `m` + 16 hex digits (e.g. `m00c0ffee00c0ffee`), which is also
/// the wire form the JSON protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixId(pub u64);

impl fmt::Display for MatrixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{:016x}", self.0)
    }
}

impl std::str::FromStr for MatrixId {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        let hex = s.strip_prefix('m').ok_or(())?;
        u64::from_str_radix(hex, 16).map(MatrixId).map_err(|_| ())
    }
}

/// Counters describing registry behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// CSR→tiled conversions performed (cached or not).
    pub conversions: u64,
    /// Tiled lookups served from the cache.
    pub cache_hits: u64,
    /// Tiled lookups that had to convert.
    pub cache_misses: u64,
    /// Cached tiled forms dropped to make room.
    pub evictions: u64,
    /// Conversions whose result could not be cached even after evicting
    /// everything (matrix larger than the whole cache budget).
    pub uncached_conversions: u64,
    /// Tiled→CSR derivations performed for resident (tiled-primary)
    /// entries. A chain that stays in the tiled format end to end leaves
    /// this at zero; every increment is a materialization a client opted
    /// into.
    pub csr_derivations: u64,
    /// Product estimates served from the memo instead of sampled.
    pub estimate_hits: u64,
    /// Sampled product estimates computed and stored in the memo.
    pub estimate_misses: u64,
}

/// Memoized estimates kept per left operand. Oldest out beyond this, so the
/// memo grows with the number of registered matrices, not its square.
pub const ESTIMATE_MEMO_PER_OPERAND: usize = 4;

/// Which operand forms a memoized estimate sampled. Part of the memo key: a
/// resident product whose CSR is derived later switches from the tiled
/// sampler to the CSR sampler, whose estimate differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SampledForms {
    /// Both CSR forms (`estimate_job_sampled`).
    Csr,
    /// Both tiled forms (`estimate_tiled_sampled`).
    Tiled,
}

struct MemoizedEstimate {
    right: u64,
    forms: SampledForms,
    estimate: JobEstimate,
}

struct Entry {
    /// CSR form. Always present for CSR-primary entries; for resident
    /// (tiled-primary) entries it starts empty and is derived lazily on the
    /// first explicit CSR request.
    csr: Option<Arc<Csr<f64>>>,
    tiled: Option<Arc<TileMatrix<f64>>>,
    tiled_bytes: usize,
    /// `(nrows, ncols, nnz)`, recorded at insert so admission estimates
    /// never need to materialize a CSR.
    shape: (usize, usize, usize),
    /// Tiled-primary entry: the tiled form is authoritative, never
    /// LRU-evicted, and accounted outside the cache budget.
    resident: bool,
    last_used: u64,
    /// Sampled estimates of products with this entry on the left, oldest
    /// first, at most [`ESTIMATE_MEMO_PER_OPERAND`].
    estimates: Vec<MemoizedEstimate>,
}

/// Outcome of the first half of a two-phase tiled lookup
/// ([`Registry::begin_tiled`]).
pub enum TiledLookup {
    /// The tiled form was cached; nothing left to do.
    Cached(Arc<TileMatrix<f64>>),
    /// Cache miss: convert this CSR *outside* the registry lock, then hand
    /// the result back through [`Registry::install_tiled`].
    Convert(Arc<Csr<f64>>),
}

/// The registry: content-hashed CSR store + tiled-conversion cache.
pub struct Registry {
    entries: HashMap<u64, Entry>,
    cache_tracker: MemTracker,
    clock: u64,
    stats: RegistryStats,
    resident_bytes: usize,
}

impl Registry {
    /// A registry whose cached tiled forms may occupy up to `cache_bytes`.
    pub fn new(cache_bytes: usize) -> Self {
        Registry {
            entries: HashMap::new(),
            cache_tracker: MemTracker::with_budget(cache_bytes),
            clock: 0,
            stats: RegistryStats::default(),
            resident_bytes: 0,
        }
    }

    /// Routes the cache's byte accounting into `recorder`'s
    /// `bytes_alloc`/`bytes_freed` counters, so a profile sees cached
    /// conversions and evictions alongside the pipelines' device traffic.
    /// A disabled recorder (the null fast path) is dropped, not stored.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        self.cache_tracker.set_recorder(Some(recorder));
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Registers a matrix, returning its content id. Re-registering the same
    /// content is a no-op returning the existing id (`true` in the second
    /// tuple slot marks a dedupe).
    pub fn insert(&mut self, csr: Csr<f64>) -> (MatrixId, bool) {
        self.insert_hashed(MatrixId(csr.content_hash()), csr)
    }

    /// [`Registry::insert`] under an id the caller hashed already, so the
    /// engine can hash before it takes the registry lock.
    pub(crate) fn insert_hashed(&mut self, id: MatrixId, csr: Csr<f64>) -> (MatrixId, bool) {
        let now = self.tick();
        let dedup = self.entries.contains_key(&id.0);
        if !dedup {
            let shape = (csr.nrows, csr.ncols, csr.nnz());
            self.entries.insert(
                id.0,
                Entry {
                    csr: Some(Arc::new(csr)),
                    tiled: None,
                    tiled_bytes: 0,
                    shape,
                    resident: false,
                    last_used: now,
                    estimates: Vec::new(),
                },
            );
        }
        (id, dedup)
    }

    /// Registers a pipeline product straight from its tiled form — no CSR is
    /// built. The id is [`TileMatrix::content_hash`], so re-registering the
    /// bitwise-same product dedupes exactly like [`Registry::insert`] does
    /// for CSRs. The entry is *resident*: the tiled form is authoritative,
    /// exempt from LRU eviction, and accounted under
    /// [`Registry::resident_bytes`] rather than the cache budget. It stays
    /// until an explicit [`Registry::remove`] (the protocol's `unload`).
    pub fn insert_tiled(&mut self, tiled: Arc<TileMatrix<f64>>) -> (MatrixId, bool) {
        let (id, unused) = self.insert_tiled_hashed(MatrixId(tiled.content_hash()), tiled);
        (id, unused.is_some())
    }

    /// [`Registry::insert_tiled`] under an id the caller hashed already.
    /// On a dedup it hands `tiled` back unused, so the caller can recycle
    /// a product nobody else holds.
    pub(crate) fn insert_tiled_hashed(
        &mut self,
        id: MatrixId,
        tiled: Arc<TileMatrix<f64>>,
    ) -> (MatrixId, Option<Arc<TileMatrix<f64>>>) {
        let now = self.tick();
        if self.entries.contains_key(&id.0) {
            return (id, Some(tiled));
        }
        let bytes = tiled.bytes();
        let shape = (tiled.nrows, tiled.ncols, tiled.nnz());
        self.resident_bytes += bytes;
        self.entries.insert(
            id.0,
            Entry {
                csr: None,
                tiled: Some(tiled),
                tiled_bytes: bytes,
                shape,
                resident: true,
                last_used: now,
                estimates: Vec::new(),
            },
        );
        (id, None)
    }

    /// The registered CSR form.
    ///
    /// For a resident (tiled-primary) entry this *derives* the CSR from the
    /// tiled form on first request, caches it on the entry, and counts the
    /// materialization in [`RegistryStats::csr_derivations`] — the cost a
    /// chained workload avoids by keeping intermediates tiled.
    pub fn csr(&mut self, id: MatrixId) -> Result<Arc<Csr<f64>>, EngineError> {
        let e = self
            .entries
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownMatrix(id))?;
        if let Some(csr) = &e.csr {
            return Ok(Arc::clone(csr));
        }
        let tiled = e.tiled.as_ref().expect("resident entry keeps its tiled");
        let csr = Arc::new(tiled.to_csr());
        e.csr = Some(Arc::clone(&csr));
        self.stats.csr_derivations += 1;
        Ok(csr)
    }

    /// The CSR form if it is already materialized; `None` for a resident
    /// entry whose CSR was never derived. Admission estimation uses this so
    /// an estimate never forces the materialization it is trying to avoid.
    pub fn csr_if_present(&self, id: MatrixId) -> Result<Option<Arc<Csr<f64>>>, EngineError> {
        self.entries
            .get(&id.0)
            .map(|e| e.csr.as_ref().map(Arc::clone))
            .ok_or(EngineError::UnknownMatrix(id))
    }

    /// The tiled form if it is already materialized (cached or resident) —
    /// like [`Registry::csr_if_present`], this never converts and never
    /// touches the LRU clock, so estimation can peek without disturbing
    /// eviction order.
    pub fn tiled_if_present(
        &self,
        id: MatrixId,
    ) -> Result<Option<Arc<TileMatrix<f64>>>, EngineError> {
        self.entries
            .get(&id.0)
            .map(|e| e.tiled.as_ref().map(Arc::clone))
            .ok_or(EngineError::UnknownMatrix(id))
    }

    /// `(nrows, ncols, nnz)` of a registered matrix — available without
    /// materializing anything, whichever form is primary.
    pub fn shape(&self, id: MatrixId) -> Result<(usize, usize, usize), EngineError> {
        self.entries
            .get(&id.0)
            .map(|e| e.shape)
            .ok_or(EngineError::UnknownMatrix(id))
    }

    /// The forms the sampled estimate of `a · b` would sample: both CSR
    /// forms when both are materialized, else both tiled forms when both
    /// are, else `None` (no sampled estimate is possible).
    pub(crate) fn sampled_forms(&self, a: MatrixId, b: MatrixId) -> Option<SampledForms> {
        let (ea, eb) = (self.entries.get(&a.0)?, self.entries.get(&b.0)?);
        if ea.csr.is_some() && eb.csr.is_some() {
            Some(SampledForms::Csr)
        } else if ea.tiled.is_some() && eb.tiled.is_some() {
            Some(SampledForms::Tiled)
        } else {
            None
        }
    }

    /// The memoized sampled estimate of `a · b` from `forms`, counting a
    /// hit. Like the other estimation lookups it leaves the LRU clock alone.
    pub(crate) fn memoized_estimate(
        &mut self,
        a: MatrixId,
        b: MatrixId,
        forms: SampledForms,
    ) -> Option<JobEstimate> {
        let estimate = self
            .entries
            .get(&a.0)?
            .estimates
            .iter()
            .find(|m| m.right == b.0 && m.forms == forms)?
            .estimate;
        self.stats.estimate_hits += 1;
        Some(estimate)
    }

    /// Stores the sampled estimate of `a · b` from `forms` on `a`'s entry,
    /// dropping that entry's oldest estimate beyond the per-operand bound.
    /// Skipped when either handle was unregistered while it was sampled.
    pub(crate) fn memoize_estimate(
        &mut self,
        a: MatrixId,
        b: MatrixId,
        forms: SampledForms,
        estimate: JobEstimate,
    ) {
        if !self.entries.contains_key(&b.0) {
            return;
        }
        let Some(e) = self.entries.get_mut(&a.0) else {
            return;
        };
        self.stats.estimate_misses += 1;
        // A racing estimate of the same product stored the same value.
        if e.estimates
            .iter()
            .any(|m| m.right == b.0 && m.forms == forms)
        {
            return;
        }
        if e.estimates.len() == ESTIMATE_MEMO_PER_OPERAND {
            e.estimates.remove(0);
        }
        e.estimates.push(MemoizedEstimate {
            right: b.0,
            forms,
            estimate,
        });
    }

    /// Estimates held in the memo, over every entry.
    pub fn memoized_estimates(&self) -> usize {
        self.entries.values().map(|e| e.estimates.len()).sum()
    }

    /// Whether `id`'s tiled form is currently cached.
    pub fn is_cached(&self, id: MatrixId) -> bool {
        self.entries.get(&id.0).is_some_and(|e| e.tiled.is_some())
    }

    /// The tiled form of `id`, converting (and caching, budget permitting)
    /// on first use. The boolean is `true` when served from the cache.
    ///
    /// This runs the conversion while the caller holds the registry —
    /// convenient for single-threaded use. Concurrent resolvers (the engine
    /// workers, the serve crate's conversion prefetcher) use the two-phase
    /// [`Registry::begin_tiled`] / [`Registry::install_tiled`] pair instead
    /// so a multi-second conversion never runs under the registry mutex.
    pub fn tiled(&mut self, id: MatrixId) -> Result<(Arc<TileMatrix<f64>>, bool), EngineError> {
        match self.begin_tiled(id)? {
            TiledLookup::Cached(t) => Ok((t, true)),
            TiledLookup::Convert(csr) => {
                let tiled = Arc::new(TileMatrix::from_csr(&csr));
                self.install_tiled(id, Arc::clone(&tiled), true);
                Ok((tiled, false))
            }
        }
    }

    /// First half of a two-phase tiled lookup: touches the LRU clock and
    /// either returns the cached tiled form or hands back the CSR for the
    /// caller to convert outside the registry lock. A miss is counted here;
    /// the matching conversion is counted by [`Registry::install_tiled`].
    ///
    /// Two callers racing on the same uncached `id` both get `Convert` and
    /// duplicate the work; the conversion is deterministic, so whichever
    /// install lands first wins and the other is a no-op.
    pub fn begin_tiled(&mut self, id: MatrixId) -> Result<TiledLookup, EngineError> {
        // Failpoint `registry.evict_all`: every cached conversion vanishes
        // right before this lookup, simulating an eviction racing the
        // resolve. The lookup must fall through to a fresh conversion.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("registry.evict_all") {
            self.evict_all();
        }
        let now = self.tick();
        let e = self
            .entries
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownMatrix(id))?;
        e.last_used = now;
        if let Some(t) = &e.tiled {
            self.stats.cache_hits += 1;
            return Ok(TiledLookup::Cached(Arc::clone(t)));
        }
        self.stats.cache_misses += 1;
        // Only CSR-primary entries can miss: a resident entry's tiled form
        // is its primary storage and is returned above.
        let csr = e.csr.as_ref().expect("csr-primary entry keeps its csr");
        Ok(TiledLookup::Convert(Arc::clone(csr)))
    }

    /// Second half of a two-phase lookup: caches `tiled` under `id`, budget
    /// permitting (evicting LRU entries to make room). `from_conversion`
    /// marks the caller as having just converted (counted in the stats);
    /// pre-seeding a pipeline product passes `false`. Returns whether the
    /// form ended up cached — a lost install race, an unregistered `id`, or
    /// an over-budget matrix all leave the caller's `Arc` as the only copy.
    pub fn install_tiled(
        &mut self,
        id: MatrixId,
        tiled: Arc<TileMatrix<f64>>,
        from_conversion: bool,
    ) -> bool {
        if from_conversion {
            self.stats.conversions += 1;
        }
        let Some(e) = self.entries.get_mut(&id.0) else {
            return false; // unregistered while converting
        };
        if e.tiled.is_some() {
            return false; // lost the install race; existing copy stays
        }
        let bytes = tiled.bytes();
        // Failpoint `registry.cache_alloc`: the cache refuses to account the
        // conversion, exercising the serve-uncached fallback on any budget.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("registry.cache_alloc") {
            self.stats.uncached_conversions += 1;
            return false;
        }
        while self.cache_tracker.on_alloc(bytes).is_err() {
            if !self.evict_lru() {
                // Nothing left to evict: serve the conversion uncached.
                // In-flight users keep their Arc; the cache simply never
                // holds this matrix.
                if from_conversion {
                    self.stats.uncached_conversions += 1;
                }
                return false;
            }
        }
        let e = self.entries.get_mut(&id.0).expect("entry exists");
        e.tiled = Some(tiled);
        e.tiled_bytes = bytes;
        true
    }

    /// Registers a matrix together with its already-built tiled form (a
    /// pipeline product being kept as an operand), pre-seeding the cache so
    /// the next multiply touching it skips the conversion entirely. `id` is
    /// the CSR's content hash, computed by the caller outside the lock.
    /// Returns `(id, deduped)` like [`Registry::insert`], and `tiled` back
    /// unused when the entry caches a tiled form already.
    pub(crate) fn insert_with_tiled_hashed(
        &mut self,
        id: MatrixId,
        csr: Csr<f64>,
        tiled: Arc<TileMatrix<f64>>,
    ) -> (MatrixId, bool, Option<Arc<TileMatrix<f64>>>) {
        let (_, dedup) = self.insert_hashed(id, csr);
        if self.is_cached(id) {
            return (id, dedup, Some(tiled));
        }
        self.install_tiled(id, tiled, false);
        (id, dedup, None)
    }

    /// Evicts the least-recently-used cached tiled form. Returns `false`
    /// when nothing was evictable. Resident entries (tiled-primary — the
    /// tiled form is the data) are never victims.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.tiled.is_some() && !e.resident)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&k, _)| k);
        match victim {
            Some(k) => {
                let e = self.entries.get_mut(&k).expect("victim exists");
                self.cache_tracker.on_free(e.tiled_bytes);
                e.tiled = None;
                e.tiled_bytes = 0;
                self.stats.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Drops `id`'s cached tiled form (the CSR stays registered). Returns
    /// whether a cached form existed. A resident entry's tiled form is its
    /// primary storage and cannot be evicted (use [`Registry::remove`] to
    /// drop the whole entry); evicting it reports `false`.
    pub fn evict(&mut self, id: MatrixId) -> Result<bool, EngineError> {
        let e = self
            .entries
            .get_mut(&id.0)
            .ok_or(EngineError::UnknownMatrix(id))?;
        if e.resident {
            return Ok(false);
        }
        if e.tiled.take().is_some() {
            self.cache_tracker.on_free(e.tiled_bytes);
            e.tiled_bytes = 0;
            self.stats.evictions += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Unregisters `id` entirely: the cached tiled form (if any) is evicted,
    /// resident storage is released, and the entry is dropped with its
    /// memoized estimates, so later lookups fail with `unknown_matrix`.
    /// In-flight users holding `Arc`s keep their data.
    pub fn remove(&mut self, id: MatrixId) -> Result<(), EngineError> {
        self.evict(id)?;
        if let Some(e) = self.entries.remove(&id.0) {
            if e.resident {
                self.resident_bytes = self.resident_bytes.saturating_sub(e.tiled_bytes);
            }
        }
        Ok(())
    }

    /// Drops every cached tiled form, returning how many were cached.
    pub fn evict_all(&mut self) -> usize {
        let mut n = 0;
        while self.evict_lru() {
            n += 1;
        }
        n
    }

    /// Number of registered matrices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently held by cached tiled forms.
    pub fn cached_bytes(&self) -> usize {
        self.cache_tracker.current_bytes()
    }

    /// Bytes held by resident (tiled-primary) entries — products kept in
    /// their tiled form. Outside the cache budget; released by
    /// [`Registry::remove`].
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The cache's byte budget.
    pub fn cache_budget(&self) -> usize {
        self.cache_tracker.budget()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> RegistryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_gen::suite::GenSpec;

    fn small(seed: u64) -> Csr<f64> {
        GenSpec::Scatter {
            n: 96,
            per_row: 4,
            seed,
        }
        .build()
    }

    #[test]
    fn insert_dedupes_identical_content() {
        let mut r = Registry::new(usize::MAX);
        let (id1, dedup1) = r.insert(small(1));
        let (id2, dedup2) = r.insert(small(1));
        let (id3, _) = r.insert(small(2));
        assert_eq!(id1, id2);
        assert!(!dedup1);
        assert!(dedup2);
        assert_ne!(id1, id3);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn tiled_converts_once_then_hits() {
        let mut r = Registry::new(usize::MAX);
        let (id, _) = r.insert(small(7));
        let (t1, hit1) = r.tiled(id).unwrap();
        let (t2, hit2) = r.tiled(id).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&t1, &t2));
        let s = r.stats();
        assert_eq!(s.conversions, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(r.cached_bytes(), t1.bytes());
    }

    #[test]
    fn lru_eviction_under_tight_budget() {
        let mut r = Registry::new(usize::MAX);
        let (a, _) = r.insert(small(1));
        let (b, _) = r.insert(small(2));
        let (ta, _) = r.tiled(a).unwrap();
        // Shrink the budget to exactly one cached matrix.
        let mut r2 = Registry::new(ta.bytes() + 8);
        let (a, _) = r2.insert(small(1));
        let (b2, _) = r2.insert(small(2));
        assert_eq!(b, b2);
        r2.tiled(a).unwrap();
        assert!(r2.is_cached(a));
        // Caching b must evict a (the LRU entry).
        r2.tiled(b).unwrap();
        assert!(!r2.is_cached(a));
        assert!(r2.is_cached(b));
        assert_eq!(r2.stats().evictions, 1);
        // Re-requesting a reconverts, bitwise identically.
        let (ta2, hit) = r2.tiled(a).unwrap();
        assert!(!hit);
        assert_eq!(*ta, *ta2);
        assert_eq!(r2.stats().conversions, 3);
    }

    #[test]
    fn oversized_matrix_is_served_uncached() {
        let mut r = Registry::new(16); // smaller than any tiled form
        let (id, _) = r.insert(small(3));
        let (t, hit) = r.tiled(id).unwrap();
        assert!(!hit);
        assert!(t.nnz() > 0);
        assert!(!r.is_cached(id));
        assert_eq!(r.stats().uncached_conversions, 1);
        assert_eq!(r.cached_bytes(), 0);
    }

    #[test]
    fn explicit_evict_frees_cache_bytes() {
        let mut r = Registry::new(usize::MAX);
        let (id, _) = r.insert(small(4));
        r.tiled(id).unwrap();
        assert!(r.cached_bytes() > 0);
        assert!(r.evict(id).unwrap());
        assert_eq!(r.cached_bytes(), 0);
        assert!(!r.evict(id).unwrap());
        assert!(r.evict(MatrixId(0xdead)).is_err());
    }

    #[test]
    fn resident_entries_dedupe_and_derive_csr_lazily() {
        let mut r = Registry::new(usize::MAX);
        let csr = small(11);
        let tiled = Arc::new(TileMatrix::from_csr(&csr));
        let (id, dedup1) = r.insert_tiled(Arc::clone(&tiled));
        let (id2, dedup2) = r.insert_tiled(Arc::clone(&tiled));
        assert_eq!(id, id2);
        assert!(!dedup1);
        assert!(dedup2);
        assert_eq!(r.resident_bytes(), tiled.bytes());
        assert_eq!(r.shape(id).unwrap(), (csr.nrows, csr.ncols, csr.nnz()));
        // Tiled lookups hit without a conversion; the cache budget is
        // untouched.
        let (t, hit) = r.tiled(id).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&t, &tiled));
        assert_eq!(r.cached_bytes(), 0);
        assert_eq!(r.stats().conversions, 0);
        // The CSR only exists once explicitly requested, and the
        // derivation is counted.
        assert!(r.csr_if_present(id).unwrap().is_none());
        assert_eq!(r.stats().csr_derivations, 0);
        let derived = r.csr(id).unwrap();
        assert_eq!(*derived, csr);
        assert_eq!(r.stats().csr_derivations, 1);
        let again = r.csr(id).unwrap();
        assert!(Arc::ptr_eq(&derived, &again));
        assert_eq!(r.stats().csr_derivations, 1);
        // Residents resist eviction but are fully released by remove.
        assert!(!r.evict(id).unwrap());
        assert_eq!(r.evict_all(), 0);
        assert!(r.tiled(id).is_ok());
        r.remove(id).unwrap();
        assert_eq!(r.resident_bytes(), 0);
        assert!(r.tiled(id).is_err());
    }

    #[test]
    fn matrix_id_round_trips_through_display() {
        let id = MatrixId(0x00c0_ffee_1234_5678);
        let s = id.to_string();
        assert_eq!(s.parse::<MatrixId>().unwrap(), id);
        assert!("x123".parse::<MatrixId>().is_err());
    }
}
