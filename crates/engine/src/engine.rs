//! The resident engine: admission-controlled job queue + worker executor.
//!
//! One [`Engine`] owns a simulated [`Device`], a shared [`MemTracker`]
//! enforcing the device budget across *all* in-flight products (PR 1's
//! tracker only ever guarded one), a [`Registry`] of loaded matrices with
//! cached tiled conversions, and a pool of worker threads executing multiply
//! jobs on the memoized per-device Rayon pool
//! ([`tsg_runtime::device::pool_for`]).
//!
//! Job lifecycle:
//!
//! 1. [`Engine::submit`] — admission control. Unknown operands, a cost
//!    prediction ([`crate::estimate`]) exceeding the device budget, or a
//!    full queue reject the job *synchronously* with a typed error, so
//!    callers get explicit backpressure instead of unbounded queueing.
//! 2. A worker pops the job (FIFO), checks cancellation and the queue-wait
//!    deadline, resolves both operands through the registry (cache hit or
//!    conversion), and runs the tiled pipeline on the device pool under the
//!    shared tracker.
//! 3. The result — a [`JobReport`] or an [`EngineError`] — is published on
//!    the job's [`JobTicket`]; [`JobTicket::wait`] blocks until then.
//!
//! Timeouts bound *queue wait*, not execution: a job popped after its
//! deadline completes as `timed_out` without running. A running multiply is
//! not interruptible (matching the kernels it models); cancellation is
//! therefore only honoured while a job is still queued.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tilespgemm_core::{multiply_with_pool, Config, SpGemmError};
use tsg_matrix::{Footprint, TileMatrix};
use tsg_runtime::observe::{
    est_error_bucket, null_recorder, CollectingRecorder, Counter, MetricsSnapshot, Recorder,
};
use tsg_runtime::{
    device::pool_for, Breakdown, BufferStats, Device, MemTracker, ScratchPool, Step,
};

use crate::estimate::{
    estimate_add, estimate_job, estimate_job_sampled, estimate_product, estimate_tiled_sampled,
    mask_pruned, JobEstimate, OperandShape,
};
use crate::registry::{MatrixId, Registry, RegistryStats, SampledForms, TiledLookup};
use crate::EngineError;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated device jobs execute on; its `mem_budget` is the shared
    /// in-flight budget.
    pub device: Device,
    /// Worker threads executing jobs (each installs the device pool).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions are shed.
    pub queue_depth: usize,
    /// Byte budget for cached tiled conversions in the registry.
    pub cache_bytes: usize,
    /// Deadline applied to jobs that do not carry their own timeout.
    pub default_timeout: Option<Duration>,
    /// Pipeline configuration jobs run with unless they override it.
    pub base_config: Config,
    /// Record per-job span trees and counters into a
    /// [`CollectingRecorder`], retrievable through [`Engine::collector`] and
    /// the JSON protocol's `stats`/`profile` verbs. Off by default, which
    /// runs every job on the [`tsg_runtime::NullRecorder`] fast path.
    pub profile: bool,
    /// Fraction of A's tile rows the admission estimator samples when both
    /// operand structures are materialized. `0.0` disables sampling and
    /// falls back to the `ASSUMED_COMPRESSION` upper-bound model; `1.0`
    /// measures every tile row (exact symbolic, zero-width band). The
    /// default ([`tilespgemm_core::sample::DEFAULT_SAMPLE_RATE`]) trades
    /// ~6% of the symbolic work for a measured nnz(C) band.
    pub sample_rate: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let device = Device::rtx3090_sim();
        EngineConfig {
            cache_bytes: device.mem_budget / 2,
            device,
            workers: 1,
            queue_depth: 32,
            default_timeout: None,
            base_config: Config::default(),
            profile: false,
            sample_rate: tilespgemm_core::sample::DEFAULT_SAMPLE_RATE,
        }
    }
}

/// The operation a job evaluates, over registry handles.
///
/// This is the expression layer of the engine: GraphBLAS-style workloads —
/// triangle counting `C⟨A⟩ = A·A`, Galerkin triple products `R·A·P`, Markov
/// clustering's `A^k` — are sequences of products. [`Engine::submit`] runs
/// the single-product ops; a `Chain` or `Power` is estimate-only
/// ([`Engine::estimate_op`]). `tsg-serve` runs one as a batch of linked
/// multiplies whose intermediates stay resident tiled handles, so no link
/// round-trips through CSR.
///
/// `#[non_exhaustive]`: build specs through the [`JobSpec`] constructors
/// (`JobSpec::multiply(a, b).mask(m)` and friends) and match with a wildcard
/// arm, so new op kinds are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpSpec {
    /// `C = A·B` — the classic single product.
    Multiply {
        /// Left operand.
        a: MatrixId,
        /// Right operand.
        b: MatrixId,
    },
    /// `C⟨M⟩ = A·B` — the product computed only where the mask `M` has
    /// stored entries. The mask is pushed into step 2 (the per-tile
    /// symbolic phase inherits `M`'s tile structure), so masked-out tiles
    /// are never computed, not computed-then-filtered.
    MaskedMultiply {
        /// Left operand.
        a: MatrixId,
        /// Right operand.
        b: MatrixId,
        /// Mask; shape must be `(a.nrows, b.ncols)`.
        mask: MatrixId,
    },
    /// `C = alpha·A + beta·B` — elementwise linear combination of two
    /// same-shaped operands (structural union; exact zeros are kept).
    Add {
        /// Scale on `a`.
        alpha: f64,
        /// Left operand.
        a: MatrixId,
        /// Scale on `b`.
        beta: f64,
        /// Right operand.
        b: MatrixId,
    },
    /// `C = M₁·M₂·…·Mₙ` — a left-associated chain of products, estimated
    /// link by link; [`Engine::submit`] refuses it with `invalid_op`. An
    /// optional mask applies to the final link only.
    Chain {
        /// The operands, in multiplication order (at least two).
        operands: Vec<MatrixId>,
        /// Mask for the final link; shape must match the chain's output.
        mask: Option<MatrixId>,
    },
    /// `C = A^k` — matrix power, `k ≥ 2`, estimated as the chain of `k`
    /// copies of `a` and, like a chain, refused by [`Engine::submit`].
    Power {
        /// The (square) operand.
        a: MatrixId,
        /// The exponent (at least 2).
        k: u32,
        /// Mask for the final link.
        mask: Option<MatrixId>,
    },
}

impl OpSpec {
    /// Every registry handle the op references (operands, then mask).
    pub fn operands(&self) -> Vec<MatrixId> {
        match self {
            OpSpec::Multiply { a, b } => vec![*a, *b],
            OpSpec::MaskedMultiply { a, b, mask } => vec![*a, *b, *mask],
            OpSpec::Add { a, b, .. } => vec![*a, *b],
            OpSpec::Chain { operands, mask } => {
                let mut v = operands.clone();
                v.extend(mask.iter().copied());
                v
            }
            // A power names its base once, however large `k` is.
            OpSpec::Power { a, mask, .. } => {
                let mut v = vec![*a];
                v.extend(mask.iter().copied());
                v
            }
        }
    }
}

/// One job request: an [`OpSpec`] expression plus scheduling knobs.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The operation to evaluate.
    pub op: OpSpec,
    /// Pipeline configuration override; `None` uses the engine's base.
    pub config: Option<Config>,
    /// Queue-wait deadline override; `None` uses the engine default.
    pub timeout: Option<Duration>,
    /// Already admitted under this estimate. Set by schedulers that run
    /// their own admission: [`Engine::submit`] still checks the operands
    /// and shapes, but does not sample again and skips the
    /// estimate-vs-budget rejection (deferred admission dispatches a parked
    /// job solo once resident memory frees, accepting that the mid-flight
    /// tracker is the backstop if the estimate was still too optimistic).
    /// The job reports this estimate as [`JobReport::estimate`].
    pub admitted: Option<JobEstimate>,
}

impl JobSpec {
    /// A job running an arbitrary op expression with engine defaults.
    pub fn of(op: OpSpec) -> Self {
        JobSpec {
            op,
            config: None,
            timeout: None,
            admitted: None,
        }
    }

    /// `C = A·B`.
    pub fn multiply(a: MatrixId, b: MatrixId) -> Self {
        Self::of(OpSpec::Multiply { a, b })
    }

    /// `C = alpha·A + beta·B`.
    pub fn add(alpha: f64, a: MatrixId, beta: f64, b: MatrixId) -> Self {
        Self::of(OpSpec::Add { alpha, a, beta, b })
    }

    /// A left-associated chain `C = M₁·M₂·…·Mₙ`, to estimate.
    pub fn chain(operands: impl Into<Vec<MatrixId>>) -> Self {
        Self::of(OpSpec::Chain {
            operands: operands.into(),
            mask: None,
        })
    }

    /// `C = A^k`, to estimate.
    pub fn power(a: MatrixId, k: u32) -> Self {
        Self::of(OpSpec::Power { a, k, mask: None })
    }

    /// Applies a mask: a plain multiply becomes a [`OpSpec::MaskedMultiply`];
    /// on a chain or power the mask attaches to the final link; on an
    /// already-masked multiply it replaces the mask. `Add` has no product
    /// to mask — the spec is returned unchanged.
    pub fn mask(mut self, m: MatrixId) -> Self {
        self.op = match self.op {
            OpSpec::Multiply { a, b } => OpSpec::MaskedMultiply { a, b, mask: m },
            OpSpec::MaskedMultiply { a, b, .. } => OpSpec::MaskedMultiply { a, b, mask: m },
            OpSpec::Chain { operands, .. } => OpSpec::Chain {
                operands,
                mask: Some(m),
            },
            OpSpec::Power { a, k, .. } => OpSpec::Power {
                a,
                k,
                mask: Some(m),
            },
            other @ OpSpec::Add { .. } => other,
        };
        self
    }

    /// Overrides the pipeline configuration.
    pub fn config(mut self, config: Config) -> Self {
        self.config = Some(config);
        self
    }

    /// Overrides the queue-wait deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Completion record of a successful job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Engine-assigned job id.
    pub job: u64,
    /// The product, in tiled form.
    pub c: Arc<TileMatrix<f64>>,
    /// Output nonzeros (structural, as the pipeline reports them).
    pub nnz_c: usize,
    /// Output tile count.
    pub tiles_c: usize,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Execution wall time (operand resolution + multiply).
    pub exec: Duration,
    /// Peak tracked device bytes during the multiply.
    pub peak_bytes: usize,
    /// Operand tiled forms served from the registry cache (0..=2).
    pub cache_hits: u32,
    /// CSR→tiled conversions this job had to perform (0..=2).
    pub conversions: u32,
    /// The cost prediction admission control admitted the job under.
    pub estimate: JobEstimate,
    /// Per-step wall times of the multiply (Figure 10's slices).
    pub breakdown: Breakdown,
}

/// Terminal state of a job.
pub type JobResult = Result<JobReport, EngineError>;

struct TicketInner {
    result: Mutex<Option<JobResult>>,
    cv: Condvar,
    canceled: AtomicBool,
    /// Set once [`JobTicket::take`] moved the result out.
    taken: AtomicBool,
}

/// Handle to a submitted job; `wait` blocks for the result.
#[derive(Clone)]
pub struct JobTicket {
    /// Engine-assigned job id.
    pub job: u64,
    inner: Arc<TicketInner>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("job", &self.job)
            .field("done", &self.try_result().is_some())
            .finish()
    }
}

impl JobTicket {
    /// Blocks until the job completes, returning its result.
    pub fn wait(&self) -> JobResult {
        self.when_done(|r| r.clone())
    }

    /// Blocks until the job completes and moves its result out of the
    /// ticket, where [`JobTicket::wait`] clones it. The report then holds
    /// the only handle on its product unless an earlier `wait` cloned one,
    /// so the product can be registered without a copy or handed back with
    /// [`Engine::recycle`]. For a ticket's one consumer: a later `wait` or
    /// `take` on this ticket or a clone of it panics, and `try_result`
    /// returns `None`.
    pub fn take(&self) -> JobResult {
        self.when_done(|r| {
            self.inner.taken.store(true, Ordering::Relaxed);
            r.take()
        })
    }

    /// Blocks until the result is in, then applies `f` to its slot, which
    /// `f` finds filled.
    fn when_done(&self, f: impl FnOnce(&mut Option<JobResult>) -> Option<JobResult>) -> JobResult {
        let mut guard = self
            .inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while guard.is_none() {
            assert!(
                !self.inner.taken.load(Ordering::Relaxed),
                "job {}: result already taken",
                self.job
            );
            guard = self
                .inner
                .cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        f(&mut guard).expect("a completed job's result")
    }

    /// Non-blocking poll.
    pub fn try_result(&self) -> Option<JobResult> {
        self.inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Requests cancellation. Only honoured while the job is still queued;
    /// a job already running completes normally.
    pub fn cancel(&self) {
        self.inner.canceled.store(true, Ordering::Relaxed);
    }
}

/// What a worker runs: the ops [`Engine::submit`] admits.
enum Work {
    /// `a·b`, masked when `mask` is set.
    Multiply {
        a: MatrixId,
        b: MatrixId,
        mask: Option<MatrixId>,
    },
    /// `alpha·a + beta·b`.
    Add {
        alpha: f64,
        a: MatrixId,
        beta: f64,
        b: MatrixId,
    },
}

impl Work {
    /// The work `op` names; a chain or power is estimate-only.
    fn of(op: &OpSpec) -> Result<Self, EngineError> {
        Ok(match *op {
            OpSpec::Multiply { a, b } => Work::Multiply { a, b, mask: None },
            OpSpec::MaskedMultiply { a, b, mask } => Work::Multiply {
                a,
                b,
                mask: Some(mask),
            },
            OpSpec::Add { alpha, a, beta, b } => Work::Add { alpha, a, beta, b },
            OpSpec::Chain { .. } | OpSpec::Power { .. } => {
                return Err(EngineError::InvalidOp(
                    "chains and powers are estimate-only; submit their links",
                ))
            }
        })
    }
}

struct QueuedJob {
    id: u64,
    work: Work,
    config: Option<Config>,
    estimate: JobEstimate,
    enqueued: Instant,
    deadline: Option<Instant>,
    ticket: Arc<TicketInner>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    canceled: AtomicU64,
    timed_out: AtomicU64,
    queue_wait_micros: AtomicU64,
    exec_micros: AtomicU64,
}

/// Snapshot of engine-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Every submission that arrived, whether or not it was admitted —
    /// rejected, shed, and shut-down arrivals all count, so the shed rate
    /// is `(submitted - admitted) / submitted` from stats alone.
    pub submitted: u64,
    /// Submissions accepted into the queue.
    pub admitted: u64,
    /// Jobs that finished with a product.
    pub completed: u64,
    /// Jobs that ran and failed (OOM, shape mismatch).
    pub failed: u64,
    /// Submissions rejected by admission control (estimate over budget).
    pub rejected: u64,
    /// Submissions shed because the queue was full.
    pub shed: u64,
    /// Jobs canceled while queued.
    pub canceled: u64,
    /// Jobs whose queue wait exceeded their deadline.
    pub timed_out: u64,
    /// Sum of queue waits over completed/failed/timed-out jobs.
    pub queue_wait_total: Duration,
    /// Sum of execution times over completed/failed jobs.
    pub exec_total: Duration,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Registry counters (conversions, hits, evictions).
    pub registry: RegistryStats,
    /// Bytes currently cached by the registry.
    pub cached_bytes: usize,
    /// Bytes held by resident (tiled-primary) product entries, outside the
    /// conversion cache's budget.
    pub resident_bytes: usize,
    /// Sampled product estimates currently memoized by the registry.
    pub memoized_estimates: usize,
    /// Bytes currently tracked in-flight against the device budget.
    pub device_bytes_in_use: usize,
    /// High-water footprint of the shared scratch-arena pool (bytes); the
    /// arenas stay warm across jobs, so this is the engine-lifetime peak.
    pub arena_high_water: usize,
    /// The shared pool's recycled job buffers: checkouts reused and fresh,
    /// idle bytes, and the high-water mark that bounds what it holds
    /// (DESIGN.md §11.5).
    pub buffers: BufferStats,
}

struct Shared {
    cfg: EngineConfig,
    device_tracker: MemTracker,
    registry: Mutex<Registry>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    next_job: AtomicU64,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<CollectingRecorder>>,
    /// Reusable scratch arenas shared by every job the workers run; after
    /// the first few jobs the step-2/3 hot path allocates nothing. It also
    /// holds the idle buffers jobs' large arrays are recycled through.
    arena: ScratchPool,
}

/// The resident SpGEMM service engine. See the module docs for the job
/// lifecycle; construction spawns the worker threads, drop joins them.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Builds an engine and starts its workers.
    pub fn new(cfg: EngineConfig) -> Self {
        let collector = cfg.profile.then(|| Arc::new(CollectingRecorder::new()));
        let recorder: Arc<dyn Recorder> = match &collector {
            Some(c) => Arc::clone(c) as Arc<dyn Recorder>,
            None => null_recorder(),
        };
        let device_tracker = MemTracker::with_budget(cfg.device.mem_budget);
        // The tracker and registry drop the attachment again when the
        // recorder is disabled, so the non-profiling path stays free.
        device_tracker.set_recorder(Some(Arc::clone(&recorder)));
        let registry = Registry::new(cfg.cache_bytes);
        registry.set_recorder(Arc::clone(&recorder));
        let shared = Arc::new(Shared {
            device_tracker,
            registry: Mutex::new(registry),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            next_job: AtomicU64::new(1),
            recorder,
            collector,
            arena: ScratchPool::new(),
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsg-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning engine worker")
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// An engine with default configuration on the given device.
    pub fn on_device(device: Device) -> Self {
        Self::new(EngineConfig {
            cache_bytes: device.mem_budget / 2,
            device,
            ..EngineConfig::default()
        })
    }

    /// Registers a matrix, returning `(id, deduped)`. The content hash runs
    /// before the registry lock is taken, so registering a large matrix
    /// never stalls concurrent lookups.
    pub fn register(&self, csr: tsg_matrix::Csr<f64>) -> (MatrixId, bool) {
        let id = MatrixId(csr.content_hash());
        self.lock_registry().insert_hashed(id, csr)
    }

    /// Forces (or looks up) the tiled conversion of `id`; returns the tile
    /// count, cached byte size, and whether it was a cache hit.
    pub fn convert(&self, id: MatrixId) -> Result<(usize, usize, bool), EngineError> {
        use tsg_matrix::Footprint;
        let (t, hit) = self.resolve_tiled(id)?;
        Ok((t.tile_count(), t.bytes(), hit))
    }

    /// The tiled form of `id`, converting on a cache miss *outside* the
    /// registry lock. The boolean is `true` on a cache hit. This is what
    /// workers use to resolve operands, and what a conversion-prefetch
    /// thread calls to warm job N+1's operands while job N computes: the
    /// registry mutex is only held for the lookup and the install, so a
    /// running conversion never blocks concurrent resolves.
    pub fn resolve_tiled(&self, id: MatrixId) -> Result<(Arc<TileMatrix<f64>>, bool), EngineError> {
        resolve_tiled(&self.shared, id)
    }

    /// Registers a pipeline product as an operand: derives its CSR form,
    /// inserts it under its content id, and pre-seeds the tiled cache with
    /// the product itself so a dependent multiply skips the conversion.
    /// Returns `(id, deduped)` like [`Engine::register`].
    ///
    /// This is the *materializing* path (protocol `materialize: true`): the
    /// CSR derivation costs about a product runtime. Chained workloads that
    /// only feed the product back into later multiplies should use
    /// [`Engine::register_tiled`] instead, which derives nothing.
    pub fn register_product(&self, tiled: Arc<TileMatrix<f64>>) -> (MatrixId, bool) {
        // Derive and hash the CSR outside the registry lock — same
        // discipline as resolve_tiled, the derivation can cost a product
        // runtime.
        let csr = tiled.to_csr();
        let id = MatrixId(csr.content_hash());
        let (id, dedup, unused) = self
            .lock_registry()
            .insert_with_tiled_hashed(id, csr, tiled);
        if let Some(product) = unused {
            self.recycle(product);
        }
        (id, dedup)
    }

    /// Registers a pipeline product straight from its tiled form, with no
    /// CSR derivation — the handle-in/handle-out path chained jobs use. The
    /// entry is resident (exempt from cache eviction, see
    /// [`Registry::insert_tiled`]); a CSR is derived lazily only if a
    /// client later asks for one.
    ///
    /// The product is compacted first ([`TileMatrix::compact`]): the empty
    /// tiles a masked product keeps (mask tiles the product misses) would
    /// otherwise tax every job that takes the handle as an operand, and
    /// would make the content hash depend on which expression produced the
    /// value. Compacting moves the entry arrays of a product `tiled` is the
    /// only handle on, and copies one that someone else still holds.
    ///
    /// A product registered already (a dedup) goes to [`Engine::recycle`].
    pub fn register_tiled(&self, tiled: Arc<TileMatrix<f64>>) -> (MatrixId, bool) {
        let compact = if (0..tiled.tile_count()).any(|t| tiled.tile_nnz_of(t) == 0) {
            Arc::new(Arc::unwrap_or_clone(tiled).compact())
        } else {
            tiled
        };
        let id = MatrixId(compact.content_hash());
        let (id, unused) = self.lock_registry().insert_tiled_hashed(id, compact);
        let dedup = unused.is_some();
        if let Some(product) = unused {
            self.recycle(product);
        }
        (id, dedup)
    }

    /// Hands a product nobody keeps back to the engine's buffer pool, so
    /// later jobs reuse its arrays instead of faulting in fresh pages
    /// ([`tilespgemm_core::recycle`]). Only a product `c` is the last
    /// handle on is recycled; one someone else still holds is just
    /// dropped.
    pub fn recycle(&self, c: Arc<TileMatrix<f64>>) {
        if let Ok(c) = Arc::try_unwrap(c) {
            tilespgemm_core::recycle(c, &self.shared.arena);
        }
    }

    /// The registered CSR form of `id`. For resident tiled products this
    /// materializes (and caches) the CSR — the opt-in conversion the
    /// expression API otherwise avoids.
    pub fn csr(&self, id: MatrixId) -> Result<Arc<tsg_matrix::Csr<f64>>, EngineError> {
        self.lock_registry().csr(id)
    }

    /// Drops cached tiled forms: one matrix, or all when `id` is `None`.
    /// Returns how many cached conversions were dropped.
    pub fn evict(&self, id: Option<MatrixId>) -> Result<usize, EngineError> {
        let mut reg = self.lock_registry();
        match id {
            Some(id) => Ok(usize::from(reg.evict(id)?)),
            None => Ok(reg.evict_all()),
        }
    }

    /// Unregisters a matrix entirely (CSR and cached conversion); later
    /// references fail with `unknown_matrix`. Jobs already holding `Arc`s
    /// are unaffected.
    pub fn unregister(&self, id: MatrixId) -> Result<(), EngineError> {
        self.lock_registry().remove(id)
    }

    /// Predicts the cost of `a · b` without running it.
    pub fn estimate(&self, a: MatrixId, b: MatrixId) -> Result<JobEstimate, EngineError> {
        self.estimate_op(&OpSpec::Multiply { a, b })
    }

    /// Predicts the cost of an op expression without running it. Shape
    /// errors (incompatible operands, a mask that does not match the
    /// output) surface here exactly as they would at submit. Estimation
    /// never materializes a CSR: operands whose CSR form is absent are
    /// estimated structurally from their registered shape.
    ///
    /// The op's product (a chain's or power's first link) is estimated once
    /// per operand pair: its sampled estimate is memoized in the registry,
    /// so a repeated product costs one lookup under the registry lock,
    /// which the shape check takes anyway. On a miss the lock is held only
    /// to copy out the operands' `Arc`s; the sampled symbolic pass runs
    /// after it is released, and its result is stored under a second short
    /// lock. Memoized or not, the estimate is bit-identical.
    pub fn estimate_op(&self, op: &OpSpec) -> Result<JobEstimate, EngineError> {
        let cfg = &self.shared.cfg;
        // Failpoint `engine.estimate_sample`: the sampled symbolic pass
        // "fails" and estimation falls back to the constant-compression
        // upper bound — the degraded mode a job must survive (admitted or
        // deferred, never wrongly rejected for lack of a sample). The
        // fallback neither reads nor fills the memo.
        #[cfg(feature = "failpoints")]
        let sample_rate = if tsg_runtime::failpoint::should_fail("engine.estimate_sample") {
            0.0
        } else {
            cfg.sample_rate
        };
        #[cfg(not(feature = "failpoints"))]
        let sample_rate = cfg.sample_rate;
        let threads = cfg.device.threads;
        let mut inputs = EstimateInputs::gather(&mut self.lock_registry(), op, sample_rate)?;
        let product = inputs.product.take().map(|(a, b, input)| {
            let (estimate, sampled) = input.estimate(a, b, &inputs, sample_rate, threads);
            if let Some(forms) = sampled {
                self.lock_registry().memoize_estimate(a, b, forms, estimate);
            }
            estimate
        });
        Ok(estimate_spec(&inputs, op, product, threads))
    }

    /// Submits a job. Admission control runs synchronously: a chain or
    /// power (`invalid_op`: they are estimate-only), unknown operands,
    /// mismatched shapes, over-budget estimates, a full queue, and a
    /// shut-down engine all fail here with a typed error. A spec carrying
    /// [`JobSpec::admitted`] skips the estimate and the budget check, but
    /// not the operand and shape checks.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, EngineError> {
        // Every arrival counts, including the ones admission turns away;
        // `admitted` below is the accepted subset.
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let work = Work::of(&spec.op)?;
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(EngineError::ShuttingDown);
        }
        let estimate = match spec.admitted {
            Some(estimate) => {
                let reg = self.lock_registry();
                let shape_of = |id| {
                    let (nrows, ncols, nnz) = reg.shape(id)?;
                    Ok(OperandShape { nrows, ncols, nnz })
                };
                check_op(&shape_of, &spec.op)?;
                estimate
            }
            None => {
                let estimate = self.estimate_op(&spec.op)?;
                let budget = self.shared.cfg.device.mem_budget;
                if estimate.est_bytes > budget {
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(EngineError::EstimateExceedsBudget {
                        est_bytes: estimate.est_bytes,
                        budget,
                    });
                }
                estimate
            }
        };
        let id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        let ticket_inner = Arc::new(TicketInner {
            result: Mutex::new(None),
            cv: Condvar::new(),
            canceled: AtomicBool::new(false),
            taken: AtomicBool::new(false),
        });
        let now = Instant::now();
        let timeout = spec.timeout.or(self.shared.cfg.default_timeout);
        let job = QueuedJob {
            id,
            work,
            config: spec.config,
            estimate,
            enqueued: now,
            deadline: timeout.map(|t| now + t),
            ticket: Arc::clone(&ticket_inner),
        };
        // Failpoint `engine.queue_full`: sheds this submission as if the
        // queue were at capacity, letting backpressure tests run without
        // actually saturating workers.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("engine.queue_full") {
            self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::QueueFull {
                depth: self.shared.cfg.queue_depth,
            });
        }
        {
            let mut q = self.lock_queue();
            if q.len() >= self.shared.cfg.queue_depth {
                self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::QueueFull {
                    depth: self.shared.cfg.queue_depth,
                });
            }
            q.push_back(job);
        }
        self.shared
            .counters
            .admitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
        Ok(JobTicket {
            job: id,
            inner: ticket_inner,
        })
    }

    /// Submit-and-wait convenience.
    pub fn multiply_now(&self, spec: JobSpec) -> JobResult {
        self.submit(spec)?.wait()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let c = &self.shared.counters;
        let (registry, cached_bytes, resident_bytes, memoized_estimates) = {
            let reg = self.lock_registry();
            (
                reg.stats(),
                reg.cached_bytes(),
                reg.resident_bytes(),
                reg.memoized_estimates(),
            )
        };
        EngineStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            canceled: c.canceled.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            queue_wait_total: Duration::from_micros(c.queue_wait_micros.load(Ordering::Relaxed)),
            exec_total: Duration::from_micros(c.exec_micros.load(Ordering::Relaxed)),
            queue_depth: self.lock_queue().len(),
            registry,
            cached_bytes,
            resident_bytes,
            memoized_estimates,
            device_bytes_in_use: self.shared.device_tracker.current_bytes(),
            arena_high_water: self.shared.arena.high_water_bytes(),
            buffers: self.shared.arena.buffer_stats(),
        }
    }

    /// The engine's device.
    pub fn device(&self) -> &Device {
        &self.shared.cfg.device
    }

    /// The engine's construction parameters.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// The shared device-budget tracker (in-flight bytes across all jobs).
    pub fn device_tracker(&self) -> &MemTracker {
        &self.shared.device_tracker
    }

    /// The recorder jobs report into — a [`CollectingRecorder`] when the
    /// engine was built with [`EngineConfig::profile`], the null fast path
    /// otherwise.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.shared.recorder
    }

    /// The collecting recorder, when profiling is on. This is where per-job
    /// span trees live ([`CollectingRecorder::span_tree`]).
    pub fn collector(&self) -> Option<&Arc<CollectingRecorder>> {
        self.shared.collector.as_ref()
    }

    /// Aggregated observability counters across all jobs so far. All zeros
    /// unless the engine is profiling.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.recorder.snapshot()
    }

    /// Stops accepting jobs, drains the queue, and joins the workers.
    /// Queued jobs still execute; call this for a graceful stop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue_cv.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.shared
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<QueuedJob>> {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn complete(ticket: &TicketInner, result: JobResult) {
    *ticket.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    ticket.cv.notify_all();
}

/// Two-phase operand resolution: lock for the lookup, convert unlocked,
/// lock again to install. See [`Engine::resolve_tiled`].
fn resolve_tiled(
    shared: &Shared,
    id: MatrixId,
) -> Result<(Arc<TileMatrix<f64>>, bool), EngineError> {
    let lookup = shared
        .registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .begin_tiled(id)?;
    match lookup {
        TiledLookup::Cached(t) => Ok((t, true)),
        TiledLookup::Convert(csr) => {
            let tiled = Arc::new(TileMatrix::from_csr(&csr));
            shared
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .install_tiled(id, Arc::clone(&tiled), true);
            Ok((tiled, false))
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, job);
    }
}

/// Shape-mismatch error from two shape summaries.
fn shape_err(a: OperandShape, b: OperandShape) -> EngineError {
    EngineError::SpGemm(SpGemmError::ShapeMismatch {
        a: (a.nrows, a.ncols),
        b: (b.nrows, b.ncols),
    })
}

/// Checks an op expression against its operands' shapes: every handle is
/// registered, every link's inner dimensions agree, and a mask matches the
/// output. These are exactly the errors estimation can raise, in the same
/// order, so a job admitted under an earlier estimate fails at submit with
/// the code the estimate would have produced.
fn check_op(
    shape_of: &dyn Fn(MatrixId) -> Result<OperandShape, EngineError>,
    op: &OpSpec,
) -> Result<(), EngineError> {
    let masked = |out: OperandShape, mask: Option<MatrixId>| -> Result<(), EngineError> {
        let Some(m) = mask else { return Ok(()) };
        let sm = shape_of(m)?;
        if (sm.nrows, sm.ncols) == (out.nrows, out.ncols) {
            Ok(())
        } else {
            Err(shape_err(sm, OperandShape { nnz: 0, ..out }))
        }
    };
    let link = |cur: OperandShape, b: MatrixId| -> Result<OperandShape, EngineError> {
        let sb = shape_of(b)?;
        if cur.ncols != sb.nrows {
            return Err(shape_err(cur, sb));
        }
        Ok(OperandShape {
            ncols: sb.ncols,
            ..cur
        })
    };
    match op {
        OpSpec::Multiply { a, b } => link(shape_of(*a)?, *b).map(drop),
        OpSpec::MaskedMultiply { a, b, mask } => masked(link(shape_of(*a)?, *b)?, Some(*mask)),
        OpSpec::Add { a, b, .. } => {
            let sa = shape_of(*a)?;
            let sb = shape_of(*b)?;
            if (sa.nrows, sa.ncols) != (sb.nrows, sb.ncols) {
                return Err(shape_err(sa, sb));
            }
            Ok(())
        }
        OpSpec::Chain { operands, mask } => {
            if operands.len() < 2 {
                return Err(EngineError::InvalidOp(
                    "a chain needs at least two operands",
                ));
            }
            let mut cur = shape_of(operands[0])?;
            for &b in &operands[1..] {
                cur = link(cur, b)?;
            }
            masked(cur, *mask)
        }
        OpSpec::Power { a, k, mask } => {
            if *k < 2 {
                return Err(EngineError::InvalidOp("a power needs k >= 2"));
            }
            // Every link multiplies by `a` again, so the first link's check
            // (a square `a`) covers them all.
            masked(link(shape_of(*a)?, *a)?, *mask)
        }
    }
}

/// What estimating an op needs from the registry, copied out under the
/// registry lock so the sampler can run without it.
struct EstimateInputs {
    shapes: HashMap<MatrixId, OperandShape>,
    /// The op's product (none for an add): its operands and how to
    /// estimate it.
    product: Option<(MatrixId, MatrixId, ProductInput)>,
}

/// How an op's product is estimated, decided under the registry lock.
enum ProductInput {
    /// A memoized sampled estimate.
    Memoized(JobEstimate),
    /// Sample both CSR forms.
    SampleCsr(Arc<tsg_matrix::Csr<f64>>, Arc<tsg_matrix::Csr<f64>>),
    /// Sample both tiled forms.
    SampleTiled(Arc<TileMatrix<f64>>, Arc<TileMatrix<f64>>),
    /// The constant-compression model over the exact flop count (sampling
    /// disabled).
    Flops(Arc<tsg_matrix::Csr<f64>>, Arc<tsg_matrix::Csr<f64>>),
    /// The structural model over the operands' shapes.
    Shapes,
}

impl EstimateInputs {
    /// Checks `op` against the registry ([`check_op`], before any memo
    /// lookup, so errors are exactly those of an unmemoized estimate) and
    /// copies out every operand's shape and, for the op's product, its
    /// memoized estimate or the operand forms to estimate it from.
    fn gather(reg: &mut Registry, op: &OpSpec, sample_rate: f64) -> Result<Self, EngineError> {
        let shape_of = |id| {
            let (nrows, ncols, nnz) = reg.shape(id)?;
            Ok(OperandShape { nrows, ncols, nnz })
        };
        check_op(&shape_of, op)?;
        let shapes = op
            .operands()
            .into_iter()
            .map(|id| Ok((id, shape_of(id)?)))
            .collect::<Result<_, EngineError>>()?;
        let product = match op {
            OpSpec::Multiply { a, b } | OpSpec::MaskedMultiply { a, b, .. } => Some((*a, *b)),
            OpSpec::Chain { operands, .. } => Some((operands[0], operands[1])),
            OpSpec::Power { a, .. } => Some((*a, *a)),
            OpSpec::Add { .. } => None,
        };
        let product = product
            .map(|(a, b)| ProductInput::gather(reg, a, b, sample_rate).map(|p| (a, b, p)))
            .transpose()?;
        Ok(EstimateInputs { shapes, product })
    }

    fn shape(&self, id: MatrixId) -> OperandShape {
        self.shapes[&id]
    }
}

impl ProductInput {
    /// Prefers a sampled estimate when both operand structures are on hand
    /// (memoized if it was computed before), the exact row-by-row flop
    /// count when only their CSR forms are (sampling disabled), and the
    /// structural heuristic otherwise — the estimate never forces the CSR
    /// materialization the expression API exists to avoid.
    fn gather(
        reg: &mut Registry,
        a: MatrixId,
        b: MatrixId,
        sample_rate: f64,
    ) -> Result<Self, EngineError> {
        if let Some(forms) = reg.sampled_forms(a, b).filter(|_| sample_rate > 0.0) {
            if let Some(estimate) = reg.memoized_estimate(a, b, forms) {
                return Ok(ProductInput::Memoized(estimate));
            }
            return Ok(match forms {
                SampledForms::Csr => ProductInput::SampleCsr(
                    reg.csr_if_present(a)?.expect("both CSR forms present"),
                    reg.csr_if_present(b)?.expect("both CSR forms present"),
                ),
                SampledForms::Tiled => ProductInput::SampleTiled(
                    reg.tiled_if_present(a)?.expect("both tiled forms present"),
                    reg.tiled_if_present(b)?.expect("both tiled forms present"),
                ),
            });
        }
        Ok(match (reg.csr_if_present(a)?, reg.csr_if_present(b)?) {
            (Some(ca), Some(cb)) => ProductInput::Flops(ca, cb),
            _ => ProductInput::Shapes,
        })
    }

    /// The product's estimate, and the forms it sampled when the registry
    /// should memoize it.
    fn estimate(
        self,
        a: MatrixId,
        b: MatrixId,
        shapes: &EstimateInputs,
        sample_rate: f64,
        threads: usize,
    ) -> (JobEstimate, Option<SampledForms>) {
        // Seeded per operand pair so repeated estimates of the same product
        // are bit-identical while distinct products decorrelate.
        let seed = a.0.rotate_left(32) ^ b.0 ^ 0x7153_7047_454d_4d01;
        match self {
            ProductInput::Memoized(estimate) => (estimate, None),
            ProductInput::SampleCsr(ca, cb) => (
                estimate_job_sampled(&ca, &cb, sample_rate, seed, threads),
                Some(SampledForms::Csr),
            ),
            ProductInput::SampleTiled(ta, tb) => (
                estimate_tiled_sampled(&ta, &tb, sample_rate, seed, threads),
                Some(SampledForms::Tiled),
            ),
            ProductInput::Flops(ca, cb) => (estimate_job(&ca, None, &cb, None, threads), None),
            ProductInput::Shapes => (
                estimate_product(shapes.shape(a), shapes.shape(b), threads),
                None,
            ),
        }
    }
}

/// Cost prediction for an op expression that [`EstimateInputs::gather`]
/// checked, given the estimate of its product (`None` for an add).
fn estimate_spec(
    inputs: &EstimateInputs,
    op: &OpSpec,
    product: Option<JobEstimate>,
    threads: usize,
) -> JobEstimate {
    let product = || product.expect("every op but add has a product");
    let mask_shape = |mask: Option<MatrixId>| mask.map(|m| inputs.shape(m));
    match op {
        OpSpec::Multiply { .. } => product(),
        OpSpec::MaskedMultiply { mask, .. } => mask_pruned(product(), inputs.shape(*mask)),
        OpSpec::Add { a, b, .. } => estimate_add(inputs.shape(*a), inputs.shape(*b)),
        OpSpec::Chain { operands, mask } => fold_chain(
            product(),
            (
                inputs.shape(operands[0]).nrows,
                inputs.shape(operands[1]).ncols,
            ),
            operands[2..].iter().map(|&id| inputs.shape(id)),
            false,
            mask_shape(*mask),
            threads,
        ),
        OpSpec::Power { a, k, mask } => {
            let sa = inputs.shape(*a);
            fold_chain(
                product(),
                (sa.nrows, sa.ncols),
                std::iter::repeat_n(sa, *k as usize - 2),
                true,
                mask_shape(*mask),
                threads,
            )
        }
    }
}

/// Folds a left-associated chain's link estimates. `first` is the first
/// link's estimate, from the operands themselves, and `first_out` that
/// link's output shape; every later link is estimated from the running
/// output shape (with the estimated nnz) times its right operand's shape.
/// Flops sum over links; the byte prediction is the widest single link,
/// since intermediates are held one at a time; a mask prunes the final
/// link.
///
/// A later link's estimate is a pure function of its inputs. When every
/// right operand is the same matrix (`repeats`, a power) and a link leaves
/// the running nnz unchanged, each remaining link would see exactly the
/// inputs this one saw, so they are counted instead of folded — which
/// keeps `k` up to `u32::MAX` cheap.
fn fold_chain(
    first: JobEstimate,
    first_out: (usize, usize),
    mut rights: impl ExactSizeIterator<Item = OperandShape>,
    repeats: bool,
    mask: Option<OperandShape>,
    threads: usize,
) -> JobEstimate {
    let (out_rows, mut cols) = first_out;
    let (mut flops, mut est_bytes) = (0u64, 0usize);
    let mut last = first;
    while let Some(sb) = rights.next() {
        let cur = OperandShape {
            nrows: out_rows,
            ncols: cols,
            nnz: last.est_nnz_c,
        };
        let next = estimate_product(cur, sb, threads);
        flops = flops.saturating_add(last.flops);
        est_bytes = est_bytes.max(last.est_bytes);
        cols = sb.ncols;
        let converged = repeats && next.est_nnz_c == last.est_nnz_c;
        last = next;
        if converged {
            let more = rights.len() as u64;
            if more > 0 {
                flops = flops.saturating_add(last.flops.saturating_mul(more));
                est_bytes = est_bytes.max(last.est_bytes);
            }
            break;
        }
    }
    if let Some(sm) = mask {
        last = mask_pruned(last, sm);
    }
    JobEstimate {
        flops: flops.saturating_add(last.flops),
        est_nnz_c: last.est_nnz_c,
        est_bytes: est_bytes.max(last.est_bytes),
        // A chain's first link may carry a sample, but the chain total
        // mixes it with heuristic links — a band over the mix would
        // overstate what was measured.
        sample: None,
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let queue_wait = job.enqueued.elapsed();
    shared
        .counters
        .queue_wait_micros
        .fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);
    if job.ticket.canceled.load(Ordering::Relaxed) {
        shared.counters.canceled.fetch_add(1, Ordering::Relaxed);
        complete(&job.ticket, Err(EngineError::Canceled));
        return;
    }
    if job.deadline.is_some_and(|d| Instant::now() > d) {
        shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
        complete(&job.ticket, Err(EngineError::TimedOut));
        return;
    }

    let exec_start = Instant::now();
    let recorder = &*shared.recorder;
    // Operand resolution gets its own span per operand (a sibling of the
    // multiply's "job" root), so a profile shows conversion stalls next to
    // the pipeline phases.
    let resolve = |id| {
        // Failpoint `engine.resolve`: the operand disappears between
        // admission (which saw it) and execution — the unregister/eviction
        // race. The job must fail with the stable `unknown_matrix` code and
        // leave the worker loop alive.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("engine.resolve") {
            return Err(EngineError::UnknownMatrix(id));
        }
        let span = recorder.span_enter(job.id, "resolve");
        let out = resolve_tiled(shared, id);
        recorder.span_exit(span);
        out
    };
    let config = job.config.unwrap_or(shared.cfg.base_config);
    let result = match job.work {
        Work::Multiply { a, b, mask } => resolve(a).and_then(|(ta, hit_a)| {
            let (tb, hit_b) = resolve(b)?;
            let (mut cache_hits, mut conversions) = (
                u32::from(hit_a) + u32::from(hit_b),
                u32::from(!hit_a) + u32::from(!hit_b),
            );
            let tm = match mask {
                Some(mask) => {
                    let (tm, hit_m) = resolve(mask)?;
                    cache_hits += u32::from(hit_m);
                    conversions += u32::from(!hit_m);
                    Some(tm)
                }
                None => None,
            };
            let out = pool_for(&shared.cfg.device)
                .install(|| {
                    multiply_with_pool(
                        &ta,
                        &tb,
                        tm.as_deref(),
                        &config,
                        &shared.device_tracker,
                        recorder,
                        job.id,
                        &shared.arena,
                    )
                })
                .map_err(EngineError::SpGemm)?;
            let exec = exec_start.elapsed();
            Ok(JobReport {
                job: job.id,
                nnz_c: out.c.nnz(),
                tiles_c: out.c.tile_count(),
                c: Arc::new(out.c),
                queue_wait,
                exec,
                peak_bytes: out.peak_bytes,
                cache_hits,
                conversions,
                estimate: job.estimate,
                breakdown: out.breakdown,
            })
        }),
        Work::Add { alpha, a, beta, b } => resolve(a).and_then(|(ta, hit_a)| {
            let (tb, hit_b) = resolve(b)?;
            if (ta.nrows, ta.ncols) != (tb.nrows, tb.ncols) {
                // `core::add` asserts on shape; surface the typed error
                // instead (submit already validated against the registry,
                // but operands can be swapped under us between admission
                // and execution).
                return Err(EngineError::SpGemm(SpGemmError::ShapeMismatch {
                    a: (ta.nrows, ta.ncols),
                    b: (tb.nrows, tb.ncols),
                }));
            }
            // The add kernel has no tracker of its own; account its
            // operands and output against the device budget here so an add
            // respects the same admission backstop as the multiplies.
            let input_bytes = ta.bytes() + tb.bytes();
            shared
                .device_tracker
                .on_alloc(input_bytes)
                .map_err(|e| EngineError::SpGemm(e.into()))?;
            let mut breakdown = Breakdown::default();
            let span = recorder.span_enter(job.id, "job");
            let c = pool_for(&shared.cfg.device).install(|| {
                breakdown.timed(Step::Step3, || tilespgemm_core::add(alpha, &ta, beta, &tb))
            });
            recorder.span_exit(span);
            let c_bytes = c.bytes();
            let out_alloc = shared.device_tracker.on_alloc(c_bytes);
            shared.device_tracker.on_free(input_bytes);
            match out_alloc {
                Ok(()) => shared.device_tracker.on_free(c_bytes),
                Err(e) => return Err(EngineError::SpGemm(e.into())),
            }
            let exec = exec_start.elapsed();
            Ok(JobReport {
                job: job.id,
                nnz_c: c.nnz(),
                tiles_c: c.tile_count(),
                c: Arc::new(c),
                queue_wait,
                exec,
                peak_bytes: input_bytes + c_bytes,
                cache_hits: u32::from(hit_a) + u32::from(hit_b),
                conversions: u32::from(!hit_a) + u32::from(!hit_b),
                estimate: job.estimate,
                breakdown,
            })
        }),
    };
    shared
        .counters
        .exec_micros
        .fetch_add(exec_start.elapsed().as_micros() as u64, Ordering::Relaxed);
    match &result {
        Ok(report) => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            // Pin the estimator's accuracy per completed job: which log2
            // band did actual peak bytes land in relative to the admission
            // estimate?
            //
            // Multiply jobs tick: plain multiplies run on the sampled/
            // exact-flops model, and masked multiplies prune that same
            // model through the mask (`mask_pruned`), so both are
            // like-for-like with the histogram. Add jobs run on an
            // unrelated heuristic baseline and skip the tick.
            let multiply = matches!(job.work, Work::Multiply { .. });
            if multiply {
                recorder.add(
                    est_error_bucket(report.estimate.est_bytes, report.peak_bytes),
                    1,
                );
            }
            // Sampled-estimator provenance: how many completed jobs carried
            // a sampled band, how many tile rows those samples measured,
            // how often the "sample" was in fact the full population, and
            // how many multiply jobs fell back to the constant model
            // (sampling disabled, failpoint, or shape-only operands).
            match job.estimate.sample {
                Some(s) => {
                    recorder.add(Counter::EstSampleJobs, 1);
                    recorder.add(Counter::EstSampleRows, u64::from(s.sampled_tile_rows));
                    if s.exact {
                        recorder.add(Counter::EstSampleExact, 1);
                    }
                }
                None if multiply => recorder.add(Counter::EstSampleFallback, 1),
                None => {}
            }
            if matches!(job.work, Work::Multiply { mask: Some(_), .. }) {
                recorder.add(Counter::MaskedJobs, 1);
            }
        }
        Err(_) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        }
    };
    complete(&job.ticket, result);
}
