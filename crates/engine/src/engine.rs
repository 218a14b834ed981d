//! The resident engine: a matrix registry, an admission estimator and a
//! synchronous job runner.
//!
//! One [`Engine`] owns a simulated [`Device`], a shared [`MemTracker`]
//! enforcing the device budget across *all* in-flight products (PR 1's
//! tracker only ever guarded one), a [`Registry`] of loaded matrices with
//! cached tiled conversions, and the scratch pool every job draws its
//! arenas and large buffers from.
//!
//! The engine keeps no queue and starts no thread. A caller costs a job
//! with [`Engine::estimate_op`] and runs it with [`Engine::run`], on its own
//! thread and under its own job id: `run` resolves the operands through the
//! registry (cache hit or conversion) and runs the tiled pipeline inside
//! the memoized per-device Rayon pool ([`tsg_runtime::device::pool_for`])
//! under the shared tracker. Queueing, fairness, deadlines, cancellation
//! and admission against free memory belong to the caller; `tsg-serve`'s
//! scheduler is the caller that runs many jobs at once. A running multiply
//! is not interruptible (matching the kernels it models).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Byte budget for cached tiled conversions in the registry.
    pub cache_bytes: usize,
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
            profile: false,
            sample_rate: tilespgemm_core::sample::DEFAULT_SAMPLE_RATE,
        }
    }
}

/// The operation a job evaluates, over registry handles.
///
/// This is the expression layer of the engine: GraphBLAS-style workloads —
/// triangle counting `C⟨A⟩ = A·A`, Galerkin triple products `R·A·P`, Markov
/// clustering's `A^k` — are sequences of products. [`Engine::run`] runs
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
    /// link by link; [`Engine::run`] refuses it with `invalid_op`. An
    /// optional mask applies to the final link only.
    Chain {
        /// The operands, in multiplication order (at least two).
        operands: Vec<MatrixId>,
        /// Mask for the final link; shape must match the chain's output.
        mask: Option<MatrixId>,
    },
    /// `C = A^k` — matrix power, `k ≥ 2`, estimated as the chain of `k`
    /// copies of `a` and, like a chain, refused by [`Engine::run`].
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

/// Builds an [`OpSpec`] expression: `JobSpec::multiply(a, b).mask(m).op`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The operation to evaluate.
    pub op: OpSpec,
}

impl JobSpec {
    /// `C = A·B`.
    pub fn multiply(a: MatrixId, b: MatrixId) -> Self {
        JobSpec {
            op: OpSpec::Multiply { a, b },
        }
    }

    /// `C = alpha·A + beta·B`.
    pub fn add(alpha: f64, a: MatrixId, beta: f64, b: MatrixId) -> Self {
        JobSpec {
            op: OpSpec::Add { alpha, a, beta, b },
        }
    }

    /// A left-associated chain `C = M₁·M₂·…·Mₙ`, to estimate.
    pub fn chain(operands: impl Into<Vec<MatrixId>>) -> Self {
        JobSpec {
            op: OpSpec::Chain {
                operands: operands.into(),
                mask: None,
            },
        }
    }

    /// `C = A^k`, to estimate.
    pub fn power(a: MatrixId, k: u32) -> Self {
        JobSpec {
            op: OpSpec::Power { a, k, mask: None },
        }
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
}

/// Completion record of a successful job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The caller's job id, which the job's span tree is recorded under.
    pub job: u64,
    /// The product, in tiled form.
    pub c: Arc<TileMatrix<f64>>,
    /// Output nonzeros (structural, as the pipeline reports them).
    pub nnz_c: usize,
    /// Output tile count.
    pub tiles_c: usize,
    /// Execution wall time (operand resolution + multiply).
    pub exec: Duration,
    /// Peak tracked device bytes during the multiply.
    pub peak_bytes: usize,
    /// Operand tiled forms served from the registry cache (0..=2).
    pub cache_hits: u32,
    /// CSR→tiled conversions this job had to perform (0..=2).
    pub conversions: u32,
    /// The cost prediction the caller admitted the job under.
    pub estimate: JobEstimate,
    /// Per-step wall times of the multiply (Figure 10's slices).
    pub breakdown: Breakdown,
}

/// Terminal state of a job.
pub type JobResult = Result<JobReport, EngineError>;

/// What [`Engine::run`] runs: the ops that are not estimate-only.
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
                    "chains and powers are estimate-only; run their links",
                ))
            }
        })
    }
}

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    failed: AtomicU64,
    exec_micros: AtomicU64,
}

/// Snapshot of engine-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs that finished with a product.
    pub completed: u64,
    /// Jobs [`Engine::run`] returned an error for (OOM, shape mismatch,
    /// an unloaded operand, an estimate-only op).
    pub failed: u64,
    /// Sum of execution times over completed/failed jobs.
    pub exec_total: Duration,
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

/// The resident SpGEMM service engine. See the module docs: it holds the
/// registry and the shared device state, and runs each job on its caller's
/// thread.
pub struct Engine {
    cfg: EngineConfig,
    device_tracker: MemTracker,
    registry: Mutex<Registry>,
    counters: Counters,
    recorder: Arc<dyn Recorder>,
    collector: Option<Arc<CollectingRecorder>>,
    /// Reusable scratch arenas shared by every job; after the first few
    /// jobs the step-2/3 hot path allocates nothing. It also holds the idle
    /// buffers jobs' large arrays are recycled through.
    arena: ScratchPool,
}

impl Engine {
    /// Builds an engine.
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
        Engine {
            device_tracker,
            registry: Mutex::new(registry),
            counters: Counters::default(),
            recorder,
            collector,
            arena: ScratchPool::new(),
            cfg,
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
        let (t, hit) = self.resolve_tiled(id)?;
        Ok((t.tile_count(), t.bytes(), hit))
    }

    /// The tiled form of `id`, converting on a cache miss *outside* the
    /// registry lock. The boolean is `true` on a cache hit. This is what
    /// [`Engine::run`] resolves operands with, and what a conversion-prefetch
    /// thread calls to warm job N+1's operands while job N computes: the
    /// registry mutex is only held for the lookup and the install, so a
    /// running conversion never blocks concurrent resolves.
    pub fn resolve_tiled(&self, id: MatrixId) -> Result<(Arc<TileMatrix<f64>>, bool), EngineError> {
        let lookup = self.lock_registry().begin_tiled(id)?;
        match lookup {
            TiledLookup::Cached(t) => Ok((t, true)),
            TiledLookup::Convert(csr) => {
                let tiled = Arc::new(TileMatrix::from_csr(&csr));
                self.lock_registry()
                    .install_tiled(id, Arc::clone(&tiled), true);
                Ok((tiled, false))
            }
        }
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
            tilespgemm_core::recycle(c, &self.arena);
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

    /// Predicts the cost of an op expression without running it: the
    /// estimate a caller admits a job under and hands to [`Engine::run`].
    /// Shape errors (incompatible operands, a mask that does not match the
    /// output) surface here exactly as they would when the job runs.
    /// Estimation never materializes a CSR: operands whose CSR form is
    /// absent are estimated structurally from their registered shape.
    ///
    /// The op's product (a chain's or power's first link) is estimated once
    /// per operand pair: its sampled estimate is memoized in the registry,
    /// so a repeated product costs one lookup under the registry lock,
    /// which the shape check takes anyway. On a miss the lock is held only
    /// to copy out the operands' `Arc`s; the sampled symbolic pass runs
    /// after it is released, and its result is stored under a second short
    /// lock. Memoized or not, the estimate is bit-identical.
    pub fn estimate_op(&self, op: &OpSpec) -> Result<JobEstimate, EngineError> {
        let cfg = &self.cfg;
        // Failpoint `engine.estimate_sample`: the sampled symbolic pass
        // "fails" and estimation falls back to the constant-compression
        // upper bound — the degraded mode a job must survive (admitted or
        // deferred, never wrongly refused for lack of a sample). The
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

    /// Runs one `Multiply`, `MaskedMultiply` or `Add` job on the calling
    /// thread, inside the device pool, and returns its report. `job` is the
    /// caller's id for it: the report and the job's span tree carry it.
    /// `estimate` is the cost prediction the caller admitted the job under
    /// (from [`Engine::estimate_op`]); it is reported verbatim, never
    /// sampled again and never checked against the budget, so a job the
    /// caller admits past its estimate runs with the shared tracker as the
    /// backstop.
    ///
    /// A chain or power fails with `invalid_op` (they are estimate-only),
    /// an operand that is not registered by now with `unknown_matrix`, and
    /// operands whose shapes do not fit with `shape_mismatch`.
    pub fn run(&self, job: u64, op: &OpSpec, estimate: JobEstimate) -> JobResult {
        let start = Instant::now();
        let result = Work::of(op).and_then(|work| self.execute(job, &work, estimate, start));
        self.counters
            .exec_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        let Ok(report) = &result else {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            return result;
        };
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        let recorder = &*self.recorder;
        // Pin the estimator's accuracy per completed job: which log2 band
        // did actual peak bytes land in relative to the admission estimate?
        //
        // Multiply jobs tick: plain multiplies run on the sampled/exact-flops
        // model, and masked multiplies prune that same model through the
        // mask (`mask_pruned`), so both are like-for-like with the
        // histogram. Add jobs run on an unrelated heuristic baseline and
        // skip the tick.
        let (multiply, masked) = match op {
            OpSpec::Multiply { .. } => (true, false),
            OpSpec::MaskedMultiply { .. } => (true, true),
            _ => (false, false),
        };
        if multiply {
            recorder.add(est_error_bucket(estimate.est_bytes, report.peak_bytes), 1);
        }
        // Sampled-estimator provenance: how many completed jobs carried a
        // sampled band, how many tile rows those samples measured, how
        // often the "sample" was in fact the full population, and how many
        // multiply jobs fell back to the constant model (sampling disabled,
        // failpoint, or shape-only operands).
        match estimate.sample {
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
        if masked {
            recorder.add(Counter::MaskedJobs, 1);
        }
        result
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
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
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            exec_total: Duration::from_micros(c.exec_micros.load(Ordering::Relaxed)),
            registry,
            cached_bytes,
            resident_bytes,
            memoized_estimates,
            device_bytes_in_use: self.device_tracker.current_bytes(),
            arena_high_water: self.arena.high_water_bytes(),
            buffers: self.arena.buffer_stats(),
        }
    }

    /// The engine's device.
    pub fn device(&self) -> &Device {
        &self.cfg.device
    }

    /// The engine's construction parameters.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shared device-budget tracker (in-flight bytes across all jobs).
    pub fn device_tracker(&self) -> &MemTracker {
        &self.device_tracker
    }

    /// The recorder jobs report into — a [`CollectingRecorder`] when the
    /// engine was built with [`EngineConfig::profile`], the null fast path
    /// otherwise.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The collecting recorder, when profiling is on. This is where per-job
    /// span trees live ([`CollectingRecorder::span_tree`]).
    pub fn collector(&self) -> Option<&Arc<CollectingRecorder>> {
        self.collector.as_ref()
    }

    /// Aggregated observability counters across all jobs so far. All zeros
    /// unless the engine is profiling.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The body of [`Engine::run`]: resolves the operands and runs `work`.
    fn execute(&self, job: u64, work: &Work, estimate: JobEstimate, start: Instant) -> JobResult {
        let recorder = &*self.recorder;
        // Operand resolution gets its own span per operand (a sibling of the
        // multiply's "job" root), so a profile shows conversion stalls next
        // to the pipeline phases.
        let resolve = |id| {
            // Failpoint `engine.resolve`: the operand disappears between
            // admission (which saw it) and execution — the unregister/
            // eviction race. The job must fail with the stable
            // `unknown_matrix` code and leave the engine serving.
            #[cfg(feature = "failpoints")]
            if tsg_runtime::failpoint::should_fail("engine.resolve") {
                return Err(EngineError::UnknownMatrix(id));
            }
            let span = recorder.span_enter(job, "resolve");
            let out = self.resolve_tiled(id);
            recorder.span_exit(span);
            out
        };
        match *work {
            Work::Multiply { a, b, mask } => {
                let (ta, hit_a) = resolve(a)?;
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
                let out = pool_for(&self.cfg.device)
                    .install(|| {
                        multiply_with_pool(
                            &ta,
                            &tb,
                            tm.as_deref(),
                            &Config::default(),
                            &self.device_tracker,
                            recorder,
                            job,
                            &self.arena,
                        )
                    })
                    .map_err(EngineError::SpGemm)?;
                Ok(JobReport {
                    job,
                    nnz_c: out.c.nnz(),
                    tiles_c: out.c.tile_count(),
                    c: Arc::new(out.c),
                    exec: start.elapsed(),
                    peak_bytes: out.peak_bytes,
                    cache_hits,
                    conversions,
                    estimate,
                    breakdown: out.breakdown,
                })
            }
            Work::Add { alpha, a, beta, b } => {
                let (ta, hit_a) = resolve(a)?;
                let (tb, hit_b) = resolve(b)?;
                if (ta.nrows, ta.ncols) != (tb.nrows, tb.ncols) {
                    // `core::add` asserts on shape; surface the typed error
                    // instead.
                    return Err(EngineError::SpGemm(SpGemmError::ShapeMismatch {
                        a: (ta.nrows, ta.ncols),
                        b: (tb.nrows, tb.ncols),
                    }));
                }
                // The add kernel has no tracker of its own; account its
                // operands and output against the device budget here so an
                // add respects the same backstop as the multiplies.
                let input_bytes = ta.bytes() + tb.bytes();
                self.device_tracker
                    .on_alloc(input_bytes)
                    .map_err(|e| EngineError::SpGemm(e.into()))?;
                let mut breakdown = Breakdown::default();
                let span = recorder.span_enter(job, "job");
                let c = pool_for(&self.cfg.device).install(|| {
                    breakdown.timed(Step::Step3, || tilespgemm_core::add(alpha, &ta, beta, &tb))
                });
                recorder.span_exit(span);
                let c_bytes = c.bytes();
                let out_alloc = self.device_tracker.on_alloc(c_bytes);
                self.device_tracker.on_free(input_bytes);
                match out_alloc {
                    Ok(()) => self.device_tracker.on_free(c_bytes),
                    Err(e) => return Err(EngineError::SpGemm(e.into())),
                }
                Ok(JobReport {
                    job,
                    nnz_c: c.nnz(),
                    tiles_c: c.tile_count(),
                    c: Arc::new(c),
                    exec: start.elapsed(),
                    peak_bytes: input_bytes + c_bytes,
                    cache_hits: u32::from(hit_a) + u32::from(hit_b),
                    conversions: u32::from(!hit_a) + u32::from(!hit_b),
                    estimate,
                    breakdown,
                })
            }
        }
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
/// output. Estimation raises exactly these errors, in this order, before it
/// looks at any memo.
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
