//! The `SpGemm` execution context — the front door of the crate.
//!
//! The free functions [`crate::multiply`] / [`crate::multiply_csr`] take a
//! `(config, tracker)` pair on every call and give observability no seat at
//! the table. The context owns all three concerns — [`Config`], a shared
//! [`MemTracker`], and an `Arc<dyn Recorder>` — so a caller configures once
//! and every product it runs is accounted and (optionally) profiled under a
//! fresh job id:
//!
//! ```
//! use tilespgemm_core::SpGemm;
//! use tsg_matrix::{Csr, TileMatrix};
//!
//! let ctx = SpGemm::new();
//! let a = TileMatrix::from_csr(&Csr::<f64>::identity(64));
//! let out = ctx.multiply(&a, &a).unwrap();
//! assert_eq!(out.c.nnz(), 64);
//! ```
//!
//! Profiled runs attach a [`CollectingRecorder`] through the builder; the
//! tracker reports its byte traffic into the same recorder, so the counter
//! snapshot reconciles with the memory accounting:
//!
//! ```
//! use std::sync::Arc;
//! use tilespgemm_core::{Config, Scheduling, SpGemm};
//! use tsg_matrix::{Csr, TileMatrix};
//! use tsg_runtime::{CollectingRecorder, Counter};
//!
//! let recorder = Arc::new(CollectingRecorder::new());
//! let ctx = SpGemm::builder()
//!     .config(Config::builder().scheduling(Scheduling::PerTileRow).build())
//!     .recorder(recorder.clone())
//!     .build();
//! let a = TileMatrix::from_csr(&Csr::<f64>::identity(64));
//! let out = ctx.multiply(&a, &a).unwrap();
//! let snap = ctx.metrics();
//! assert_eq!(snap.get(Counter::TilesVisited) as usize, out.c.tile_count());
//! assert!(!recorder.span_tree(1).is_empty());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsg_matrix::{Csr, Scalar, TileMatrix};
use tsg_runtime::observe::{MetricsSnapshot, NullRecorder, Recorder};
use tsg_runtime::{MemTracker, ScratchPool};

#[cfg(doc)]
use tsg_runtime::CollectingRecorder;

use crate::convert::{timed_csr_to_tile, ConversionTiming};
use crate::pipeline::{multiply_with_pool, Output};
use crate::{Config, SpGemmError};

/// An execution context owning the configuration, device-memory accounting,
/// recorder, and reusable scratch arenas that every multiplication it runs
/// shares. The arenas warm up on the first product and make the later
/// per-tile step-2/3 work allocation-free.
///
/// Construct with [`SpGemm::new`] (paper defaults, unlimited budget, no
/// recording) or [`SpGemm::builder`]. Each [`SpGemm::multiply`] /
/// [`SpGemm::multiply_csr`] call runs under a fresh job id (1, 2, …), which
/// names the span tree a recorder collects for it; services that assign
/// their own job ids use [`SpGemm::multiply_as`].
#[derive(Debug)]
pub struct SpGemm {
    config: Config,
    tracker: Arc<MemTracker>,
    recorder: Arc<dyn Recorder>,
    arena: ScratchPool,
    next_job: AtomicU64,
}

impl Default for SpGemm {
    fn default() -> Self {
        Self::new()
    }
}

impl SpGemm {
    /// A context with the paper's default [`Config`], an unlimited-budget
    /// tracker, and the [`NullRecorder`].
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts building a context.
    pub fn builder() -> SpGemmBuilder {
        SpGemmBuilder::default()
    }

    /// The configuration every multiplication uses.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The shared device-memory tracker.
    pub fn tracker(&self) -> &Arc<MemTracker> {
        &self.tracker
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The recorder's current counter totals.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// High-water mark, in bytes, of the context's reusable scratch arenas
    /// across every multiplication it has run. Scratch stays warm between
    /// multiplies (steady-state step 2/3 execution allocates nothing), so
    /// this reports the arenas' largest combined footprint so far.
    pub fn arena_high_water_bytes(&self) -> usize {
        self.arena.high_water_bytes()
    }

    /// Runs `C = A·B` on tiled operands under the next job id.
    pub fn multiply<T: Scalar>(
        &self,
        a: &TileMatrix<T>,
        b: &TileMatrix<T>,
    ) -> Result<Output<T>, SpGemmError> {
        self.multiply_as(self.next_job(), a, b)
    }

    /// Runs `C = A·B` under a caller-chosen job id (services that already
    /// number their jobs record spans under those numbers).
    pub fn multiply_as<T: Scalar>(
        &self,
        job: u64,
        a: &TileMatrix<T>,
        b: &TileMatrix<T>,
    ) -> Result<Output<T>, SpGemmError> {
        multiply_with_pool(
            a,
            b,
            None,
            &self.config,
            &self.tracker,
            &*self.recorder,
            job,
            &self.arena,
        )
    }

    /// Converts CSR operands to tiled form and multiplies, under the next
    /// job id. The returned [`Output`] carries the conversion timing and the
    /// same breakdown and peak fields as [`SpGemm::multiply`];
    /// [`Output::to_csr`] recovers a CSR product.
    pub fn multiply_csr<T: Scalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Output<T>, SpGemmError> {
        self.multiply_csr_as(self.next_job(), a, b)
    }

    /// CSR entry point under a caller-chosen job id.
    pub fn multiply_csr_as<T: Scalar>(
        &self,
        job: u64,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Output<T>, SpGemmError> {
        let span = self.recorder.span_enter(job, "convert");
        let (ta, conv_a) = timed_csr_to_tile(a);
        let (tb, conv_b) = timed_csr_to_tile(b);
        self.recorder.span_exit(span);
        let mut out = self.multiply_as(job, &ta, &tb)?;
        out.conversion = Some(ConversionTiming {
            conversion: conv_a.conversion + conv_b.conversion,
            tiles: conv_a.tiles + conv_b.tiles,
            nnz: conv_a.nnz + conv_b.nnz,
        });
        Ok(out)
    }

    fn next_job(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }
}

/// Builder for [`SpGemm`]. Every field is optional; the defaults are the
/// paper configuration with an unlimited budget and no recording.
#[derive(Debug, Default)]
pub struct SpGemmBuilder {
    config: Config,
    tracker: Option<Arc<MemTracker>>,
    budget: Option<usize>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl SpGemmBuilder {
    /// Uses `config` for every multiplication.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Overrides the SIMD kernel policy on the current config. Convenience
    /// for flipping just the dispatch knob around [`SpGemmBuilder::config`];
    /// every policy produces bit-identical output (see `simd` module docs).
    pub fn simd(mut self, policy: crate::SimdPolicy) -> Self {
        self.config.simd = policy;
        self
    }

    /// Shares an existing tracker (e.g. a device-wide one) instead of
    /// creating a fresh unlimited tracker.
    pub fn tracker(mut self, tracker: Arc<MemTracker>) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Enforces a device-memory budget in bytes. Ignored when an explicit
    /// [`SpGemmBuilder::tracker`] is supplied (set that tracker's budget
    /// instead).
    pub fn budget(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Attaches a recorder. The context also attaches it to the tracker so
    /// byte counters flow into the same snapshot.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the context.
    pub fn build(self) -> SpGemm {
        let tracker = self.tracker.unwrap_or_else(|| {
            Arc::new(MemTracker::with_budget(self.budget.unwrap_or(usize::MAX)))
        });
        let recorder = self.recorder.unwrap_or_else(|| Arc::new(NullRecorder));
        if recorder.is_enabled() {
            tracker.set_recorder(Some(recorder.clone()));
        }
        SpGemm {
            config: self.config,
            tracker,
            recorder,
            arena: ScratchPool::new(),
            next_job: AtomicU64::new(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_runtime::observe::{CollectingRecorder, Counter};

    fn identity_tiled(n: usize) -> TileMatrix<f64> {
        TileMatrix::from_csr(&Csr::<f64>::identity(n))
    }

    #[test]
    fn default_context_matches_free_function() {
        let a = identity_tiled(96);
        let ctx = SpGemm::new();
        let from_ctx = ctx.multiply(&a, &a).unwrap();
        let direct = crate::multiply(&a, &a, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(from_ctx.c, direct.c);
        assert!(from_ctx.conversion.is_none());
    }

    #[test]
    fn jobs_get_sequential_ids_and_separate_span_trees() {
        let recorder = Arc::new(CollectingRecorder::new());
        let ctx = SpGemm::builder().recorder(recorder.clone()).build();
        let a = identity_tiled(64);
        ctx.multiply(&a, &a).unwrap();
        ctx.multiply(&a, &a).unwrap();
        assert_eq!(recorder.jobs(), vec![1, 2]);
        for job in [1, 2] {
            let roots = recorder.span_tree(job);
            let root = roots.last().expect("job root span");
            assert_eq!(root.name, "job");
            for phase in ["step1", "step2", "step3", "alloc"] {
                assert!(root.child(phase).is_some(), "job {job} missing {phase}");
            }
        }
    }

    #[test]
    fn budget_flows_into_the_tracker() {
        let ctx = SpGemm::builder().budget(1024).build();
        let a = identity_tiled(256);
        let err = ctx.multiply(&a, &a).unwrap_err();
        assert_eq!(err.code(), "out_of_memory");
        assert_eq!(ctx.tracker().current_bytes(), 0);
    }

    #[test]
    fn tracker_bytes_reach_the_recorder() {
        let recorder = Arc::new(CollectingRecorder::new());
        let ctx = SpGemm::builder().recorder(recorder.clone()).build();
        let a = identity_tiled(64);
        let out = ctx.multiply(&a, &a).unwrap();
        let snap = ctx.metrics();
        assert_eq!(snap.get(Counter::BytesAlloc), snap.get(Counter::BytesFreed));
        assert!(snap.get(Counter::BytesAlloc) as usize >= out.peak_bytes);
    }

    #[test]
    fn context_arena_warms_once_and_reports_high_water() {
        let ctx = SpGemm::new();
        assert_eq!(ctx.arena_high_water_bytes(), 0);
        let a = identity_tiled(128);
        ctx.multiply(&a, &a).unwrap();
        let after_first = ctx.arena_high_water_bytes();
        assert!(after_first > 0, "first multiply warms the pool");
        ctx.multiply(&a, &a).unwrap();
        assert_eq!(
            ctx.arena_high_water_bytes(),
            after_first,
            "steady state adds no scratch"
        );
        assert_eq!(ctx.tracker().current_bytes(), 0);
    }

    #[test]
    fn csr_entry_point_reports_conversion() {
        let ctx = SpGemm::new();
        let a = Csr::<f64>::identity(64);
        let out = ctx.multiply_csr(&a, &a).unwrap();
        let conv = out.conversion.expect("CSR entry point times conversion");
        assert_eq!(conv.nnz, 128, "both operands' nonzeros are converted");
        assert_eq!(out.to_csr(), a);
    }
}
