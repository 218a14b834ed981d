#![warn(missing_docs)]

//! # tilespgemm — Rust reproduction of TileSpGEMM (PPoPP '22)
//!
//! A from-scratch implementation of *TileSpGEMM: A Tiled Algorithm for
//! Parallel Sparse General Matrix-Matrix Multiplication on GPUs* (Niu, Lu,
//! Ji, Song, Jin, Liu — PPoPP 2022), together with every substrate its
//! evaluation depends on: the sparse-tile format, four row-row baseline
//! methods (cuSPARSE/bhSPARSE/NSPARSE/spECK analogues), a tSparse-like
//! dense-tile method, CSB formats, synthetic dataset generators, a simulated
//! two-device runtime with memory budgeting, and a figure-by-figure
//! benchmark harness.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`matrix`] — formats: [`matrix::Csr`], [`matrix::TileMatrix`], CSB, …
//! * [`core`] — the TileSpGEMM algorithm: [`core::multiply`]
//! * [`baselines`] — competing methods: [`baselines::run_method`]
//! * [`gen`] — dataset generators and registries
//! * [`runtime`] — devices, memory tracking, breakdowns
//! * [`engine`] — the resident service engine behind `tsg-serve`
//!
//! ## Quickstart
//!
//! ```
//! use tilespgemm::prelude::*;
//!
//! // A small sparse matrix in CSR form.
//! let a = tilespgemm::gen::stencil::grid_2d_5pt(32, 32);
//! // Convert once to the paper's tiled format...
//! let tiled = TileMatrix::from_csr(&a);
//! // ...and multiply under the paper's configuration, with an unlimited
//! // device-memory budget.
//! let out = multiply(&tiled, &tiled, &Config::default(), &MemTracker::new()).unwrap();
//! // A² of the 5-point stencil has the 13-point pattern.
//! assert_eq!(out.c.to_csr().row_nnz(17 * 32 + 17), 13);
//! ```
//!
//! To profile a product, call [`core::multiply_with_pool`] with a
//! [`runtime::CollectingRecorder`], attached to the tracker as well so its
//! byte counters reconcile with the memory accounting:
//!
//! ```
//! use std::sync::Arc;
//! use tilespgemm::prelude::*;
//! use tilespgemm::runtime::ScratchPool;
//!
//! let a = TileMatrix::from_csr(&Csr::<f64>::identity(64));
//! let recorder = Arc::new(CollectingRecorder::new());
//! let tracker = MemTracker::new();
//! tracker.set_recorder(Some(recorder.clone()));
//! let config = Config::default();
//! let pool = ScratchPool::new();
//! let out = multiply_with_pool(&a, &a, None, &config, &tracker, &*recorder, 1, &pool).unwrap();
//! let snap = recorder.snapshot();
//! assert_eq!(snap.get(Counter::TilesVisited) as usize, out.c.tile_count());
//! assert_eq!(snap.get(Counter::BytesAlloc), snap.get(Counter::BytesFreed));
//! assert!(!recorder.span_tree(1).is_empty());
//! ```

pub use tilespgemm_core as core;
pub use tsg_baselines as baselines;
pub use tsg_engine as engine;
pub use tsg_gen as gen;
pub use tsg_matrix as matrix;
pub use tsg_runtime as runtime;
pub use tsg_serve as serve;

/// The types most programs need.
pub mod prelude {
    pub use tilespgemm_core::{multiply, multiply_csr, multiply_with_pool, Config, SpGemmError};
    pub use tsg_matrix::{Coo, Csr, Scalar, TileMatrix, TILE_DIM};
    pub use tsg_runtime::{
        CollectingRecorder, Counter, Device, MemTracker, MetricsSnapshot, NullRecorder, Recorder,
    };
}
