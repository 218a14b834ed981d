#![warn(missing_docs)]

//! # tilespgemm-core — the paper's tiled SpGEMM algorithm
//!
//! Implements `C = A·B` for matrices in the sparse-tile format
//! ([`tsg_matrix::TileMatrix`]), following the three-step structure of
//! §3.3 of *TileSpGEMM: A Tiled Algorithm for Parallel Sparse General
//! Matrix-Matrix Multiplication on GPUs* (PPoPP '22):
//!
//! 1. [`step1`] — a symbolic SpGEMM on the high-level tile layout
//!    `C' = A'·B'`, gathering only through tile pairs whose 16-bit
//!    occupancy words meet, yields exactly the non-empty tiles of `C` (the
//!    paper keeps the index-level prediction, empty tiles included);
//! 2. [`step2`] — per tile of `C`: the live tile pairs `(A_ik, B_kj)` are
//!    found — by the paper's binary-search set intersection of `A`'s tile
//!    row with `B`'s tile column, or by default by one walk per tile row
//!    that groups them into per-tile lists for step 3 — and OR-ing `B`'s
//!    row bitmasks through `A`'s nonzeros produces `C`'s tile masks, local
//!    row pointers, and nonzero counts, after which `C` is allocated;
//! 3. [`step3`] — per tile of `C`: the numeric phase accumulates
//!    intermediate products through an *adaptive* accumulator — a rank-based
//!    sparse accumulator for tiles with ≤ `tnnz` = 192 nonzeros, a dense
//!    256-slot accumulator above.
//!
//! One Rayon task plays the role of the paper's one warp per tile; all
//! per-tile state lives in fixed-size stack buffers, preserving the paper's
//! "no global intermediate space" property. [`multiply_with_pool`] wires the
//! steps together with the per-step breakdown (Figure 10), device-memory
//! accounting (Figures 7/9) and an optional recorder; [`multiply`],
//! [`multiply_masked`] and [`multiply_csr`] call it without recording.
//!
//! ```
//! use tsg_matrix::{Csr, TileMatrix};
//! use tilespgemm_core::{multiply, Config};
//! use tsg_runtime::MemTracker;
//!
//! let a = TileMatrix::from_csr(&Csr::<f64>::identity(64));
//! let out = multiply(&a, &a, &Config::default(), &MemTracker::new()).unwrap();
//! assert_eq!(out.c.nnz(), 64);
//! ```

pub mod add;
pub mod convert;
pub mod intersect;
pub mod maskops;
pub mod pipeline;
pub mod sample;
pub mod simd;
pub mod spmv;
pub mod step1;
pub mod step2;
pub mod step3;

pub use add::add;
pub use convert::{timed_csr_to_tile, ConversionTiming};
pub use pipeline::{multiply, multiply_csr, multiply_masked, multiply_with_pool, recycle, Output};
pub use simd::{SimdLevel, SimdPolicy};
pub use spmv::{spmv, spmv_masked};
pub use step3::AccumulatorKind;

/// Tuning knobs of the algorithm. `Config::default()` keeps the paper's
/// values except two bitwise-invisible departures: the row pass
/// ([`Config::pair_reuse`]) and the SIMD step-3 kernels
/// ([`Config::simd`]). The other variants exist for the ablation benches;
/// `pair_reuse(false)` is the paper's algorithm, binary-search
/// intersection and all.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`Config::default`] or [`Config::builder`], so future knobs are not
/// semver breaks.
///
/// ```
/// use tilespgemm_core::{Config, Scheduling};
/// let cfg = Config::builder()
///     .scheduling(Scheduling::PerTileRow)
///     .pair_reuse(false)
///     .build();
/// assert_eq!(cfg.tnnz_threshold, 192); // unset fields keep the paper values
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Config {
    /// Sparse/dense accumulator switch-over: tiles with more stored nonzeros
    /// than this use the dense accumulator. The paper sets 192 (75% of 256).
    pub tnnz_threshold: usize,
    /// Accumulator policy for step 3 (paper: adaptive).
    pub accumulator: AccumulatorKind,
    /// Task granularity for steps 2 and 3 (paper: one warp per tile; the
    /// per-tile-row variant exists to demonstrate the load-imbalance the
    /// paper's issue #1 attributes to row-level decomposition).
    pub scheduling: Scheduling,
    /// Find step 2's live tile pairs by one walk per tile row of `C`
    /// ([`step2::row_pass`]) and hand them to step 3 as flat per-tile
    /// lists, instead of intersecting `A`'s tile row with `B`'s tile column
    /// per tile in step 2 and again in step 3 as the paper's kernels do.
    /// On by default and bitwise identical; turn off to get the paper's
    /// per-tile binary-search intersection (its Figure-10 reference) for
    /// ablation benches.
    pub pair_reuse: bool,
    /// Step-3 numeric-kernel policy (see [`crate::simd`]): runtime-detected
    /// vector kernels under `Auto` (default), or the pinned scalar
    /// reference. Both are bit-identical — the tsg-check oracle enforces it.
    pub simd: SimdPolicy,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            tnnz_threshold: 192,
            accumulator: AccumulatorKind::Adaptive,
            scheduling: Scheduling::PerTile,
            pair_reuse: true,
            simd: SimdPolicy::Auto,
        }
    }
}

impl Config {
    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }
}

/// Builder for [`Config`]; unset fields keep the paper defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Sets the sparse/dense accumulator switch-over (paper: 192).
    pub fn tnnz_threshold(mut self, v: usize) -> Self {
        self.config.tnnz_threshold = v;
        self
    }

    /// Sets the step-3 accumulator policy.
    pub fn accumulator(mut self, v: AccumulatorKind) -> Self {
        self.config.accumulator = v;
        self
    }

    /// Sets the task granularity for steps 2 and 3.
    pub fn scheduling(mut self, v: Scheduling) -> Self {
        self.config.scheduling = v;
        self
    }

    /// Enables or disables the row pass and its pair reuse in step 3.
    pub fn pair_reuse(mut self, v: bool) -> Self {
        self.config.pair_reuse = v;
        self
    }

    /// Sets the step-3 numeric-kernel policy (see [`SimdPolicy`]).
    pub fn simd(mut self, v: SimdPolicy) -> Self {
        self.config.simd = v;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Config {
        self.config
    }
}

/// Task granularity for the per-tile phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Scheduling {
    /// Per-tile work — the paper's one-warp-per-tile mapping, whose bounded
    /// work is the load-balancing argument of §1 — dealt to parallel tasks
    /// in contiguous chunks of output tiles (at most 512, at least 8 chunks
    /// per worker); each tile finds its output window from the tile offsets.
    PerTile,
    /// One parallel task per output *tile row* — a coarser, imbalance-prone
    /// decomposition kept for the scheduling ablation bench.
    PerTileRow,
}

/// Errors surfaced by the SpGEMM pipelines in this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpGemmError {
    /// The simulated device memory budget was exceeded — the condition the
    /// paper's Figure 7 reports as a `0.00` bar.
    OutOfMemory(tsg_runtime::tracker::BudgetExceeded),
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Shape of the left operand.
        a: (usize, usize),
        /// Shape of the right operand.
        b: (usize, usize),
    },
}

impl SpGemmError {
    /// A stable machine-readable code for this error, used by service
    /// front ends (the engine's JSON protocol) instead of parsing the
    /// human-oriented `Display` text.
    pub fn code(&self) -> &'static str {
        match self {
            SpGemmError::OutOfMemory(_) => "out_of_memory",
            SpGemmError::ShapeMismatch { .. } => "shape_mismatch",
        }
    }
}

impl std::fmt::Display for SpGemmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpGemmError::OutOfMemory(_) => write!(f, "device memory budget exceeded"),
            SpGemmError::ShapeMismatch { a, b } => {
                write!(f, "cannot multiply {}x{} by {}x{}", a.0, a.1, b.0, b.1)
            }
        }
    }
}

impl std::error::Error for SpGemmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpGemmError::OutOfMemory(e) => Some(e),
            SpGemmError::ShapeMismatch { .. } => None,
        }
    }
}

impl From<tsg_runtime::tracker::BudgetExceeded> for SpGemmError {
    fn from(e: tsg_runtime::tracker::BudgetExceeded) -> Self {
        SpGemmError::OutOfMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_papers() {
        let c = Config::default();
        assert_eq!(c.tnnz_threshold, 192);
        // A deliberate departure from the paper (DESIGN.md §7): step 2
        // finds each tile's pairs by a row pass whose lists step 3 reuses.
        // It is bitwise-invisible in the output.
        assert_eq!(c.accumulator, AccumulatorKind::Adaptive);
        assert_eq!(c.scheduling, Scheduling::PerTile);
        assert!(c.pair_reuse);
        // Second bitwise-invisible departure (DESIGN.md §15): the numeric
        // kernels dispatch to runtime-detected SIMD lanes by default.
        assert_eq!(c.simd, SimdPolicy::Auto);
    }

    #[test]
    fn builder_overrides_only_named_fields() {
        let cfg = Config::builder()
            .scheduling(Scheduling::PerTileRow)
            .pair_reuse(false)
            .build();
        assert_eq!(cfg.scheduling, Scheduling::PerTileRow);
        assert!(!cfg.pair_reuse);
        // Everything unset keeps the paper defaults.
        assert_eq!(cfg.tnnz_threshold, 192);
        assert_eq!(cfg.accumulator, AccumulatorKind::Adaptive);
        assert_eq!(Config::builder().build(), Config::default());
    }

    #[test]
    fn error_display() {
        let e = SpGemmError::ShapeMismatch {
            a: (2, 3),
            b: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
    }

    #[test]
    fn error_codes_and_source_chain() {
        use std::error::Error;
        let shape = SpGemmError::ShapeMismatch {
            a: (2, 3),
            b: (4, 5),
        };
        assert_eq!(shape.code(), "shape_mismatch");
        assert!(shape.source().is_none());

        let inner = tsg_runtime::tracker::BudgetExceeded {
            requested: 64,
            in_use: 100,
            budget: 128,
        };
        let oom = SpGemmError::OutOfMemory(inner.clone());
        assert_eq!(oom.code(), "out_of_memory");
        // The cause is reachable through the standard source() chain, so a
        // front end can serialize it instead of formatting debug strings.
        let cause = oom.source().expect("OutOfMemory carries its cause");
        assert_eq!(cause.to_string(), inner.to_string());
        assert!(cause.to_string().contains("requested 64"));
    }
}
