#![warn(missing_docs)]

//! # tsg-engine — resident SpGEMM service engine
//!
//! Everything below `tsg-engine` runs one product and exits; this crate is
//! the layer that serves *many*. An [`Engine`] holds loaded matrices in a
//! content-addressed [`registry::Registry`] (so the expensive CSR→tiled
//! conversion — several single-product runtimes, per the paper's Figure 12 —
//! is paid once and amortized, Ocean-style, across repeated products),
//! costs jobs against the device memory budget with a spECK-style
//! prediction ([`estimate`]), runs each job on its caller's thread over the
//! memoized per-device Rayon pool, and reports service-level statistics
//! (completions, cache hit rate, evictions, the shared pool's figures).
//!
//! The engine is a typed Rust API: [`Engine::register`],
//! [`Engine::estimate_op`] and [`Engine::run`] on the [`OpSpec`] a
//! [`JobSpec`] builds, [`Engine::stats`]. It keeps no queue: the `tsg-serve`
//! crate's scheduler queues jobs and runs them through it, and that crate's
//! request handler is the one JSON front end, which the `tsg-serve` binary
//! serves over stdin/stdout or TCP and the `tile_spgemm client` subcommand
//! drives from scripts; [`json`] is the dependency-free JSON value type that
//! front end and the serving benchmark share.
//!
//! ```
//! use tsg_engine::{Engine, EngineConfig, JobSpec};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let (id, _) = engine.register(tsg_matrix::Csr::<f64>::identity(64));
//! let op = JobSpec::multiply(id, id).op;
//! let estimate = engine.estimate_op(&op).unwrap();
//! let report = engine.run(1, &op, estimate).unwrap();
//! assert_eq!(report.nnz_c, 64);
//! // The second product of the same operands reuses the cached conversion.
//! let again = engine.run(2, &op, estimate).unwrap();
//! assert_eq!(again.cache_hits, 2);
//! ```

pub mod engine;
pub mod estimate;
pub mod json;
pub mod registry;

pub use engine::{Engine, EngineConfig, EngineStats, JobReport, JobResult, JobSpec, OpSpec};
pub use estimate::{estimate_job, JobEstimate};
pub use registry::{MatrixId, Registry, RegistryStats, TiledLookup};

use tilespgemm_core::SpGemmError;

/// Errors surfaced by the engine layer.
///
/// `#[non_exhaustive]`: front ends must keep a wildcard arm, so new
/// scheduling or execution failures are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The referenced matrix id is not registered.
    UnknownMatrix(MatrixId),
    /// The multiply pipeline failed (out of memory, shape mismatch).
    SpGemm(SpGemmError),
    /// The job's queue wait exceeded its deadline; it was never run.
    TimedOut,
    /// The job was canceled while queued.
    Canceled,
    /// The server is draining: it accepts no new jobs, and a job still
    /// queued at the drain deadline never runs.
    ShuttingDown,
    /// A batch job's dependency (an earlier entry it referenced) failed, so
    /// this job can never have its operands.
    DependencyFailed {
        /// Serve-level id of the failed dependency job.
        dep: u64,
    },
    /// The op expression is malformed (a chain with fewer than two
    /// operands, a power with `k < 2`), independent of any operand's state.
    InvalidOp(&'static str),
}

impl EngineError {
    /// Stable machine-readable code, used verbatim by the JSON protocol.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::UnknownMatrix(_) => "unknown_matrix",
            EngineError::SpGemm(e) => e.code(),
            EngineError::TimedOut => "timed_out",
            EngineError::Canceled => "canceled",
            EngineError::ShuttingDown => "shutting_down",
            EngineError::DependencyFailed { .. } => "dependency_failed",
            EngineError::InvalidOp(_) => "invalid_op",
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownMatrix(id) => write!(f, "matrix {id} is not registered"),
            EngineError::SpGemm(_) => write!(f, "multiply failed"),
            EngineError::TimedOut => write!(f, "queue-wait deadline exceeded before execution"),
            EngineError::Canceled => write!(f, "job canceled while queued"),
            EngineError::ShuttingDown => write!(f, "the server is shutting down"),
            EngineError::DependencyFailed { dep } => {
                write!(f, "dependency job {dep} failed; operands unavailable")
            }
            EngineError::InvalidOp(why) => write!(f, "invalid op expression: {why}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::SpGemm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpGemmError> for EngineError {
    fn from(e: SpGemmError) -> Self {
        EngineError::SpGemm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable_and_sources_chain() {
        use std::error::Error;
        let e = EngineError::TimedOut;
        assert_eq!(e.code(), "timed_out");
        assert!(e.source().is_none());

        let inner = SpGemmError::ShapeMismatch {
            a: (1, 2),
            b: (3, 4),
        };
        let e = EngineError::SpGemm(inner.clone());
        assert_eq!(e.code(), "shape_mismatch");
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
    }
}
