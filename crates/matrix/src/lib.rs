#![warn(missing_docs)]

//! # tsg-matrix — sparse matrix formats for the TileSpGEMM reproduction
//!
//! This crate implements every storage format the paper touches:
//!
//! * [`coo::Coo`] — triplet form, the interchange/builder format (and what
//!   Matrix Market files parse into);
//! * [`csr::Csr`] — compressed sparse row, the input/output format of all
//!   row-row baselines and the conversion source for the tiled format;
//! * [`csc::Csc`] — compressed sparse column, used by `AAᵀ` plumbing;
//! * [`dense::Dense`] — small dense matrices for brute-force oracles;
//! * [`csb`] — Buluç et al.'s Compressed Sparse Blocks in the two variants
//!   (CSB-M, CSB-I) the paper's Figure 11 compares against;
//! * [`tile::TileMatrix`] — **the paper's sparse-tile format** (§3.2): the
//!   matrix as a CSR-of-16×16-tiles, each tile stored CSR-style with 8-bit
//!   local indices and pointers plus 16-bit row bitmasks.
//!
//! Plus [`io`] (Matrix Market), [`ops`] (element-wise operations used by the
//! example applications), and [`footprint`] (byte-exact space accounting for
//! the Figure 11 comparison).
//!
//! All formats are generic over a [`Scalar`] (`f64` throughout the main
//! evaluation; `f32` for the tSparse/tensor-core comparison of §4.7).

pub mod coo;
pub mod csb;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod footprint;
pub mod halfsim;
pub mod hash;
pub mod io;
pub mod ops;
pub mod tile;
pub mod tile_model;

pub use coo::Coo;
pub use csb::{CsbI, CsbM};
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use footprint::Footprint;
pub use tile::{TileColIndex, TileMatrix, TileView, TILE_AREA, TILE_DIM};

use std::fmt;

/// Numeric element type abstraction: the subset of float behaviour the
/// SpGEMM kernels need, implemented for `f32` and `f64`.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::MulAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lossy conversion from `f64` (used by generators and parsers).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by error metrics and reports).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

/// Errors raised by format constructors and converters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// A structural invariant of the format was violated.
    Invalid(String),
    /// An I/O or parse problem (Matrix Market).
    Parse(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Invalid(msg) => write!(f, "invalid matrix structure: {msg}"),
            FormatError::Parse(msg) => write!(f, "matrix parse error: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constants_and_conversions() {
        assert_eq!(<f64 as Scalar>::ZERO + <f64 as Scalar>::ONE, 1.0);
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(Scalar::abs(-3.0f64), 3.0);
        assert_eq!(Scalar::abs(-3.0f32), 3.0);
    }

    #[test]
    fn format_error_displays() {
        let e = FormatError::Invalid("rowptr not monotone".into());
        assert!(e.to_string().contains("rowptr"));
        let p = FormatError::Parse("bad header".into());
        assert!(p.to_string().contains("bad header"));
    }
}
