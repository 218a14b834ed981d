//! SIMD-vs-scalar bitwise equivalence on adversarial tiles.
//!
//! [`SimdPolicy::Auto`] must reproduce the forced-scalar product *bit for
//! bit*, under the default accumulator and under
//! [`AccumulatorKind::AlwaysDense`] (which runs the dense vector
//! micro-kernel on every tile) — the vector kernels keep the scalar
//! per-slot addition order (no FMA, lane blending; see the `simd` module
//! docs), so this is an exact contract, not a tolerance. The cases aim at
//! the spots where a lane kernel would first go wrong:
//!
//! * an all-dense 16×16 tile (every lane selected, full strips);
//! * a single-entry tile (one lane selected, everything else blended off);
//! * cancellation to an exact stored zero (a `+0.0`/`-0.0` confusion or a
//!   spurious `x*0` contribution flips the sign bit here);
//! * output tiles with nnz pinned at the paper's `tnnz` accumulator
//!   threshold, ±1 on both sides;
//! * R-MAT matrices across proptest seeds, squared, under the default
//!   thread pool and pinned to one rayon thread.

use proptest::prelude::*;
use tilespgemm_core::{multiply_csr, AccumulatorKind, Config, Output, SimdPolicy};
use tsg_matrix::{Coo, Csr, TILE_DIM};

/// The accumulator policies the vector kernels run under.
const ACCUMULATORS: [AccumulatorKind; 2] =
    [AccumulatorKind::Adaptive, AccumulatorKind::AlwaysDense];

fn run(a: &Csr<f64>, b: &Csr<f64>, simd: SimdPolicy, accumulator: AccumulatorKind) -> Output<f64> {
    let cfg = Config::builder()
        .simd(simd)
        .accumulator(accumulator)
        .build();
    multiply_csr(a, b, &cfg, &tsg_runtime::MemTracker::new()).expect("multiply succeeds")
}

/// Structure equality plus value equality *by bits*: `==` on floats treats
/// `-0.0 == 0.0` and any NaN as unequal, so the sign-of-zero cases compare
/// the raw representations.
fn assert_bitwise(name: &str, a: &Csr<f64>, b: &Csr<f64>) {
    let pivot = run(a, b, SimdPolicy::ForceScalar, AccumulatorKind::Adaptive);
    for acc in ACCUMULATORS {
        let out = run(a, b, SimdPolicy::Auto, acc);
        assert_eq!(
            pivot.c.masks, out.c.masks,
            "{name}/{acc:?}: structure diverged"
        );
        let pb: Vec<u64> = pivot.c.vals.iter().map(|v| v.to_bits()).collect();
        let ob: Vec<u64> = out.c.vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, ob, "{name}/{acc:?}: values are not bit-identical");
    }
}

/// A single-tile matrix holding the first `nnz` slots of a 16×16 tile in
/// row-major order, with varied non-symmetric values.
fn tile_with_nnz(nnz: usize, scale: f64) -> Csr<f64> {
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    for k in 0..nnz {
        let (r, c) = (k / TILE_DIM, k % TILE_DIM);
        let v = scale * (1.0 + k as f64 * 0.375) * if k % 3 == 0 { -1.0 } else { 1.0 };
        coo.push(r as u32, c as u32, v);
    }
    coo.to_csr()
}

#[test]
fn all_dense_tile_is_bitwise_equal() {
    let a = tile_with_nnz(256, 1.0);
    let b = tile_with_nnz(256, 0.5);
    assert_bitwise("all-dense", &a, &b);
}

#[test]
fn single_entry_tile_is_bitwise_equal() {
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    coo.push(7, 11, 3.25);
    let a = coo.to_csr();
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    coo.push(11, 2, -1.5);
    let b = coo.to_csr();
    assert_bitwise("single-entry", &a, &b);
}

#[test]
fn cancellation_to_stored_zero_is_bitwise_equal() {
    // Row 0 of A holds +x and -x; B's rows 0 and 1 are identical, so every
    // product in C's row 0 sums to an exact stored 0.0. A kernel that adds
    // a spurious `va * 0.0` or mishandles the sign of zero diverges here.
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    coo.push(0, 0, 2.5);
    coo.push(0, 1, -2.5);
    let a = coo.to_csr();
    let mut coo = Coo::new(TILE_DIM, TILE_DIM);
    for c in 0..TILE_DIM as u32 {
        let v = 1.0 + c as f64 * 0.125;
        coo.push(0, c, v);
        coo.push(1, c, v);
    }
    let b = coo.to_csr();
    assert_bitwise("cancellation", &a, &b);
    let out = run(&a, &b, SimdPolicy::Auto, AccumulatorKind::Adaptive);
    assert!(
        out.c.vals.iter().all(|v| v.to_bits() == 0.0f64.to_bits()),
        "the cancelled row stores exact +0.0"
    );
}

#[test]
fn output_nnz_pinned_at_the_threshold_is_bitwise_equal() {
    // I · B keeps B's tile nnz, so the output tile sits exactly at the
    // requested count: the paper's `tnnz` accumulator threshold, ±1.
    let eye = Csr::<f64>::identity(TILE_DIM);
    for nnz in [191, 192, 193] {
        let b = tile_with_nnz(nnz, 1.0);
        assert_bitwise(&format!("tnnz-{nnz}"), &eye, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Squared R-MAT matrices across seeds, once on the ambient pool and
    /// once pinned to a single rayon thread: the kernel choice must be
    /// invisible at any parallelism.
    #[test]
    fn rmat_square_is_bitwise_equal_at_any_thread_count(seed in 0u64..10_000) {
        let a = tsg_gen::suite::GenSpec::Rmat {
            scale: 7,
            edges: 600 + (seed as usize % 700),
            mild: seed % 2 == 0,
            seed,
        }
        .build();
        assert_bitwise("rmat-ambient", &a, &a);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool builds");
        pool.install(|| assert_bitwise("rmat-1-thread", &a, &a));
    }
}
