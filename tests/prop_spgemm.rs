//! Property-based tests of the SpGEMM kernels: every method against the
//! dense oracle, algebraic identities, and structural guarantees of the
//! tiled product.
//!
//! Value comparison goes through the shared `tsg-check` comparator
//! (canonical form + documented `ValuePolicy`), so this file holds no
//! canonicalization of its own.

use proptest::prelude::*;
use tilespgemm::baselines::{run_method, MethodKind};
use tilespgemm::matrix::{Coo, Csr, Dense, TileMatrix};
use tilespgemm::prelude::*;
use tsg_check::{compare_csr, ValuePolicy};

fn arb_square(n_max: usize, nnz_max: usize) -> impl Strategy<Value = Csr<f64>> {
    (2usize..n_max).prop_flat_map(move |n| {
        let entry = (0..n as u32, 0..n as u32, 1i32..=9);
        proptest::collection::vec(entry, 0..nnz_max).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                // Positive values: no accidental cancellation, so pattern
                // comparisons are exact.
                coo.push(r, c, v as f64 * 0.25);
            }
            coo.to_csr()
        })
    })
}

/// A product stressing step 2's chunk staging: every tile row of A holds
/// all 300 inner tiles, each with one entry in local column 0, and B's tile
/// column `j` picks two inner tiles by `kinds[j]` — 299 list positions
/// apart (an escape-coded pair), adjacent (plain words), or 299 apart with
/// the first on a B row A never touches (a phantom pair: matched by index,
/// dead by occupancy, dropped beside an escape-coded live pair).
fn staging_stress(rows: usize, kinds: &[u8]) -> (TileMatrix<f64>, TileMatrix<f64>) {
    const INNER: u32 = 300;
    let mut a = Coo::new(rows * 16, INNER as usize * 16);
    for i in 0..rows as u32 {
        for k in 0..INNER {
            a.push(i * 16, k * 16, 1.0 + (i + k) as f64 * 0.5);
        }
    }
    let mut b = Coo::new(INNER as usize * 16, kinds.len() * 16);
    for (j, &kind) in kinds.iter().enumerate() {
        let j = j as u32;
        // (inner tile, local row) of the column's two entries.
        let [near, far] = match kind {
            0 => [(0, 0), (INNER - 1, 0)],
            1 => [(0, 0), (1, 0)],
            _ => [(0, 1), (INNER - 1, 0)],
        };
        b.push(near.0 * 16 + near.1, j * 16, 2.0);
        b.push(far.0 * 16 + far.1, j * 16 + 3, -1.0);
    }
    (
        TileMatrix::from_csr(&a.to_csr()),
        TileMatrix::from_csr(&b.to_csr()),
    )
}

/// Whether tile pair `(a_id, b_id)` can produce an entry: some entry
/// `(r, c)` of the A tile meets a non-empty row `c` of the B tile.
fn live_pair(a: &TileMatrix<f64>, b: &TileMatrix<f64>, (a_id, b_id): (u32, u32)) -> bool {
    let b_masks = b.tile(b_id as usize).masks;
    a.tile(a_id as usize)
        .col_idx
        .iter()
        .any(|&c| b_masks[c as usize] != 0)
}

/// Runs `a·b` under every scheduling on a `threads`-worker pool and checks
/// that the persisted `PairBuffer` is exactly the per-tile `encode_pairs`
/// concatenation of the live pairs in tile order, and that C is bitwise
/// the product recomputed without pair reuse.
fn check_staged_pair_buffer(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    use tilespgemm::core::step2::{encode_pairs, matched_pairs};
    use tilespgemm::core::{IntersectionKind, Scheduling};
    let b_cols = b.col_index();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    for scheduling in [Scheduling::PerTile, Scheduling::PerTileRow] {
        let run = |pair_reuse| {
            let cfg = Config::builder()
                .scheduling(scheduling)
                .pair_reuse(pair_reuse)
                .build();
            pool.install(|| tilespgemm::core::multiply(a, b, &cfg, &MemTracker::new()).unwrap())
        };
        let (out, recomputed) = (run(true), run(false));
        prop_assert_eq!(&out.c, &recomputed.c, "{:?}: C differs", scheduling);
        let buf = out.pair_buffer.expect("pair reuse on");
        let (mut positions, mut pairs) = (Vec::new(), Vec::new());
        let (mut offsets, mut words) = (vec![0u32], Vec::new());
        for ti in 0..out.c.tile_m {
            for &tj in out.c.tile_row_cols(ti) {
                matched_pairs(
                    a,
                    &b_cols,
                    ti,
                    tj as usize,
                    IntersectionKind::BinarySearch,
                    &mut positions,
                    &mut pairs,
                );
                let live: Vec<_> = positions
                    .iter()
                    .zip(&pairs)
                    .filter(|&(_, &pair)| live_pair(a, b, pair))
                    .map(|(&pos, _)| pos)
                    .collect();
                encode_pairs(&live, &mut words);
                offsets.push(words.len() as u32);
            }
        }
        prop_assert_eq!(&buf.offsets, &offsets, "{:?}: offsets", scheduling);
        prop_assert_eq!(&buf.words, &words, "{:?}: words", scheduling);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_method_matches_the_dense_oracle(
        a in arb_square(48, 200),
        b_seed in 0u64..1000,
    ) {
        // B: a permuted variant of A's pattern with fresh values. The dense
        // oracle is independent of the sparse reference tsg-check uses.
        let policy = ValuePolicy::default();
        let b = tilespgemm::gen::random::erdos_renyi(a.nrows, a.ncols, a.nnz().max(1), b_seed)
            .map_values(f64::abs);
        let want = Dense::from_csr(&a).matmul(&Dense::from_csr(&b)).to_csr();
        for kind in MethodKind::all() {
            let got = run_method(kind, &a, &b, &MemTracker::new()).unwrap();
            let cmp = compare_csr(&got.c, &want, &policy);
            prop_assert!(
                cmp.is_ok(),
                "{} disagrees with the dense oracle: {:?}", kind.name(), cmp.err()
            );
        }
    }

    #[test]
    fn identity_is_neutral(a in arb_square(64, 250)) {
        let policy = ValuePolicy::default();
        let i = Csr::<f64>::identity(a.nrows);
        let left = multiply_csr(&i, &a, &Config::default(), &MemTracker::new()).unwrap().to_csr();
        let right = multiply_csr(&a, &i, &Config::default(), &MemTracker::new()).unwrap().to_csr();
        prop_assert!(compare_csr(&left, &a, &policy).is_ok(), "I*A != A");
        prop_assert!(compare_csr(&right, &a, &policy).is_ok(), "A*I != A");
    }

    #[test]
    fn transpose_identity_holds(a in arb_square(40, 150), b_seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ — with positive values both sides keep the same
        // stored pattern, so the comparison is strict.
        let policy = ValuePolicy::default();
        let b = tilespgemm::gen::random::erdos_renyi(a.nrows, a.ncols, a.nnz().max(1), b_seed)
            .map_values(f64::abs);
        let cfg = Config::default();
        let t = MemTracker::new();
        let ab = multiply_csr(&a, &b, &cfg, &t).unwrap().to_csr();
        let btat = multiply_csr(&b.transpose(), &a.transpose(), &cfg, &t).unwrap().to_csr();
        let cmp = compare_csr(&ab.transpose(), &btat, &policy);
        prop_assert!(cmp.is_ok(), "(AB)^T != B^T A^T: {:?}", cmp.err());
    }

    #[test]
    fn tiled_product_structure_is_valid_and_superset(a in arb_square(48, 250)) {
        let ta = TileMatrix::from_csr(&a);
        let out = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .unwrap();
        out.c.validate().unwrap();
        // Step-1 tile pattern is a superset of the exact product's tiles:
        // every tile of the exact product appears in the output layout.
        let exact = TileMatrix::from_csr(
            &Dense::from_csr(&a).matmul(&Dense::from_csr(&a)).to_csr(),
        );
        for ti in 0..exact.tile_m {
            for &tc in exact.tile_row_cols(ti) {
                prop_assert!(
                    out.c.tile_row_cols(ti).contains(&tc),
                    "tile ({ti},{tc}) missing from the step-1 layout"
                );
            }
        }
        // And the nonzero count matches the oracle exactly (positive
        // values -> no cancellation).
        prop_assert_eq!(out.c.nnz(), tilespgemm::gen::spgemm_nnz(&a, &a));
    }

    #[test]
    fn tile_layout_is_the_structural_products(
        a in arb_square(48, 250),
        b_seed in 0u64..1000,
    ) {
        // Positive values: nothing cancels, so the dense product's pattern
        // is the structural product, and an unmasked multiply's layout must
        // be exactly its tiles — every one non-empty, none missing.
        let b = tilespgemm::gen::random::erdos_renyi(a.nrows, a.ncols, a.nnz().max(1), b_seed)
            .map_values(|v| v.abs() + 0.5);
        let (ta, tb) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
        let out = tilespgemm::core::multiply(&ta, &tb, &Config::default(), &MemTracker::new())
            .unwrap();
        let structural = TileMatrix::from_csr(
            &Dense::from_csr(&a).matmul(&Dense::from_csr(&b)).to_csr(),
        );
        prop_assert_eq!(&out.c.tile_ptr, &structural.tile_ptr);
        prop_assert_eq!(&out.c.tile_colidx, &structural.tile_colidx);
        prop_assert_eq!(out.c.nnz(), structural.nnz());
    }

    #[test]
    fn pair_buffer_equals_recomputed_matched_pairs(
        a in arb_square(48, 250),
        threads in 1usize..4,
    ) {
        // The compact pair buffer step 2 persists must hold, tile for tile,
        // exactly the live pairs of a fresh intersection.
        let ta = TileMatrix::from_csr(&a);
        let out = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .unwrap();
        let buf = out.pair_buffer.expect("pair_reuse defaults to on");
        prop_assert_eq!(buf.tile_count(), out.c.tile_count());
        let b_cols = ta.col_index();
        let mut scratch = Vec::new();
        let mut pairs = Vec::new();
        let mut decoded = Vec::new();
        for ti in 0..out.c.tile_m {
            for t in out.c.tile_ptr[ti]..out.c.tile_ptr[ti + 1] {
                let tj = out.c.tile_colidx[t] as usize;
                tilespgemm::core::step2::matched_pairs(
                    &ta,
                    &b_cols,
                    ti,
                    tj,
                    tilespgemm::core::IntersectionKind::BinarySearch,
                    &mut scratch,
                    &mut pairs,
                );
                pairs.retain(|&pair| live_pair(&ta, &ta, pair));
                prop_assert!(!pairs.is_empty(), "tile {} has a live pair", t);
                let (_, b_ids) = b_cols.col(tj);
                buf.decode_tile(t, ta.tile_ptr[ti] as u32, b_ids, &mut decoded);
                prop_assert_eq!(&decoded, &pairs, "tile {}", t);
            }
        }
        // Every scheduling stages the same buffer, at any worker count.
        check_staged_pair_buffer(&ta, &ta, threads)?;
    }

    #[test]
    fn chunk_staging_survives_escapes_phantoms_and_ragged_chunks(
        rows in 1usize..24,
        kinds in proptest::collection::vec(0u8..3, 1..80),
        threads in 1usize..4,
    ) {
        // Escape-coded, plain and phantom-pair tiles in a random mix,
        // across enough tiles that the staging chunks hold many tiles each
        // and their boundaries land on every kind.
        let (ta, tb) = staging_stress(rows, &kinds);
        check_staged_pair_buffer(&ta, &tb, threads)?;
    }

    #[test]
    fn flop_accounting_is_exact(a in arb_square(40, 150)) {
        // spgemm_flops == 2 * Σ_i Σ_{j∈row i} nnz(row j), computed two ways.
        let brute: u64 = (0..a.nrows)
            .map(|i| {
                a.row(i).0.iter()
                    .map(|&j| a.row_nnz(j as usize) as u64)
                    .sum::<u64>()
            })
            .sum::<u64>() * 2;
        prop_assert_eq!(a.spgemm_flops(&a), brute);
    }

    #[test]
    fn scalar_distributes(a in arb_square(32, 120)) {
        // (2A)·A == 2·(A·A)
        let policy = ValuePolicy::default();
        let cfg = Config::default();
        let t = MemTracker::new();
        let doubled = a.map_values(|v| v * 2.0);
        let lhs = multiply_csr(&doubled, &a, &cfg, &t).unwrap().to_csr();
        let rhs_base = multiply_csr(&a, &a, &cfg, &t).unwrap().to_csr();
        let rhs = rhs_base.map_values(|v| v * 2.0);
        let cmp = compare_csr(&lhs, &rhs, &policy);
        prop_assert!(cmp.is_ok(), "(2A)A != 2(AA): {:?}", cmp.err());
    }
}
