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

/// A product stressing step 2's row-chunk split: each tile row of A is
/// empty (kind 0), light (kind 1: inner tiles 0 and 63) or heavy (kind 2:
/// all 64 inner tiles), with one entry per tile in local column 0. B's tile
/// column `j` holds two entries picked by `col_kinds[j]` — inner tiles 0 and
/// 63, adjacent inner tiles 0 and 1, or local row 1 of inner tile 0 (a
/// phantom pair: matched by index, dead by occupancy) beside 63 — plus an
/// entry in every inner tile from 2 to 62, which only heavy rows reach, so
/// a heavy row outweighs a light one ~60 times over.
fn row_stress(row_kinds: &[u8], col_kinds: &[u8]) -> (TileMatrix<f64>, TileMatrix<f64>) {
    const INNER: u32 = 64;
    let mut a = Coo::new(row_kinds.len() * 16, INNER as usize * 16);
    for (i, &kind) in (0u32..).zip(row_kinds) {
        let inner: Vec<u32> = match kind {
            0 => vec![],
            1 => vec![0, INNER - 1],
            _ => (0..INNER).collect(),
        };
        for k in inner {
            a.push(i * 16, k * 16, 1.0 + (i + k) as f64 * 0.5);
        }
    }
    let mut b = Coo::new(INNER as usize * 16, col_kinds.len() * 16);
    for (j, &kind) in (0u32..).zip(col_kinds) {
        // (inner tile, local row) of the column's two entries.
        let [near, far] = match kind {
            0 => [(0, 0), (INNER - 1, 0)],
            1 => [(0, 0), (1, 0)],
            _ => [(0, 1), (INNER - 1, 0)],
        };
        b.push(near.0 * 16 + near.1, j * 16, 2.0);
        b.push(far.0 * 16 + far.1, j * 16 + 3, -1.0);
        for k in 2..INNER - 1 {
            b.push(k * 16, j * 16 + 5, 0.25 * (k % 7) as f64);
        }
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

/// Checks that the row pass gives every tile of the layout `c` exactly the
/// live pairs of the paper's intersection, in its order, and returns how
/// many tiles have none.
fn check_row_lists(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    c: &TileMatrix<f64>,
) -> Result<usize, proptest::test_runner::TestCaseError> {
    use tilespgemm::core::intersect::intersect_binary_search;
    use tilespgemm::core::step2::{matched_pairs, row_pass_lists};
    let lists = row_pass_lists(a, b, &c.tile_ptr, &c.tile_colidx);
    prop_assert_eq!(lists.len(), c.tile_count());
    let b_cols = b.col_index();
    let (mut positions, mut pairs) = (Vec::new(), Vec::new());
    let mut without = 0;
    for ti in 0..c.tile_m {
        for t in c.tile_row_range(ti) {
            matched_pairs(
                a,
                &b_cols,
                ti,
                c.tile_colidx[t] as usize,
                intersect_binary_search,
                &mut positions,
                &mut pairs,
            );
            pairs.retain(|&pair| live_pair(a, b, pair));
            prop_assert_eq!(&lists[t], &pairs, "tile {}", t);
            without += usize::from(pairs.is_empty());
        }
    }
    Ok(without)
}

/// Runs `a·b` — under `mask` when given — under every scheduling on a
/// `threads`-worker pool, and checks that C is bitwise the product
/// recomputed without pair reuse and that the row pass's lists for C's
/// layout are the intersection's live pairs.
fn check_row_chunks(
    a: &TileMatrix<f64>,
    b: &TileMatrix<f64>,
    mask: Option<&TileMatrix<f64>>,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    use tilespgemm::core::{multiply_masked, Scheduling};
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
            let t = MemTracker::new();
            pool.install(|| match mask {
                None => tilespgemm::core::multiply(a, b, &cfg, &t),
                Some(m) => multiply_masked(a, b, m, &cfg, &t),
            })
            .unwrap()
        };
        let (out, recomputed) = (run(true), run(false));
        prop_assert_eq!(&out.c, &recomputed.c, "{:?}: C differs", scheduling);
        check_row_lists(a, b, &out.c)?;
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
        mask_seed in 0u64..1000,
        threads in 1usize..4,
    ) {
        // The per-tile pair lists the row pass builds for step 3 must hold,
        // tile for tile and in order, exactly the live pairs of a fresh
        // intersection: every tile of an unmasked product has one, while a
        // mask tile the product misses has none.
        let ta = TileMatrix::from_csr(&a);
        let out = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .unwrap();
        prop_assert_eq!(check_row_lists(&ta, &ta, &out.c)?, 0, "a tile without a live pair");
        let mask = TileMatrix::from_csr(&tilespgemm::gen::random::erdos_renyi(
            a.nrows, a.ncols, a.nnz().max(1), mask_seed,
        ));
        check_row_lists(&ta, &ta, &mask)?;
        // Every scheduling builds the same lists, at any worker count.
        check_row_chunks(&ta, &ta, None, threads)?;
        check_row_chunks(&ta, &ta, Some(&mask), threads)?;
    }

    #[test]
    fn row_chunks_survive_empty_heavy_and_phantom_rows(
        row_kinds in proptest::collection::vec(0u8..3, 1..24),
        col_kinds in proptest::collection::vec(0u8..3, 1..60),
        threads in 1usize..4,
    ) {
        // Empty, light and heavy tile rows in a random mix, with plain and
        // phantom pairs across the columns, so row-chunk boundaries land
        // beside empty rows, rows heavier than a chunk's share make chunks
        // of their own, and the last chunk is ragged.
        let (ta, tb) = row_stress(&row_kinds, &col_kinds);
        check_row_chunks(&ta, &tb, None, threads)?;
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
