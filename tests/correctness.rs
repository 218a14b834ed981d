//! Cross-method correctness: every SpGEMM implementation in the workspace
//! must produce the same product as the serial gold reference, on every
//! generator family, for both `A²` and `A·Aᵀ`.
//!
//! Comparison runs through the shared `tsg-check` oracle (DESIGN.md §10):
//! canonical form and the documented value policy live there, not here.

use tilespgemm::baselines::reference::reference_spgemm;
use tilespgemm::gen::suite::GenSpec;
use tilespgemm::prelude::*;
use tsg_check::{check_configs, check_methods, check_pair, compare_csr, ValuePolicy};

fn family_zoo() -> Vec<(&'static str, Csr<f64>)> {
    use GenSpec::*;
    let specs: Vec<(&'static str, GenSpec)> = vec![
        (
            "fem",
            Fem {
                nodes: 120,
                block: 5,
                couplings: 4,
                spread: 8,
                seed: 1,
            },
        ),
        (
            "banded",
            Banded {
                n: 700,
                bandwidth: 12,
                per_row: 6,
                seed: 2,
            },
        ),
        ("grid5", Grid5 { nx: 23, ny: 31 }),
        ("grid9", Grid9 { nx: 17, ny: 19 }),
        ("grid-upwind", GridUpwind { nx: 21, ny: 14 }),
        (
            "grid27",
            Grid27 {
                nx: 7,
                ny: 8,
                nz: 6,
            },
        ),
        (
            "rmat",
            Rmat {
                scale: 9,
                edges: 4000,
                mild: false,
                seed: 3,
            },
        ),
        (
            "rmat-mild",
            Rmat {
                scale: 9,
                edges: 5000,
                mild: true,
                seed: 4,
            },
        ),
        (
            "scatter",
            Scatter {
                n: 600,
                per_row: 4,
                seed: 5,
            },
        ),
        (
            "arrow",
            Arrow {
                n: 300,
                border: 3,
                body_per_row: 5,
                seed: 6,
            },
        ),
        (
            "cluster",
            PowerFlow {
                clusters: 6,
                cluster_size: 18,
                links: 60,
                seed: 7,
            },
        ),
        (
            "kron",
            KronGridBlock {
                nx: 9,
                ny: 9,
                block: 3,
                seed: 8,
            },
        ),
    ];
    specs.into_iter().map(|(n, s)| (n, s.build())).collect()
}

#[test]
fn all_methods_match_reference_on_a_squared() {
    let policy = ValuePolicy::default();
    for (name, a) in family_zoo() {
        let checked =
            check_methods(&a, &a, &policy).unwrap_or_else(|f| panic!("{name} (A^2): {f}"));
        assert_eq!(checked, 5, "{name}: all five methods checked");
    }
}

#[test]
fn all_methods_match_reference_on_aat() {
    let policy = ValuePolicy::default();
    for (name, a) in family_zoo() {
        let at = a.transpose();
        check_methods(&a, &at, &policy).unwrap_or_else(|f| panic!("{name} (A*A^T): {f}"));
    }
}

#[test]
fn rectangular_chain_products_agree() {
    // A (60x90) * B (90x40): the full oracle — every pipeline config plus
    // every baseline — on an arbitrary rectangular chain.
    let a = tilespgemm::gen::random::erdos_renyi(60, 90, 500, 11);
    let b = tilespgemm::gen::random::erdos_renyi(90, 40, 400, 12);
    let report = check_pair(&a, &b, &ValuePolicy::default()).unwrap();
    assert!(report.gold_nnz > 0);
}

#[test]
fn tilespgemm_matches_reference_under_every_config() {
    // The shared oracle's config sweep covers accumulator × scheduling ×
    // pair-reuse × threshold; 18 pipeline variants in all (1 pivot + 4
    // bitwise + 1 recorder + 12 value-tier).
    let a = tilespgemm::gen::fem::fem_blocks(40, 6, 4, 6, 9);
    let checked = check_configs(&a, &a, &ValuePolicy::default())
        .unwrap_or_else(|f| panic!("config sweep: {f}"));
    assert_eq!(checked, 18);
}

#[test]
fn chained_products_stay_in_tiled_form() {
    // (A*A)*A == A*(A*A) — exercises reusing a TileSpGEMM output matrix as
    // an operand without round-tripping through CSR.
    let policy = ValuePolicy::default();
    let a_csr = tilespgemm::gen::stencil::grid_2d_5pt(40, 40);
    let a = TileMatrix::from_csr(&a_csr);
    let cfg = Config::default();
    let t = MemTracker::new();
    let a2 = tilespgemm::core::multiply(&a, &a, &cfg, &t).unwrap().c;
    let left = tilespgemm::core::multiply(&a2, &a, &cfg, &t).unwrap().c;
    let right_in = tilespgemm::core::multiply(&a, &a2, &cfg, &t).unwrap().c;
    compare_csr(&left.to_csr(), &right_in.to_csr(), &policy).expect("associativity");
    // And equals the reference A^3.
    let want = reference_spgemm(&reference_spgemm(&a_csr, &a_csr), &a_csr);
    compare_csr(&left.to_csr(), &want, &policy).expect("matches reference A^3");
}
