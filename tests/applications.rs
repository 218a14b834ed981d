//! Application-level integration tests: the workflows of the example
//! binaries, exercised through the public API with assertions (AMG Galerkin
//! products, triangle counting, Markov clustering, file I/O, tiled SpMV and
//! addition chained with SpGEMM).

use tilespgemm::matrix::ops;
use tilespgemm::prelude::*;

fn poisson(nx: usize, ny: usize) -> Csr<f64> {
    tilespgemm::gen::stencil::grid_2d_5pt(nx, ny)
}

#[test]
fn galerkin_triple_product_preserves_mass_and_symmetry() {
    let a = poisson(48, 48);
    let n = a.nrows;
    // Aggregation prolongation: 4 fine unknowns -> 1 coarse.
    let mut coo = tilespgemm::matrix::Coo::new(n, n.div_ceil(4));
    for i in 0..n {
        coo.push(i as u32, (i / 4) as u32, 1.0);
    }
    let p = coo.to_csr();
    // Both products of the triple product share one tracker and
    // configuration.
    let (config, tracker) = (Config::default(), MemTracker::new());
    let ap = multiply_csr(&a, &p, &config, &tracker).unwrap().to_csr();
    let coarse = multiply_csr(&p.transpose(), &ap, &config, &tracker)
        .unwrap()
        .to_csr();
    assert_eq!(coarse.nrows, n.div_ceil(4));
    let fine_mass = ops::sum_all(&a);
    let coarse_mass = ops::sum_all(&coarse);
    assert!((fine_mass - coarse_mass).abs() < 1e-8);
    assert_eq!(coarse, coarse.transpose());
}

#[test]
fn triangle_count_on_complete_graph_is_n_choose_3() {
    // K_12: C(12,3) = 220 triangles.
    let n = 12usize;
    let mut coo = tilespgemm::matrix::Coo::new(n, n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                coo.push(u, v, 1.0);
            }
        }
    }
    let adj = coo.to_csr();
    let a2 = multiply_csr(&adj, &adj, &Config::default(), &MemTracker::new())
        .unwrap()
        .to_csr();
    let masked = ops::hadamard(&a2, &adj);
    let triangles = (ops::sum_all(&masked) as f64 / 6.0).round() as u64;
    assert_eq!(triangles, 220);
}

#[test]
fn triangle_count_on_cycle_is_zero() {
    let n = 30usize;
    let mut coo = tilespgemm::matrix::Coo::new(n, n);
    for u in 0..n {
        let v = (u + 1) % n;
        coo.push(u as u32, v as u32, 1.0);
        coo.push(v as u32, u as u32, 1.0);
    }
    let adj = coo.to_csr();
    let a2 = multiply_csr(&adj, &adj, &Config::default(), &MemTracker::new())
        .unwrap()
        .to_csr();
    let masked = ops::hadamard(&a2, &adj);
    assert_eq!(ops::sum_all(&masked), 0.0);
}

#[test]
fn mcl_expansion_preserves_column_stochasticity() {
    // M column-stochastic -> M² column-stochastic: SpGEMM must preserve the
    // column sums exactly up to FP error.
    let adj = tilespgemm::gen::random::erdos_renyi(200, 200, 1500, 3).map_values(f64::abs);
    let m = ops::normalize_columns(&ops::add(
        1.0,
        &adj,
        1.0,
        &Csr::identity(200), // self-loops keep columns non-empty
    ));
    let m2 = multiply_csr(&m, &m, &Config::default(), &MemTracker::new())
        .unwrap()
        .to_csr();
    let mut colsum = vec![0.0f64; 200];
    for row in 0..200 {
        let (cols, vals) = m2.row(row);
        for (&c, &v) in cols.iter().zip(vals) {
            colsum[c as usize] += v;
        }
    }
    for (j, s) in colsum.iter().enumerate() {
        assert!((s - 1.0).abs() < 1e-9, "column {j} sums to {s}");
    }
}

#[test]
fn matrix_market_file_round_trip_through_disk() {
    let a = tilespgemm::gen::fem::banded(300, 8, 4, 5);
    let path = std::env::temp_dir().join("tsg_roundtrip_test.mtx");
    {
        let file = std::fs::File::create(&path).unwrap();
        tilespgemm::matrix::io::write_matrix_market(&a, std::io::BufWriter::new(file)).unwrap();
    }
    let back = tilespgemm::matrix::io::read_matrix_market_file::<f64>(&path)
        .unwrap()
        .to_csr();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, a);
}

#[test]
fn tiled_spmv_agrees_after_spgemm_chain() {
    // y = (A²)·x computed (a) by tiled SpMV on the tiled SpGEMM output and
    // (b) by two CSR SpMVs.
    let a = poisson(40, 40);
    let ta = TileMatrix::from_csr(&a);
    let a2 = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
        .unwrap()
        .c;
    let x: Vec<f64> = (0..a.ncols).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let direct = tilespgemm::core::spmv(&a2, &x);
    let two_step = a.spmv(&a.spmv(&x));
    for (d, t) in direct.iter().zip(&two_step) {
        assert!((d - t).abs() < 1e-9);
    }
}

#[test]
fn tiled_add_chains_with_spgemm_for_matrix_polynomials() {
    // p(A) = A² + 2A + 3I, assembled fully in tiled form.
    let a = poisson(24, 24);
    let ta = TileMatrix::from_csr(&a);
    let i = TileMatrix::from_csr(&Csr::identity(a.nrows));
    let a2 = tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
        .unwrap()
        .c;
    let poly = tilespgemm::core::add(1.0, &a2, 1.0, &tilespgemm::core::add(2.0, &ta, 3.0, &i));
    poly.validate().unwrap();
    let want = ops::add(
        1.0,
        &tilespgemm::baselines::reference::reference_spgemm(&a, &a),
        1.0,
        &ops::add(2.0, &a, 3.0, &Csr::identity(a.nrows)),
    )
    .drop_numeric_zeros();
    assert!(poly
        .to_csr()
        .drop_numeric_zeros()
        .approx_eq_ignoring_zeros(&want, 1e-10));
}

#[test]
fn tsparse_f32_pipeline_matches_tilespgemm_f32() {
    // The §4.7 comparison path end to end through the public API.
    let a64 = tilespgemm::gen::fem::banded(400, 10, 5, 9);
    let a: Csr<f32> = a64.cast();
    let ta = TileMatrix::from_csr(&a);
    let ts = tilespgemm::baselines::tsparse::multiply_tiled(&ta, &ta, &MemTracker::new()).unwrap();
    let tile =
        tilespgemm::core::multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
    assert!(ts
        .c
        .to_csr()
        .drop_numeric_zeros()
        .approx_eq_ignoring_zeros(&tile.c.to_csr().drop_numeric_zeros(), 1e-3));
}
