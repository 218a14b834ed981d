//! Criterion counterpart of Figure 10: the TileSpGEMM pipeline end to end
//! and its individual steps, on a FEM-class matrix — plus a machine-readable
//! `BENCH_pipeline.json` at the workspace root comparing pair reuse against
//! the paper's recompute path on an R-MAT/power-law suite and the scalar
//! step-3 kernels against the vector ones (medians of [`PIPELINE_RUNS`]
//! runs, with their spread).
//!
//! ```text
//! cargo bench -p tsg-bench --bench tile_pipeline
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use tilespgemm_core::step1::tile_structure_spgemm;
use tilespgemm_core::{Config, SimdPolicy};
use tsg_bench::{pipeline_medians, PipelineMedians, PIPELINE_RUNS};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;
use tsg_runtime::MemTracker;

/// One measured pipeline configuration, serialized into BENCH_pipeline.json:
/// medians of [`PIPELINE_RUNS`] runs after a warm-up, with the wall time's
/// spread and the host's core count. Every record runs the default per-tile
/// scheduling; the row keeps its `"scheduling":"per-tile"` key for
/// `perf_smoke`'s baseline lookup.
struct Record {
    matrix: &'static str,
    pair_reuse: bool,
    m: PipelineMedians,
}

impl Record {
    fn measure(ta: &TileMatrix<f64>, matrix: &'static str, pair_reuse: bool) -> Self {
        let cfg = Config::builder().pair_reuse(pair_reuse).build();
        Record {
            matrix,
            pair_reuse,
            m: pipeline_medians(ta, &cfg),
        }
    }

    fn to_json(&self) -> String {
        let m = &self.m;
        let [step1, step2, step3, alloc] = m.steps_ms;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            concat!(
                "{{\"matrix\":\"{}\",\"method\":\"tilespgemm\",",
                "\"scheduling\":\"per-tile\",\"pair_reuse\":{},",
                "\"wall_ms\":{:.4},\"peak_bytes\":{},",
                "\"step1_ms\":{:.4},\"step2_ms\":{:.4},",
                "\"step3_ms\":{:.4},\"alloc_ms\":{:.4},",
                "\"wall_ms_min\":{:.4},\"wall_ms_max\":{:.4},",
                "\"runs\":{},\"cores\":{}}}"
            ),
            self.matrix,
            self.pair_reuse,
            m.wall_ms,
            m.peak_bytes,
            step1,
            step2,
            step3,
            alloc,
            m.wall_ms_min,
            m.wall_ms_max,
            PIPELINE_RUNS,
            cores,
        )
    }
}

/// One rung of the step-3 kernel ablation ladder (DESIGN.md §15):
/// forced-scalar or the `Auto` vector dispatch, timed like a
/// `"method":"tilespgemm"` row ([`pipeline_medians`]) after a
/// bitwise-identity check against the scalar rung (the ladder's core
/// contract). Deliberately carries no `scheduling` / `pair_reuse` keys so
/// `perf_smoke`'s line-based baseline lookup never matches an ablation row.
fn simd_ablation_record(
    ta: &TileMatrix<f64>,
    matrix: &'static str,
    kernel: &'static str,
    policy: SimdPolicy,
    scalar_c: &TileMatrix<f64>,
) -> String {
    let cfg = Config::builder().simd(policy).build();
    let check = tilespgemm_core::multiply(ta, ta, &cfg, &MemTracker::new()).expect("multiply");
    assert_eq!(
        check.c, *scalar_c,
        "{matrix}/{kernel}: ablation rung must stay bitwise-identical to scalar"
    );
    let m = pipeline_medians(ta, &cfg);
    let [_, step2, step3, _] = m.steps_ms;
    println!(
        "  {matrix:<14} kernel={kernel:<11} {:>9.3} ms [{:.3}–{:.3}] (step3 {step3:>8.3} ms)",
        m.wall_ms, m.wall_ms_min, m.wall_ms_max
    );
    format!(
        concat!(
            "{{\"matrix\":\"{}\",\"method\":\"simd_ablation\",\"kernel\":\"{}\",",
            "\"wall_ms\":{:.4},\"step2_ms\":{:.4},\"step3_ms\":{:.4},",
            "\"wall_ms_min\":{:.4},\"wall_ms_max\":{:.4},\"runs\":{}}}"
        ),
        matrix, kernel, m.wall_ms, step2, step3, m.wall_ms_min, m.wall_ms_max, PIPELINE_RUNS,
    )
}

/// Measures every (matrix, pair_reuse) combination of the suite and writes
/// BENCH_pipeline.json at the workspace root.
fn emit_bench_json() {
    let suite: [(&'static str, GenSpec); 3] = [
        (
            "fem-500",
            GenSpec::Fem {
                nodes: 500,
                block: 6,
                couplings: 4,
                spread: 20,
                seed: 1,
            },
        ),
        (
            "rmat-skewed",
            GenSpec::Rmat {
                scale: 12,
                edges: 25_000,
                mild: false,
                seed: 1,
            },
        ),
        (
            "webbase-like",
            GenSpec::Rmat {
                scale: 14,
                edges: 80_000,
                mild: false,
                seed: 112,
            },
        ),
    ];
    let mats: Vec<(&'static str, TileMatrix<f64>)> = suite
        .into_iter()
        .map(|(name, spec)| (name, TileMatrix::from_csr(&spec.build())))
        .collect();
    let mut records = Vec::new();
    for &(name, ref ta) in &mats {
        for pair_reuse in [true, false] {
            records.push(Record::measure(ta, name, pair_reuse));
        }
    }
    let mut body: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    // Kernel ablation on the two power-law matrices, where step 3 dominates.
    for &(name, ref ta) in &mats {
        if name == "fem-500" {
            continue;
        }
        let scalar_cfg = Config::builder().simd(SimdPolicy::ForceScalar).build();
        let scalar_c = tilespgemm_core::multiply(ta, ta, &scalar_cfg, &MemTracker::new())
            .expect("scalar reference")
            .c;
        for (kernel, policy) in [
            ("scalar", SimdPolicy::ForceScalar),
            ("simd", SimdPolicy::Auto),
        ] {
            body.push(format!(
                "  {}",
                simd_ablation_record(ta, name, kernel, policy, &scalar_c)
            ));
        }
    }
    let json = format!("[\n{}\n]\n", body.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("wrote {path} ({} records)", records.len());
    for r in &records {
        println!(
            "  {:<14} reuse={:<5} {:>9.3} ms [{:.3}–{:.3}] (step2 {:.3}, step3 {:.3}; peak {} B)",
            r.matrix,
            r.pair_reuse,
            r.m.wall_ms,
            r.m.wall_ms_min,
            r.m.wall_ms_max,
            r.m.steps_ms[1],
            r.m.steps_ms[2],
            r.m.peak_bytes
        );
    }
}

fn bench_pipeline(c: &mut Criterion) {
    emit_bench_json();

    let a = GenSpec::Fem {
        nodes: 500,
        block: 6,
        couplings: 4,
        spread: 20,
        seed: 1,
    }
    .build();
    let ta = TileMatrix::from_csr(&a);

    let mut group = c.benchmark_group("tile_pipeline");
    group.sample_size(10);

    group.bench_function("full_multiply", |b| {
        b.iter(|| {
            tilespgemm_core::multiply(&ta, &ta, &Config::default(), &MemTracker::new())
                .expect("multiply")
        });
    });

    group.bench_function("full_multiply_recompute_pairs", |b| {
        let cfg = Config::builder().pair_reuse(false).build();
        b.iter(|| tilespgemm_core::multiply(&ta, &ta, &cfg, &MemTracker::new()).expect("multiply"));
    });

    group.bench_function("step1_tile_structure", |b| {
        b.iter(|| {
            tile_structure_spgemm(
                ta.tile_m,
                &ta.tile_ptr,
                &ta.tile_colidx,
                &ta.tile_ptr,
                &ta.tile_colidx,
                ta.tile_n,
            )
        });
    });

    group.bench_function("col_index_build", |b| {
        b.iter(|| ta.col_index());
    });

    group.bench_function("csr_to_tile", |b| {
        b.iter(|| TileMatrix::from_csr(&a));
    });

    group.bench_function("tile_to_csr", |b| {
        b.iter(|| ta.to_csr());
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
