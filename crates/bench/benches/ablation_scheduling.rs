//! Ablation of the task granularity: the paper's one-warp-per-tile mapping
//! (issue #1: bounded work per task, so no load imbalance) against a
//! coarser one-task-per-tile-row decomposition, on a power-law matrix whose
//! tile rows are wildly uneven — each crossed with the pair-reuse knob
//! (reuse vs the paper's recompute-in-step-3 path).
//!
//! On a multi-core host the per-tile-row variant loses on skewed matrices
//! because the heavy tile rows straggle; on a single-core host both collapse
//! to serial execution and the bench documents that the *work* is identical.
//!
//! ```text
//! cargo bench -p tsg-bench --bench ablation_scheduling
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tilespgemm_core::{Config, Scheduling};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;
use tsg_runtime::MemTracker;

fn bench_scheduling(c: &mut Criterion) {
    let cases = [
        (
            "skewed-powerlaw",
            GenSpec::Rmat {
                scale: 12,
                edges: 25_000,
                mild: false,
                seed: 1,
            },
        ),
        ("uniform-stencil", GenSpec::Grid5 { nx: 90, ny: 90 }),
    ];
    let mut group = c.benchmark_group("scheduling");
    group.sample_size(10);
    for (regime, spec) in cases {
        let a = spec.build();
        let ta = TileMatrix::from_csr(&a);
        for (label, scheduling) in [
            ("per-tile", Scheduling::PerTile),
            ("per-tile-row", Scheduling::PerTileRow),
        ] {
            for pair_reuse in [true, false] {
                let cfg = Config::builder()
                    .scheduling(scheduling)
                    .pair_reuse(pair_reuse)
                    .build();
                let variant = format!("{label}-{}", if pair_reuse { "reuse" } else { "recompute" });
                group.bench_with_input(BenchmarkId::new(variant, regime), &ta, |b, ta| {
                    b.iter(|| tilespgemm_core::multiply(ta, ta, &cfg, &MemTracker::new()).unwrap());
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
