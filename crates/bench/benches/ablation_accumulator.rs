//! Ablation of §3.3's adaptive accumulator: sparse-only vs dense-only vs
//! adaptive, and a sweep of the `tnnz` threshold around the paper's 192.
//! The paper's rationale: dense accumulation wins above ~75% tile
//! occupancy, sparse below. The `dense-tiles-sparse-rows` regime checks
//! that rationale where each A nonzero brings only about 2 B-row entries.
//!
//! ```text
//! cargo bench -p tsg-bench --bench ablation_accumulator
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tilespgemm_core::{AccumulatorKind, Config};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;
use tsg_runtime::MemTracker;

fn bench_accumulators(c: &mut Criterion) {
    // Three regimes: dense tiles with full B rows (cluster matrix -> full
    // output tiles), dense tiles built from sparse B rows (a banded
    // operand's A²·A, the middle link of a banded power: about 2 B-row
    // entries per A nonzero), and sparse tiles (stencil -> few nonzeros per
    // tile).
    let square = |spec: GenSpec| {
        let t = TileMatrix::from_csr(&spec.build());
        (t.clone(), t)
    };
    let banded = TileMatrix::from_csr(
        &GenSpec::Banded {
            n: 10_000,
            bandwidth: 30,
            per_row: 8,
            seed: 1,
        }
        .build(),
    );
    let banded_sq =
        tilespgemm_core::multiply(&banded, &banded, &Config::default(), &MemTracker::new())
            .unwrap()
            .c;
    let cases = [
        (
            "dense-tiles",
            square(GenSpec::PowerFlow {
                clusters: 10,
                cluster_size: 60,
                links: 100,
                seed: 1,
            }),
        ),
        ("dense-tiles-sparse-rows", (banded_sq, banded)),
        ("sparse-tiles", square(GenSpec::Grid5 { nx: 90, ny: 90 })),
    ];
    let mut group = c.benchmark_group("accumulator");
    group.sample_size(10);
    for (regime, operands) in &cases {
        let regime = *regime;
        for (label, accumulator) in [
            ("adaptive", AccumulatorKind::Adaptive),
            ("always-sparse", AccumulatorKind::AlwaysSparse),
            ("always-dense", AccumulatorKind::AlwaysDense),
        ] {
            let cfg = Config::builder()
                .tnnz_threshold(192)
                .accumulator(accumulator)
                .build();
            group.bench_with_input(BenchmarkId::new(label, regime), operands, |b, (l, r)| {
                b.iter(|| tilespgemm_core::multiply(l, r, &cfg, &MemTracker::new()).unwrap());
            });
        }
        // Threshold sweep (adaptive only).
        for tnnz in [64usize, 128, 192, 240] {
            let cfg = Config::builder()
                .tnnz_threshold(tnnz)
                .accumulator(AccumulatorKind::Adaptive)
                .build();
            group.bench_with_input(
                BenchmarkId::new(format!("tnnz-{tnnz}"), regime),
                operands,
                |b, (l, r)| {
                    b.iter(|| tilespgemm_core::multiply(l, r, &cfg, &MemTracker::new()).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_accumulators);
criterion_main!(benches);
