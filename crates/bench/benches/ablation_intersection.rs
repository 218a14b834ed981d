//! Ablation of §3.3's set-intersection choice: the paper reports that
//! binary search (with left-bound narrowing) beats the merge primitive for
//! matching tile pairs; this bench reproduces the comparison on raw index
//! lists. The end-to-end cost of the paper's intersection is the
//! `pair_reuse=false` rows of `BENCH_pipeline.json`.
//!
//! ```text
//! cargo bench -p tsg-bench --bench ablation_intersection
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tilespgemm_core::intersect::{intersect_binary_search, intersect_merge, MatchedPair};

/// Sorted random list of `len` values below `universe`.
fn sorted_list(len: usize, universe: u32, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut v: Vec<u32> = (0..len * 2)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % universe as u64) as u32
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(len);
    v
}

/// A list kernel, as `step2::matched_pairs` takes it.
type Kernel = fn(&[u32], &[u32], &mut Vec<MatchedPair>);

fn bench_raw_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect_raw");
    let kernels: [(&str, Kernel); 2] = [
        ("BinarySearch", intersect_binary_search),
        ("Merge", intersect_merge),
    ];
    // Asymmetric lists (the common tile-row vs tile-column case) and
    // symmetric ones.
    for (short, long) in [(8usize, 512usize), (64, 512), (256, 256)] {
        let a = sorted_list(short, 4096, 1);
        let b = sorted_list(long, 4096, 2);
        for (name, kernel) in kernels {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{short}x{long}")),
                &(a.clone(), b.clone()),
                |bench, (a, b)| {
                    let mut out = Vec::new();
                    bench.iter(|| {
                        out.clear();
                        kernel(a, b, &mut out);
                        out.len()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_raw_intersection);
criterion_main!(benches);
