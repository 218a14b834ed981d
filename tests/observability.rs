//! Counter-correctness tests for the observability layer: every counter a
//! [`CollectingRecorder`] aggregates is checked against ground truth the
//! pipeline computes independently (the step-1 structure, the row pass's
//! per-tile pair lists, the tracker's byte accounting), and a property
//! test pins down that recording changes nothing about the numerics.

use std::sync::Arc;

use proptest::prelude::*;
use tilespgemm::prelude::*;
use tilespgemm::runtime::ScratchPool;

/// A representative mix: a banded FEM-like pattern, a power-law scatter,
/// and a diagonal (degenerate: every output tile accumulates one pair).
fn fixtures() -> Vec<(&'static str, TileMatrix<f64>)> {
    let fem = tilespgemm::gen::suite::GenSpec::Fem {
        nodes: 120,
        block: 5,
        couplings: 3,
        spread: 9,
        seed: 7,
    }
    .build();
    let scatter = tilespgemm::gen::random::erdos_renyi(600, 600, 4_000, 21);
    let eye = Csr::<f64>::identity(300);
    vec![
        ("fem", TileMatrix::from_csr(&fem)),
        ("scatter", TileMatrix::from_csr(&scatter)),
        ("identity", TileMatrix::from_csr(&eye)),
    ]
}

/// A tracker with `recorder` attached, so byte counters flow into the
/// same snapshot as the pipeline's own.
fn recording_tracker(recorder: &Arc<CollectingRecorder>) -> MemTracker {
    let tracker = MemTracker::new();
    tracker.set_recorder(Some(recorder.clone()));
    tracker
}

/// One profiled product under `job`, against the caller's tracker and
/// scratch pool.
fn profiled(
    ta: &TileMatrix<f64>,
    config: Config,
    recorder: &CollectingRecorder,
    tracker: &MemTracker,
    pool: &ScratchPool,
    job: u64,
) -> tilespgemm::core::pipeline::Output<f64> {
    multiply_with_pool(ta, ta, None, &config, tracker, recorder, job, pool).expect("multiply")
}

/// One profiled product on a fresh recorder, tracker and pool; returns the
/// recorder and the tracker alongside the output so every test reads the
/// same run.
fn profiled_square(
    ta: &TileMatrix<f64>,
    config: Config,
) -> (
    tilespgemm::core::pipeline::Output<f64>,
    Arc<CollectingRecorder>,
    MemTracker,
) {
    let recorder = Arc::new(CollectingRecorder::new());
    let tracker = recording_tracker(&recorder);
    let out = profiled(ta, config, &recorder, &tracker, &ScratchPool::new(), 1);
    (out, recorder, tracker)
}

#[test]
fn tiles_visited_equals_the_step1_tile_count() {
    for (name, ta) in fixtures() {
        let (out, recorder, _) = profiled_square(&ta, Config::default());
        // Step 2 visits each tile of the step-1 structure exactly once, so
        // the counter must equal the output layout's tile count.
        assert_eq!(
            recorder.snapshot().get(Counter::TilesVisited) as usize,
            out.c.tile_count(),
            "{name}: one visit per predicted output tile"
        );
    }
}

#[test]
fn matched_pairs_equal_the_persisted_pair_buffer() {
    for (name, ta) in fixtures() {
        let (out, recorder, _) = profiled_square(&ta, Config::default());
        // The per-tile lists the row pass hands step 3, for C's layout.
        let lists =
            tilespgemm::core::step2::row_pass_lists(&ta, &ta, &out.c.tile_ptr, &out.c.tile_colidx);
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(
            recorder.snapshot().get(Counter::MatchedPairs) as usize,
            total,
            "{name}: the counter totals exactly the pairs step 2 persisted"
        );
        // The degenerate diagonal makes the bound exact: one pair per tile.
        if name == "identity" {
            assert_eq!(total, out.c.tile_count());
            assert!(lists.iter().all(|l| l.len() == 1));
        }
    }
}

#[test]
fn accumulator_picks_partition_the_output_tiles() {
    for (name, ta) in fixtures() {
        let (out, recorder, _) = profiled_square(&ta, Config::default());
        let snap = recorder.snapshot();
        // Step 3 routes every output tile through exactly one accumulator,
        // so the two pick counters partition the tile count.
        assert_eq!(
            (snap.get(Counter::SparseAccPicks) + snap.get(Counter::DenseAccPicks)) as usize,
            out.c.tile_count(),
            "{name}: sparse + dense picks cover each tile exactly once"
        );
    }
}

#[test]
fn intersection_probes_are_exact_on_both_step2_paths() {
    for (name, ta) in fixtures() {
        let b_cols = ta.col_index();
        let a_row = |i: usize| ta.tile_row_range(i).len() as u64;
        let b_col = |j: usize| b_cols.col(j).0.len() as u64;
        // The paper path binary-searches the shorter of A's tile row and
        // B's tile column for each tile of C, in step 2 and again in step 3.
        let paper_probes = |c: &TileMatrix<f64>| {
            let per_pass: u64 = (0..c.tile_m)
                .flat_map(|i| c.tile_row_cols(i).iter().map(move |&j| (i, j as usize)))
                .map(|(i, j)| a_row(i).min(b_col(j)))
                .sum();
            2 * per_pass
        };
        let probes = |config: Config, mask: Option<&TileMatrix<f64>>| {
            let recorder = CollectingRecorder::new();
            let out = multiply_with_pool(
                &ta,
                &ta,
                mask,
                &config,
                &MemTracker::new(),
                &recorder,
                1,
                &ScratchPool::new(),
            )
            .expect("multiply");
            (out.c, recorder.snapshot().get(Counter::IntersectionProbes))
        };

        // The row pass tests, for each non-empty tile row `i` of C, every
        // tile of B's tile row `k` for each of A's tiles `k` in row `i`.
        let (c, got) = probes(Config::default(), None);
        let want: u64 = (0..c.tile_m)
            .filter(|&i| !c.tile_row_range(i).is_empty())
            .flat_map(|i| ta.tile_row_cols(i))
            .map(|&k| ta.tile_row_range(k as usize).len() as u64)
            .sum();
        assert_eq!(got, want, "{name}: row pass");

        let paper = Config::builder().pair_reuse(false).build();
        let (c, got) = probes(paper, None);
        assert_eq!(got, paper_probes(&c), "{name}: paper path");
        // Under a mask C takes the mask's tile layout, and the paper path
        // intersects for each of its tiles.
        let (c, got) = probes(paper, Some(&ta));
        assert_eq!(c.tile_ptr, ta.tile_ptr, "{name}: the mask's layout");
        assert_eq!(got, paper_probes(&c), "{name}: masked paper path");
    }
}

#[test]
fn byte_counters_reconcile_with_the_tracker() {
    for (name, ta) in fixtures() {
        let (out, recorder, tracker) = profiled_square(&ta, Config::default());
        let snap = recorder.snapshot();
        let alloc = snap.get(Counter::BytesAlloc);
        let freed = snap.get(Counter::BytesFreed);
        // The pipeline drains its device attribution, so alloc == freed and
        // the tracker sits back at zero; the cumulative alloc total must
        // dominate the high-water mark both the tracker and the output
        // report.
        assert_eq!(alloc, freed, "{name}: attribution drains to zero");
        assert_eq!(tracker.current_bytes(), 0, "{name}");
        assert_eq!(tracker.peak_bytes(), out.peak_bytes, "{name}");
        assert!(
            alloc as usize >= out.peak_bytes,
            "{name}: total bytes allocated ({alloc}) below the peak ({})",
            out.peak_bytes
        );
    }
}

#[test]
fn counters_accumulate_across_jobs() {
    let (_, ta) = fixtures().remove(0);
    let recorder = Arc::new(CollectingRecorder::new());
    // Both jobs share one tracker and one pool, so job 2 runs on the scratch
    // arenas job 1 warmed.
    let tracker = recording_tracker(&recorder);
    let pool = ScratchPool::new();
    profiled(&ta, Config::default(), &recorder, &tracker, &pool, 1);
    let after_one = recorder.snapshot();
    let warmed = pool.created();
    assert!(warmed > 0, "job 1 warmed the pool");
    profiled(&ta, Config::default(), &recorder, &tracker, &pool, 2);
    assert_eq!(pool.created(), warmed, "job 2 reused job 1's arenas");
    let delta = recorder.snapshot().since(&after_one);
    // The same product again adds exactly the same per-job totals whether
    // the pool is cold or warm, and each job keeps its own span tree.
    assert_eq!(
        delta, after_one,
        "second job repeats the first job's totals"
    );
    assert_eq!(recorder.jobs(), vec![1, 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recording must be purely observational: the same product through the
    /// free function and through a `CollectingRecorder` attached to the
    /// tracker is bitwise-identical, with the same peak.
    #[test]
    fn recording_never_changes_the_product(
        n in 8usize..96,
        nnz in 0usize..400,
        seed in 0u64..500,
    ) {
        let a = tilespgemm::gen::random::erdos_renyi(n, n, nnz.min(n * n), seed);
        let ta = TileMatrix::from_csr(&a);
        let free = multiply(&ta, &ta, &Config::default(), &MemTracker::new())
            .expect("free function");
        let recorder = Arc::new(CollectingRecorder::new());
        let tracker = recording_tracker(&recorder);
        let collecting = profiled(&ta, Config::default(), &recorder, &tracker, &ScratchPool::new(), 1);
        prop_assert_eq!(&free.c, &collecting.c);
        prop_assert_eq!(free.peak_bytes, collecting.peak_bytes);
    }
}
