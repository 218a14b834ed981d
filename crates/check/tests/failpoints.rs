//! Fault-injection tests (`--features failpoints`).
//!
//! Each test arms one failpoint from the catalog (DESIGN.md §10.4) and
//! asserts *graceful degradation*: the stable error code comes back, the
//! memory tracker unwinds to balance, and the component keeps serving
//! afterwards. Every test holds [`failpoint::exclusive`] because the
//! registry is process-global. The two request-framing sites
//! (`protocol.*`) live in `tsg-serve`'s request handler and are tested in
//! `crates/serve/tests/failpoints.rs`.

#![cfg(feature = "failpoints")]

use tilespgemm_core::{
    multiply, multiply_csr, multiply_masked, multiply_with_pool, recycle, Config,
};
use tsg_baselines::reference::reference_spgemm;
use tsg_check::{compare_csr, corpus, ValuePolicy};
use tsg_engine::{Engine, EngineConfig, JobResult, JobSpec};
use tsg_matrix::TileMatrix;
use tsg_runtime::failpoint;
use tsg_runtime::observe::NullRecorder;
use tsg_runtime::{MemTracker, ScratchPool};

fn operands() -> (tsg_matrix::Csr<f64>, tsg_matrix::Csr<f64>) {
    corpus::build("dense-tile-row", 0).expect("corpus case exists")
}

/// Runs `spec` on `engine` under the engine's own estimate, as job 1.
fn run(engine: &Engine, spec: JobSpec) -> JobResult {
    let estimate = engine.estimate_op(&spec.op)?;
    engine.run(1, &spec.op, estimate)
}

/// Every tracked allocation of the pipeline, failed one at a time: the
/// multiply must return the stable `out_of_memory` code and credit back
/// everything it had allocated — including the failure *inside step 3*
/// (the output-array allocation, the last tracked site). Covered on both
/// ways step 2 finds pairs — the row pass (plain and masked) and the
/// paper's per-tile intersection (`pair_reuse(false)`).
#[test]
fn oom_at_every_pipeline_allocation_unwinds_and_recovers() {
    let _x = failpoint::exclusive();
    let (a, b) = operands();
    let (ta, tb) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
    let gold = reference_spgemm(&a, &b);
    // The mask keeps the product's entries on a checkerboard of tiles and
    // on every third row, so it drops tiles and cuts others, and adds a
    // diagonal the product may miss.
    let mut coo = tsg_matrix::Coo::new(gold.nrows, gold.ncols);
    for r in 0..gold.nrows {
        for &c in gold.row(r).0 {
            if (r / 16 + c as usize / 16).is_multiple_of(2) || r.is_multiple_of(3) {
                coo.push(r as u32, c, 1.0);
            }
        }
        if r.is_multiple_of(5) && r < gold.ncols && gold.get(r, r as u32).is_none() {
            coo.push(r as u32, r as u32, 1.0);
        }
    }
    let mask = coo.to_csr();
    let tm = TileMatrix::from_csr(&mask);
    let masked_gold = tsg_matrix::ops::hadamard(&gold, &mask);
    let paper = Config::builder().pair_reuse(false).build();
    // (what, mask, config, expected product)
    let runs = [
        ("row pass", None, Config::default(), &gold),
        (
            "masked row pass",
            Some(&tm),
            Config::default(),
            &masked_gold,
        ),
        ("paper path", None, paper, &gold),
    ];
    for (name, mask, config, want) in runs {
        let run = |tracker: &MemTracker| match mask {
            None => multiply(&ta, &tb, &config, tracker),
            Some(m) => multiply_masked(&ta, &tb, m, &config, tracker),
        };
        // First, count the tracked allocation sites of one clean run by
        // arming with an infinite skip (never fails, still counts hits).
        failpoint::arm("tracker.alloc", u64::MAX, 1);
        run(&MemTracker::new()).expect("clean run");
        let allocs = failpoint::hits("tracker.alloc");
        assert!(allocs >= 3, "{name}: inputs/temps/output allocations");

        // Now fail each site in turn, the last being mid-step-3.
        for k in 0..allocs {
            failpoint::arm("tracker.alloc", k, 1);
            let tracker = MemTracker::new();
            let err = run(&tracker).expect_err("armed allocation must fail");
            assert_eq!(err.code(), "out_of_memory", "{name}: allocation #{k}");
            assert_eq!(
                tracker.current_bytes(),
                0,
                "{name}: allocation #{k} must unwind everything already charged"
            );
        }

        // Disarmed, the same operands multiply fine and match the reference.
        failpoint::clear("tracker.alloc");
        let tracker = MemTracker::new();
        let out = run(&tracker).expect("recovered");
        assert_eq!(tracker.current_bytes(), 0, "{name}");
        assert!(out.c.nnz() > 0, "{name}: a non-trivial product");
        compare_csr(&out.to_csr(), want, &ValuePolicy::default()).unwrap();
    }
    // The CSR entry point, which converts first, recovers the same way.
    let out = multiply_csr(&a, &b, &Config::default(), &MemTracker::new()).expect("recovered");
    compare_csr(&out.to_csr(), &gold, &ValuePolicy::default()).unwrap();
}

/// Every tracked allocation failed in turn on one shared pool: each failed
/// multiply hands back every buffer it checked out — the step-2 pair lists
/// and C's arrays among them — and the pool then serves a multiply that
/// matches the reference, plain and masked.
#[test]
fn oom_hands_every_pooled_buffer_back() {
    let _x = failpoint::exclusive();
    let (a, b) = operands();
    let (ta, tb) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
    let gold = reference_spgemm(&a, &b);
    // Keeps every buffer, however small.
    let pool = ScratchPool::keeping_above(0);
    for mask in [None, Some(&ta)] {
        let run = |tracker: &MemTracker| {
            let cfg = Config::default();
            multiply_with_pool(&ta, &tb, mask, &cfg, tracker, &NullRecorder, 0, &pool)
        };
        failpoint::arm("tracker.alloc", u64::MAX, 1);
        recycle(run(&MemTracker::new()).expect("clean run").c, &pool);
        let allocs = failpoint::hits("tracker.alloc");
        for k in 0..allocs {
            failpoint::arm("tracker.alloc", k, 1);
            let tracker = MemTracker::new();
            run(&tracker).expect_err("armed allocation must fail");
            assert_eq!(tracker.current_bytes(), 0, "allocation #{k}");
            assert_eq!(
                pool.buffer_stats().checked_out_bytes,
                0,
                "allocation #{k}: a buffer stayed checked out"
            );
        }
        failpoint::clear("tracker.alloc");
        let out = run(&MemTracker::new()).expect("recovered");
        assert_eq!(pool.buffer_stats().checked_out_bytes, 0);
        let want = match mask {
            None => gold.clone(),
            Some(_) => tsg_matrix::ops::hadamard(&gold, &a.map_values(|_| 1.0)),
        };
        compare_csr(&out.to_csr(), &want, &ValuePolicy::default()).unwrap();
    }
    assert!(pool.buffer_stats().reused > 0, "the pool served later runs");
}

/// Scratch-arena pool growth refused by the `arena.grow` failpoint: the
/// multiply fails with the stable `out_of_memory` code before steps 2/3
/// run, the tracker unwinds to balance, and a disarmed retry — reusing the
/// very same tracker — succeeds and matches the reference.
#[test]
fn arena_growth_failure_unwinds_and_recovers() {
    let _x = failpoint::exclusive();
    let (a, b) = operands();
    failpoint::arm("arena.grow", 0, 1);
    let tracker = MemTracker::new();
    let err = multiply_csr(&a, &b, &Config::default(), &tracker)
        .expect_err("armed arena growth must fail");
    assert_eq!(err.code(), "out_of_memory");
    assert_eq!(
        tracker.current_bytes(),
        0,
        "arena reservation failure must credit back the step-2 temporaries"
    );
    assert!(failpoint::hits("arena.grow") >= 1, "the site was exercised");
    failpoint::clear("arena.grow");
    let out = multiply_csr(&a, &b, &Config::default(), &tracker).expect("recovered");
    assert_eq!(tracker.current_bytes(), 0);
    compare_csr(
        &out.to_csr(),
        &reference_spgemm(&a, &b),
        &ValuePolicy::default(),
    )
    .unwrap();
}

/// An allocation failure during an engine job: the job fails with
/// `out_of_memory`, the shared device tracker balances, and the *next* job
/// on the same engine succeeds.
#[test]
fn engine_job_survives_device_oom() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, b) = operands();
    let (ida, _) = engine.register(a);
    let (idb, _) = engine.register(b);
    // Pre-convert so the armed failpoint hits the multiply, not the cache.
    engine.convert(ida).unwrap();
    engine.convert(idb).unwrap();

    failpoint::arm("tracker.alloc", 0, 1);
    let err = run(&engine, JobSpec::multiply(ida, idb)).expect_err("armed job must fail");
    assert_eq!(err.code(), "out_of_memory");
    assert_eq!(engine.device_tracker().current_bytes(), 0);
    assert_eq!(engine.stats().failed, 1);

    let report =
        run(&engine, JobSpec::multiply(ida, idb)).expect("engine keeps serving after a failed job");
    assert!(report.nnz_c > 0);
}

/// The cache refuses to account a conversion: the registry serves it
/// uncached instead of failing, and later multiplies still work.
#[test]
fn cache_alloc_failure_falls_back_to_uncached_conversion() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, _) = operands();
    let (id, _) = engine.register(a);

    failpoint::arm("registry.cache_alloc", 0, 1);
    let (_tiles, _bytes, hit) = engine.convert(id).unwrap();
    assert!(!hit, "conversion served fresh, not from cache");
    assert_eq!(engine.stats().registry.uncached_conversions, 1);

    let report = run(&engine, JobSpec::multiply(id, id)).unwrap();
    assert!(report.nnz_c > 0);
}

/// Every cached conversion vanishes between admission and resolve (the
/// eviction race): the job reconverts and completes with the right product.
#[test]
fn eviction_race_reconverts_and_completes() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, b) = operands();
    let gold = reference_spgemm(&a, &b);
    let (ida, _) = engine.register(a);
    let (idb, _) = engine.register(b);
    engine.convert(ida).unwrap();
    engine.convert(idb).unwrap();

    failpoint::arm("registry.evict_all", 0, 1);
    let report = run(&engine, JobSpec::multiply(ida, idb)).unwrap();
    let stats = engine.stats();
    assert!(
        stats.registry.evictions >= 2,
        "both cached conversions were dropped mid-flight"
    );
    compare_csr(
        &report.c.to_csr().drop_numeric_zeros(),
        &gold,
        &ValuePolicy::default(),
    )
    .unwrap();
}

/// An operand disappearing between admission and execution (the
/// unregister race): the job fails with `unknown_matrix`, and the engine
/// completes the next job.
#[test]
fn resolve_race_fails_job_but_not_the_worker() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, _) = operands();
    let (id, _) = engine.register(a);

    failpoint::arm("engine.resolve", 0, 1);
    let err = run(&engine, JobSpec::multiply(id, id)).expect_err("armed resolve must fail");
    assert_eq!(err.code(), "unknown_matrix");
    assert_eq!(engine.device_tracker().current_bytes(), 0);

    let report = run(&engine, JobSpec::multiply(id, id)).unwrap();
    assert!(report.nnz_c > 0);
}

/// The sampled admission estimator "fails" (`engine.estimate_sample`): the
/// estimate must fall back to the constant-compression upper bound and the
/// job must still be *admitted* — degraded estimation may widen the
/// prediction, never wrongly reject a job the sampled model would admit.
#[test]
fn estimate_sample_failure_falls_back_to_upper_bound_and_still_admits() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, b) = operands();
    let (ida, _) = engine.register(a);
    let (idb, _) = engine.register(b);

    // Baseline: sampling on, the estimate carries a measured band.
    let sampled = engine.estimate(ida, idb).expect("estimate");
    assert!(sampled.sample.is_some(), "default config samples");

    // Armed: sampling fails for the next estimate only. The fallback is
    // the ASSUMED_COMPRESSION model — no band, typically a different (and
    // not smaller) byte prediction.
    failpoint::arm("engine.estimate_sample", 0, 1);
    let fallback = engine.estimate(ida, idb).expect("fallback estimate");
    assert!(fallback.sample.is_none(), "fallback carries no band");
    assert_eq!(
        fallback.flops, sampled.flops,
        "both paths count exact flops from the CSR forms"
    );

    // Armed again for a job: it runs under the fallback estimate and
    // completes. Degraded estimation must never fail a job the default
    // budget holds.
    failpoint::arm("engine.estimate_sample", 0, 1);
    let report = run(&engine, JobSpec::multiply(ida, idb))
        .expect("job run and completed on the fallback estimate");
    assert!(report.nnz_c > 0);
    assert!(report.estimate.sample.is_none());
    failpoint::clear("engine.estimate_sample");

    // Disarmed, sampling resumes.
    let again = engine.estimate(ida, idb).expect("estimate");
    assert!(again.sample.is_some());
}

/// `engine.estimate_sample` on a warm memo: the armed estimate is still the
/// constant-model fallback, not the memoized sample, and the fallback is
/// never stored — disarmed, the memoized sampled estimate comes back.
#[test]
fn estimate_sample_failure_bypasses_a_warm_memo_without_storing_the_fallback() {
    let _x = failpoint::exclusive();
    let engine = Engine::new(EngineConfig::default());
    let (a, b) = operands();
    let (ida, _) = engine.register(a);
    let (idb, _) = engine.register(b);
    let sampled = engine.estimate(ida, idb).expect("estimate");
    assert!(sampled.sample.is_some());
    let warm = engine.stats().registry;
    assert_eq!((warm.estimate_hits, warm.estimate_misses), (0, 1));

    failpoint::arm("engine.estimate_sample", 0, 1);
    let fallback = engine.estimate(ida, idb).expect("fallback estimate");
    failpoint::clear("engine.estimate_sample");
    assert!(
        fallback.sample.is_none(),
        "the armed estimate is the fallback"
    );
    assert_eq!(engine.stats().registry, warm, "neither read nor stored");

    let again = engine.estimate(ida, idb).expect("estimate");
    assert_eq!(again, sampled);
    assert_eq!(engine.stats().registry.estimate_hits, 1);
    assert_eq!(engine.stats().registry.estimate_misses, 1);
}

/// The `core.simd_dispatch` failpoint forces the whole multiply down the
/// scalar kernel ladder: the armed run records zero `simd_*` picks while the accumulator-decision counters are untouched, and —
/// because scalar *is* the reference summation order — the product is
/// bitwise identical to the unforced run. Disarmed, vector dispatch
/// resumes by itself.
#[test]
fn simd_dispatch_failpoint_forces_scalar_and_stays_bitwise_identical() {
    use tsg_runtime::{CollectingRecorder, Counter, Recorder};

    let _x = failpoint::exclusive();
    let (a, b) = operands();
    let (ta, tb) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&b));
    let run = || {
        let tracker = MemTracker::new();
        let recorder = CollectingRecorder::new();
        let (config, pool) = (Config::default(), ScratchPool::new());
        let out = multiply_with_pool(&ta, &tb, None, &config, &tracker, &recorder, 1, &pool)
            .expect("multiply succeeds");
        assert_eq!(tracker.current_bytes(), 0);
        (out, recorder.snapshot())
    };

    let (clean, clean_snap) = run();

    failpoint::arm("core.simd_dispatch", 0, 0);
    let (forced, forced_snap) = run();
    assert!(
        failpoint::hits("core.simd_dispatch") >= 1,
        "the dispatch site was exercised"
    );
    assert_eq!(
        forced_snap.get(Counter::SimdSparsePicks) + forced_snap.get(Counter::SimdDensePicks),
        0,
        "the armed run must not touch a vector kernel"
    );
    assert_eq!(
        (
            forced_snap.get(Counter::SparseAccPicks),
            forced_snap.get(Counter::DenseAccPicks)
        ),
        (
            clean_snap.get(Counter::SparseAccPicks),
            clean_snap.get(Counter::DenseAccPicks)
        ),
        "the accumulator decision is dispatch-independent"
    );
    assert_eq!(
        forced.c, clean.c,
        "scalar fallback is bitwise identical to the dispatched run"
    );

    failpoint::clear("core.simd_dispatch");
    let (again, _) = run();
    assert_eq!(again.c, clean.c, "vector dispatch resumes after disarming");
}
