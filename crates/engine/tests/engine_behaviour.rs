//! Engine-level behaviour: jobs run under the caller's estimate with the
//! tracker as the backstop (mid-flight budget trips), registry caching
//! across jobs, the estimator's counters, and the estimate memo.

use tilespgemm_core::{multiply, Config, SpGemmError};
use tsg_engine::{Engine, EngineConfig, EngineError, JobResult, JobSpec};
use tsg_gen::suite::GenSpec;
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::{Device, MemTracker};

fn device_with_budget(budget: usize) -> Device {
    let mut d = Device::rtx3090_sim();
    d.mem_budget = budget;
    d
}

fn engine_with_budget(budget: usize) -> Engine {
    Engine::new(EngineConfig {
        device: device_with_budget(budget),
        ..EngineConfig::default()
    })
}

fn scatter(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
    GenSpec::Scatter { n, per_row, seed }.build()
}

/// Runs `spec` as a caller without a scheduler does: under the engine's own
/// estimate, as job 1.
fn run(engine: &Engine, spec: JobSpec) -> JobResult {
    let estimate = engine.estimate_op(&spec.op)?;
    engine.run(1, &spec.op, estimate)
}

/// Admission against the budget is the caller's: the engine runs a job
/// whatever its estimate, and the shared tracker is the backstop. A product
/// far over a 1 KiB budget fails with `out_of_memory` and leaves nothing
/// charged.
#[test]
fn an_over_budget_job_runs_and_the_tracker_stops_it() {
    let engine = engine_with_budget(1 << 10);
    let (id, _) = engine.register(scatter(512, 8, 1));
    assert!(engine.estimate(id, id).unwrap().est_bytes > engine.device().mem_budget);

    let err = run(&engine, JobSpec::multiply(id, id)).unwrap_err();
    assert_eq!(err.code(), "out_of_memory");
    assert_eq!(engine.device_tracker().current_bytes(), 0);
    let s = engine.stats();
    assert_eq!((s.completed, s.failed), (0, 1));
}

#[test]
fn mid_flight_budget_trip_fails_the_job_and_frees_back_to_zero() {
    // Random scatter products barely compact, so the real output is ~4x the
    // ASSUMED_COMPRESSION prediction: the admission estimate under-predicts
    // the true peak by design, leaving a gap where a job is admitted but
    // trips the tracker mid-flight. Sampling is disabled so the estimate
    // comes from the constant-compression fallback — the calibrated sampled
    // model upper-bounds the tracked peak on this input, which would close
    // the very gap this test exists to pin.
    let engine_with_budget = |budget: usize| {
        Engine::new(EngineConfig {
            device: device_with_budget(budget),
            sample_rate: 0.0,
            ..EngineConfig::default()
        })
    };
    let a = scatter(2048, 8, 42);

    // Learn the true tracked peak from an unconstrained run.
    let unconstrained = engine_with_budget(usize::MAX);
    let (id, _) = unconstrained.register(a.clone());
    let est = unconstrained.estimate(id, id).unwrap();
    let peak = run(&unconstrained, JobSpec::multiply(id, id))
        .unwrap()
        .peak_bytes;
    assert!(
        est.est_bytes < peak,
        "estimate {} should under-predict peak {peak}",
        est.est_bytes
    );

    // A budget the estimate clears but the real peak cannot.
    let budget = est.est_bytes + (peak - est.est_bytes) / 4;
    let engine = engine_with_budget(budget);
    let (id, _) = engine.register(a);
    let err = run(&engine, JobSpec::multiply(id, id)).unwrap_err();
    match &err {
        EngineError::SpGemm(SpGemmError::OutOfMemory(trip)) => {
            assert_eq!(err.code(), "out_of_memory");
            assert!(trip.in_use + trip.requested > budget);
        }
        other => panic!("expected a mid-flight OutOfMemory, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.failed, 1);
    assert_eq!(s.completed, 0);
    // The tracker must drain back to zero on the error path, or the engine
    // would leak budget across jobs.
    assert_eq!(engine.device_tracker().current_bytes(), 0);

    // The engine stays serviceable: a small product still completes.
    let (tiny, _) = engine.register(Csr::<f64>::identity(64));
    assert_eq!(
        run(&engine, JobSpec::multiply(tiny, tiny)).unwrap().nnz_c,
        64
    );
}

#[test]
fn repeated_multiplies_convert_once_and_match_direct_multiply() {
    let a = scatter(768, 6, 7);
    let b = scatter(768, 5, 9);
    let engine = Engine::new(EngineConfig::default());
    let (ia, _) = engine.register(a.clone());
    let (ib, _) = engine.register(b.clone());

    let first = run(&engine, JobSpec::multiply(ia, ib)).unwrap();
    let second = run(&engine, JobSpec::multiply(ia, ib)).unwrap();
    let third = run(&engine, JobSpec::multiply(ia, ib)).unwrap();

    // Exactly one conversion per operand, all on the first job.
    assert_eq!(first.conversions, 2);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(second.conversions, 0);
    assert_eq!(second.cache_hits, 2);
    assert_eq!(third.cache_hits, 2);
    let s = engine.stats();
    assert_eq!(s.registry.conversions, 2);
    assert_eq!(s.registry.cache_hits, 4);

    // Engine results are bitwise identical to a direct pipeline call.
    let direct = multiply(
        &TileMatrix::from_csr(&a),
        &TileMatrix::from_csr(&b),
        &Config::default(),
        &MemTracker::new(),
    )
    .unwrap();
    assert_eq!(direct.c, *first.c);
    assert_eq!(*first.c, *second.c);
    assert_eq!(*second.c, *third.c);
}

#[test]
fn kept_products_register_with_preseeded_conversion() {
    let engine = Engine::new(EngineConfig::default());
    let (ia, _) = engine.register(scatter(256, 4, 2));
    let r = run(&engine, JobSpec::multiply(ia, ia)).unwrap();

    let (ic, dedup) = engine.register_product(std::sync::Arc::clone(&r.c));
    assert!(!dedup);
    // The cache was pre-seeded with the product itself, so using it as an
    // operand costs no conversion (ia is already cached from the first job).
    let r2 = run(&engine, JobSpec::multiply(ic, ia)).unwrap();
    assert_eq!(r2.conversions, 0);
    assert_eq!(r2.cache_hits, 2);
    // Content-addressed: re-registering the product — through either path —
    // dedupes onto the same id.
    let (ic2, dedup2) = engine.register_product(std::sync::Arc::clone(&r.c));
    assert_eq!(ic2, ic);
    assert!(dedup2);
    let (ic3, dedup3) = engine.register(r.c.to_csr());
    assert_eq!(ic3, ic);
    assert!(dedup3);
}

#[test]
fn completed_jobs_populate_the_estimator_error_counters() {
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 21));
    let report = run(&engine, JobSpec::multiply(id, id)).unwrap();

    // Exactly one completed job → exactly one est-error observation, in the
    // bucket the report's own numbers map to.
    let m = engine.metrics();
    let populated: Vec<_> = tsg_runtime::observe::EST_ERR_BUCKETS
        .iter()
        .filter(|&&c| m.get(c) > 0)
        .collect();
    assert_eq!(populated.len(), 1);
    let expected = tsg_runtime::est_error_bucket(report.estimate.est_bytes, report.peak_bytes);
    assert_eq!(m.get(expected), 1);
}

/// Multiply-*shaped* jobs tick the est_err histogram: a plain multiply and
/// a masked multiply (whose estimate is mask-pruned from the same model)
/// each land one observation; an add — which runs on an unrelated heuristic
/// baseline — contributes none. The sampled-estimator provenance counters
/// tick alongside: both multiply-shaped jobs carried a sampled band here,
/// and none fell back to the constant model.
#[test]
fn masked_multiplies_tick_est_err_and_sample_counters() {
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 21));
    let (mask, _) = engine.register(scatter(512, 2, 4));

    let plain = run(&engine, JobSpec::multiply(id, id)).unwrap();
    let masked = run(&engine, JobSpec::multiply(id, id).mask(mask)).unwrap();
    run(&engine, JobSpec::add(1.0, id, 1.0, id)).unwrap();

    let m = engine.metrics();
    let est_err_total: u64 = tsg_runtime::observe::EST_ERR_BUCKETS
        .iter()
        .map(|&c| m.get(c))
        .sum();
    assert_eq!(
        est_err_total, 2,
        "multiply + masked multiply tick, the add does not"
    );
    // Both ticks landed in the bucket their own report maps to.
    for r in [&plain, &masked] {
        let bucket = tsg_runtime::est_error_bucket(r.estimate.est_bytes, r.peak_bytes);
        assert!(m.get(bucket) >= 1);
    }
    // Sampled-estimator provenance: both multiply-shaped estimates carried
    // a band (the default config samples), measuring at least the sampling
    // floor of tile rows each; nothing fell back.
    assert!(plain.estimate.sample.is_some());
    assert!(masked.estimate.sample.is_some());
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleJobs), 2);
    assert!(m.get(tsg_runtime::Counter::EstSampleRows) >= 32);
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleFallback), 0);
}

/// A masked job runs the one tiled pipeline: its span tree carries the
/// step children under `job`, and step 2 visits exactly the mask's tiles
/// (C takes the mask's tile layout).
#[test]
fn masked_jobs_report_pipeline_spans_and_counters() {
    use tsg_runtime::Counter;
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let mask = scatter(512, 2, 4);
    let mask_tiles = TileMatrix::from_csr(&mask).tile_count();
    let (id, _) = engine.register(scatter(512, 8, 21));
    let (mask, _) = engine.register(mask);
    let report = run(&engine, JobSpec::multiply(id, id).mask(mask)).unwrap();
    let trees = engine
        .collector()
        .expect("profiled engine")
        .span_tree(report.job);
    let job = trees.iter().find(|n| n.name == "job").expect("a job span");
    for step in ["step1", "step2", "step3"] {
        assert!(job.child(step).is_some(), "no {step} under job: {job:?}");
    }
    assert_eq!(
        engine.metrics().get(Counter::TilesVisited) as usize,
        mask_tiles
    );
    assert_eq!(report.tiles_c, mask_tiles);
}

/// Reservation admission assumes a job's estimate covers its tracked peak.
/// A mask shrinks only the output's arrays, so a masked estimate must not
/// give back the inputs and step-2 temporaries its unmasked weights cover:
/// on the triangle-count product `C⟨A⟩ = A·A` of a FEM adjacency, and on a
/// FEM square under a checkerboard-thinned mask of its own product, the
/// estimate stays at or above the job's peak on a fresh tracker.
#[test]
fn masked_estimates_cover_the_job_peak() {
    let fem = |nodes, spread, seed| {
        GenSpec::Fem {
            nodes,
            block: 6,
            couplings: 4,
            spread,
            seed,
        }
        .build()
    };
    let checkerboard = |c: &Csr<f64>| {
        let mut coo = tsg_matrix::Coo::new(c.nrows, c.ncols);
        for r in 0..c.nrows {
            for &col in c.row(r).0 {
                if (r as u32 + col).is_multiple_of(2) {
                    coo.push(r as u32, col, 1.0);
                }
            }
        }
        coo.to_csr()
    };
    for seed in [3u64, 5, 7] {
        let adj = fem(1_000, 30, seed);
        let square = fem(1_500, 40, seed);
        let t = TileMatrix::from_csr(&square);
        let product = multiply(&t, &t, &Config::default(), &MemTracker::new())
            .unwrap()
            .c
            .to_csr();
        for (name, a, mask) in [
            ("triangle", adj.clone(), adj),
            ("fem-checkerboard", square, checkerboard(&product)),
        ] {
            let engine = Engine::new(EngineConfig::default());
            let (a, _) = engine.register(a);
            let (mask, _) = engine.register(mask);
            let report = run(&engine, JobSpec::multiply(a, a).mask(mask)).unwrap();
            assert!(
                report.estimate.est_bytes >= report.peak_bytes,
                "{name}/{seed}: estimate {} below the peak {}",
                report.estimate.est_bytes,
                report.peak_bytes
            );
        }
    }
}

/// Masked multiplies credit everything they charge: after six of them the
/// shared device tracker is back at zero.
#[test]
fn masked_jobs_leave_the_device_tracker_at_zero() {
    let engine = Engine::new(EngineConfig::default());
    let (id, _) = engine.register(scatter(512, 8, 41));
    let (mask, _) = engine.register(scatter(512, 2, 42));
    for _ in 0..6 {
        let report = run(&engine, JobSpec::multiply(id, id).mask(mask)).unwrap();
        assert!(report.nnz_c > 0);
    }
    let s = engine.stats();
    assert_eq!(s.completed, 6);
    assert_eq!(s.device_bytes_in_use, 0, "masked jobs must not leak");
}

/// Two different multiplies run at once on two threads of one engine —
/// one device tracker, one shared pool — each report the peak their job
/// reaches alone on a fresh engine, with the pool cold and again once it
/// holds the buffers the first round recycled. The banded square's values
/// outgrow [`tsg_runtime::ALLOCATOR_MAPS_ABOVE`], so the pool keeps them.
#[test]
fn concurrent_jobs_peaks_equal_their_solo_runs() {
    let banded = GenSpec::Banded {
        n: 24_000,
        bandwidth: 80,
        per_row: 20,
        seed: 43,
    };
    let ops = [banded.build(), scatter(900, 6, 42)];
    let solo: Vec<usize> = ops
        .iter()
        .map(|m| {
            let engine = Engine::new(EngineConfig::default());
            let (id, _) = engine.register(m.clone());
            run(&engine, JobSpec::multiply(id, id)).unwrap().peak_bytes
        })
        .collect();
    assert_ne!(solo[0], solo[1], "two different jobs");
    let engine = &Engine::new(EngineConfig::default());
    let ids: Vec<_> = ops.iter().map(|m| engine.register(m.clone()).0).collect();
    for round in ["cold", "warm"] {
        let reports: Vec<_> = std::thread::scope(|scope| {
            let running: Vec<_> = ids
                .iter()
                .map(|&id| scope.spawn(move || run(engine, JobSpec::multiply(id, id)).unwrap()))
                .collect();
            running.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for (i, (report, &want)) in reports.into_iter().zip(&solo).enumerate() {
            if i == 0 {
                let vals = report.c.vals.len() * std::mem::size_of::<f64>();
                assert!(
                    vals > tsg_runtime::ALLOCATOR_MAPS_ABOVE,
                    "{vals} B of values"
                );
            }
            assert_eq!(report.peak_bytes, want, "{round} pool");
            engine.recycle(report.c);
        }
    }
    let stats = engine.stats();
    assert!(stats.buffers.reused > 0, "the warm round drew on the pool");
    assert!(stats.buffers.idle_bytes <= stats.buffers.high_water_bytes);
    assert_eq!(stats.device_bytes_in_use, 0);
}

#[test]
fn admitted_estimates_are_reported_verbatim_and_operands_still_checked() {
    let engine = Engine::new(EngineConfig::default());
    let (a, _) = engine.register(scatter(256, 5, 8));

    // A caller that already estimated the job hands the estimate over: the
    // engine neither samples again nor second-guesses it, and the report
    // carries it unchanged, under the caller's job id.
    let mut handed = engine.estimate(a, a).unwrap();
    handed.est_bytes += 12_345;
    handed.sample = None;
    let op = JobSpec::multiply(a, a).op;
    let report = engine.run(7, &op, handed).unwrap();
    assert_eq!(report.estimate, handed);
    assert_eq!(report.job, 7);

    // Operands and shapes are still checked when the job runs, with the
    // code the estimate gives.
    let (wide, _) = engine.register(Csr::<f64>::zero(8, 9));
    let mismatched = JobSpec::multiply(wide, wide).op;
    assert_eq!(
        engine.run(8, &mismatched, handed).unwrap_err().code(),
        engine.estimate_op(&mismatched).unwrap_err().code()
    );

    // An operand unloaded between the estimate and the run (while the job
    // waited in its caller's queue) fails the job with `unknown_matrix`,
    // exactly as estimating it again would.
    let estimate = engine.estimate_op(&op).unwrap();
    engine.unregister(a).unwrap();
    assert_eq!(
        engine.run(9, &op, estimate).unwrap_err().code(),
        "unknown_matrix"
    );
    assert_eq!(
        engine.estimate_op(&op).unwrap_err().code(),
        "unknown_matrix"
    );
    let s = engine.stats();
    assert_eq!((s.completed, s.failed), (1, 2));
    assert_eq!(s.device_bytes_in_use, 0);
}

#[test]
fn power_estimates_fold_their_links_without_materializing_them() {
    let engine = Engine::new(EngineConfig::default());
    let (a, _) = engine.register(scatter(512, 6, 9));
    let (mask, _) = engine.register(scatter(512, 3, 10));
    // A power is the chain of `k` copies of its base, bit for bit, with or
    // without a final-link mask.
    for k in [2u32, 3, 7, 40] {
        let chain = JobSpec::chain(vec![a; k as usize]);
        let power = JobSpec::power(a, k);
        assert_eq!(
            engine.estimate_op(&power.op).unwrap(),
            engine.estimate_op(&chain.op).unwrap(),
            "k = {k}"
        );
        assert_eq!(
            engine.estimate_op(&power.mask(mask).op).unwrap(),
            engine.estimate_op(&chain.mask(mask).op).unwrap(),
            "masked, k = {k}"
        );
    }
    // `k` reaches u32::MAX on the wire: once the links repeat they are
    // counted, not folded one by one, and no operand list is built.
    let huge = engine.estimate_op(&JobSpec::power(a, u32::MAX).op).unwrap();
    let long = engine.estimate_op(&JobSpec::power(a, 1000).op).unwrap();
    assert!(huge.flops > long.flops);
    assert_eq!(huge.est_bytes, long.est_bytes);
    assert_eq!(huge.est_nnz_c, long.est_nnz_c);
}

/// Chains and powers are estimate-only: `run` refuses them with
/// `invalid_op` before anything is charged, while `estimate_op` still
/// answers for the same specs.
#[test]
fn chains_and_powers_are_refused_by_run_but_still_estimated() {
    let engine = Engine::new(EngineConfig::default());
    let (a, _) = engine.register(scatter(512, 6, 9));
    let (mask, _) = engine.register(scatter(512, 3, 10));
    let specs = [JobSpec::chain([a, a, a]), JobSpec::power(a, 3).mask(mask)];
    for (refused, spec) in (1..).zip(specs) {
        let estimate = engine.estimate_op(&spec.op).unwrap();
        assert!(estimate.flops > 0, "{spec:?}");
        let err = engine.run(1, &spec.op, estimate).unwrap_err();
        assert_eq!(err.code(), "invalid_op");
        let s = engine.stats();
        assert_eq!((s.completed, s.failed), (0, refused));
        assert_eq!(s.device_bytes_in_use, 0);
    }
}

/// A memoized estimate is the estimate a fresh engine computes: for a plain
/// and a masked multiply, a power, and a chain, all of which memoize their
/// (first) product.
#[test]
fn memoized_estimates_equal_fresh_ones_for_every_op() {
    let (a, b, m) = (
        scatter(512, 6, 51),
        scatter(512, 4, 52),
        scatter(512, 3, 53),
    );
    let engine_with = || {
        let engine = Engine::new(EngineConfig::default());
        let ids = [a.clone(), b.clone(), m.clone()].map(|x| engine.register(x).0);
        (engine, ids)
    };
    let (engine, [ia, ib, im]) = engine_with();
    let ops = [
        JobSpec::multiply(ia, ib),
        JobSpec::multiply(ia, ib).mask(im),
        JobSpec::power(ia, 3),
        JobSpec::chain(vec![ib, ia, ib]),
    ];
    for spec in &ops {
        let first = engine.estimate_op(&spec.op).unwrap();
        let hits = engine.stats().registry.estimate_hits;
        let again = engine.estimate_op(&spec.op).unwrap();
        assert_eq!(engine.stats().registry.estimate_hits, hits + 1, "{spec:?}");
        let (fresh_engine, _) = engine_with();
        let fresh = fresh_engine.estimate_op(&spec.op).unwrap();
        assert_eq!(fresh_engine.stats().registry.estimate_hits, 0);
        assert_eq!(first, fresh, "{spec:?}");
        assert_eq!(again, fresh, "{spec:?}");
    }
    assert!(engine.estimate(ia, ib).unwrap().sample.is_some());
    // Three products were sampled: a·b (shared by the plain and masked
    // multiply), a·a and b·a.
    let s = engine.stats();
    assert_eq!(s.registry.estimate_misses, 3);
    assert_eq!(s.memoized_estimates, 3);
}

/// A resident tiled product is estimated by the tiled sampler, memoized
/// under that form; once its CSR is derived, the CSR sampler takes over,
/// which must miss the tiled entry rather than be served it.
#[test]
fn memoized_estimates_are_keyed_by_the_sampled_forms() {
    let a = scatter(1024, 5, 61);
    let product = multiply(
        &TileMatrix::from_csr(&a),
        &TileMatrix::from_csr(&a),
        &Config::default(),
        &MemTracker::new(),
    )
    .unwrap()
    .c;
    let product = std::sync::Arc::new(product);
    let resident = || {
        let engine = Engine::new(EngineConfig::default());
        let (p, _) = engine.register_tiled(std::sync::Arc::clone(&product));
        (engine, p)
    };
    let (engine, p) = resident();
    let tiled = engine.estimate(p, p).unwrap();
    assert_eq!(engine.estimate(p, p).unwrap(), tiled);
    assert_eq!(engine.stats().registry.estimate_hits, 1);
    assert_eq!(resident().0.estimate(p, p).unwrap(), tiled);

    let csr = engine.csr(p).unwrap();
    let misses = engine.stats().registry.estimate_misses;
    let sampled_csr = engine.estimate(p, p).unwrap();
    assert_eq!(engine.stats().registry.estimate_misses, misses + 1);
    // The CSR sampler counts flops exactly; the tiled one scales them.
    assert_eq!(sampled_csr.flops, csr.spgemm_flops(&csr));
    assert_ne!(sampled_csr, tiled);
    let (fresh, fp) = resident();
    fresh.csr(fp).unwrap();
    assert_eq!(fresh.estimate(fp, fp).unwrap(), sampled_csr);
    assert_eq!(engine.estimate(p, p).unwrap(), sampled_csr);
    assert_eq!(engine.stats().memoized_estimates, 2);
}

/// Unloading a handle drops the estimates memoized on it, and the memo
/// stays at its per-operand bound however many handles come and go.
#[test]
fn unregister_drops_memoized_estimates_and_the_memo_stays_bounded() {
    use tsg_engine::registry::ESTIMATE_MEMO_PER_OPERAND;
    let engine = Engine::new(EngineConfig::default());
    let (base, _) = engine.register(scatter(128, 4, 71));
    engine.estimate(base, base).unwrap();
    let (x, _) = engine.register(scatter(128, 4, 72));
    engine.estimate(x, base).unwrap();
    assert_eq!(engine.stats().memoized_estimates, 2);
    engine.unregister(x).unwrap();
    assert_eq!(engine.stats().memoized_estimates, 1);
    // Re-registered, the same content is a miss again, not a stale hit.
    let (x, _) = engine.register(scatter(128, 4, 72));
    let hits = engine.stats().registry.estimate_hits;
    engine.estimate(x, base).unwrap();
    assert_eq!(engine.stats().registry.estimate_hits, hits);
    engine.unregister(x).unwrap();

    for i in 0..10_000u32 {
        // A diagonal whose first value makes every iteration's content new.
        let mut vals = vec![1.0; 128];
        vals[0] = f64::from(i);
        let fresh =
            Csr::from_parts(128, 128, (0..=128).collect(), (0..128).collect(), vals).unwrap();
        let (f, dedup) = engine.register(fresh);
        assert!(!dedup);
        engine.estimate(f, f).unwrap();
        engine.estimate(base, f).unwrap();
        engine.unregister(f).unwrap();
    }
    // Every fresh square went with its handle; base keeps its newest few
    // products, whose right operands are gone.
    let s = engine.stats();
    assert_eq!(s.registry.estimate_misses, 3 + 20_000);
    assert_eq!(s.memoized_estimates, ESTIMATE_MEMO_PER_OPERAND);

    // One operand on the left of many products keeps only the newest few.
    let rights: Vec<_> = (0..2 * ESTIMATE_MEMO_PER_OPERAND as u64)
        .map(|seed| engine.register(scatter(128, 3, 100 + seed)).0)
        .collect();
    for &r in &rights {
        engine.estimate(base, r).unwrap();
    }
    assert_eq!(engine.stats().memoized_estimates, ESTIMATE_MEMO_PER_OPERAND);
    let hits = engine.stats().registry.estimate_hits;
    engine.estimate(base, *rights.last().unwrap()).unwrap();
    engine.estimate(base, rights[0]).unwrap();
    assert_eq!(engine.stats().registry.estimate_hits, hits + 1);
}

/// Jobs admitted on a memoized estimate still tick the estimator counters
/// once per completed job.
#[test]
fn warm_memo_jobs_still_tick_the_estimator_counters() {
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 81));
    let warm = engine.estimate(id, id).unwrap();
    for _ in 0..3 {
        let report = run(&engine, JobSpec::multiply(id, id)).unwrap();
        assert_eq!(report.estimate, warm);
    }
    assert_eq!(engine.stats().registry.estimate_hits, 3);
    let m = engine.metrics();
    let est_err: u64 = tsg_runtime::observe::EST_ERR_BUCKETS
        .iter()
        .map(|&c| m.get(c))
        .sum();
    assert_eq!(est_err, 3);
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleJobs), 3);
    assert_eq!(m.get(tsg_runtime::Counter::EstSampleFallback), 0);
}

/// The estimate prices the device's pool, not the caller's: a one-thread
/// device estimates the same product identically from inside a four-thread
/// pool as from outside it.
#[test]
fn estimates_do_not_depend_on_the_calling_thread() {
    let a = scatter(512, 6, 91);
    let estimate = || {
        let engine = Engine::on_device(Device::new("one", 1, 1 << 30));
        let (id, _) = engine.register(a.clone());
        engine.estimate(id, id).unwrap()
    };
    let outside = estimate();
    let inside = tsg_runtime::device::run_on(&Device::new("four", 4, 1 << 30), estimate);
    assert_eq!(inside, outside);
}
