//! Engine-level behaviour: admission control (up-front rejection and
//! mid-flight budget trips), registry caching across jobs, backpressure,
//! cancellation, and timeouts.

use std::time::Duration;

use tilespgemm_core::{multiply, Config, SpGemmError};
use tsg_engine::{Engine, EngineConfig, EngineError, JobSpec};
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

#[test]
fn over_budget_estimate_is_rejected_up_front() {
    // A budget far below any real product's estimate.
    let engine = engine_with_budget(1 << 10);
    let (id, _) = engine.register(scatter(512, 8, 1));
    let est = engine.estimate(id, id).unwrap();
    assert!(est.est_bytes > engine.device().mem_budget);

    let err = engine.submit(JobSpec::new(id, id)).unwrap_err();
    match err {
        EngineError::EstimateExceedsBudget { est_bytes, budget } => {
            assert_eq!(est_bytes, est.est_bytes);
            assert_eq!(budget, 1 << 10);
        }
        other => panic!("expected EstimateExceedsBudget, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.rejected, 1);
    // The arrival still counts — shed rate is (submitted - admitted) /
    // submitted from stats alone — but nothing was admitted.
    assert_eq!(s.submitted, 1);
    assert_eq!(s.admitted, 0);
    // Nothing ran, so nothing was ever charged to the device.
    assert_eq!(s.device_bytes_in_use, 0);

    // An over-budget spec can still be force-admitted by a scheduler doing
    // its own deferred admission; the mid-flight tracker stays the backstop.
    let mut solo = JobSpec::new(id, id);
    solo.admitted = Some(est);
    let err = engine.multiply_now(solo).unwrap_err();
    assert_eq!(err.code(), "out_of_memory");
    assert_eq!(engine.device_tracker().current_bytes(), 0);
    let s = engine.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.admitted, 1);
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
    let peak = unconstrained
        .multiply_now(JobSpec::new(id, id))
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
    let err = engine.multiply_now(JobSpec::new(id, id)).unwrap_err();
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
        engine.multiply_now(JobSpec::new(tiny, tiny)).unwrap().nnz_c,
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

    let first = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();
    let second = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();
    let third = engine.multiply_now(JobSpec::new(ia, ib)).unwrap();

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
    let r = engine.multiply_now(JobSpec::new(ia, ia)).unwrap();

    let (ic, dedup) = engine.register_product(std::sync::Arc::clone(&r.c));
    assert!(!dedup);
    // The cache was pre-seeded with the product itself, so using it as an
    // operand costs no conversion (ia is already cached from the first job).
    let r2 = engine.multiply_now(JobSpec::new(ic, ia)).unwrap();
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
    let report = engine.multiply_now(JobSpec::new(id, id)).unwrap();

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
    use tsg_engine::OpSpec;
    let engine = Engine::new(EngineConfig {
        profile: true,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 8, 21));
    let (mask, _) = engine.register(scatter(512, 2, 4));

    let plain = engine.multiply_now(JobSpec::new(id, id)).unwrap();
    let masked = engine
        .multiply_now(JobSpec::of(OpSpec::MaskedMultiply { a: id, b: id, mask }))
        .unwrap();
    engine
        .multiply_now(JobSpec::of(OpSpec::Add {
            a: id,
            b: id,
            alpha: 1.0,
            beta: 1.0,
        }))
        .unwrap();

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

/// Masked multiplies credit everything they charge: once a batch of them
/// has drained, the shared device tracker is back at zero.
#[test]
fn masked_jobs_leave_the_device_tracker_at_zero() {
    use tsg_engine::OpSpec;
    let engine = Engine::new(EngineConfig::default());
    let (id, _) = engine.register(scatter(512, 8, 41));
    let (mask, _) = engine.register(scatter(512, 2, 42));
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            engine
                .submit(JobSpec::of(OpSpec::MaskedMultiply { a: id, b: id, mask }))
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(t.wait().unwrap().nnz_c > 0);
    }
    let s = engine.stats();
    assert_eq!(s.completed, 6);
    assert_eq!(s.device_bytes_in_use, 0, "masked jobs must not leak");
    engine.shutdown();
}

#[test]
fn full_queue_sheds_with_backpressure() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_depth: 2,
        ..EngineConfig::default()
    });
    // A product slow enough to hold the single worker while the queue fills.
    let (big, _) = engine.register(scatter(4096, 12, 3));
    let (tiny, _) = engine.register(Csr::<f64>::identity(64));

    let mut tickets = vec![engine.submit(JobSpec::new(big, big)).unwrap()];
    let mut shed = 0;
    // Keep submitting until backpressure appears; the queue holds 2, so at
    // most 3 submissions can be in flight before one is shed.
    for _ in 0..16 {
        match engine.submit(JobSpec::new(tiny, tiny)) {
            Ok(t) => tickets.push(t),
            Err(EngineError::QueueFull { depth }) => {
                assert_eq!(depth, 2);
                shed += 1;
                break;
            }
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    assert_eq!(shed, 1, "a depth-2 queue must shed a fast burst");
    assert_eq!(engine.stats().shed, 1);
    // Everything admitted still completes; nothing deadlocks.
    for t in tickets {
        t.wait().unwrap();
    }
}

#[test]
fn queued_jobs_can_be_canceled_but_not_running_ones() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let (big, _) = engine.register(scatter(4096, 12, 5));
    let (tiny, _) = engine.register(Csr::<f64>::identity(64));

    // The worker picks this up immediately; cancel arrives too late.
    let running = engine.submit(JobSpec::new(big, big)).unwrap();
    // This one waits behind it; cancel lands while it is still queued.
    let queued = engine.submit(JobSpec::new(tiny, tiny)).unwrap();
    queued.cancel();

    assert_eq!(queued.wait().unwrap_err(), EngineError::Canceled);
    // A cancel after completion is a no-op; the result stands.
    running.cancel();
    assert!(running.wait().is_ok());
    let s = engine.stats();
    assert_eq!(s.canceled, 1);
    assert_eq!(s.completed, 1);
}

#[test]
fn admitted_estimates_are_reported_verbatim_and_operands_still_checked() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let (big, _) = engine.register(scatter(4096, 12, 7));
    let (a, _) = engine.register(scatter(256, 5, 8));

    // A scheduler that already estimated the job hands the estimate over:
    // the engine neither samples again nor second-guesses it, and the
    // report carries it unchanged.
    let mut handed = engine.estimate(a, a).unwrap();
    handed.est_bytes += 12_345;
    handed.sample = None;
    let mut spec = JobSpec::new(a, a);
    spec.admitted = Some(handed);
    let report = engine.multiply_now(spec).unwrap();
    assert_eq!(report.estimate, handed);

    // Operands and shapes are still checked at submit.
    let (wide, _) = engine.register(Csr::<f64>::zero(8, 9));
    let mut mismatched = JobSpec::new(wide, wide);
    mismatched.admitted = Some(handed);
    assert_eq!(
        engine.submit(mismatched).unwrap_err().code(),
        engine.submit(JobSpec::new(wide, wide)).unwrap_err().code()
    );

    // An operand unloaded between submit and execution fails the job with
    // `unknown_matrix`, exactly as without a handed estimate.
    let running = engine.submit(JobSpec::new(big, big)).unwrap();
    let mut queued = JobSpec::new(a, a);
    queued.admitted = Some(handed);
    let queued = engine.submit(queued).unwrap();
    engine.unregister(a).unwrap();
    assert_eq!(queued.wait().unwrap_err().code(), "unknown_matrix");
    assert!(running.wait().is_ok());
    let mut gone = JobSpec::new(a, a);
    gone.admitted = Some(handed);
    assert_eq!(engine.submit(gone).unwrap_err().code(), "unknown_matrix");
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

#[test]
fn queue_wait_deadline_times_out_stale_jobs() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let (big, _) = engine.register(scatter(4096, 12, 6));
    let (tiny, _) = engine.register(Csr::<f64>::identity(64));

    let running = engine.submit(JobSpec::new(big, big)).unwrap();
    let mut stale = JobSpec::new(tiny, tiny);
    stale.timeout = Some(Duration::ZERO); // expires the instant it queues
    let stale = engine.submit(stale).unwrap();

    assert_eq!(stale.wait().unwrap_err(), EngineError::TimedOut);
    assert!(running.wait().is_ok());
    assert_eq!(engine.stats().timed_out, 1);
}

#[test]
fn shutdown_drains_queued_jobs_then_refuses_new_ones() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let (id, _) = engine.register(scatter(512, 4, 8));
    let tickets: Vec<_> = (0..6)
        .map(|_| engine.submit(JobSpec::new(id, id)).unwrap())
        .collect();
    engine.shutdown();
    // Graceful: everything admitted before shutdown still completed.
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(
        engine.submit(JobSpec::new(id, id)).unwrap_err(),
        EngineError::ShuttingDown
    );
}
