//! Scheduler behaviour: weighted-fair interleaving, backpressure instead of
//! shedding, deferred admission, batch dependencies, deadlines,
//! cancellation, drain.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tsg_engine::json::{parse, Value};
use tsg_engine::{Engine, EngineConfig, EngineError, JobSpec, MatrixId};
use tsg_gen::suite::GenSpec;
use tsg_matrix::Csr;
use tsg_runtime::observe::{Counter, MetricsSnapshot, Recorder, SpanId};
use tsg_runtime::Device;
use tsg_serve::{
    Operand, SchedConfig, Scheduler, ServeSession, ServeTicket, Submission, SubmitError,
    SubmitSpec, SERVE_JOB_BASE,
};

fn banded(n: usize, bandwidth: usize, per_row: usize) -> Csr<f64> {
    GenSpec::Banded {
        n,
        bandwidth,
        per_row,
        seed: 3,
    }
    .build()
}

/// A scheduler at the default configuration, whose one worker makes the
/// dispatch log a deterministic total order.
fn serial_scheduler(budget: usize) -> Scheduler {
    let mut device = Device::rtx3090_sim();
    device.mem_budget = budget;
    let engine = Engine::new(EngineConfig {
        device,
        ..EngineConfig::default()
    });
    Scheduler::new(Arc::new(engine), SchedConfig::default())
}

fn wait_all(tickets: &[ServeTicket]) {
    for t in tickets {
        t.wait().unwrap();
    }
}

/// Queues `specs` on session `sid`, which must have room for them.
fn queued(sched: &Scheduler, sid: u64, specs: Vec<SubmitSpec>) -> Vec<ServeTicket> {
    match sched.submit(sid, specs).unwrap() {
        Submission::Queued(tickets) => tickets,
        Submission::Backpressure(_) => panic!("the session queue has room"),
    }
}

/// `a · b` on the engine alone, as an in-process caller runs it.
fn run_alone(engine: &Engine, a: MatrixId, b: MatrixId) -> tsg_engine::JobReport {
    let op = JobSpec::multiply(a, b).op;
    let estimate = engine.estimate_op(&op).unwrap();
    engine.run(1, &op, estimate).unwrap()
}

/// One request line through `client`, its reply parsed.
fn wire(client: &ServeSession, line: &str) -> Value {
    parse(&client.handle_line(line).0).expect("replies are JSON")
}

#[test]
fn serve_job_ids_live_in_their_own_id_space() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("ids", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(64));
    let Submission::Queued(tickets) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("empty queue must accept")
    };
    assert!(tickets[0].job >= SERVE_JOB_BASE);
    let done = tickets[0].wait().unwrap();
    assert_eq!(done.report.nnz_c, 64);
    assert!(done.kept.is_none(), "keep was not requested");
}

#[test]
fn equal_weights_interleave_sessions_strictly() {
    let sched = serial_scheduler(usize::MAX);
    let s1 = sched.open_session("one", 1.0, None).unwrap();
    let s2 = sched.open_session("two", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));

    // The blocker occupies the single worker; everything submitted while it
    // runs queues up behind it, and the dispatch order of that backlog is
    // the fairness decision under test.
    let Submission::Queued(head) = sched
        .submit(s1, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    let mut tickets = Vec::new();
    for _ in 0..3 {
        for sid in [s1, s2] {
            match sched
                .submit(sid, vec![SubmitSpec::new(small, small)])
                .unwrap()
            {
                Submission::Queued(t) => tickets.extend(t),
                Submission::Backpressure(_) => panic!("queues are deep enough"),
            }
        }
    }
    wait_all(&head);
    wait_all(&tickets);

    let log = sched.dispatch_log();
    assert_eq!(log.len(), 7);
    assert_eq!(log[0].0, s1, "the blocker dispatched first");
    // Equal weights: the backlog alternates sessions — no run of two.
    for pair in log[1..].windows(2) {
        assert_ne!(pair[0].0, pair[1].0, "dispatch log {log:?}");
    }
}

#[test]
fn weights_bias_the_dispatch_ratio() {
    let sched = serial_scheduler(usize::MAX);
    let s1 = sched.open_session("heavy", 2.0, None).unwrap();
    let s2 = sched.open_session("light", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));

    let Submission::Queued(head) = sched
        .submit(s1, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    let mut tickets = Vec::new();
    for _ in 0..6 {
        for sid in [s1, s2] {
            match sched
                .submit(sid, vec![SubmitSpec::new(small, small)])
                .unwrap()
            {
                Submission::Queued(t) => tickets.extend(t),
                Submission::Backpressure(_) => panic!("queues are deep enough"),
            }
        }
    }
    wait_all(&head);
    wait_all(&tickets);

    // In the first six backlog dispatches, the weight-2 session gets two
    // dispatches for every one of the weight-1 session.
    let log = sched.dispatch_log();
    let first_six = &log[1..7];
    let heavy = first_six.iter().filter(|(sid, _)| *sid == s1).count();
    assert_eq!(heavy, 4, "dispatch log {log:?}");
}

/// A recorder for the engine's device tracker that parks the first job to
/// charge device memory until the test opens the gate, so that job stays in
/// flight for as long as the test needs, however fast it would run.
#[derive(Debug, Default)]
struct Gate {
    /// `(a job is parked or has passed, the gate is open)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn wait_until_parked(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    /// A closed gate on `sched`'s device tracker.
    fn on(sched: &Scheduler) -> Arc<Gate> {
        let gate = Arc::new(Gate::default());
        sched
            .engine()
            .device_tracker()
            .set_recorder(Some(Arc::clone(&gate) as Arc<dyn Recorder>));
        gate
    }
}

impl Recorder for Gate {
    // Enabled, or the tracker would not attach it.
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, _job: u64, _name: &'static str) -> SpanId {
        SpanId::NULL
    }

    fn span_exit(&self, _span: SpanId) {}

    fn add(&self, _counter: Counter, _n: u64) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

#[test]
fn full_queue_answers_with_a_hint_and_the_retry_succeeds() {
    let mut device = Device::rtx3090_sim();
    device.mem_budget = usize::MAX;
    let engine = Engine::new(EngineConfig {
        device,
        ..EngineConfig::default()
    });
    let sched = Scheduler::new(
        Arc::new(engine),
        SchedConfig {
            backpressure_wait: Duration::from_millis(5),
            ..SchedConfig::default()
        },
    );
    let sid = sched.open_session("pressured", 1.0, Some(1)).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    // The blocker parks on its first device charge until the gate opens, so
    // it pins the only worker whatever the machine's speed.
    let gate = Gate::on(&sched);

    let Submission::Queued(head) = sched
        .submit(sid, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    // Once the blocker is parked on the worker it has left the session
    // queue, so the depth-1 queue is empty again.
    gate.wait_until_parked();
    assert_eq!(sched.stats().in_flight, 1);
    let Submission::Queued(second) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("the emptied queue must accept one job")
    };
    // The queue (depth 1) is full and the blocker pins the worker: this
    // submission is held briefly, then answered with a hint — not dropped.
    let Submission::Backpressure(hint) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("a full session queue must answer with backpressure")
    };
    assert_eq!(hint.queue_position, 1);
    assert!(hint.retry_after >= Duration::from_millis(1));
    assert_eq!(sched.stats().backpressure_hints, 1);
    // The premise: the hint was answered while the blocker still ran.
    assert!(head[0].try_result().is_none(), "the blocker is in flight");
    assert_eq!(sched.stats().in_flight, 1);

    // Resubmitting after the backlog drains succeeds: nothing was lost.
    gate.open();
    wait_all(&head);
    wait_all(&second);
    let Submission::Queued(third) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("the drained queue must accept the retry")
    };
    wait_all(&third);
    let row = &sched.stats().sessions[0];
    assert_eq!((row.completed, row.failed), (3, 0), "every queued job ran");
}

#[test]
fn over_budget_estimate_defers_and_then_completes() {
    // banded-4096's *fallback* estimate over-predicts its real peak ~2.2x:
    // with the budget between them the scheduler defers the job until the
    // device is idle and runs it solo, where it fits, instead of refusing
    // it. Sampling is disabled here on purpose: the sampled estimator is
    // accurate enough that this product admits directly, and this test pins
    // the deferred-admission *backstop* — the path a pessimistic (fallback)
    // estimate takes.
    let budget = 4 << 20;
    let mut device = Device::rtx3090_sim();
    device.mem_budget = budget;
    let engine = Engine::new(EngineConfig {
        device,
        sample_rate: 0.0,
        ..EngineConfig::default()
    });
    // Two workers: the second one *evaluates* the big head while the small
    // job runs — and parks it on memory instead.
    let sched = Scheduler::new(
        Arc::new(engine),
        SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        },
    );
    let sid = sched.open_session("deferred", 1.0, None).unwrap();
    let (small_m, _) = sched.engine().register(banded(2048, 24, 12));
    let (big_m, _) = sched.engine().register(banded(4096, 16, 8));
    let est = sched.engine().estimate(big_m, big_m).unwrap();
    assert!(
        est.est_bytes > budget,
        "estimate {} must exceed the budget for this test to bite",
        est.est_bytes
    );

    // One batch: the small job dispatches immediately; the big job's
    // estimate exceeds even the whole budget, so while the small job is in
    // flight it must defer (not fail), then run once the device is idle.
    let Submission::Queued(tickets) = sched
        .submit(
            sid,
            vec![
                SubmitSpec::new(small_m, small_m),
                SubmitSpec::new(big_m, big_m),
            ],
        )
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    let small_done = tickets[0].wait().unwrap();
    let big_done = tickets[1].wait().unwrap();
    assert!(small_done.report.nnz_c > 0);
    assert!(big_done.report.nnz_c > 0);
    assert!(
        big_done.report.peak_bytes <= budget,
        "the real peak {} fits the budget",
        big_done.report.peak_bytes
    );

    let stats = sched.stats();
    assert!(stats.deferred >= 1, "the big job waited for memory");
    assert_eq!(sched.engine().stats().completed, 2);
}

/// At the default configuration (one worker) a job waits in its session
/// queue and nowhere else, so the weighted-fair pick decides what runs
/// next: one job a second session queues behind another session's backlog
/// of six runs right after the job in flight.
#[test]
fn a_late_session_overtakes_a_backlog_at_the_default_configuration() {
    let sched = serial_scheduler(usize::MAX);
    let a = sched.open_session("backlog", 1.0, None).unwrap();
    let b = sched.open_session("late", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let gate = Gate::on(&sched);
    let head = queued(&sched, a, vec![SubmitSpec::new(blocker, blocker)]);
    gate.wait_until_parked();
    let backlog: Vec<_> = (0..6)
        .flat_map(|_| queued(&sched, a, vec![SubmitSpec::new(small, small)]))
        .collect();
    // Time enough for a second waiting room, were there one, to take A's
    // backlog in ahead of B.
    std::thread::sleep(Duration::from_millis(50));
    let late = queued(&sched, b, vec![SubmitSpec::new(small, small)]);
    gate.open();
    wait_all(&head);
    wait_all(&backlog);
    wait_all(&late);

    let log = sched.dispatch_log();
    assert_eq!(log.len(), 8);
    assert_eq!(log[1], (b, late[0].job), "dispatch log {log:?}");
}

/// A job's `timeout` bounds its wait in the session queue: queued behind a
/// parked blocker past its deadline, it completes as `timed_out` without
/// running, its session counts it as failed, and nothing stays charged to
/// the device. The wire's `"timeout_ms"` is the same deadline.
#[test]
fn a_job_queued_past_its_timeout_completes_as_timed_out() {
    let sched = Arc::new(serial_scheduler(usize::MAX));
    let sid = sched.open_session("deadline", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let gate = Gate::on(&sched);
    let head = queued(&sched, sid, vec![SubmitSpec::new(blocker, blocker)]);
    gate.wait_until_parked();
    let stale = SubmitSpec {
        timeout: Some(Duration::from_millis(10)),
        ..SubmitSpec::new(small, small)
    };
    let stale = queued(&sched, sid, vec![stale]);
    let client = ServeSession::new(Arc::clone(&sched));
    let over_wire = wire(
        &client,
        &format!(r#"{{"op":"multiply","a":"{small}","b":"{small}","timeout_ms":10,"async":true}}"#),
    );
    let job = over_wire
        .get("job")
        .and_then(Value::as_u64)
        .expect("job id");
    std::thread::sleep(Duration::from_millis(30));
    gate.open();

    wait_all(&head);
    assert_eq!(stale[0].wait().unwrap_err(), EngineError::TimedOut);
    let v = wire(&client, &format!(r#"{{"op":"wait","job":{job}}}"#));
    let code = v.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Value::as_str), Some("timed_out"), "{v}");
    let stats = sched.stats();
    let (own, implicit) = (&stats.sessions[0], &stats.sessions[1]);
    assert_eq!((own.completed, own.failed), (1, 1));
    assert_eq!((implicit.completed, implicit.failed), (0, 1));
    assert_eq!(stats.dispatched, 1, "only the blocker ran");
    assert_eq!(sched.engine().stats().device_bytes_in_use, 0);
    // The wire's top-level totals count the jobs that never ran as well.
    let totals = wire(&client, r#"{"op":"stats"}"#);
    let num = |key| totals.get(key).and_then(Value::as_u64);
    assert_eq!(
        (num("completed"), num("failed")),
        (Some(1), Some(2)),
        "{totals}"
    );
}

/// The queue figures `stats` reports across a backlog held behind a parked
/// job: the depth counts the jobs still queued, the high water keeps the
/// deepest backlog, and each dispatch adds one wait sample.
#[test]
fn queue_figures_follow_a_gated_backlog() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("figures", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let gate = Gate::on(&sched);
    let head = queued(&sched, sid, vec![SubmitSpec::new(blocker, blocker)]);
    gate.wait_until_parked();
    let smalls = (0..3).map(|_| SubmitSpec::new(small, small)).collect();
    let backlog = queued(&sched, sid, smalls);
    let s = sched.stats();
    assert_eq!((s.queue_depth, s.queue_high_water, s.dispatched), (3, 3, 1));
    std::thread::sleep(Duration::from_millis(5));
    gate.open();
    wait_all(&head);
    wait_all(&backlog);
    let s = sched.stats();
    assert_eq!((s.queue_depth, s.queue_high_water, s.dispatched), (0, 3, 4));
    assert!(s.wait_mean >= Duration::from_millis(3), "{:?}", s.wait_mean);
}

/// `cancel` answers `true` only for a job it took out of a queue: a job
/// that is already running answers `false`, runs on, and its `wait`
/// returns the product.
#[test]
fn canceling_a_running_job_answers_false_and_the_job_completes() {
    let sched = Arc::new(serial_scheduler(usize::MAX));
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let gate = Gate::on(&sched);
    let client = ServeSession::new(Arc::clone(&sched));
    let reply = wire(
        &client,
        &format!(r#"{{"op":"multiply","a":"{blocker}","b":"{blocker}","async":true}}"#),
    );
    let job = reply.get("job").and_then(Value::as_u64).expect("job id");
    gate.wait_until_parked();
    let v = wire(&client, &format!(r#"{{"op":"cancel","job":{job}}}"#));
    assert_eq!(
        v.get("canceled").and_then(Value::as_bool),
        Some(false),
        "{v}"
    );
    gate.open();
    let done = wire(&client, &format!(r#"{{"op":"wait","job":{job}}}"#));
    assert_eq!(
        done.get("ok").and_then(Value::as_bool),
        Some(true),
        "{done}"
    );
    assert!(done.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);
    let row = &sched.stats().sessions[0];
    assert_eq!((row.completed, row.canceled), (1, 0));
}

#[test]
fn batch_refs_chain_products_and_failures_poison_dependents() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("batch", 1.0, None).unwrap();
    let a = GenSpec::Scatter {
        n: 128,
        per_row: 4,
        seed: 5,
    }
    .build();
    let (ia, _) = sched.engine().register(a);

    // Gold: the same chain A², A⁴, A⁸ step by step. Content-hash ids make
    // the comparison exact — equal ids are bitwise-identical products.
    let engine = sched.engine();
    let r1 = run_alone(engine, ia, ia);
    let (gold1, _) = engine.register_product(Arc::clone(&r1.c));
    let r2 = run_alone(engine, gold1, gold1);
    let (gold2, _) = engine.register_product(Arc::clone(&r2.c));
    let r3 = run_alone(engine, gold2, gold2);
    let (gold3, _) = engine.register_product(Arc::clone(&r3.c));

    let mut chain = vec![
        SubmitSpec::new(ia, ia),
        SubmitSpec {
            a: Operand::Ref(0),
            b: Operand::Ref(0),
            ..SubmitSpec::new(ia, ia)
        },
        SubmitSpec {
            a: Operand::Ref(1),
            b: Operand::Ref(1),
            ..SubmitSpec::new(ia, ia)
        },
    ];
    chain[2].keep = true;
    let Submission::Queued(tickets) = sched.submit(sid, chain).unwrap() else {
        panic!("empty queue must accept")
    };
    let d1 = tickets[0].wait().unwrap();
    let d2 = tickets[1].wait().unwrap();
    let d3 = tickets[2].wait().unwrap();
    // Referenced entries register their products implicitly; the last kept
    // explicitly. All three match the gold chain bit for bit.
    assert_eq!(d1.kept, Some(gold1));
    assert_eq!(d2.kept, Some(gold2));
    assert_eq!(d3.kept, Some(gold3));
    assert_eq!(d3.report.nnz_c, r3.nnz_c);

    // A failed entry poisons its dependents with dependency_failed.
    let mut rect = tsg_matrix::Coo::<f64>::new(64, 32);
    rect.push(0, 0, 1.0);
    let (ir, _) = sched.engine().register(rect.to_csr());
    let bad = vec![
        SubmitSpec::new(ir, ir), // 64×32 · 64×32: shape mismatch
        SubmitSpec {
            a: Operand::Ref(0),
            b: Operand::Ref(0),
            ..SubmitSpec::new(ir, ir)
        },
    ];
    let Submission::Queued(tickets) = sched.submit(sid, bad).unwrap() else {
        panic!("empty queue must accept")
    };
    let failed_id = tickets[0].job;
    assert_eq!(tickets[0].wait().unwrap_err().code(), "shape_mismatch");
    match tickets[1].wait().unwrap_err() {
        EngineError::DependencyFailed { dep } => assert_eq!(dep, failed_id),
        other => panic!("expected DependencyFailed, got {other:?}"),
    }
}

#[test]
fn forward_and_self_refs_are_rejected_before_anything_queues() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("refs", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(64));
    for k in [0, 1] {
        // $0 in entry 0 is a self reference; $1 is a forward reference.
        let batch = vec![
            SubmitSpec {
                a: Operand::Ref(k),
                ..SubmitSpec::new(id, id)
            },
            SubmitSpec::new(id, id),
        ];
        let err = sched.submit(sid, batch).unwrap_err();
        assert_eq!(
            err,
            SubmitError::BadRef {
                index: 0,
                reference: k
            }
        );
    }
    assert_eq!(sched.stats().queue_depth, 0, "nothing was enqueued");
    // A batch deeper than the session queue is refused whole.
    let too_big = (0..9).map(|_| SubmitSpec::new(id, id)).collect();
    assert_eq!(
        sched.submit(sid, too_big).unwrap_err(),
        SubmitError::BatchTooLarge { len: 9, depth: 8 }
    );
}

#[test]
fn canceling_a_queued_job_completes_it_as_canceled() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("cancel", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let Submission::Queued(head) = sched
        .submit(sid, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    while sched.stats().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let Submission::Queued(queued) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("queue must accept")
    };
    assert!(sched.cancel(queued[0].job));
    assert_eq!(queued[0].wait().unwrap_err().code(), "canceled");
    assert!(!sched.cancel(queued[0].job), "already gone");
    wait_all(&head);
    let row = &sched.stats().sessions[0];
    assert_eq!(row.canceled, 1);
}

#[test]
fn drain_finishes_in_flight_work_and_fails_the_rest() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("drain", 1.0, None).unwrap();
    let (blocker, _) = sched.engine().register(banded(2048, 24, 12));
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let Submission::Queued(head) = sched
        .submit(sid, vec![SubmitSpec::new(blocker, blocker)])
        .unwrap()
    else {
        panic!("empty queue must accept")
    };
    while sched.stats().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let Submission::Queued(queued) = sched
        .submit(sid, vec![SubmitSpec::new(small, small)])
        .unwrap()
    else {
        panic!("queue must accept")
    };

    // A zero deadline: whatever is queued (not yet dispatched) fails as
    // shutting_down; the in-flight blocker still finishes.
    assert!(!sched.drain(Duration::ZERO));
    assert_eq!(queued[0].wait().unwrap_err().code(), "shutting_down");
    assert_eq!(
        sched
            .submit(sid, vec![SubmitSpec::new(small, small)])
            .unwrap_err(),
        SubmitError::Draining
    );
    assert_eq!(
        sched.open_session("late", 1.0, None).unwrap_err(),
        SubmitError::Draining
    );
    head[0].wait().unwrap();
    assert!(sched.stats().draining);
}

#[test]
fn generous_drain_deadline_completes_everything() {
    let sched = serial_scheduler(usize::MAX);
    let sid = sched.open_session("graceful", 1.0, None).unwrap();
    let (small, _) = sched.engine().register(Csr::<f64>::identity(64));
    let specs = (0..5).map(|_| SubmitSpec::new(small, small)).collect();
    let Submission::Queued(tickets) = sched.submit(sid, specs).unwrap() else {
        panic!("empty queue must accept")
    };
    assert!(sched.shutdown(Duration::from_secs(30)));
    for t in &tickets {
        t.wait().unwrap();
    }
    let row = &sched.stats().sessions[0];
    assert_eq!(row.completed, 5);
    assert_eq!(row.failed, 0);
}
