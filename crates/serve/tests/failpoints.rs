//! Fault injection for the serving layer (`--features failpoints`).
//!
//! The serve-side failpoints exercise client-visible refusal paths
//! deterministically: `serve.session_open` makes the scheduler refuse a
//! session as if it were draining, `serve.backpressure_wait` expires the
//! bounded submission hold immediately so the hint path fires on an
//! otherwise empty queue, and the two `protocol.*` sites in
//! [`ServeSession::handle_line`] truncate a request frame or treat it as
//! oversized. Every test asserts the refusal is clean — the same call
//! succeeds the moment the failpoint disarms.

#![cfg(feature = "failpoints")]

use std::sync::Arc;

use tsg_engine::json::{parse, Value};
use tsg_engine::{Engine, EngineConfig};
use tsg_matrix::Csr;
use tsg_runtime::failpoint;
use tsg_serve::{
    Control, SchedConfig, Scheduler, ServeSession, Submission, SubmitError, SubmitSpec,
};

fn scheduler() -> Scheduler {
    let engine = Engine::new(EngineConfig::default());
    Scheduler::new(Arc::new(engine), SchedConfig::default())
}

#[test]
fn session_open_failpoint_refuses_once_then_recovers() {
    let _x = failpoint::exclusive();
    let sched = scheduler();

    failpoint::arm("serve.session_open", 0, 1);
    assert_eq!(
        sched.open_session("victim", 1.0, None),
        Err(SubmitError::Draining),
        "the armed open must be refused as if draining"
    );
    assert_eq!(failpoint::hits("serve.session_open"), 1);

    // The refusal left no half-opened state: the retry succeeds and the
    // session is fully usable.
    let sid = sched
        .open_session("victim", 1.0, None)
        .expect("disarmed open succeeds");
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));
    let Submission::Queued(tickets) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("empty queue must accept")
    };
    tickets[0].wait().expect("job on the recovered session");
    assert_eq!(sched.stats().sessions.len(), 1);
}

#[test]
fn session_open_failpoint_maps_to_shutting_down_on_the_wire() {
    let _x = failpoint::exclusive();
    let sched = Arc::new(scheduler());
    let session = ServeSession::new(Arc::clone(&sched));

    failpoint::arm("serve.session_open", 0, 1);
    let (resp, _) = session.handle_line(r#"{"op":"open_session","name":"wire"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("shutting_down"),
        "clients see the stable refusal code: {resp}"
    );

    // Disarmed, the same line opens a session.
    let (resp, _) = session.handle_line(r#"{"op":"open_session","name":"wire"}"#);
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert!(v.get("session").and_then(Value::as_u64).is_some());
}

#[test]
fn backpressure_wait_failpoint_forces_a_hint_on_an_empty_queue() {
    let _x = failpoint::exclusive();
    let sched = scheduler();
    let sid = sched.open_session("hinted", 1.0, None).unwrap();
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));

    // Armed: the bounded hold "expires" immediately, so even an empty
    // session queue answers with a hint instead of admitting.
    failpoint::arm("serve.backpressure_wait", 0, 1);
    let Submission::Backpressure(hint) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("the armed submit must be refused with a hint")
    };
    assert_eq!(hint.queue_position, 0, "nothing is actually queued");
    assert!(
        hint.retry_after.as_millis() >= 1,
        "hints always name a delay"
    );
    let stats = sched.stats();
    assert_eq!(stats.backpressure_hints, 1);
    assert_eq!(stats.sessions[0].hints, 1);

    // The hinted client retries; disarmed, the identical submission queues
    // and completes.
    let Submission::Queued(tickets) = sched.submit(sid, vec![SubmitSpec::new(id, id)]).unwrap()
    else {
        panic!("the retry must be admitted")
    };
    tickets[0].wait().expect("retried job completes");
    assert_eq!(sched.stats().backpressure_hints, 1, "no further hints");
}

/// A request frame truncated in transit parses as garbage: the session
/// answers `bad_request` and keeps serving the same connection.
#[test]
fn truncated_frame_is_bad_request_and_session_survives() {
    let _x = failpoint::exclusive();
    let session = ServeSession::new(Arc::new(scheduler()));

    failpoint::arm("protocol.truncate_request", 0, 1);
    let (resp, ctl) = session.handle_line(r#"{"op":"stats"}"#);
    assert_eq!(ctl, Control::Continue);
    assert!(resp.contains("\"bad_request\""), "got: {resp}");
    assert_eq!(failpoint::hits("protocol.truncate_request"), 1);

    let (resp, ctl) = session.handle_line(r#"{"op":"stats"}"#);
    assert_eq!(ctl, Control::Continue);
    assert!(
        !resp.contains("\"error\""),
        "session must keep serving: {resp}"
    );
}

/// A frame over the 16 MiB limit — injected, so the harness does not ship
/// 16 MiB — is refused with `frame_too_large` before parsing (nothing is
/// submitted), and the session keeps serving.
#[test]
fn oversized_frame_is_refused_and_session_survives() {
    let _x = failpoint::exclusive();
    let sched = Arc::new(scheduler());
    let session = ServeSession::new(Arc::clone(&sched));
    let (id, _) = sched.engine().register(Csr::<f64>::identity(32));
    let multiply = format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#);

    failpoint::arm("protocol.oversized_request", 0, 1);
    let (resp, ctl) = session.handle_line(&multiply);
    assert_eq!(ctl, Control::Continue);
    assert!(resp.contains("\"frame_too_large\""), "got: {resp}");
    assert_eq!(sched.stats().dispatched, 0, "the refused frame ran nothing");

    let (resp, _) = session.handle_line(&multiply);
    let v = parse(&resp).unwrap();
    assert_eq!(
        v.get("nnz_c").and_then(Value::as_u64),
        Some(32),
        "session must keep serving: {resp}"
    );
}
