//! End-to-end test of the `tsg-serve` binary over its stdin/stdout
//! JSON-lines transport: load, convert, multiply, sessions, batches,
//! stats, evict, shutdown.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use tsg_engine::json::{parse, Value};

struct Serve {
    child: Child,
    responses: BufReader<std::process::ChildStdout>,
}

impl Serve {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tsg-serve"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning tsg-serve");
        let responses = BufReader::new(child.stdout.take().expect("piped stdout"));
        Serve { child, responses }
    }

    /// Sends one request line; returns the parsed response object.
    fn request(&mut self, line: &str) -> Value {
        let stdin = self.child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        let mut resp = String::new();
        let n = self.responses.read_line(&mut resp).expect("response read");
        assert!(n > 0, "server closed stdout before responding to {line}");
        parse(&resp).unwrap_or_else(|e| panic!("malformed response {resp:?}: {e}"))
    }

    fn request_ok(&mut self, line: &str) -> Value {
        let v = self.request(line);
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "expected ok response to {line}, got {v}"
        );
        v
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn load_convert_multiply_stats_over_stdin() {
    let mut serve = Serve::spawn(&["--workers", "2", "--queue-depth", "8"]);

    let loaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    assert_eq!(loaded.get("rows").and_then(Value::as_u64), Some(7500));
    assert!(loaded.get("nnz").and_then(Value::as_u64).unwrap() > 0);

    // Re-loading identical content dedupes to the same id.
    let again = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    assert_eq!(again.get("id").and_then(Value::as_str), Some(id.as_str()));
    assert_eq!(again.get("dedup").and_then(Value::as_bool), Some(true));

    let converted = serve.request_ok(&format!(r#"{{"op":"convert","id":"{id}"}}"#));
    assert_eq!(
        converted.get("cache_hit").and_then(Value::as_bool),
        Some(false)
    );
    assert!(converted.get("tiles").and_then(Value::as_u64).unwrap() > 0);

    // The multiply sees both operands already cached by the convert.
    let product = serve.request_ok(&format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
    assert!(product.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(product.get("cache_hits").and_then(Value::as_u64), Some(2));
    assert_eq!(product.get("conversions").and_then(Value::as_u64), Some(0));

    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("conversions").and_then(Value::as_u64), Some(1));
    assert!(stats.get("cached_bytes").and_then(Value::as_u64).unwrap() > 0);
    // Arrivals are fully accounted: everything submitted was admitted.
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("admitted").and_then(Value::as_u64), Some(1));
    // The engine's statistics carry the serving layer's view as "serve".
    let serve_stats = stats.get("serve").expect("serve member");
    let sessions = serve_stats
        .get("sessions")
        .and_then(Value::as_arr)
        .expect("sessions array");
    assert_eq!(
        sessions.len(),
        1,
        "the multiply opened a session implicitly"
    );
    assert_eq!(
        sessions[0].get("completed").and_then(Value::as_u64),
        Some(1)
    );
    // The multiply's admission estimate was sampled once and memoized; an
    // estimate of the same product is a memo hit. Both counters are always
    // on, profile or not.
    assert_eq!(
        stats.get("estimate_misses").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("estimate_hits").and_then(Value::as_u64), Some(0));
    serve.request_ok(&format!(r#"{{"op":"estimate","a":"{id}","b":"{id}"}}"#));
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("estimate_hits").and_then(Value::as_u64), Some(1));

    let evicted = serve.request_ok(r#"{"op":"evict"}"#);
    assert_eq!(evicted.get("evicted").and_then(Value::as_u64), Some(1));

    // Errors stay on-protocol: unknown ids produce a typed error object.
    let err = serve.request(r#"{"op":"multiply","a":"mffffffffffffffff","b":"mffffffffffffffff"}"#);
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("unknown_matrix")
    );

    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    let status = serve.child.wait().expect("server exits after shutdown");
    assert!(status.success());
}

#[test]
fn protocol_version_is_stamped_and_gated_over_stdin() {
    let mut serve = Serve::spawn(&[]);
    let error_code = |v: &Value| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };

    // The server speaks version 3, and every reply stamps it.
    let hello = serve.request_ok(r#"{"op":"hello","v":3}"#);
    assert_eq!(hello.get("v").and_then(Value::as_u64), Some(3));
    assert_eq!(
        hello.get("server").and_then(Value::as_str),
        Some("tsg-serve")
    );
    assert_eq!(hello.get("profile").and_then(Value::as_bool), Some(false));

    // Any other version — the retired 1 and 2, a future one, a non-number —
    // is refused with the stable code, and even the refusal carries the
    // server's version.
    for v in ["1", "2", "4", r#""x""#] {
        let err = serve.request(&format!(r#"{{"op":"hello","v":{v}}}"#));
        assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false), "v={v}");
        assert_eq!(err.get("v").and_then(Value::as_u64), Some(3));
        assert_eq!(error_code(&err).as_deref(), Some("protocol_mismatch"));
    }
    // Every verb runs the same gate.
    for line in [
        r#"{"op":"open_session","v":999}"#,
        r#"{"op":"load","gen":"fem-00","v":2}"#,
        r#"{"op":"stats","v":1}"#,
    ] {
        let err = serve.request(line);
        assert_eq!(
            error_code(&err).as_deref(),
            Some("protocol_mismatch"),
            "{line}"
        );
    }

    // A request without "v" is answered as version 3.
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("v").and_then(Value::as_u64), Some(3));
}

#[test]
fn sessions_batches_and_kept_products_over_stdin() {
    let mut serve = Serve::spawn(&["--workers", "2"]);
    let loaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let opened = serve.request_ok(r#"{"op":"open_session","name":"etl","weight":2}"#);
    assert!(opened.get("session").and_then(Value::as_u64).unwrap() >= 1);

    // keep:true registers the product and hands back its content handle.
    let kept = serve.request_ok(&format!(
        r#"{{"op":"multiply","a":"{id}","b":"{id}","keep":true}}"#
    ));
    let c = kept.get("c").and_then(Value::as_str).unwrap().to_string();
    assert!(c.starts_with('m'));

    // A dependent batch: entry 1 squares entry 0's product ($0). Equal "c"
    // handles across routes prove bitwise-identical results.
    let batch = serve.request_ok(&format!(
        r#"{{"op":"multiply_many","jobs":[{{"a":"{id}","b":"{id}","keep":true}},{{"a":"$0","b":"$0","keep":true}}]}}"#
    ));
    let results = batch.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("c").and_then(Value::as_str),
        Some(c.as_str())
    );
    let c2 = results[1].get("c").and_then(Value::as_str).unwrap();
    // The chained product is (A²)², reusable as an operand directly.
    let reuse = serve.request_ok(&format!(r#"{{"op":"multiply","a":"{c2}","b":"{id}"}}"#));
    assert!(reuse.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);

    // Async batch: ids come back immediately, wait collects each.
    let queued = serve.request_ok(&format!(
        r#"{{"op":"multiply_many","async":true,"jobs":[{{"a":"{id}","b":"{id}"}},{{"a":"{id}","b":"{id}"}}]}}"#
    ));
    assert_eq!(queued.get("queued").and_then(Value::as_bool), Some(true));
    let jobs: Vec<u64> = queued
        .get("jobs")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|j| j.as_u64().unwrap())
        .collect();
    assert_eq!(jobs.len(), 2);
    for job in jobs {
        assert!(job >= 1 << 32, "serve ids live above the engine's");
        let done = serve.request_ok(&format!(r#"{{"op":"wait","job":{job}}}"#));
        assert_eq!(done.get("job").and_then(Value::as_u64), Some(job));
        assert!(done.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);
    }

    // Malformed batches are refused whole with bad_request.
    let err = serve.request(&format!(
        r#"{{"op":"multiply_many","jobs":[{{"a":"$0","b":"{id}"}}]}}"#
    ));
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("bad_request")
    );

    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    let serve_stats = stats.get("serve").unwrap();
    assert_eq!(
        serve_stats.get("batch_jobs").and_then(Value::as_u64),
        Some(4)
    );
    assert!(
        serve_stats
            .get("dispatched")
            .and_then(Value::as_u64)
            .unwrap()
            >= 6
    );
}

#[test]
fn profiled_burst_reports_spans_and_counters_over_stdin() {
    let mut serve = Serve::spawn(&["--profile", "--workers", "2", "--queue-depth", "32"]);
    let loaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // A 20-job burst: every reply carries the per-step breakdown and the
    // job's span tree, whose "job" root nests the pipeline phases.
    for round in 0..20 {
        let m = serve.request_ok(&format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
        assert!(
            m.get("step3_ms").and_then(Value::as_f64).is_some(),
            "round {round} missing breakdown"
        );
        let spans = m.get("spans").and_then(Value::as_arr).expect("spans");
        let job_root = spans
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some("job"))
            .unwrap_or_else(|| panic!("round {round} has no job root span"));
        let children = job_root.get("children").and_then(Value::as_arr).unwrap();
        for phase in ["step1", "step2", "step3", "alloc"] {
            assert!(
                children
                    .iter()
                    .any(|c| c.get("name").and_then(Value::as_str) == Some(phase)),
                "round {round} missing {phase} span"
            );
        }
    }

    // The aggregated counter snapshot is live through the stats verb…
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("profile").and_then(Value::as_bool), Some(true));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(20));
    let counters = stats.get("counters").expect("counters object");
    let tiles = counters
        .get("tiles_visited")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(tiles > 0, "the burst visited tiles");
    assert_eq!(tiles % 20, 0, "20 identical jobs visit identical tile sets");
    assert!(
        counters.get("bytes_alloc").and_then(Value::as_u64).unwrap()
            >= counters.get("bytes_freed").and_then(Value::as_u64).unwrap()
    );
    // Every completed job lands in exactly one estimator-error bucket, so
    // the bucket totals sum to the completions.
    let est_err: u64 = [
        "est_err_le_quarter",
        "est_err_half",
        "est_err_within_2x",
        "est_err_double",
        "est_err_ge_quad",
    ]
    .iter()
    .map(|k| counters.get(k).and_then(Value::as_u64).unwrap())
    .sum();
    assert_eq!(est_err, 20, "estimator error histogram covers every job");
    // Scheduler-side counters flow through the same recorder.
    assert!(
        counters
            .get("sessions_opened")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(
        counters.get("serve_enqueued").and_then(Value::as_u64),
        Some(20)
    );

    // …and the profile verb dumps every recorded job's span tree.
    let profile = serve.request_ok(r#"{"op":"profile"}"#);
    let jobs = profile.get("jobs").and_then(Value::as_arr).expect("jobs");
    assert_eq!(jobs.len(), 20, "one span tree per burst job");
    let hello = serve.request_ok(r#"{"op":"hello","v":3}"#);
    assert_eq!(hello.get("profile").and_then(Value::as_bool), Some(true));
}

#[test]
fn hostile_input_stays_on_protocol_and_never_kills_the_loop() {
    let mut serve = Serve::spawn(&[]);
    let error_code = |v: &Value| {
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .expect("typed error object")
    };

    // Malformed JSON — truncated object, then plain garbage.
    assert_eq!(error_code(&serve.request(r#"{"op":"#)), "bad_request");
    assert_eq!(error_code(&serve.request("!!not json!!")), "bad_request");
    // A valid object with an unknown verb.
    assert_eq!(
        error_code(&serve.request(r#"{"op":"frobnicate"}"#)),
        "bad_request"
    );
    // Missing the "op" member entirely.
    assert_eq!(error_code(&serve.request(r#"{"v":3}"#)), "bad_request");

    // A frame past the 16 MiB limit is refused before parsing.
    let oversized = format!(r#"{{"op":"hello","pad":"{}"}}"#, "x".repeat(16 << 20));
    assert_eq!(error_code(&serve.request(&oversized)), "frame_too_large");

    // Hostile multiply_many shapes: not an array, empty array, junk
    // operands, self/forward refs, refs without a batch. All bad_request,
    // none enqueue anything.
    for line in [
        r#"{"op":"multiply_many","jobs":"zap"}"#,
        r#"{"op":"multiply_many","jobs":[]}"#,
        r#"{"op":"multiply_many","jobs":[{"a":17,"b":true}]}"#,
        r#"{"op":"multiply_many","jobs":[{"a":"not-an-id","b":"$zap"}]}"#,
        r#"{"op":"multiply_many","jobs":[{"a":"$0","b":"$0"}]}"#,
        r#"{"op":"multiply_many","jobs":[{"a":"$5","b":"m0000000000000000"}]}"#,
        r#"{"op":"multiply_many"}"#,
    ] {
        assert_eq!(error_code(&serve.request(line)), "bad_request", "{line}");
    }
    // Load shapes past the 32-bit index width, or with one word per row or
    // column beyond the device budget, are refused before anything is
    // allocated: the first used to abort the process on an 800 TB
    // allocation, and the third used to wrap its column index to 0 and load
    // as [[0,0,1.0]].
    for line in [
        r#"{"op":"load","rows":100000000000000,"cols":1,"triplets":[]}"#,
        r#"{"op":"load","rows":4294967297,"cols":1,"triplets":[]}"#,
        r#"{"op":"load","rows":2,"cols":4294967297,"triplets":[[0,4294967296,1.0]]}"#,
        r#"{"op":"load","rows":1000000000,"cols":1,"triplets":[]}"#,
        r#"{"op":"load","rows":1,"cols":1000000000,"triplets":[]}"#,
    ] {
        assert_eq!(error_code(&serve.request(line)), "bad_request", "{line}");
        serve.request_ok(r#"{"op":"hello"}"#);
    }
    // Waiting on a made-up serve job id is an error, not a hang.
    assert_eq!(
        error_code(&serve.request(r#"{"op":"wait","job":4294967299}"#)),
        "bad_request"
    );
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    let serve_stats = stats.get("serve").unwrap();
    assert_eq!(
        serve_stats.get("dispatched").and_then(Value::as_u64),
        Some(0)
    );

    // After all of that the very same session still serves normal traffic.
    let loaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // Unload drops the matrix entirely: multiplying or re-unloading it is
    // the stable unknown_matrix error, not a crash.
    let gone = serve.request_ok(&format!(r#"{{"op":"unload","id":"{id}"}}"#));
    assert_eq!(gone.get("unloaded").and_then(Value::as_bool), Some(true));
    let err = serve.request(&format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
    assert_eq!(error_code(&err), "unknown_matrix");
    let err = serve.request(&format!(r#"{{"op":"unload","id":"{id}"}}"#));
    assert_eq!(error_code(&err), "unknown_matrix");

    // Reloading the same content registers fresh (no stale dedup hit) and
    // multiplies fine — the loop survived every hostile frame above.
    let reloaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    assert_eq!(reloaded.get("dedup").and_then(Value::as_bool), Some(false));
    let id2 = reloaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let product = serve.request_ok(&format!(r#"{{"op":"multiply","a":"{id2}","b":"{id2}"}}"#));
    assert!(product.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);

    // A retired scheduling name is as unknown as any other: bad_request,
    // and the session answers the next line.
    let err = serve.request(&format!(
        r#"{{"op":"multiply","a":"{id2}","b":"{id2}","scheduling":"binned"}}"#
    ));
    assert_eq!(error_code(&err), "bad_request");
    let message = err.get("error").and_then(|e| e.get("message"));
    assert_eq!(
        message.and_then(Value::as_str),
        Some("unknown scheduling"),
        "{err}"
    );
    serve.request_ok(r#"{"op":"hello"}"#);

    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    let status = serve.child.wait().expect("server exits after shutdown");
    assert!(status.success());
}

/// A Matrix Market file whose size line declares 10^12 entries is an
/// `io_error`, and the server answers the next request: the reader sizes
/// nothing from a count it has not read.
#[test]
fn hostile_matrix_market_header_is_an_io_error_not_an_abort() {
    struct TempFile(std::path::PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }
    let file =
        TempFile(std::env::temp_dir().join(format!("tsg-hostile-{}.mtx", std::process::id())));
    std::fs::write(
        &file.0,
        "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
    )
    .expect("temporary .mtx written");
    let mut serve = Serve::spawn(&[]);
    let reply = serve.request(&format!(r#"{{"op":"load","path":"{}"}}"#, file.0.display()));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    let code = reply.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Value::as_str), Some("io_error"), "{reply}");
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    assert_eq!(
        stats.get("device_bytes_in_use").and_then(Value::as_u64),
        Some(0),
        "{stats}"
    );
}

#[test]
fn power_longer_than_the_session_queue_is_refused_before_it_allocates() {
    let mut serve = Serve::spawn(&["--session-depth", "8"]);
    let loaded = serve.request_ok(
        r#"{"op":"load","rows":2,"cols":2,"triplets":[[0,0,1.0],[0,1,2.0],[1,1,3.0]]}"#,
    );
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let error_code = |v: &Value| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    // 10^10 copies of a handle used to be allocated before the batch was
    // sized against the queue, aborting the whole server. Nine links do
    // not fit an eight-deep queue either.
    for k in ["10000000000", "18446744073709551615", "10"] {
        let err = serve.request(&format!(r#"{{"op":"power","a":"{id}","k":{k}}}"#));
        assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(error_code(&err).as_deref(), Some("bad_request"), "k = {k}");
    }
    // The same session keeps serving: eight links fit exactly.
    let power = serve.request_ok(&format!(r#"{{"op":"power","a":"{id}","k":9}}"#));
    assert_eq!(power.get("links").and_then(Value::as_u64), Some(8));
    assert_eq!(power.get("nnz_c").and_then(Value::as_u64), Some(3));

    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    let status = serve.child.wait().expect("server exits after shutdown");
    assert!(status.success());
}

#[test]
fn a_client_cannot_deepen_its_session_queue() {
    // Server default session depth: 8.
    let mut serve = Serve::spawn(&[]);
    let loaded = serve.request_ok(
        r#"{"op":"load","rows":2,"cols":2,"triplets":[[0,0,1.0],[0,1,2.0],[1,1,3.0]]}"#,
    );
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    // The reply names the weight and depth the scheduler applied, and the
    // depth bounds `power` before it allocates: 19 links do not fit 8.
    for open in [
        r#"{"op":"open_session","weight":-3,"depth":100}"#,
        r#"{"op":"open_session","depth":9007199254740992}"#,
    ] {
        let opened = serve.request_ok(open);
        assert_eq!(opened.get("weight").and_then(Value::as_f64), Some(1.0));
        assert_eq!(opened.get("depth").and_then(Value::as_u64), Some(8));
        let err = serve.request(&format!(r#"{{"op":"power","a":"{id}","k":20}}"#));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("bad_request"),
            "{open}: {err}"
        );
    }
    // A shallower queue is the client's to ask for.
    let opened = serve.request_ok(r#"{"op":"open_session","weight":2,"depth":3}"#);
    assert_eq!(opened.get("weight").and_then(Value::as_f64), Some(2.0));
    assert_eq!(opened.get("depth").and_then(Value::as_u64), Some(3));
}

#[test]
fn budget_flag_still_bounds_memory_under_deferred_admission() {
    // 1 MiB budget: fem-00's square can never fit. The scheduler no longer
    // rejects it up front (deferred admission runs it solo once the device
    // is idle), so the mid-flight tracker is what stops it — with the
    // typed out_of_memory error, not a drop.
    let mut serve = Serve::spawn(&["--budget-mb", "1"]);
    let loaded = serve.request_ok(r#"{"op":"load","gen":"fem-00"}"#);
    let id = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let err = serve.request(&format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("out_of_memory")
    );
    let stats = serve.request_ok(r#"{"op":"stats"}"#);
    // Nothing rejected, nothing shed: the job was admitted, ran, and the
    // budget stopped it mid-flight.
    assert_eq!(stats.get("rejected").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(1));
    assert_eq!(
        stats.get("device_bytes_in_use").and_then(Value::as_u64),
        Some(0)
    );
}
