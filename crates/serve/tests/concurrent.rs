//! Two simultaneous TCP clients against one server: results must be
//! bitwise-identical to a serial in-process run (content-hash handles make
//! the comparison exact), nothing may be dropped, and backpressure hints
//! must report a monotone non-increasing queue position to a blocked
//! client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use tsg_engine::json::{parse, Value};
use tsg_engine::{Engine, EngineConfig, JobSpec};

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tsg-serve"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning tsg-serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server prints its address before exiting")
                .expect("stderr readable");
            if let Some(addr) = line.strip_prefix("tsg-serve: listening on ") {
                break addr.to_string();
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    stream: TcpStream,
    responses: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connecting to tsg-serve");
        // Requests go out as single writes with Nagle off, so the client
        // never waits on the server's delayed ACK.
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let responses = BufReader::new(stream.try_clone().expect("clonable stream"));
        Client { stream, responses }
    }

    fn request(&mut self, line: &str) -> Value {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
        let mut resp = String::new();
        let n = self.responses.read_line(&mut resp).expect("response read");
        assert!(n > 0, "server closed the connection on {line}");
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

    /// Multiplies with `keep`, riding out backpressure hints by resubmitting.
    /// Returns the kept product handle and the hint positions observed.
    fn multiply_kept(&mut self, a: &str, b: &str) -> (String, Vec<u64>) {
        let line = format!(r#"{{"op":"multiply","a":"{a}","b":"{b}","keep":true}}"#);
        let mut positions = Vec::new();
        loop {
            let v = self.request(&line);
            if v.get("ok").and_then(Value::as_bool) == Some(true) {
                let c = v.get("c").and_then(Value::as_str).expect("kept handle");
                return (c.to_string(), positions);
            }
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str);
            assert_eq!(
                code,
                Some("backpressure"),
                "only flow control may refuse: {v}"
            );
            positions.push(
                v.get("queue_position")
                    .and_then(Value::as_u64)
                    .expect("hints carry the queue position"),
            );
            let retry_ms = v
                .get("retry_after_ms")
                .and_then(Value::as_f64)
                .expect("hints carry retry_after_ms");
            assert!(retry_ms >= 1.0);
            std::thread::sleep(Duration::from_millis(retry_ms.min(50.0) as u64));
        }
    }
}

/// Every reply leaves the server in one write on a `TCP_NODELAY` socket, so
/// a round trip costs the work, not a Nagle/delayed-ACK stall. Written as
/// a reply body plus a separate newline, every reply after the first would
/// wait ~40 ms for the client's delayed ACK.
#[test]
fn sequential_round_trips_do_not_stall_on_delayed_acks() {
    let server = Server::spawn(&["--tcp", "127.0.0.1:0"]);
    let mut client = Client::connect(&server.addr);
    let mut rtt_ms: Vec<f64> = (0..20)
        .map(|_| {
            let sent = std::time::Instant::now();
            client.request_ok(r#"{"op":"hello"}"#);
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtt_ms.sort_by(f64::total_cmp);
    let median = (rtt_ms[9] + rtt_ms[10]) / 2.0;
    assert!(
        median < 10.0,
        "median hello round trip {median:.1} ms: {rtt_ms:?}"
    );
}

#[test]
fn mid_batch_disconnect_leaves_the_server_healthy() {
    let server = Server::spawn(&[
        "--tcp",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-depth",
        "2",
    ]);

    // Client 1 opens a session, fires an async multiply_many batch, and
    // vanishes without reading a single response — then a second rude
    // client dies halfway through writing a request line.
    {
        let mut c = Client::connect(&server.addr);
        c.request_ok(r#"{"op":"open_session","name":"doomed"}"#);
        let loaded = c.request_ok(r#"{"op":"load","gen":"cluster-00"}"#);
        let m = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        writeln!(
            c.stream,
            r#"{{"op":"multiply_many","jobs":[{{"a":"{m}","b":"{m}"}},{{"a":"$0","b":"{m}"}}],"async":true}}"#
        )
        .unwrap();
        c.stream.flush().unwrap();
        // Dropped here: the batch is in flight, the response unread.
    }
    {
        let mut c = Client::connect(&server.addr);
        write!(c.stream, r#"{{"op":"multiply_many","jobs":[{{"a":"mdead"#).unwrap();
        c.stream.flush().unwrap();
        // Dropped mid-line, no terminating newline.
    }

    // The server must still be serving, and the orphaned batch must have
    // run to completion rather than wedging the dispatcher. The deadline is
    // wall-clock: 200 polls used to take ~23 s only because every stats
    // round trip stalled ~88 ms on delayed ACKs.
    let mut probe = Client::connect(&server.addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while std::time::Instant::now() < deadline {
        let stats = probe.request_ok(r#"{"op":"stats"}"#);
        let serve = stats.get("serve").unwrap();
        let done: u64 = serve
            .get("sessions")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.get("completed").and_then(Value::as_u64).unwrap())
            .sum();
        if done == 2 {
            assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(0));
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("orphaned batch never completed");
}

#[test]
fn two_concurrent_clients_match_the_serial_run_bit_for_bit() {
    // Small queues + one worker manufacture real contention: the clients'
    // bursts overlap, interleave under weighted-fair dispatch, and at least
    // one of them rides through backpressure hints.
    let server = Server::spawn(&[
        "--tcp",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-depth",
        "2",
        "--session-depth",
        "2",
    ]);

    // Serial gold, computed in-process on a fresh engine: the chain of
    // products each client will request. Handles are content hashes, so an
    // equal handle IS a bitwise-identical product.
    let gold = {
        let engine = Engine::new(EngineConfig::default());
        let mut chains = Vec::new();
        for name in ["scatter-00", "cluster-00"] {
            let csr = tsg_gen::suite::by_name(name)
                .expect("known dataset")
                .build();
            let (m, _) = engine.register(csr);
            let r1 = engine.multiply_now(JobSpec::new(m, m)).unwrap();
            let (p1, _) = engine.register_product(Arc::clone(&r1.c));
            let r2 = engine.multiply_now(JobSpec::new(p1, p1)).unwrap();
            let (p2, _) = engine.register_product(Arc::clone(&r2.c));
            let r3 = engine.multiply_now(JobSpec::new(p2, m)).unwrap();
            let (p3, _) = engine.register_product(Arc::clone(&r3.c));
            chains.push(vec![p1.to_string(), p2.to_string(), p3.to_string()]);
        }
        engine.shutdown();
        chains
    };

    let addr = server.addr.clone();
    let worker = |name: &'static str, weight: u64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr);
            client.request_ok(r#"{"op":"hello","v":2}"#);
            client.request_ok(&format!(
                r#"{{"op":"open_session","name":"{name}","weight":{weight},"depth":2}}"#
            ));
            let loaded = client.request_ok(&format!(r#"{{"op":"load","gen":"{name}"}}"#));
            let m = loaded
                .get("id")
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            // The same chain as the gold run: M², (M²)², (M²)²·M — each
            // step's kept handle feeds the next, all under contention.
            let mut handles = Vec::new();
            let mut positions = Vec::new();
            let (p1, h1) = client.multiply_kept(&m, &m);
            let (p2, h2) = client.multiply_kept(&p1, &p1);
            let (p3, h3) = client.multiply_kept(&p2, &m);
            handles.extend([p1, p2, p3]);
            positions.extend([h1, h2, h3]);
            // Async burst on the densest kept product: with session depth 2
            // the queue fills and further submissions are refused with
            // backpressure hints instead of being dropped. Ride the hints,
            // then wait for every job — all of them must complete.
            let p1 = &handles[0];
            let burst = format!(r#"{{"op":"multiply","a":"{p1}","b":"{p1}","async":true}}"#);
            let mut jobs = Vec::new();
            for _ in 0..5 {
                let mut per_submission = Vec::new();
                loop {
                    let v = client.request(&burst);
                    if v.get("ok").and_then(Value::as_bool) == Some(true) {
                        jobs.push(v.get("job").and_then(Value::as_u64).expect("job id"));
                        break;
                    }
                    let code = v
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str);
                    assert_eq!(code, Some("backpressure"), "only flow control refuses: {v}");
                    per_submission.push(
                        v.get("queue_position")
                            .and_then(Value::as_u64)
                            .expect("hints carry the queue position"),
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
                positions.push(per_submission);
            }
            for job in jobs {
                client.request_ok(&format!(r#"{{"op":"wait","job":{job}}}"#));
            }
            (handles, positions)
        })
    };
    let t1 = worker("scatter-00", 2);
    let t2 = worker("cluster-00", 1);
    let (h1, pos1) = t1.join().expect("client 1");
    let (h2, pos2) = t2.join().expect("client 2");
    // Both clients have their final responses, so every job is complete:
    // read the server-wide stats through a fresh connection.
    let stats = Client::connect(&server.addr).request_ok(r#"{"op":"stats"}"#);

    // Bitwise identity with the serial gold, for both clients.
    assert_eq!(h1, gold[0], "scatter-00 chain diverged from the serial run");
    assert_eq!(h2, gold[1], "cluster-00 chain diverged from the serial run");

    // Hint positions are monotone non-increasing across the retries of one
    // blocked submission: the refused client only ever sees its backlog
    // drain.
    for per_submission in pos1.iter().chain(pos2.iter()) {
        for pair in per_submission.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "queue_position must not grow across retries: {per_submission:?}"
            );
        }
    }

    // Nothing was dropped anywhere: every arrival was admitted (engine) and
    // every session job completed (scheduler).
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(0));
    assert_eq!(
        stats.get("submitted").and_then(Value::as_u64),
        stats.get("admitted").and_then(Value::as_u64)
    );
    let serve_stats = stats.get("serve").unwrap();
    assert!(
        serve_stats
            .get("backpressure_hints")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "the burst was sized to overflow a depth-2 session queue: {serve_stats}"
    );
    let sessions = serve_stats.get("sessions").and_then(Value::as_arr).unwrap();
    assert_eq!(sessions.len(), 2);
    for row in sessions {
        assert_eq!(row.get("failed").and_then(Value::as_u64), Some(0));
        assert_eq!(
            row.get("enqueued").and_then(Value::as_u64),
            row.get("completed").and_then(Value::as_u64),
            "every enqueued job completed: {row}"
        );
    }
}
