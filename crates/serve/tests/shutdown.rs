//! Graceful-shutdown coverage: the `shutdown` verb and SIGINT both drain
//! in-flight work (nothing already admitted is abandoned), emit a final
//! stats line on stderr, and exit cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

use tsg_engine::json::{parse, Value};

fn spawn_server(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tsg-serve"))
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning tsg-serve")
}

fn request(child: &mut Child, reader: &mut impl BufRead, line: &str) -> Value {
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "{line}").expect("request written");
    stdin.flush().expect("request flushed");
    let mut resp = String::new();
    assert!(
        reader.read_line(&mut resp).expect("response read") > 0,
        "server closed stdout on {line}"
    );
    parse(&resp).unwrap_or_else(|e| panic!("malformed response {resp:?}: {e}"))
}

fn request_ok(child: &mut Child, reader: &mut impl BufRead, line: &str) -> Value {
    let v = request(child, reader, line);
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected ok for {line}, got {v}"
    );
    v
}

/// Loads a generator matrix and queues `jobs` async self-multiplies;
/// returns the serve job ids.
fn queue_burst(child: &mut Child, reader: &mut impl BufRead, jobs: usize) -> Vec<u64> {
    request_ok(child, reader, r#"{"op":"hello","v":3}"#);
    request_ok(
        child,
        reader,
        r#"{"op":"open_session","name":"drain-test","depth":8}"#,
    );
    let loaded = request_ok(child, reader, r#"{"op":"load","gen":"cluster-00"}"#);
    let m = loaded
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let submit = format!(r#"{{"op":"multiply","a":"{m}","b":"{m}","async":true}}"#);
    (0..jobs)
        .map(|_| {
            request_ok(child, reader, &submit)
                .get("job")
                .and_then(Value::as_u64)
                .expect("job id")
        })
        .collect()
}

fn collect_stderr(child: &mut Child) -> String {
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("stderr readable");
    err
}

#[test]
fn shutdown_verb_drains_pending_jobs_and_reports_final_stats() {
    let mut child = spawn_server(&["--workers", "1"]);
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let jobs = queue_burst(&mut child, &mut reader, 4);

    // Shutdown with the burst still pending: the server must acknowledge,
    // then finish the admitted jobs before exiting.
    let bye = request(&mut child, &mut reader, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    drop(child.stdin.take());

    let status = child.wait().expect("server exit status");
    assert!(status.success(), "shutdown exit was {status}");
    let err = collect_stderr(&mut child);
    let stats_line = err
        .lines()
        .find(|l| l.contains("final stats:"))
        .unwrap_or_else(|| panic!("no final stats line in stderr:\n{err}"));
    assert!(
        stats_line.contains(&format!("completed={}", jobs.len()))
            && stats_line.contains("failed=0")
            && stats_line.contains("drained=true"),
        "drain must complete every admitted job: {stats_line}"
    );
}

#[test]
fn sigint_drains_and_exits_cleanly() {
    let mut child = spawn_server(&["--workers", "1"]);
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let jobs = queue_burst(&mut child, &mut reader, 3);

    let pid = child.id();
    let killed = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -INT {pid}"))
        .status()
        .expect("running kill");
    assert!(killed.success(), "kill -INT failed");

    let status = child.wait().expect("server exit status");
    assert!(status.success(), "SIGINT exit was {status}");
    let err = collect_stderr(&mut child);
    assert!(
        err.contains("SIGINT — draining"),
        "missing drain banner in stderr:\n{err}"
    );
    let stats_line = err
        .lines()
        .find(|l| l.contains("final stats:"))
        .unwrap_or_else(|| panic!("no final stats line in stderr:\n{err}"));
    assert!(
        stats_line.contains(&format!("completed={}", jobs.len()))
            && stats_line.contains("failed=0")
            && stats_line.contains("drained=true"),
        "SIGINT drain must complete every admitted job: {stats_line}"
    );
}
