//! One server lifetime: start it (timing set-up), drive it with the
//! workload's clients in a closed loop, then read its statistics.

use std::path::Path;
use std::time::{Duration, Instant};

use tsg_engine::json::{parse, Value};

use crate::server::{Conn, Server};
use crate::stats::ratio;
use crate::workload::{Kind, Plan, Request, Workload, CLIENTS};

/// Device budget the server runs under: twice its default, so the tracker
/// bytes every masked multiply leaves behind stay far from the limit below
/// for a whole `expr` run even when requests get faster.
const BUDGET_MB: usize = 2048;
/// Flags every server gets.
const SERVE_ARGS: [&str; 4] = ["--workers", "2", "--budget-mb", "2048"];
/// The masked-multiply tracker leak must stay below this share of the
/// budget within a run, or admission could start deferring work.
const RESIDUAL_LIMIT: f64 = 0.25;

pub struct DriveConfig {
    /// Run the server with `--profile` and keep every reply.
    pub traced: bool,
    /// Server start-ups timed; all but the last are stopped again.
    pub setups: usize,
    pub warmup: Duration,
    pub window: Duration,
    /// `hello` round trips timed on the idle server after the window.
    pub rtt_probes: usize,
}

/// One client request as the client saw it.
pub struct Sample {
    pub client: usize,
    pub seq: usize,
    pub kind: Kind,
    pub keep: bool,
    pub bytes: usize,
    /// Send time, seconds after the clients started.
    pub sent_s: f64,
    pub wall_ms: f64,
    /// The reply line, kept in traced runs.
    pub reply: Option<String>,
    /// Why the request failed; `None` when the reply was the expected one.
    pub error: Option<String>,
}

impl Sample {
    fn end_s(&self) -> f64 {
        self.sent_s + self.wall_ms / 1e3
    }
}

pub struct Drive {
    /// Warm-up and window requests of every client.
    pub samples: Vec<Sample>,
    pub window_start_s: f64,
    /// Spawn → operands loaded and converted, per start-up.
    pub setup_s: Vec<f64>,
    /// Round trips of the last start-up's set-up requests.
    pub setup_walls: Vec<(Kind, f64)>,
    /// `stats` right after set-up and after the clients stopped.
    pub before: Value,
    pub after: Value,
    /// Server `VmHWM` after the window.
    pub rss_mib: f64,
    pub rtt_ms: Vec<f64>,
}

impl Drive {
    /// Requests sent inside the measured window.
    pub fn window(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| s.sent_s >= self.window_start_s)
    }

    /// Completed requests per second: each closed-loop client's count over
    /// the span from its first send to its last reply in the window, summed.
    pub fn throughput_rps(&self) -> f64 {
        (0..CLIENTS)
            .map(|c| {
                let mine: Vec<&Sample> = self.window().filter(|s| s.client == c).collect();
                let first = mine.iter().map(|s| s.sent_s).fold(f64::INFINITY, f64::min);
                let last = mine.iter().map(|s| s.end_s()).fold(0.0, f64::max);
                ratio(mine.len() as f64, last - first)
            })
            .sum()
    }

    pub fn window_walls(&self) -> Vec<f64> {
        self.window().map(|s| s.wall_ms).collect()
    }

    /// Every failure: wrong or refused replies, and the known-defect bounds.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .samples
            .iter()
            .filter_map(|s| s.error.clone())
            .collect();
        let deferred = self.after.get("serve").and_then(|s| s.get("deferred"));
        if deferred.and_then(Value::as_u64) != Some(0) {
            out.push(format!("scheduler deferred jobs: {deferred:?}"));
        }
        let residual = stat(&self.after, "device_bytes_in_use");
        if residual >= RESIDUAL_LIMIT * (BUDGET_MB << 20) as f64 {
            out.push(format!(
                "tracker residual {residual} B exceeds a quarter of the budget"
            ));
        }
        out
    }

    /// Growth of a top-level `stats` number over the run.
    pub fn delta(&self, key: &str) -> f64 {
        stat(&self.after, key) - stat(&self.before, key)
    }

    /// Growth of a profiling counter over the run.
    pub fn counter_delta(&self, name: &str) -> f64 {
        let counter = |v: &Value| {
            v.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        counter(&self.after) - counter(&self.before)
    }
}

/// A top-level number of a `stats` reply (0 when absent).
pub fn stat(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Starts the server `cfg.setups` times, keeps the last, and drives it.
pub fn drive(
    bin: &Path,
    workload: Workload,
    plan: &Plan,
    cfg: &DriveConfig,
) -> Result<Drive, String> {
    let mut args: Vec<&str> = SERVE_ARGS.to_vec();
    args.extend(workload.server_args());
    if cfg.traced {
        args.push("--profile");
    }
    let mut setup_s = Vec::new();
    let mut setup_walls = Vec::new();
    let mut ready = None;
    for rep in 0..cfg.setups.max(1) {
        let t0 = Instant::now();
        let server = Server::spawn(bin, &args)?;
        let mut conns = (0..CLIENTS)
            .map(|_| server.connect())
            .collect::<Result<Vec<Conn>, String>>()?;
        for conn in &mut conns {
            request_ok(conn, "{\"op\":\"hello\",\"v\":3}\n")?;
        }
        setup_walls.clear();
        for req in &plan.setup {
            let t = Instant::now();
            let reply = request_ok(&mut conns[0], &req.line)?;
            setup_walls.push((req.kind, t.elapsed().as_secs_f64() * 1e3));
            req.check(&reply).map_err(|e| format!("set-up: {e}"))?;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < cfg.setups {
            drop(conns);
            server.stop()?;
        } else {
            ready = Some((server, conns));
        }
    }
    let (server, mut conns) = ready.expect("at least one set-up ran");
    let before = request_ok(&mut conns[0], "{\"op\":\"stats\"}\n")?;

    let epoch = Instant::now();
    let stop = epoch + cfg.warmup + cfg.window;
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan.clients)
            .enumerate()
            .map(|(c, (conn, stream))| {
                scope.spawn(move || client(c, conn, stream, epoch, stop, cfg.traced))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });

    let mut rtt_ms = Vec::with_capacity(cfg.rtt_probes);
    for _ in 0..cfg.rtt_probes {
        let t = Instant::now();
        request_ok(&mut conns[0], "{\"op\":\"hello\"}\n")?;
        rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let after = request_ok(&mut conns[0], "{\"op\":\"stats\"}\n")?;
    let rss_mib = server.peak_rss_mib()?;
    drop(conns);
    server.stop()?;
    Ok(Drive {
        samples,
        window_start_s: cfg.warmup.as_secs_f64(),
        setup_s,
        setup_walls,
        before,
        after,
        rss_mib,
        rtt_ms,
    })
}

/// A closed-loop client: sends its stream's next request as soon as the
/// previous reply arrives, until `stop`.
fn client(
    c: usize,
    conn: &mut Conn,
    stream: &[Request],
    epoch: Instant,
    stop: Instant,
    keep_replies: bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (seq, req) in stream.iter().cycle().enumerate() {
        let sent = Instant::now();
        if sent >= stop {
            break;
        }
        let reply = conn.roundtrip(&req.line);
        let wall_ms = sent.elapsed().as_secs_f64() * 1e3;
        let broken = reply.is_err();
        let (reply, error) = match reply {
            Ok(line) => {
                let error = match parse(line) {
                    Ok(v) => req.check(&v).err(),
                    Err(e) => Some(format!("unparseable reply: {e}")),
                };
                (keep_replies.then(|| line.to_string()), error)
            }
            Err(e) => (None, Some(format!("{}: {e}", req.kind.name()))),
        };
        samples.push(Sample {
            client: c,
            seq,
            kind: req.kind,
            keep: req.keep,
            bytes: req.line.len(),
            sent_s: (sent - epoch).as_secs_f64(),
            wall_ms,
            reply,
            error,
        });
        if broken {
            break;
        }
    }
    samples
}

fn request_ok(conn: &mut Conn, line: &str) -> Result<Value, String> {
    let what: String = line.trim_end().chars().take(80).collect();
    let reply = conn.roundtrip(line).map_err(|e| format!("{what}: {e}"))?;
    let v = parse(reply).map_err(|e| format!("{what}: unparseable reply: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(v)
    } else {
        Err(format!("{what}: {v}"))
    }
}
