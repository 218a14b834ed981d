//! Transports for the `tsg-serve` binary: stdin/stdout or TCP, one
//! [`ServeSession`] per connection, one engine and scheduler for all — so
//! every connection shares the matrix registry, the device budget, and the
//! weighted-fair dispatch order.
//!
//! Shutdown is always a *drain*: on SIGINT, stdin EOF, or the `shutdown`
//! verb the server stops accepting work, lets queued and in-flight jobs
//! finish (up to `--drain-ms`), prints a final statistics line to stderr,
//! and exits 0. Nothing in flight is dropped inside the deadline.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tsg_engine::{Engine, EngineConfig};
use tsg_runtime::Device;

use crate::scheduler::{SchedConfig, Scheduler};
use crate::wire::{Control, ServeSession};

/// Everything the binary's command line configures.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// The engine below the scheduler.
    pub engine: EngineConfig,
    /// The scheduler's runner, session and backpressure knobs.
    pub sched: SchedConfig,
    /// Listen address; `None` serves stdin/stdout.
    pub tcp: Option<String>,
    /// Drain deadline for graceful shutdown.
    pub drain: Duration,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            engine: EngineConfig::default(),
            sched: SchedConfig::default(),
            tcp: None,
            drain: Duration::from_secs(10),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tsg-serve: {msg}");
    eprintln!(
        "usage: tsg-serve [--device 0|1] [--workers N] [--cache-mb N] \
         [--budget-mb N] [--profile] [--session-depth N] [--drain-ms N] \
         [--tcp ADDR]"
    );
    std::process::exit(2);
}

/// Parses the binary's argument list (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> ServeOpts {
    let mut opts = ServeOpts::default();
    let mut cache_mb: Option<usize> = None;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--device" => {
                opts.engine.device = match value("--device").as_str() {
                    "0" => Device::rtx3090_sim(),
                    "1" => Device::rtx3060_sim(),
                    other => die(&format!("unknown device index {other}")),
                };
            }
            "--workers" => {
                opts.sched.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers wants an integer"));
            }
            "--cache-mb" => {
                let mb: usize = value("--cache-mb")
                    .parse()
                    .unwrap_or_else(|_| die("--cache-mb wants an integer"));
                cache_mb = Some(mb << 20);
            }
            "--budget-mb" => {
                let mb: usize = value("--budget-mb")
                    .parse()
                    .unwrap_or_else(|_| die("--budget-mb wants an integer"));
                opts.engine.device.mem_budget = mb << 20;
            }
            "--session-depth" => {
                opts.sched.session_queue_depth = value("--session-depth")
                    .parse::<usize>()
                    .ok()
                    .filter(|&d| d > 0)
                    .unwrap_or_else(|| die("--session-depth wants a positive integer"));
            }
            "--drain-ms" => {
                let ms: u64 = value("--drain-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--drain-ms wants an integer"));
                opts.drain = Duration::from_millis(ms);
            }
            "--profile" => opts.engine.profile = true,
            "--tcp" => opts.tcp = Some(value("--tcp")),
            "--help" | "-h" => die("serve the tiled SpGEMM engine over JSON lines"),
            other => die(&format!("unknown argument {other}")),
        }
    }
    // The cache defaults to half the (possibly overridden) device budget.
    opts.engine.cache_bytes = cache_mb.unwrap_or(opts.engine.device.mem_budget / 2);
    opts
}

/// Pumps one client: request line in, response line out, until EOF, a write
/// failure, or the `shutdown` verb.
///
/// Each reply leaves in one write, newline included. Split into a body and a
/// newline, the newline of every reply after a connection's first would sit
/// in the kernel behind Nagle's algorithm until the client's delayed ACK
/// released it, some 40 ms later.
pub fn serve_stream(
    session: &ServeSession,
    input: impl BufRead,
    mut output: impl Write,
) -> Control {
    for line in input.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // client hung up
        };
        if line.trim().is_empty() {
            continue;
        }
        let (mut resp, control) = session.handle_line(&line);
        resp.push('\n');
        if output
            .write_all(resp.as_bytes())
            .and_then(|()| output.flush())
            .is_err()
        {
            break;
        }
        if control == Control::Shutdown {
            return Control::Shutdown;
        }
    }
    Control::Continue
}

/// SIGINT flag; the handler only stores, the monitor thread does the work.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    // Minimal signal(2) binding — the workspace builds without libc. The
    // handler stays async-signal-safe (a single atomic store); everything
    // else happens on the monitor thread.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Drains the scheduler, prints the final statistics line, and reports
/// whether the drain met its deadline.
fn graceful_exit(scheduler: &Scheduler, drain: Duration) -> bool {
    let drained = scheduler.shutdown(drain);
    let s = scheduler.stats();
    let (mut completed, mut failed) = (0u64, 0u64);
    for row in &s.sessions {
        completed += row.completed;
        failed += row.failed;
    }
    let pool = scheduler.engine().stats().buffers;
    eprintln!(
        "tsg-serve: final stats: sessions={} dispatched={} completed={completed} \
         failed={failed} backpressure_hints={} deferred={} drained={drained} \
         pool_reused={} pool_fresh={} pool_high_water={}",
        s.sessions.len(),
        s.dispatched,
        s.backpressure_hints,
        s.deferred,
        pool.reused,
        pool.fresh,
        pool.high_water_bytes,
    );
    drained
}

/// Runs the server to completion. The process exits from inside on SIGINT
/// (after draining); otherwise returns the exit code.
pub fn run(opts: ServeOpts) -> ExitCode {
    let ServeOpts {
        engine: cfg,
        sched,
        tcp,
        drain,
    } = opts;
    eprintln!(
        "tsg-serve: device {} ({} threads, {} MiB budget), {} workers, \
         cache {} MiB, session depth {}{}",
        cfg.device.name,
        cfg.device.threads,
        cfg.device.mem_budget >> 20,
        sched.workers,
        cfg.cache_bytes >> 20,
        sched.session_queue_depth,
        if cfg.profile { ", profiling" } else { "" },
    );
    let engine = Arc::new(Engine::new(cfg));
    let scheduler = Arc::new(Scheduler::new(engine, sched));

    // SIGINT: stop accepting, drain in-flight work to the deadline, report,
    // exit 0. std's readers retry EINTR, so a flag check in the read loop
    // would never run — a monitor thread polls the flag instead.
    install_sigint_handler();
    {
        let scheduler = Arc::clone(&scheduler);
        std::thread::Builder::new()
            .name("tsg-serve-signals".into())
            .spawn(move || loop {
                if INTERRUPTED.load(Ordering::SeqCst) {
                    eprintln!("tsg-serve: SIGINT — draining");
                    graceful_exit(&scheduler, drain);
                    std::process::exit(0);
                }
                std::thread::sleep(Duration::from_millis(25));
            })
            .expect("spawning signal monitor");
    }

    match tcp {
        None => {
            let session = ServeSession::new(Arc::clone(&scheduler));
            let stdin = std::io::stdin();
            serve_stream(&session, stdin.lock(), std::io::stdout().lock());
        }
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("tsg-serve: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let local = listener.local_addr().ok();
            eprintln!(
                "tsg-serve: listening on {}",
                local.map_or(addr, |a| a.to_string())
            );
            // A shutdown request from any connection flips the flag, then
            // self-connects so the blocking accept loop observes it.
            let stop = Arc::new(AtomicBool::new(false));
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                // Replies are single writes; without Nagle the tail segment
                // of a large one cannot wait behind a delayed ACK either.
                let _ = stream.set_nodelay(true);
                let scheduler = Arc::clone(&scheduler);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let session = ServeSession::new(scheduler);
                    let reader = match stream.try_clone() {
                        Ok(s) => BufReader::new(s),
                        Err(_) => return,
                    };
                    if serve_stream(&session, reader, stream) == Control::Shutdown {
                        stop.store(true, Ordering::Relaxed);
                        if let Some(addr) = local {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                });
            }
        }
    }
    graceful_exit(&scheduler, drain);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts every byte and counts the `write` calls that carried them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_leaves_in_exactly_one_write() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let scheduler = Arc::new(Scheduler::new(engine, SchedConfig::default()));
        let session = ServeSession::new(Arc::clone(&scheduler));
        let input = "{\"op\":\"hello\"}\n\n{\"op\":\"stats\"}\n{\"op\":\"frobnicate\"}\n";
        let mut out = CountingWriter::default();
        assert_eq!(
            serve_stream(&session, input.as_bytes(), &mut out),
            Control::Continue
        );
        // Three replies (the blank line gets none), one write each, each
        // write a whole line.
        assert_eq!(out.writes, 3);
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        scheduler.shutdown(Duration::from_secs(5));
    }
}
