//! Artifact-style command-line driver, mirroring the interface and output
//! of the paper's artifact (appendix A.7/A.8):
//!
//! ```text
//! cargo run --release --bin tile_spgemm -- -d 0 -aat 0 path/to/matrix.mtx
//! cargo run --release --bin tile_spgemm -- -aat 1 webbase-1M-like
//! ```
//!
//! `-d` selects the simulated device (`0` = rtx3090-sim, `1` = rtx3060-sim);
//! `-aat` selects `C = A²` (0) or `C = A·Aᵀ` (1). The final argument is a
//! Matrix Market file or the name of a built-in synthetic dataset entry.
//!
//! The output lines follow appendix A.8: matrix information, load time,
//! tile size, flop count, conversion time, tiled-structure space, the
//! three step times plus allocation time, `C`'s tile and nonzero counts,
//! total runtime with GFlops, and a correctness check against the serial
//! reference implementation.
//!
//! A second mode drives the resident engine (see `tsg-serve`) with
//! JSON-lines scripts:
//!
//! ```text
//! tile_spgemm client script.jsonl          # in-process engine
//! echo '{"op":"stats"}' | tile_spgemm client -
//! tile_spgemm client --connect 127.0.0.1:7878 script.jsonl
//! ```
//!
//! Scripts speak protocol v3, so beyond `load`/`convert`/`multiply` they can
//! chain products on resident handles (`{"op":"chain","ids":[...]}` or
//! `{"op":"power","a":"m…","k":6}` — intermediates stay tiled, no CSR
//! round-trips), mask a product (`{"op":"multiply",…,"mask":"m…"}`), and
//! form linear combinations (`{"op":"add",…,"alpha":2.0,"beta":-1.0}`).
//! See the README's "Triangle counting over the wire" quick-start.

use std::io::{BufRead, BufReader, Write};
use std::time::Instant;
use tilespgemm::baselines::reference::reference_spgemm;
use tilespgemm::matrix::Footprint;
use tilespgemm::prelude::*;
use tilespgemm::runtime::{run_on, Device};

struct Args {
    device: usize,
    aat: bool,
    input: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        device: 0,
        aat: false,
        input: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-d" => {
                args.device = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("expected a device index after -d"));
                i += 2;
            }
            "-aat" => {
                let v: usize = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("expected 0 or 1 after -aat"));
                args.aat = v != 0;
                i += 2;
            }
            other if !other.starts_with('-') => {
                args.input = other.to_string();
                i += 1;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.input.is_empty() {
        die("usage: tile_spgemm [-d 0|1] [-aat 0|1] <matrix.mtx | dataset-name>");
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// When `resp` is a backpressure refusal, returns how long the server asked
/// us to hold the request before resubmitting.
fn backpressure_delay(resp: &str) -> Option<std::time::Duration> {
    use tilespgemm::engine::json::{parse, Value};
    let v = parse(resp).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(false) {
        return None;
    }
    let code = v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str);
    if code != Some("backpressure") {
        return None;
    }
    let ms = v
        .get("retry_after_ms")
        .and_then(Value::as_f64)
        .unwrap_or(10.0);
    Some(std::time::Duration::from_millis(
        ms.clamp(1.0, 1000.0) as u64
    ))
}

/// `tile_spgemm client [--connect ADDR] <script.jsonl | ->`
///
/// Feeds engine-protocol request lines (from a file, or stdin with `-`) to
/// an in-process scheduler, or to a running `tsg-serve` when `--connect`
/// names its TCP address, and prints one response line per request.
/// Backpressure refusals are handled transparently: the client holds the
/// request for the hinted `retry_after_ms` and resubmits, so scripts never
/// see flow control.
fn run_client(argv: &[String]) -> ! {
    let mut connect: Option<String> = None;
    let mut script: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => {
                connect = Some(
                    argv.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("expected an address after --connect")),
                );
                i += 2;
            }
            other => {
                script = Some(other.to_string());
                i += 1;
            }
        }
    }
    let script = script
        .unwrap_or_else(|| die("usage: tile_spgemm client [--connect ADDR] <script.jsonl | ->"));
    let requests: Box<dyn BufRead> = if script == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        let f = std::fs::File::open(&script)
            .unwrap_or_else(|e| die(&format!("cannot open {script}: {e}")));
        Box::new(BufReader::new(f))
    };
    let stdout = std::io::stdout();

    match connect {
        Some(addr) => {
            // Remote mode: forward lines to tsg-serve and echo its replies.
            let stream = std::net::TcpStream::connect(&addr)
                .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
            // One write per request (below) and no Nagle: a request never
            // waits for the server's delayed ACK of the one before.
            let _ = stream.set_nodelay(true);
            let mut replies = BufReader::new(
                stream
                    .try_clone()
                    .unwrap_or_else(|e| die(&format!("cannot clone connection: {e}"))),
            );
            let mut stream = stream;
            let mut out = stdout.lock();
            for line in requests.lines() {
                let mut line = line.unwrap_or_else(|e| die(&format!("read error: {e}")));
                if line.trim().is_empty() {
                    continue;
                }
                line.push('\n');
                loop {
                    stream
                        .write_all(line.as_bytes())
                        .unwrap_or_else(|e| die(&format!("send failed: {e}")));
                    let mut resp = String::new();
                    match replies.read_line(&mut resp) {
                        Ok(0) => die("server closed the connection"),
                        Ok(_) => {
                            if let Some(delay) = backpressure_delay(&resp) {
                                eprintln!(
                                    "tile_spgemm: backpressure — retrying in {} ms",
                                    delay.as_millis()
                                );
                                std::thread::sleep(delay);
                                continue;
                            }
                            let _ = write!(out, "{resp}");
                        }
                        Err(e) => die(&format!("receive failed: {e}")),
                    }
                    break;
                }
            }
        }
        None => {
            // Local mode: an in-process scheduler behind the same protocol,
            // so scripts using the v2 session/batch verbs run unchanged.
            use tilespgemm::engine::protocol::Control;
            use tilespgemm::engine::{Engine, EngineConfig};
            use tilespgemm::serve::{SchedConfig, Scheduler, ServeSession};
            let scheduler = std::sync::Arc::new(Scheduler::new(
                std::sync::Arc::new(Engine::new(EngineConfig::default())),
                SchedConfig::default(),
            ));
            let session = ServeSession::new(scheduler);
            let mut out = stdout.lock();
            'script: for line in requests.lines() {
                let line = line.unwrap_or_else(|e| die(&format!("read error: {e}")));
                if line.trim().is_empty() {
                    continue;
                }
                loop {
                    let (resp, control) = session.handle_line(&line);
                    if let Some(delay) = backpressure_delay(&resp) {
                        eprintln!(
                            "tile_spgemm: backpressure — retrying in {} ms",
                            delay.as_millis()
                        );
                        std::thread::sleep(delay);
                        continue;
                    }
                    writeln!(out, "{resp}").unwrap_or_else(|e| die(&format!("write failed: {e}")));
                    if control == Control::Shutdown {
                        break 'script;
                    }
                    break;
                }
            }
        }
    }
    std::process::exit(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("client") {
        run_client(&argv[1..]);
    }
    let args = parse_args();
    let device = match args.device {
        0 => Device::rtx3090_sim(),
        1 => Device::rtx3060_sim(),
        other => die(&format!("unknown device {other}; use 0 (3090) or 1 (3060)")),
    };

    // Lines 1-3: input matrix information and load time.
    let load_start = Instant::now();
    let a: Csr<f64> = if args.input.ends_with(".mtx") {
        tilespgemm::matrix::io::read_matrix_market_file::<f64>(&args.input)
            .unwrap_or_else(|e| die(&format!("failed to read {}: {e}", args.input)))
            .to_csr()
    } else {
        tilespgemm::gen::suite::by_name(&args.input)
            .unwrap_or_else(|| die(&format!("unknown dataset entry {:?}", args.input)))
            .build()
    };
    let load_time = load_start.elapsed();
    println!("input matrix: {}", args.input);
    println!(
        "the number of rows, columns and nonzeros: {} x {}, nnz = {}",
        a.nrows,
        a.ncols,
        a.nnz()
    );
    println!("load time: {:.6} s", load_time.as_secs_f64());

    // Line 4: tile size.
    println!("tile size: {TILE_DIM} x {TILE_DIM}");

    let b = if args.aat { a.transpose() } else { a.clone() };

    // Line 5: flop count.
    let flops = a.spgemm_flops(&b);
    println!(
        "the number of floating point operations (C = {}): {flops}",
        if args.aat { "A*A^T" } else { "A^2" }
    );

    // Line 6: CSR -> tiled conversion time (Figure 12's quantity).
    let (ta, conv) = tilespgemm::core::timed_csr_to_tile(&a);
    let tb = if args.aat {
        TileMatrix::from_csr(&b)
    } else {
        ta.clone()
    };
    println!(
        "CSR -> tiled conversion time: {:.3} ms ({} tiles)",
        conv.conversion.as_secs_f64() * 1e3,
        conv.tiles
    );

    // Line 7: tiled structure space consumption (Figure 11's quantity).
    println!(
        "tiled data structure space: {:.3} MB (CSR: {:.3} MB)",
        ta.bytes() as f64 / 1e6,
        a.bytes() as f64 / 1e6
    );

    // Lines 8-14: the three steps and allocation time on the chosen device.
    let tracker = MemTracker::with_budget(device.mem_budget);
    let start = Instant::now();
    let result = run_on(&device, || {
        tilespgemm::core::multiply(&ta, &tb, &Config::default(), &tracker)
    });
    let total = start.elapsed();
    let out = match result {
        Ok(out) => out,
        Err(e) => die(&format!("TileSpGEMM failed on {}: {e}", device.name)),
    };
    let bd = out.breakdown;
    println!("device: {} ({} threads)", device.name, device.threads);
    println!(
        "step 1 (tile structure SpGEMM): {:.3} ms",
        bd.step1.as_secs_f64() * 1e3
    );
    println!(
        "step 2 (per-tile symbolic):     {:.3} ms",
        bd.step2.as_secs_f64() * 1e3
    );
    println!(
        "step 3 (per-tile numeric):      {:.3} ms",
        bd.step3.as_secs_f64() * 1e3
    );
    println!(
        "CPU & GPU memory allocation:    {:.3} ms",
        bd.alloc.as_secs_f64() * 1e3
    );
    println!(
        "peak tracked device memory:     {:.3} MB",
        out.peak_bytes as f64 / 1e6
    );

    // Lines 15-17: result structure and throughput.
    println!("the number of tiles of C: {}", out.c.tile_count());
    println!("the number of nonzeros of C: {}", out.c.nnz());
    println!(
        "TileSpGEMM runtime: {:.3} ms, performance: {:.3} GFlops",
        total.as_secs_f64() * 1e3,
        flops as f64 / total.as_secs_f64() / 1e9
    );

    // Line 18: correctness check (the artifact compares against cuSPARSE;
    // we compare against the serial gold reference).
    let want = reference_spgemm(&a, &b).drop_numeric_zeros();
    let got = out.c.to_csr().drop_numeric_zeros();
    if got.approx_eq_ignoring_zeros(&want, 1e-9) {
        println!("check passed! (matches the serial reference)");
    } else {
        println!("check FAILED");
        std::process::exit(1);
    }
}
