//! `tsg-benchmark` — the socket-to-socket serving benchmark.
//!
//! Spawns the real `tsg-serve --tcp` binary and drives it from one process
//! with two closed-loop client threads on two connections, over one of four
//! workloads generated from a seed. Every reply is checked against results
//! computed in-process before the server starts; any wrong or refused reply
//! makes the command exit non-zero.
//!
//! ```text
//! tsg-benchmark [run|trace] [--workload NAME|all] [--seed N] [--seconds S]
//!               [--trace 0|1] [--runs N] [--scale full|tiny] [--server PATH]
//! ```
//!
//! `run` (the default) measures the end-to-end metrics with tracing off;
//! `trace` (or `--trace 1`) measures the per-layer metrics and writes a
//! request ledger under `out/`. One workload and one run print one result
//! object as the last line of standard output; `--workload all` or
//! `--runs N` (seeds `N` consecutive from `--seed`) print a summary with
//! each metric's median, quartiles and extremes instead. See README.md.

mod drive;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use tsg_engine::json::{obj, Value};

use drive::{drive, DriveConfig};
use stats::{median, quantile};
use workload::{Scale, Workload};

/// Server start-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Opts {
    traced: bool,
    workloads: Vec<Workload>,
    seed: u64,
    runs: u64,
    scale: Scale,
    server: PathBuf,
    window: Duration,
    warmup: Duration,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    /// Client requests sent (warm-up and window).
    pub attempted: usize,
    /// Client requests refused or answered wrongly.
    pub failed: usize,
    /// Every failure, the known-defect bounds included.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj([("value", m.value.into()), ("unit", m.unit.into())]);
                (m.name.to_string(), v)
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tsg-benchmark: {msg}");
            eprintln!(
                "usage: tsg-benchmark [run|trace] [--workload NAME|all] [--seed N] \
                 [--seconds S] [--trace 0|1] [--runs N] [--scale full|tiny] [--server PATH]"
            );
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        for seed in opts.seed..opts.seed.saturating_add(opts.runs) {
            match run_once(&opts, workload, seed) {
                Ok(outcome) => {
                    for p in outcome.problems.iter().take(10) {
                        eprintln!("tsg-benchmark: {} seed {seed}: {p}", workload.name());
                    }
                    results.push((workload, seed, outcome));
                }
                Err(e) => {
                    eprintln!("tsg-benchmark: {} seed {seed}: {e}", workload.name());
                    return ExitCode::from(2);
                }
            }
        }
    }
    let correct = results.iter().all(|(_, _, o)| o.correct());
    if let [(_, _, only)] = results.as_slice() {
        println!("{}", only.to_json());
    } else {
        for (w, seed, o) in &results {
            eprintln!("tsg-benchmark: {} seed {seed}: {}", w.name(), o.to_json());
        }
        println!("{}", summary(&opts, &results));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_once(opts: &Opts, workload: Workload, seed: u64) -> Result<Outcome, String> {
    let t = Instant::now();
    let plan = workload.plan(seed, opts.scale);
    eprintln!(
        "tsg-benchmark: {} seed {seed}: {} matrices and expected results in {:.2} s",
        workload.name(),
        plan.matrices.len(),
        t.elapsed().as_secs_f64()
    );
    if opts.traced {
        return trace::run(opts, workload, seed, &plan);
    }
    let d = drive(
        &opts.server,
        workload,
        &plan,
        &DriveConfig {
            traced: false,
            setups: SETUPS,
            warmup: opts.warmup,
            window: opts.window,
            rtt_probes: 0,
        },
    )?;
    let walls = d.window_walls();
    eprintln!(
        "tsg-benchmark: {} seed {seed}: {} requests in the window, tracker residual {} B",
        workload.name(),
        walls.len(),
        drive::stat(&d.after, "device_bytes_in_use"),
    );
    Ok(Outcome {
        attempted: d.samples.len(),
        failed: d.samples.iter().filter(|s| s.error.is_some()).count(),
        problems: d.failures(),
        metrics: vec![
            Metric {
                name: "throughput_rps",
                unit: "req/s",
                value: d.throughput_rps(),
            },
            Metric {
                name: "latency_p50_ms",
                unit: "ms",
                value: quantile(&walls, 0.5),
            },
            Metric {
                name: "latency_p90_ms",
                unit: "ms",
                value: quantile(&walls, 0.9),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&d.setup_s),
            },
            Metric {
                name: "rss_peak_mib",
                unit: "MiB",
                value: d.rss_mib,
            },
        ],
    })
}

/// Median, quartiles and extremes of every metric per workload, with the
/// machine and build they were measured on.
fn summary(opts: &Opts, results: &[(Workload, u64, Outcome)]) -> Value {
    let workloads = opts
        .workloads
        .iter()
        .map(|&w| {
            let runs: Vec<&(Workload, u64, Outcome)> =
                results.iter().filter(|(rw, _, _)| *rw == w).collect();
            let metrics = runs[0]
                .2
                .metrics
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let values: Vec<f64> =
                        runs.iter().map(|(_, _, o)| o.metrics[i].value).collect();
                    let summary = obj([
                        ("unit", m.unit.into()),
                        ("median", median(&values).into()),
                        ("q1", quantile(&values, 0.25).into()),
                        ("q3", quantile(&values, 0.75).into()),
                        ("min", quantile(&values, 0.0).into()),
                        ("max", quantile(&values, 1.0).into()),
                        (
                            "values",
                            Value::Arr(values.into_iter().map(Value::from).collect()),
                        ),
                    ]);
                    (m.name.to_string(), summary)
                })
                .collect();
            let total = |f: fn(&Outcome) -> usize| runs.iter().map(|(_, _, o)| f(o)).sum::<usize>();
            let row = obj([
                (
                    "seeds",
                    Value::Arr(runs.iter().map(|(_, s, _)| Value::from(*s)).collect()),
                ),
                ("attempted", total(|o| o.attempted).into()),
                ("failed", total(|o| o.failed).into()),
                ("metrics", Value::Obj(metrics)),
            ]);
            (w.name().to_string(), row)
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    obj([
        ("mode", (if opts.traced { "trace" } else { "run" }).into()),
        ("seconds", opts.window.as_secs_f64().into()),
        ("nproc", nproc.into()),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        (
            "correct",
            results.iter().all(|(_, _, o)| o.correct()).into(),
        ),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// First line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut traced = false;
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = 1;
    let mut runs = 1;
    let mut seconds = 25.0;
    let mut scale = Scale::Full;
    let mut server = None;
    let mut args = args.into_iter().peekable();
    match args.peek().map(String::as_str) {
        Some("run") => {
            args.next();
        }
        Some("trace") => {
            args.next();
            traced = true;
        }
        _ => {}
    }
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants an integer"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => seed = number()?,
            "--runs" => runs = number()?.max(1),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => traced = number()? != 0,
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale is full or tiny".into()),
                }
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let server = match server {
        Some(path) => path,
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate tsg-serve: {e}"))?
            .with_file_name(format!("tsg-serve{}", std::env::consts::EXE_SUFFIX)),
    };
    let warmup = match scale {
        Scale::Full => 2.0,
        Scale::Tiny => 0.2,
    };
    Ok(Opts {
        traced,
        workloads,
        seed,
        runs,
        scale,
        server,
        window: Duration::from_secs_f64(seconds),
        warmup: Duration::from_secs_f64(warmup),
    })
}
