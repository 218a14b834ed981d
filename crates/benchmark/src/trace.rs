//! The traced run: per-layer metrics and the request ledger.
//!
//! A traced run drives the workload twice for half the window each — once
//! against a plain server, once against `--profile` — so the difference in
//! throughput is the tracing overhead. Layer times come from three places:
//! the profiled replies (queue wait, exec, step slices, `resolve` spans),
//! `stats` counters, and timed in-process calls into the layers' public
//! functions on the workload's own inputs (wire decode and encode,
//! admission estimate, registry insert, conversion, materialize).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use tsg_engine::json::{obj, parse, Value};
use tsg_engine::{Engine, EngineConfig, Registry};
use tsg_matrix::{Csr, TileMatrix};

use crate::drive::{drive, stat, Drive, DriveConfig};
use crate::stats::{median, ratio};
use crate::workload::{Kind, Plan, Workload};
use crate::{Metric, Opts};

/// `hello` round trips timed after the traced window.
const RTT_PROBES: usize = 50;
/// Load frames decoded in-process (the largest workload has 16).
const DECODE_FRAMES: usize = 6;

/// Runs the traced measurement and writes the ledger.
pub fn run(
    opts: &Opts,
    workload: Workload,
    seed: u64,
    plan: &Plan,
) -> Result<crate::Outcome, String> {
    let half = opts.window / 2;
    let plain = drive(
        &opts.server,
        workload,
        plan,
        &DriveConfig {
            traced: false,
            setups: 1,
            warmup: opts.warmup,
            window: half,
            rtt_probes: 0,
        },
    )?;
    let traced = drive(
        &opts.server,
        workload,
        plan,
        &DriveConfig {
            traced: true,
            setups: 1,
            warmup: opts.warmup,
            window: half,
            rtt_probes: RTT_PROBES,
        },
    )?;
    let replies: Vec<Option<Value>> = traced
        .samples
        .iter()
        .map(|s| s.reply.as_deref().and_then(|r| parse(r).ok()))
        .collect();
    let probes = Probes::measure(plan, &replies);
    let metrics = layer_metrics(&plain, &traced, &replies, &probes);
    let path = write_ledger(workload, seed, &traced, &replies, &metrics)?;
    eprintln!("tsg-benchmark: wrote {}", path.display());

    let samples = plain.samples.iter().chain(&traced.samples);
    Ok(crate::Outcome {
        attempted: samples.clone().count(),
        failed: samples.filter(|s| s.error.is_some()).count(),
        problems: plain
            .failures()
            .into_iter()
            .chain(traced.failures())
            .collect(),
        metrics,
    })
}

/// Timings of in-process calls into the layers, on the workload's inputs.
struct Probes {
    decode_ms_per_mib: f64,
    encode_us_p50: f64,
    estimate_ms_p50: f64,
    insert_ms_p50: f64,
    convert_ms_per_mnnz: f64,
    materialize_ms_p50: f64,
}

impl Probes {
    fn measure(plan: &Plan, replies: &[Option<Value>]) -> Probes {
        let mut frames: Vec<&str> = Vec::new();
        for r in plan.setup.iter().chain(plan.clients.iter().flatten()) {
            if r.kind == Kind::Load && frames.len() < DECODE_FRAMES && !frames.contains(&&*r.line) {
                frames.push(&r.line);
            }
        }
        let (mut decode_ms, mut decode_mib) = (0.0, 0.0);
        for frame in frames {
            decode_ms += time_ms(|| black_box(parse(frame.trim_end())).is_ok());
            decode_mib += frame.len() as f64 / (1 << 20) as f64;
        }

        let encode_us: Vec<f64> = replies
            .iter()
            .flatten()
            .map(|v| time_ms(|| black_box(v.to_string())) * 1e3)
            .collect();

        let engine = Engine::new(EngineConfig::default());
        for m in &plan.matrices {
            engine.register(Csr::clone(m));
        }
        let mut ops = Vec::new();
        for op in plan.clients.iter().flatten().filter_map(|r| r.op.as_ref()) {
            if !ops.contains(&op) {
                ops.push(op);
            }
        }
        let estimate_ms: Vec<f64> = ops
            .iter()
            .map(|op| time_ms(|| black_box(engine.estimate_op(op)).is_ok()))
            .collect();
        drop(engine);

        let insert_ms: Vec<f64> = plan
            .matrices
            .iter()
            .map(|m| {
                let mut registry = Registry::new(0);
                let copy = Csr::clone(m);
                time_ms(|| black_box(registry.insert(copy)))
            })
            .collect();
        let (mut convert_ms, mut nnz) = (0.0, 0.0);
        for m in &plan.matrices {
            convert_ms += time_ms(|| black_box(TileMatrix::from_csr(m)));
            nnz += m.nnz() as f64;
        }
        let materialize_ms: Vec<f64> = plan
            .products
            .iter()
            .map(|c| {
                let mut registry = Registry::new(0);
                time_ms(|| black_box(registry.insert(c.to_csr())))
            })
            .collect();

        Probes {
            decode_ms_per_mib: ratio(decode_ms, decode_mib),
            encode_us_p50: median(&encode_us),
            estimate_ms_p50: median(&estimate_ms),
            insert_ms_p50: median(&insert_ms),
            convert_ms_per_mnnz: ratio(convert_ms, nnz / 1e6),
            materialize_ms_p50: median(&materialize_ms),
        }
    }
}

fn time_ms<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Reply timing fields of one job request.
struct Timing {
    wall: f64,
    queue_wait: f64,
    exec: f64,
    steps: [f64; 4],
    resolve: f64,
    keep: bool,
    mib: f64,
    single: bool,
}

impl Timing {
    fn overhead(&self) -> f64 {
        self.wall - self.queue_wait - self.exec
    }
}

/// Total milliseconds of every span named `name` in a span forest.
fn span_ms(nodes: &[Value], name: &str) -> f64 {
    nodes
        .iter()
        .map(|n| {
            let own = if n.get("name").and_then(Value::as_str) == Some(name) {
                n.get("ms").and_then(Value::as_f64).unwrap_or(0.0)
            } else {
                0.0
            };
            own + span_ms(
                n.get("children").and_then(Value::as_arr).unwrap_or(&[]),
                name,
            )
        })
        .sum()
}

fn layer_metrics(
    plain: &Drive,
    traced: &Drive,
    replies: &[Option<Value>],
    p: &Probes,
) -> Vec<Metric> {
    let timings: Vec<Timing> = traced
        .samples
        .iter()
        .zip(replies)
        .filter(|(s, _)| s.kind.is_job() && s.sent_s >= traced.window_start_s)
        .filter_map(|(s, r)| {
            let r = r.as_ref()?;
            let f = |key: &str| r.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            Some(Timing {
                wall: s.wall_ms,
                queue_wait: f("queue_wait_ms"),
                exec: f("exec_ms"),
                steps: [f("step1_ms"), f("step2_ms"), f("step3_ms"), f("alloc_ms")],
                resolve: span_ms(
                    r.get("spans").and_then(Value::as_arr).unwrap_or(&[]),
                    "resolve",
                ),
                keep: s.keep,
                mib: s.bytes as f64 / (1 << 20) as f64,
                single: s.kind.is_single_job(),
            })
        })
        .collect();
    let p50 = |f: &dyn Fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let single: Vec<&Timing> = timings.iter().filter(|t| t.single).collect();

    let rtt = median(&traced.rtt_ms);
    let overhead = median(&single.iter().map(|t| t.overhead()).collect::<Vec<_>>());
    let unexplained: Vec<f64> = single
        .iter()
        .map(|t| {
            let materialize = if t.keep { p.materialize_ms_p50 } else { 0.0 };
            t.overhead()
                - (rtt
                    + p.estimate_ms_p50
                    + p.decode_ms_per_mib * t.mib
                    + p.encode_us_p50 / 1e3
                    + materialize)
        })
        .collect();
    let exec_total: f64 = single.iter().map(|t| t.exec).sum();
    let attributed: f64 = single
        .iter()
        .map(|t| t.resolve + t.steps.iter().sum::<f64>())
        .sum();

    let jobs_sent = traced.samples.iter().filter(|s| s.kind.is_job()).count() as f64;
    let completed = traced.delta("completed");
    let per_job = |name: &str| ratio(traced.counter_delta(name), completed);
    // Writes happen in the window on churn only; every workload's set-up
    // loads its operands.
    let writes: Vec<f64> = traced
        .setup_walls
        .iter()
        .filter(|(kind, _)| matches!(kind, Kind::Load | Kind::Unload))
        .map(|(_, ms)| *ms)
        .chain(
            traced
                .samples
                .iter()
                .filter(|s| matches!(s.kind, Kind::Load | Kind::Unload))
                .map(|s| s.wall_ms),
        )
        .collect();
    let (hits, misses) = (traced.delta("cache_hits"), traced.delta("cache_misses"));
    let step_sum: f64 = timings.iter().map(|t| t.steps.iter().sum::<f64>()).sum();
    let wall_sum: f64 = timings.iter().map(|t| t.wall).sum();
    let plain_rps = plain.throughput_rps();

    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("transport.rtt_ms_p50", "ms", rtt),
        m("serve.overhead_ms_p50", "ms", overhead),
        m(
            "scheduler.wait_ms_mean",
            "ms",
            traced
                .after
                .get("serve")
                .map_or(0.0, |s| stat(s, "wait_ms_mean")),
        ),
        m("wire.decode_ms_per_mib", "ms/MiB", p.decode_ms_per_mib),
        m("wire.encode_us_p50", "us", p.encode_us_p50),
        m("estimate.ms_p50", "ms", p.estimate_ms_p50),
        m("engine.queue_wait_ms_p50", "ms", p50(&|t| t.queue_wait)),
        m("engine.exec_ms_p50", "ms", p50(&|t| t.exec)),
        m(
            "registry.conversions_per_req",
            "count/req",
            ratio(traced.delta("conversions"), jobs_sent),
        ),
        m(
            "registry.cache_hit_rate",
            "ratio",
            ratio(hits, hits + misses),
        ),
        m("registry.evictions", "count", traced.delta("evictions")),
        m(
            "registry.resident_bytes",
            "B",
            stat(&traced.after, "resident_bytes"),
        ),
        m("registry.write_ms_p50", "ms", median(&writes)),
        m("registry.insert_ms_p50", "ms", p.insert_ms_p50),
        m(
            "registry.convert_ms_per_mnnz",
            "ms/Mnnz",
            p.convert_ms_per_mnnz,
        ),
        m("registry.resolve_ms_p50", "ms", p50(&|t| t.resolve)),
        m("pipeline.step1_ms_p50", "ms", p50(&|t| t.steps[0])),
        m("pipeline.step2_ms_p50", "ms", p50(&|t| t.steps[1])),
        m("pipeline.step3_ms_p50", "ms", p50(&|t| t.steps[2])),
        m("pipeline.alloc_ms_p50", "ms", p50(&|t| t.steps[3])),
        m("pipeline.step_share", "ratio", ratio(step_sum, wall_sum)),
        m(
            "pipeline.tiles_visited",
            "count/job",
            per_job("tiles_visited"),
        ),
        m(
            "pipeline.matched_pairs",
            "count/job",
            per_job("matched_pairs"),
        ),
        m("pipeline.bytes_alloc_per_job", "B", per_job("bytes_alloc")),
        m("materialize.ms_p50", "ms", p.materialize_ms_p50),
        m(
            "tracker.residual_bytes",
            "B",
            stat(&traced.after, "device_bytes_in_use"),
        ),
        m(
            "tracker.arena_high_water_bytes",
            "B",
            stat(&traced.after, "arena_high_water"),
        ),
        m(
            "ledger.exec_unattributed_share",
            "ratio",
            ratio(exec_total - attributed, exec_total),
        ),
        m(
            "ledger.serve_unexplained_ms_p50",
            "ms",
            median(&unexplained),
        ),
        m(
            "trace.overhead_pct",
            "%",
            ratio(plain_rps - traced.throughput_rps(), plain_rps) * 100.0,
        ),
    ]
}

/// Writes `out/trace-<workload>-<seed>.jsonl` under the benchmark package:
/// one line per traced request — client connection and sequence number,
/// the reply's job id, send and receive times, and the whole reply (timing
/// fields and span tree) — then one line of metrics.
fn write_ledger(
    workload: Workload,
    seed: u64,
    traced: &Drive,
    replies: &[Option<Value>],
    metrics: &[Metric],
) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    let mut out = String::new();
    for (s, reply) in traced.samples.iter().zip(replies) {
        let line = obj([
            ("conn", s.client.into()),
            ("seq", s.seq.into()),
            (
                "job",
                reply
                    .as_ref()
                    .and_then(|r| r.get("job"))
                    .cloned()
                    .unwrap_or(Value::Null),
            ),
            ("kind", s.kind.name().into()),
            ("window", (s.sent_s >= traced.window_start_s).into()),
            ("send_ms", (s.sent_s * 1e3).into()),
            ("recv_ms", (s.sent_s * 1e3 + s.wall_ms).into()),
            ("wall_ms", s.wall_ms.into()),
            ("bytes", s.bytes.into()),
            ("reply", reply.clone().unwrap_or(Value::Null)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    let serve = traced.after.get("serve").cloned().unwrap_or(Value::Null);
    let summary = obj([
        ("workload", workload.name().into()),
        ("seed", seed.into()),
        ("scheduler", serve),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.value.into()))
                    .collect(),
            ),
        ),
    ]);
    out.push_str(&summary.to_string());
    out.push('\n');
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
