//! Service-level benchmark of the serving stack (`tsg-serve` over
//! `tsg-engine`): a mixed 20-job burst fired through a scheduler session
//! with two workers at an engine with a deliberately constrained device
//! budget.
//!
//! The burst is the same shape the engine-only bench used to shed most of:
//! under the scheduler nothing is dropped. It arrives faster than two
//! workers drain it, so the session queue fills and answers with
//! backpressure hints (the bench resubmits, as a client would). The big
//! `DxD` product — whose old constant-compression estimate overflowed the
//! budget and forced deferred-solo admission — is now admitted directly:
//! the sampled symbolic estimator measures its compression and its
//! band-upper bound fits. Deferred admission stays wired in as the
//! backstop but this burst never trips it. The headline is therefore
//! throughput (`jobs_per_s`) with every job completed and zero deferrals.
//!
//! Writes `BENCH_engine.json` at the workspace root: per-job queue wait,
//! execution wall time, per-step breakdown, cache hits/conversions, the
//! engine's final statistics (completed and failed jobs, cache hit rate,
//! evictions), the scheduler's statistics (jobs started, hints, deferrals,
//! queue high-water, per-session rows), the observability counter totals
//! (including the `est_err_*` estimator-accuracy buckets, one tick per
//! completed multiply — plain or masked — and the `est_sample_*` sampler
//! counters), and a representative per-job span tree (the engine runs
//! with `profile: true`).
//!
//! A second section exercises the op expressions on a fresh engine: a
//! `chain` request `A·B·C` and a `power` request `A^6`, served through a
//! scheduler session as the `expr` workload sends them, whose
//! intermediates stay resident tiled handles (zero conversions, zero CSR
//! derivations) against the v2-client round-trip baseline (materialize
//! each intermediate to CSR, re-register, reconvert), each timed in
//! [`EXPR_PAIRS`] back-to-back pairs that alternate which side runs first
//! and reported as the median of the per-pair speedups; and a masked
//! triangle count `A·A⟨A⟩` against the full product followed by a
//! client-side Hadamard.
//!
//! ```text
//! cargo run --release -p tsg-bench --bin engine_bench
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use tsg_bench::median;
use tsg_engine::json::{obj, parse, Value};
use tsg_engine::{Engine, EngineConfig, JobReport, JobSpec, MatrixId, OpSpec};
use tsg_gen::suite::GenSpec;
use tsg_runtime::{Breakdown, Device, SpanNode};
use tsg_serve::{SchedConfig, Scheduler, ServeSession, ServeTicket, Submission, SubmitSpec};

/// Outcome row for one submitted job.
struct JobRow {
    label: &'static str,
    outcome: String,
    queue_wait_ms: f64,
    exec_ms: f64,
    wall_ms: f64,
    cache_hits: u64,
    conversions: u64,
    peak_bytes: usize,
    est_bytes: usize,
    /// Admission-time nnz(C) prediction (sampled point estimate).
    est_nnz_c: usize,
    /// Sampled 95% band edges; equal to `est_nnz_c` when the sample was
    /// exact, `(0, 0)` when the job had no sampled estimate.
    est_nnz_lo: usize,
    est_nnz_hi: usize,
    /// Whether a sampled symbolic estimate backed the admission decision.
    sampled: bool,
    /// Actual structural output nnz, for predicted-vs-actual comparison.
    nnz_c: usize,
    breakdown: Breakdown,
}

fn row_to_json(r: &JobRow) -> Value {
    obj([
        ("job", r.label.into()),
        ("outcome", r.outcome.as_str().into()),
        ("queue_wait_ms", Value::Num(r.queue_wait_ms)),
        ("exec_ms", Value::Num(r.exec_ms)),
        ("wall_ms", Value::Num(r.wall_ms)),
        (
            "step1_ms",
            Value::Num(r.breakdown.step1.as_secs_f64() * 1e3),
        ),
        (
            "step2_ms",
            Value::Num(r.breakdown.step2.as_secs_f64() * 1e3),
        ),
        (
            "step3_ms",
            Value::Num(r.breakdown.step3.as_secs_f64() * 1e3),
        ),
        (
            "alloc_ms",
            Value::Num(r.breakdown.alloc.as_secs_f64() * 1e3),
        ),
        ("cache_hits", r.cache_hits.into()),
        ("conversions", r.conversions.into()),
        ("peak_bytes", r.peak_bytes.into()),
        ("est_bytes", r.est_bytes.into()),
        ("est_nnz_c", r.est_nnz_c.into()),
        ("est_nnz_lo", r.est_nnz_lo.into()),
        ("est_nnz_hi", r.est_nnz_hi.into()),
        ("sampled", Value::Bool(r.sampled)),
        ("nnz_c", r.nnz_c.into()),
    ])
}

/// Back-to-back pairs each served expression row is timed in against its
/// round trip.
const EXPR_PAIRS: usize = 9;

/// A served expression row: the `(served, round trip)` wall times of each
/// pair in ms, the last reply, and the CSR→tiled conversions and tiled→CSR
/// derivations the registry counted across every served run.
struct Served {
    pairs: Vec<(f64, f64)>,
    reply: Value,
    conversions: u64,
    derivations: u64,
}

impl Served {
    fn new() -> Self {
        Served {
            pairs: Vec::new(),
            reply: Value::Null,
            conversions: 0,
            derivations: 0,
        }
    }

    /// Sends `line` through `client` and returns its wall time in ms.
    fn send(&mut self, client: &ServeSession, line: &str) -> f64 {
        let registry = || client.scheduler().engine().stats().registry;
        let before = registry();
        let t0 = Instant::now();
        let (reply, _) = client.handle_line(line);
        let wall_ms = ms_since(t0);
        let after = registry();
        self.conversions += after.conversions - before.conversions;
        self.derivations += after.csr_derivations - before.csr_derivations;
        self.reply = parse(&reply).expect("replies are JSON");
        assert_eq!(
            self.reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line}: {reply}"
        );
        wall_ms
    }

    /// Times `line` against `roundtrip` in [`EXPR_PAIRS`] back-to-back
    /// pairs, alternating which side runs first, so a pair's two runs see
    /// the same host state.
    fn pair(&mut self, client: &ServeSession, line: &str, mut roundtrip: impl FnMut() -> f64) {
        for i in 0..EXPR_PAIRS {
            let pair = if i % 2 == 0 {
                let served = self.send(client, line);
                (served, roundtrip())
            } else {
                let rt = roundtrip();
                (self.send(client, line), rt)
            };
            self.pairs.push(pair);
        }
    }

    /// The median over the pairs of `f(served, round trip)`.
    fn median(&self, f: impl Fn(f64, f64) -> f64) -> f64 {
        let mut values: Vec<f64> = self.pairs.iter().map(|&(s, r)| f(s, r)).collect();
        median(&mut values)
    }

    /// The median of the per-pair round-trip / served ratios.
    fn speedup(&self) -> f64 {
        self.median(|served, rt| rt / served)
    }

    fn num(&self, key: &str) -> u64 {
        self.reply.get(key).and_then(Value::as_u64).expect(key)
    }

    fn intermediates(&self) -> u64 {
        let handles = self.reply.get("intermediates").and_then(Value::as_arr);
        handles.expect("intermediates").len() as u64
    }

    fn to_json(&self, workload: &str) -> Value {
        obj([
            ("workload", workload.into()),
            ("chain_ms", Value::Num(self.median(|served, _| served))),
            ("roundtrip_ms", Value::Num(self.median(|_, rt| rt))),
            ("speedup", Value::Num(self.speedup())),
            ("pairs", self.pairs.len().into()),
            ("links", self.num("links").into()),
            ("intermediates", self.intermediates().into()),
            ("link_conversions", self.conversions.into()),
            ("csr_derivations", self.derivations.into()),
            ("nnz_c", self.num("nnz_c").into()),
        ])
    }

    /// `links` links whose intermediates all came back as resident
    /// handles, with nothing converted or derived, faster than the round
    /// trip in the median pair.
    fn check(&self, what: &str, links: u64) {
        assert_eq!(self.num("links"), links, "{what}: links");
        assert_eq!(
            self.intermediates(),
            links - 1,
            "{what}: every non-final intermediate comes back as a handle"
        );
        assert_eq!(
            (self.conversions, self.derivations),
            (0, 0),
            "{what}: pre-warmed links convert nothing and never materialize \
             an intermediate CSR"
        );
        assert!(
            self.speedup() > 1.0,
            "{what}: handle-to-handle chaining beats the CSR round trip \
             (median pair speedup {:.2}x)",
            self.speedup()
        );
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `op` on `engine` alone, as an in-process client without a
/// scheduler does: under the engine's own estimate.
fn run_alone(engine: &Engine, op: &OpSpec) -> JobReport {
    let estimate = engine.estimate_op(op).expect("registered operands");
    engine.run(0, op, estimate).expect("the product runs")
}

fn spans_to_json(nodes: &[SpanNode]) -> Value {
    Value::Arr(
        nodes
            .iter()
            .map(|n| {
                obj([
                    ("name", n.name.into()),
                    ("ms", Value::Num(n.elapsed.as_secs_f64() * 1e3)),
                    ("children", spans_to_json(&n.children)),
                ])
            })
            .collect(),
    )
}

fn main() {
    // A 3060-class device with its budget squeezed to the point where the
    // old constant-compression estimate of the largest product overflowed
    // it (the deferred-admission case). The sampled estimator's band-upper
    // bound fits, so the same job now admits directly; two workers drain
    // the burst slower than it arrives, so the session queue fills and the
    // backpressure path fires.
    let mut device = Device::rtx3060_sim();
    device.mem_budget = 80 << 20;
    let cfg = EngineConfig {
        cache_bytes: 8 << 20,
        device,
        profile: true,
        sample_rate: tilespgemm_core::sample::DEFAULT_SAMPLE_RATE,
    };
    let sched = Scheduler::new(
        Arc::new(Engine::new(cfg)),
        SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        },
    );
    let engine = Arc::clone(sched.engine());
    let sid = sched
        .open_session("bench", 1.0, Some(8))
        .expect("fresh scheduler accepts sessions");

    // Operands: the FEM suite entry and a same-shaped scatter matrix mix
    // freely; the big grid stencil's square is the product the old
    // estimator priced at ~2.1x the budget — sampled, it fits.
    let fem = tsg_gen::suite::by_name("fem-00")
        .expect("fem-00 exists")
        .build();
    let n = fem.nrows;
    let (a, _) = engine.register(fem);
    let (b, _) = engine.register(
        GenSpec::Scatter {
            n,
            per_row: 4,
            seed: 11,
        }
        .build(),
    );
    let (d, _) = engine.register(
        GenSpec::Grid27 {
            nx: 32,
            ny: 32,
            nz: 32,
        }
        .build(),
    );
    for (name, id) in [("A(fem-00)", a), ("B(scatter-4)", b), ("D(grid27-32)", d)] {
        let e = engine.estimate(id, id).expect("registered");
        println!(
            "{name}: {id} — est {:.1} MiB for its square (budget {:.1} MiB)",
            e.est_bytes as f64 / (1 << 20) as f64,
            engine.device().mem_budget as f64 / (1 << 20) as f64,
        );
    }

    // The burst: 20 jobs pushed through the session back-to-back. A full
    // queue answers with a hint and the bench resubmits after the named
    // delay — exactly the client contract — so every job is eventually
    // admitted and nothing sheds.
    let workload: [(&'static str, MatrixId, MatrixId); 5] = [
        ("AxA", a, a),
        ("AxB", a, b),
        ("BxA", b, a),
        ("BxB", b, b),
        ("DxD", d, d),
    ];
    let mut tickets: Vec<(&'static str, ServeTicket)> = Vec::new();
    let mut hints = 0u64;
    let start = Instant::now();
    for round in 0..4 {
        for (label, x, y) in workload {
            let mut spec = SubmitSpec::new(x, y);
            spec.timeout = Some(Duration::from_secs(300)); // deadlock backstop
            loop {
                match sched
                    .submit(sid, vec![spec.clone()])
                    .expect("session stays open")
                {
                    Submission::Queued(mut t) => {
                        tickets.push((label, t.remove(0)));
                        break;
                    }
                    Submission::Backpressure(h) => {
                        hints += 1;
                        std::thread::sleep(h.retry_after.min(Duration::from_millis(25)));
                    }
                }
            }
        }
        println!(
            "round {round}: {} admitted, {hints} backpressure hints ridden",
            tickets.len()
        );
    }

    let mut rows: Vec<JobRow> = Vec::new();
    for (label, t) in &tickets {
        match t.wait() {
            Ok(done) => {
                let r = &done.report;
                let sample = r.estimate.sample;
                rows.push(JobRow {
                    label,
                    outcome: "completed".to_string(),
                    queue_wait_ms: done.queue_wait.as_secs_f64() * 1e3,
                    exec_ms: r.exec.as_secs_f64() * 1e3,
                    wall_ms: (done.queue_wait + r.exec).as_secs_f64() * 1e3,
                    cache_hits: u64::from(r.cache_hits),
                    conversions: u64::from(r.conversions),
                    peak_bytes: r.peak_bytes,
                    est_bytes: r.estimate.est_bytes,
                    est_nnz_c: r.estimate.est_nnz_c,
                    est_nnz_lo: sample.map_or(0, |s| s.nnz_lo),
                    est_nnz_hi: sample.map_or(0, |s| s.nnz_hi),
                    sampled: sample.is_some(),
                    nnz_c: r.nnz_c,
                    breakdown: r.breakdown,
                });
            }
            Err(e) => rows.push(JobRow {
                label,
                outcome: e.code().to_string(),
                queue_wait_ms: 0.0,
                exec_ms: 0.0,
                wall_ms: 0.0,
                cache_hits: 0,
                conversions: 0,
                peak_bytes: 0,
                est_bytes: 0,
                est_nnz_c: 0,
                est_nnz_lo: 0,
                est_nnz_hi: 0,
                sampled: false,
                nnz_c: 0,
                breakdown: Breakdown::default(),
            }),
        }
    }
    let wall = start.elapsed();

    let s = engine.stats();
    let serve = sched.stats();
    let metrics = engine.metrics();
    // Every completed job recorded a span tree whose "job" root nests the
    // three pipeline steps and the allocation phase.
    let collector = engine.collector().expect("engine profiles this burst");
    let recorded_jobs = collector.jobs();
    let sample_spans = recorded_jobs
        .iter()
        .map(|&j| collector.span_tree(j))
        .find(|tree| {
            tree.iter().any(|root| {
                root.name == "job"
                    && ["step1", "step2", "step3", "alloc"]
                        .iter()
                        .all(|p| root.child(p).is_some())
            })
        })
        .expect("at least one job has a full job -> step1/step2/step3/alloc tree");
    sched.shutdown(Duration::from_secs(30));

    // ---- Op-expression workloads ------------------------------------
    // A fresh engine (default budget, no profiler) so the registry
    // counters below measure only these jobs. Chains and powers are served
    // requests, run as the `expr` workload runs them: one scheduler session
    // lowers each into linked multiplies. Banded operands are the regime
    // chaining targets: multiplies are cheap relative to the fat
    // intermediates a round-tripping client keeps materializing.
    let expr = Arc::new(Engine::new(EngineConfig::default()));
    let client = ServeSession::new(Arc::new(Scheduler::new(
        Arc::clone(&expr),
        SchedConfig::default(),
    )));
    let n2 = 120_000;
    let band = |seed| GenSpec::Banded {
        n: n2,
        bandwidth: 8,
        per_row: 6,
        seed,
    };
    let fem2 = tsg_gen::suite::by_name("fem-00")
        .expect("fem-00 exists")
        .build();
    let adj = tsg_matrix::ops::symmetrize_pattern(&tsg_matrix::ops::remove_diagonal(&fem2))
        .map_values(|_| 1.0);
    let (xa, _) = expr.register(band(5).build());
    let (xb, _) = expr.register(band(9).build());
    let (xc, _) = expr.register(band(13).build());
    let (xm, _) = expr.register(adj.clone());
    for id in [xa, xb, xc, xm] {
        expr.convert(id).expect("pre-warm tiled operands");
    }

    // Served A·B·C (the intermediate held as a resident tiled handle — no
    // conversions, no CSR derivations) against the round-trip baseline a
    // v2 client had to run: materialize the intermediate to CSR,
    // re-register it, reconvert for the next hop, drop the throwaway
    // registration. Both share the registry and the buffer pool, so the
    // two paths run in back-to-back pairs and machine drift hits both
    // equally.
    let chain_line = |keep: &str| format!(r#"{{"op":"chain","ids":["{xa}","{xb}","{xc}"]{keep}}}"#);
    let mut chain = Served::new();
    let mut roundtrip = None;
    chain.pair(&client, &chain_line(""), || {
        let t0 = Instant::now();
        let ab = run_alone(&expr, &JobSpec::multiply(xa, xb).op);
        let (ab_id, _) = expr.register(ab.c.to_csr());
        let r = run_alone(&expr, &JobSpec::multiply(ab_id, xc).op);
        let wall_ms = ms_since(t0);
        roundtrip = Some(r);
        expr.unregister(ab_id).expect("intermediate was registered");
        wall_ms
    });
    let roundtrip = roundtrip.expect("paired round-trip runs");
    // One more chain, kept, whose product is checked against the round
    // trip's; its CSR is derived only after the timed runs.
    let mut kept = Served::new();
    kept.send(&client, &chain_line(r#","keep":true"#));
    let kept = kept
        .reply
        .get("c")
        .and_then(Value::as_str)
        .and_then(|c| c.parse().ok())
        .expect("a kept chain returns its handle");
    assert!(
        expr.csr(kept)
            .expect("kept chain product")
            .drop_numeric_zeros()
            .approx_eq_ignoring_zeros(&roundtrip.c.to_csr().drop_numeric_zeros(), 1e-9),
        "served and round-tripped products agree"
    );

    // A^6 as one served power (five links, four resident intermediates)
    // against the v2 client's repeated square-and-re-register loop. The
    // longer the chain, the more materializations the expression saves.
    const POWER_K: u64 = 6;
    let mut power = Served::new();
    let power_line = format!(r#"{{"op":"power","a":"{xa}","k":{POWER_K}}}"#);
    power.pair(&client, &power_line, || {
        let t0 = Instant::now();
        let mut cur = xa;
        let mut throwaway = Vec::new();
        for _ in 0..POWER_K - 1 {
            let hop = run_alone(&expr, &JobSpec::multiply(cur, xa).op);
            let (id, _) = expr.register(hop.c.to_csr());
            throwaway.push(id);
            cur = id;
        }
        let wall_ms = ms_since(t0);
        for id in throwaway {
            let _ = expr.unregister(id);
        }
        wall_ms
    });

    // Masked triangle count A·A⟨A⟩ vs the full product plus a client-side
    // Hadamard with the adjacency pattern. Best of 3 each.
    let mut masked_ms = f64::MAX;
    let mut masked = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run_alone(&expr, &JobSpec::multiply(xm, xm).mask(xm).op);
        masked_ms = masked_ms.min(ms_since(t0));
        masked = Some(r);
    }
    let masked = masked.expect("three masked runs");
    let mut full_ms = f64::MAX;
    let mut full_nnz = 0usize;
    let mut triangles_baseline = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run_alone(&expr, &JobSpec::multiply(xm, xm).op);
        let had = tsg_matrix::ops::hadamard(&r.c.to_csr(), &adj);
        full_ms = full_ms.min(ms_since(t0));
        full_nnz = r.nnz_c;
        triangles_baseline = tsg_matrix::ops::sum_all(&had) / 6.0;
    }
    let triangles = tsg_matrix::ops::sum_all(&masked.c.to_csr()) / 6.0;
    client.scheduler().shutdown(Duration::from_secs(30));
    println!(
        "chained A*B*C: {:.2}ms served vs {:.2}ms round-trip ({:.2}x); \
         A^{POWER_K}: {:.2}ms vs {:.2}ms ({:.2}x) (medians of {EXPR_PAIRS} pairs); \
         triangles {triangles:.0}: masked {masked_ms:.2}ms vs full+hadamard {full_ms:.2}ms",
        chain.median(|served, _| served),
        chain.median(|_, rt| rt),
        chain.speedup(),
        power.median(|served, _| served),
        power.median(|_, rt| rt),
        power.speedup(),
    );

    let lookups = s.registry.cache_hits + s.registry.cache_misses;
    let hit_rate = if lookups > 0 {
        s.registry.cache_hits as f64 / lookups as f64
    } else {
        0.0
    };
    let completed = rows.iter().filter(|r| r.outcome == "completed").count();
    let jobs_per_s = completed as f64 / wall.as_secs_f64();
    let est_err_total: u64 = metrics
        .iter()
        .filter(|(_, name, _)| name.starts_with("est_err_"))
        .map(|(_, _, total)| total)
        .sum();
    println!(
        "{} jobs in {:.2}s: {completed} completed ({jobs_per_s:.2} jobs/s), \
         {hints} hints, {} deferred; cache hit rate {:.2}",
        rows.len(),
        wall.as_secs_f64(),
        serve.deferred,
        hit_rate
    );

    let report = obj([
        (
            "config",
            obj([
                ("device", engine.device().name.as_str().into()),
                ("budget_bytes", engine.device().mem_budget.into()),
                ("cache_bytes", (8usize << 20).into()),
                ("workers", 2u64.into()),
                ("session_depth", 8u64.into()),
                ("jobs_submitted", 20u64.into()),
            ]),
        ),
        ("jobs_per_s", Value::Num(jobs_per_s)),
        ("wall_s", Value::Num(wall.as_secs_f64())),
        ("jobs", Value::Arr(rows.iter().map(row_to_json).collect())),
        (
            "stats",
            obj([
                ("completed", s.completed.into()),
                ("failed", s.failed.into()),
                (
                    "exec_ms_total",
                    Value::Num(s.exec_total.as_secs_f64() * 1e3),
                ),
                ("conversions", s.registry.conversions.into()),
                ("cache_hits", s.registry.cache_hits.into()),
                ("cache_misses", s.registry.cache_misses.into()),
                ("cache_hit_rate", Value::Num(hit_rate)),
                ("evictions", s.registry.evictions.into()),
            ]),
        ),
        ("serve", tsg_serve::wire::serve_stats_json(&serve)),
        ("chained", chain.to_json("banded-8x6(120k): A * B * C")),
        ("power", power.to_json("banded-8x6(120k): A^6")),
        (
            "triangle",
            obj([
                ("workload", "adj(fem-00): count = sum(A*A<A>)/6".into()),
                ("masked_ms", Value::Num(masked_ms)),
                ("full_hadamard_ms", Value::Num(full_ms)),
                ("speedup", Value::Num(full_ms / masked_ms)),
                ("triangles", Value::Num(triangles)),
                ("masked_nnz", masked.nnz_c.into()),
                ("full_nnz", full_nnz.into()),
            ]),
        ),
        (
            "counters",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(_, name, total)| (name.to_string(), total.into()))
                    .collect(),
            ),
        ),
        ("sample_spans", spans_to_json(&sample_spans)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, format!("{report}\n")).expect("write BENCH_engine.json");
    println!("wrote {path}");

    assert_eq!(rows.len(), 20, "every submission is accounted for");
    assert_eq!(
        completed, 20,
        "reservation-gated admission completes the whole burst the engine \
         used to shed"
    );
    assert_eq!(
        serve.dispatched, s.completed,
        "every job the scheduler started completed"
    );
    assert!(
        serve.sessions.iter().all(|row| row.failed == 0),
        "no session has a failed job"
    );
    assert!(
        hints > 0,
        "the burst outruns two workers and rides backpressure hints"
    );
    assert_eq!(
        serve.deferred, 0,
        "the sampled estimate admits the DxD product directly; deferred \
         admission stays an unused backstop in this burst"
    );
    assert!(
        rows.iter()
            .filter(|r| r.label == "DxD")
            .all(|r| r.outcome == "completed"),
        "every DxD-class job completes under the squeezed budget without \
         the deferred-solo fallback"
    );
    for r in rows.iter().filter(|r| r.outcome == "completed") {
        assert!(
            r.sampled,
            "completed multiply {} carries a sampled estimate",
            r.label
        );
        assert!(
            r.est_nnz_c <= r.nnz_c.saturating_mul(4).max(64)
                && r.est_nnz_c.saturating_mul(4).max(64) >= r.nnz_c,
            "{}: sampled prediction {} vs actual {} outside the 4x sanity band",
            r.label,
            r.est_nnz_c,
            r.nnz_c
        );
    }
    assert_eq!(
        est_err_total, s.completed,
        "every completed job ticks exactly one estimator-error bucket"
    );
    assert_eq!(
        s.device_bytes_in_use, 0,
        "device tracker drained back to zero"
    );
    assert!(
        metrics.get(tsg_runtime::Counter::TilesVisited) > 0,
        "the burst visited tiles"
    );
    assert!(
        metrics.get(tsg_runtime::Counter::BytesAlloc)
            >= metrics.get(tsg_runtime::Counter::BytesFreed),
        "alloc bytes dominate freed bytes"
    );
    chain.check("A*B*C", 2);
    power.check("A^6", POWER_K - 1);
    assert!(
        (triangles - triangles_baseline).abs() <= 1e-6 * triangles.abs().max(1.0),
        "masked and full-then-Hadamard triangle counts agree \
         ({triangles} vs {triangles_baseline})"
    );
    assert!(
        masked.nnz_c <= full_nnz,
        "the structural mask prunes the product pattern"
    );
}
