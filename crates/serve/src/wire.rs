//! The JSON-lines request handler: one request object per line in, one
//! reply object per line out.
//!
//! Every reply is an object with an `"ok"` boolean and the protocol version
//! `"v"` ([`PROTOCOL_VERSION`]). A request may carry `"v"` too; any value
//! other than [`PROTOCOL_VERSION`] is refused with the stable
//! `protocol_mismatch` code, whatever the verb, so a client fails fast by
//! opening with `{"op":"hello","v":3}`. Errors carry a stable `code`, a
//! human `message`, and the `std::error::Error::source` chain as a `cause`
//! array — no debug-formatted strings on the wire.
//!
//! | request | reply |
//! |---|---|
//! | `{"op":"hello","v":3}` | `{"ok":true,"v":3,"server":"tsg-serve","profile":false}` |
//! | `{"op":"load","gen":"fem-00"}` | `{"ok":true,"id":"m…","rows":..,"cols":..,"nnz":..,"dedup":false}` |
//! | `{"op":"load","path":"x.mtx"}` | as above |
//! | `{"op":"load","rows":2,"cols":2,"triplets":[[0,0,1.0],[1,1,2.0]]}` | as above |
//! | `{"op":"convert","id":"m…"}` | `{"ok":true,"id":"m…","tiles":..,"tiled_bytes":..,"cache_hit":false}` |
//! | `{"op":"estimate","a":"m…","b":"m…"[,"mask":"m…"]}` | `{"ok":true,"flops":..,"est_nnz_c":..,"est_bytes":..}`, plus the sampled band when sampled |
//! | `{"op":"estimate","ids":["m…","m…","m…"]}` | the same for a chain |
//! | `{"op":"open_session","name":"etl","weight":2,"depth":4}` | `{"ok":true,"session":1,"weight":2,"depth":4}`: the weight and depth applied (a depth is capped at the server's `--session-depth`, a weight that is not finite and positive becomes 1) |
//! | `{"op":"multiply","a":"m…","b":"m…"[,"keep":true]}` | `{"ok":true,"job":4294967296,"nnz_c":..,"queue_wait_ms":..,"exec_ms":..,"step1_ms":..,…}`, plus `"c":"m…"` when kept |
//! | `{"op":"multiply",…,"mask":"m…"}` | the masked product `(A·B) ∘ mask`, mask pushed into step 2 |
//! | `{"op":"multiply",…}` (queue full) | `{"ok":false,"error":{"code":"backpressure",…},"retry_after_ms":N,"queue_position":P}` |
//! | `{"op":"multiply",…,"async":true}` | `{"ok":true,"job":4294967296,"queued":true}`, collected by `wait` |
//! | `{"op":"add","a":"m…","b":"m…","alpha":1,"beta":-1}` | multiply-shaped reply for `alpha·A + beta·B`; a `"mask"` is refused with `bad_request` |
//! | `{"op":"multiply_many","jobs":[{"a":"m…","b":"m…","keep":true},{"a":"$0","b":"$0"}]}` | `{"ok":true,"results":[…]}` |
//! | `{"op":"multiply_many",…,"async":true}` | `{"ok":true,"jobs":[…],"queued":true}` |
//! | `{"op":"chain","ids":["m…","m…","m…"]}` | the final link's reply plus `"links"` and `"intermediates":["m…"]` |
//! | `{"op":"power","a":"m…","k":3}` | as `chain` with `k` copies of `a` |
//! | `{"op":"wait","job":N}` | the job's reply |
//! | `{"op":"cancel","job":N}` | `{"ok":true,"job":N,"canceled":true}` when the job was still queued (it then completes as `canceled`); a job already running runs to completion and the answer is `false` |
//! | `{"op":"stats"}` | `{"ok":true,"completed":..,"cache_hit_rate":..,"counters":{…},…,"serve":{…}}`; `serve` and its per-session rows carry the job queue's figures |
//! | `{"op":"profile"}` | `{"ok":true,"profile":true,"counters":{…},"jobs":[{"job":4294967296,"spans":[…]}]}`, one entry per job under its reply's `job` id |
//! | `{"op":"evict"}` / `{"op":"evict","id":"m…"}` | `{"ok":true,"evicted":n}` |
//! | `{"op":"unload","id":"m…"}` | `{"ok":true,"id":"m…","unloaded":true}` — later references are `unknown_matrix` |
//! | `{"op":"shutdown"}` | `{"ok":true,"bye":true}`; the transport drains |
//!
//! Requests longer than [`MAX_FRAME_BYTES`] are refused with the stable
//! `frame_too_large` code without being parsed; the session keeps serving.
//!
//! Every job verb (`multiply`, `add`, `multiply_many`, `chain`, `power`)
//! runs through the [`Scheduler`]: weighted-fair dispatch, reservation
//! admission, deferral, and backpressure instead of shedding — a full
//! session queue holds the submission briefly and then answers with the
//! structured `backpressure` hint above; the client resubmits, nothing is
//! dropped. Job ids are the scheduler's (≥ [`SERVE_JOB_BASE`](crate::SERVE_JOB_BASE)), and `wait`
//! and `cancel` accept only the ids of this session's own `"async"` jobs.
//! A reply's `queue_wait_ms` is the job's time from enqueue to the start
//! of its run. Job verbs take an optional `"timeout_ms"`: a job still
//! queued that long after it was enqueued completes as `timed_out` without
//! running. `"keep":true` registers the product: handles are content
//! hashes, so equal `"c"` values prove bitwise-identical products. With
//! `"materialize":false` a kept product registers from its tiled form (a
//! resident handle whose CSR is derived only if a later consumer needs
//! it); `multiply` defaults to `true`, `add`/`chain`/`power` to `false`.
//!
//! `multiply_many` entries may name an earlier entry's product as `"$k"`
//! (zero-based, strictly backwards); referenced products are registered
//! automatically. `chain`/`power` lower onto that machinery: one linked
//! multiply per link, intermediates registered tiled, the final link
//! carrying the request's `mask`/`keep`/`materialize`, so chain links
//! interleave with other sessions' jobs instead of holding a worker for
//! the whole expression. The first job verb on a connection that never
//! sent `open_session` opens a session implicitly (weight 1, default
//! depth).
//!
//! When the engine profiles ([`tsg_engine::EngineConfig::profile`], the
//! binary's `--profile`), job replies also carry the job's span tree as
//! `"spans"` (nested `{"name","ms","children"}` nodes), `stats.counters`
//! reports live totals, and `profile` dumps every recorded job. Without
//! profiling the counters read zero and `"spans"` is omitted.

use std::collections::HashMap;
use std::error::Error as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tsg_engine::json::{obj, parse, Value};
use tsg_engine::{Engine, EngineError, EngineStats, MatrixId, OpSpec};
use tsg_matrix::Coo;
use tsg_runtime::observe::Counter;
use tsg_runtime::{CollectingRecorder, SpanNode};

use crate::scheduler::{
    op_spec, BackpressureHint, JobDone, Operand, Scheduler, SchedulerStats, ServeTicket,
    Submission, SubmitError, SubmitSpec,
};

/// The protocol version this build speaks. Every reply carries it as
/// `"v"`; a request naming any other version is refused with
/// `protocol_mismatch`.
pub const PROTOCOL_VERSION: u64 = 3;

/// Largest request line the handler will parse. A 16 MiB line comfortably
/// holds the triplet loads the protocol is meant for; anything longer is
/// refused with the stable `frame_too_large` code before the parser touches
/// it, bounding per-request memory on hostile input.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// What the transport should do after a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// The client asked to shut down; stop after sending the reply.
    Shutdown,
}

/// One client's protocol state: the shared scheduler, its (lazily opened)
/// scheduler session, and the tickets of its `"async"` jobs.
pub struct ServeSession {
    scheduler: Arc<Scheduler>,
    session: Mutex<Option<u64>>,
    tickets: Mutex<HashMap<u64, ServeTicket>>,
}

impl ServeSession {
    /// A session over `scheduler` (and its engine).
    pub fn new(scheduler: Arc<Scheduler>) -> Self {
        ServeSession {
            scheduler,
            session: Mutex::new(None),
            tickets: Mutex::new(HashMap::new()),
        }
    }

    /// The shared scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    fn engine(&self) -> &Arc<Engine> {
        self.scheduler.engine()
    }

    /// Handles one request line, returning the reply line (no trailing
    /// newline) and whether the transport should stop.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        let (value, control) = match self.respond(line) {
            Ok(reply) => reply,
            Err(e) => (e.into_response(), Control::Continue),
        };
        (versioned(value).to_string(), control)
    }

    /// The frame limit, one parse, one version check, one match over every
    /// verb.
    fn respond(&self, line: &str) -> Result<(Value, Control), WireError> {
        // Failpoint `protocol.truncate_request`: the tail of the frame is
        // lost in transit. The remainder must fail as a plain `bad_request`
        // and leave the session serving.
        #[cfg(feature = "failpoints")]
        let line = if tsg_runtime::failpoint::should_fail("protocol.truncate_request") {
            let mut cut = line.len() / 2;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            &line[..cut]
        } else {
            line
        };
        let oversized = line.len() > MAX_FRAME_BYTES;
        // Failpoint `protocol.oversized_request`: treat this frame as if it
        // blew the limit, so the refusal path is testable without shipping a
        // 16 MiB line through the harness.
        #[cfg(feature = "failpoints")]
        let oversized =
            oversized || tsg_runtime::failpoint::should_fail("protocol.oversized_request");
        if oversized {
            let msg = format!(
                "request of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
                line.len()
            );
            return Err(WireError::new("frame_too_large", msg));
        }
        let req = parse(line).map_err(|e| WireError::bad(e.to_string()))?;
        if req
            .get("v")
            .is_some_and(|v| v.as_u64() != Some(PROTOCOL_VERSION))
        {
            let msg = format!("server speaks protocol version {PROTOCOL_VERSION} only");
            return Err(WireError::new("protocol_mismatch", msg));
        }
        let op = req
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::bad("missing \"op\" member"))?;
        let reply = match op {
            "hello" => self.hello(),
            "load" => self.load(&req)?,
            "convert" => self.convert(&req)?,
            "estimate" => self.estimate(&req)?,
            "evict" => self.evict(&req)?,
            "unload" => self.unload(&req)?,
            "profile" => self.profile(),
            "stats" => self.stats(),
            "open_session" => self.open_session(&req)?,
            "multiply" => self.submit_one(&req, parse_spec(&req, true)?)?,
            "add" => self.add(&req)?,
            "multiply_many" => self.multiply_many(&req)?,
            "chain" => self.linked_chain(&req, chain_ids(&req)?)?,
            "power" => self.power(&req)?,
            "wait" => self.wait(&req)?,
            "cancel" => self.cancel(&req)?,
            "shutdown" => {
                return Ok((
                    obj([("ok", true.into()), ("bye", true.into())]),
                    Control::Shutdown,
                ))
            }
            _ => return Err(WireError::bad("unknown op")),
        };
        Ok((reply, Control::Continue))
    }

    fn hello(&self) -> Value {
        obj([
            ("ok", true.into()),
            ("server", "tsg-serve".into()),
            ("profile", self.collector().is_some().into()),
        ])
    }

    /// Refuses a load shape before anything is allocated for it: every
    /// row and column index must fit the CSR's 32-bit index width, and one
    /// word per row or per column, `(n + 1) · 8` bytes, must fit the device
    /// budget. That is the row-pointer array for rows; for columns it bounds
    /// the column-indexed arrays of the tiled form and the estimator.
    fn check_load_shape(&self, rows: u64, cols: u64) -> Result<(), WireError> {
        let max = u64::from(u32::MAX);
        if rows > max || cols > max {
            return Err(WireError::bad(
                "\"rows\" and \"cols\" must fit the 32-bit index width",
            ));
        }
        let budget = self.engine().device().mem_budget as u64;
        if (rows.max(cols) + 1) * 8 > budget {
            return Err(WireError::bad(
                "one word per row or column exceeds the device budget",
            ));
        }
        Ok(())
    }

    fn load(&self, req: &Value) -> Result<Value, WireError> {
        let csr = if let Some(name) = req.get("gen").and_then(Value::as_str) {
            tsg_gen::suite::by_name(name)
                .ok_or_else(|| WireError::bad("unknown generator dataset name"))?
                .build()
        } else if let Some(path) = req.get("path").and_then(Value::as_str) {
            let coo =
                tsg_matrix::io::read_matrix_market_file::<f64>(path).map_err(|e| WireError {
                    cause: vec![e.to_string()],
                    ..WireError::new("io_error", "failed to read matrix file")
                })?;
            self.check_load_shape(coo.nrows as u64, coo.ncols as u64)?;
            coo.to_csr()
        } else if let Some(triplets) = req.get("triplets").and_then(Value::as_arr) {
            let rows = req
                .get("rows")
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError::bad("triplet load needs \"rows\""))?;
            let cols = req
                .get("cols")
                .and_then(Value::as_u64)
                .ok_or_else(|| WireError::bad("triplet load needs \"cols\""))?;
            self.check_load_shape(rows, cols)?;
            let mut coo = Coo::new(rows as usize, cols as usize);
            for t in triplets {
                let t = t
                    .as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| WireError::bad("each triplet must be [row, col, value]"))?;
                let r = t[0]
                    .as_u64()
                    .filter(|&r| r < rows)
                    .ok_or_else(|| WireError::bad("triplet row out of range"))?;
                let c = t[1]
                    .as_u64()
                    .filter(|&c| c < cols)
                    .ok_or_else(|| WireError::bad("triplet col out of range"))?;
                let v = t[2]
                    .as_f64()
                    .ok_or_else(|| WireError::bad("triplet value must be a number"))?;
                coo.push(r as u32, c as u32, v);
            }
            coo.to_csr()
        } else {
            return Err(WireError::bad(
                "load needs one of \"gen\", \"path\", or \"triplets\"",
            ));
        };
        let rows = csr.nrows;
        let cols = csr.ncols;
        let nnz = csr.nnz();
        let (id, dedup) = self.engine().register(csr);
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("rows", rows.into()),
            ("cols", cols.into()),
            ("nnz", nnz.into()),
            ("dedup", dedup.into()),
        ]))
    }

    fn convert(&self, req: &Value) -> Result<Value, WireError> {
        let id = parse_handle(req, "id")?;
        let (tiles, tiled_bytes, cache_hit) = self.engine().convert(id)?;
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("tiles", tiles.into()),
            ("tiled_bytes", tiled_bytes.into()),
            ("cache_hit", cache_hit.into()),
        ]))
    }

    /// Estimates a product (optionally masked), or a chain via `"ids"`.
    fn estimate(&self, req: &Value) -> Result<Value, WireError> {
        let mask = opt_handle(req, "mask")?;
        let op = if req.get("ids").is_some() {
            OpSpec::Chain {
                operands: chain_ids(req)?,
                mask,
            }
        } else {
            op_spec(None, parse_handle(req, "a")?, parse_handle(req, "b")?, mask)
        };
        let e = self.engine().estimate_op(&op)?;
        let mut fields = vec![
            ("ok", true.into()),
            ("flops", e.flops.into()),
            ("est_nnz_c", e.est_nnz_c.into()),
            ("est_bytes", e.est_bytes.into()),
        ];
        // Sampled estimates additionally report how much was measured and
        // the nnz(C) band.
        if let Some(s) = e.sample {
            fields.push(("sampled_tile_rows", u64::from(s.sampled_tile_rows).into()));
            fields.push(("total_tile_rows", u64::from(s.total_tile_rows).into()));
            fields.push(("nnz_lo", s.nnz_lo.into()));
            fields.push(("nnz_hi", s.nnz_hi.into()));
            fields.push(("sample_exact", s.exact.into()));
        }
        Ok(obj(fields))
    }

    fn evict(&self, req: &Value) -> Result<Value, WireError> {
        let evicted = self.engine().evict(opt_handle(req, "id")?)?;
        Ok(obj([("ok", true.into()), ("evicted", evicted.into())]))
    }

    fn unload(&self, req: &Value) -> Result<Value, WireError> {
        let id = parse_handle(req, "id")?;
        self.engine().unregister(id)?;
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("unloaded", true.into()),
        ]))
    }

    /// Live observability dump: aggregated counters plus (when profiling)
    /// the span tree of every job recorded so far.
    fn profile(&self) -> Value {
        let mut members = vec![
            ("ok", Value::Bool(true)),
            ("profile", self.collector().is_some().into()),
        ];
        members.extend(memory_json(&self.engine().stats()));
        members.push(("counters", counters_json(self.engine())));
        if let Some(collector) = self.collector() {
            let jobs = collector
                .jobs()
                .into_iter()
                .map(|job| {
                    obj([
                        ("job", job.into()),
                        ("spans", spans_json(&collector.span_tree(job))),
                    ])
                })
                .collect();
            members.push(("jobs", Value::Arr(jobs)));
        }
        obj(members)
    }

    /// The engine's statistics with the scheduler's as the `"serve"` member.
    fn stats(&self) -> Value {
        let engine = self.engine();
        let s = engine.stats();
        let tiled_lookups = s.registry.cache_hits + s.registry.cache_misses;
        let hit_rate = if tiled_lookups > 0 {
            s.registry.cache_hits as f64 / tiled_lookups as f64
        } else {
            0.0
        };
        let mut members = vec![
            ("ok", true.into()),
            ("completed", s.completed.into()),
            ("failed", s.failed.into()),
            ("exec_ms_total", ms(s.exec_total)),
            ("conversions", s.registry.conversions.into()),
            ("cache_hits", s.registry.cache_hits.into()),
            ("estimate_hits", s.registry.estimate_hits.into()),
            ("estimate_misses", s.registry.estimate_misses.into()),
            ("cache_misses", s.registry.cache_misses.into()),
            ("cache_hit_rate", Value::Num(hit_rate)),
            ("evictions", s.registry.evictions.into()),
            ("csr_derivations", s.registry.csr_derivations.into()),
            ("cached_bytes", s.cached_bytes.into()),
            ("resident_bytes", s.resident_bytes.into()),
            ("device_bytes_in_use", s.device_bytes_in_use.into()),
        ];
        members.extend(memory_json(&s));
        members.extend([
            ("profile", engine.collector().is_some().into()),
            ("counters", counters_json(engine)),
            ("serve", serve_stats_json(&self.scheduler.stats())),
        ]);
        obj(members)
    }

    fn open_session(&self, req: &Value) -> Result<Value, WireError> {
        let name = req.get("name").and_then(Value::as_str).unwrap_or("client");
        let weight = req.get("weight").and_then(Value::as_f64).unwrap_or(1.0);
        let depth = req
            .get("depth")
            .and_then(Value::as_u64)
            .map(|d| usize::try_from(d).unwrap_or(usize::MAX));
        let id = self.scheduler.open_session(name, weight, depth)?;
        *self.lock_session() = Some(id);
        let (weight, depth) = self.scheduler.session_limits(id)?;
        Ok(obj([
            ("ok", true.into()),
            ("session", id.into()),
            ("weight", weight.into()),
            ("depth", depth.into()),
        ]))
    }

    /// This client's scheduler session, opening one implicitly on first use.
    fn session_id(&self) -> Result<u64, SubmitError> {
        let mut guard = self.lock_session();
        if let Some(id) = *guard {
            return Ok(id);
        }
        let id = self.scheduler.open_session("client", 1.0, None)?;
        *guard = Some(id);
        Ok(id)
    }

    /// Queues `specs` on this client's session, atomically.
    fn submit(&self, specs: Vec<SubmitSpec>) -> Result<Vec<ServeTicket>, WireError> {
        match self.scheduler.submit(self.session_id()?, specs)? {
            Submission::Queued(tickets) => Ok(tickets),
            Submission::Backpressure(hint) => Err(hint.into()),
        }
    }

    /// Runs one job (`multiply` or `add`): `"async"` queues it for `wait`,
    /// otherwise the reply is its report.
    fn submit_one(&self, req: &Value, spec: SubmitSpec) -> Result<Value, WireError> {
        if spec.operands().any(|op| matches!(op, Operand::Ref(_))) {
            return Err(WireError::bad("\"$k\" refs need multiply_many"));
        }
        let ticket = self.submit(vec![spec])?.pop().expect("one ticket per spec");
        if is_async(req) {
            let job = ticket.job;
            self.lock_tickets().insert(job, ticket);
            return Ok(obj([
                ("ok", true.into()),
                ("job", job.into()),
                ("queued", true.into()),
            ]));
        }
        self.render(&ticket)
    }

    fn add(&self, req: &Value) -> Result<Value, WireError> {
        // An add has no masked form: refuse the member instead of answering
        // with the unmasked sum.
        if req.get("mask").is_some() {
            return Err(WireError::bad("add takes no \"mask\""));
        }
        let scalar = |key| req.get(key).and_then(Value::as_f64).unwrap_or(1.0);
        let spec = SubmitSpec {
            add: Some((scalar("alpha"), scalar("beta"))),
            ..parse_spec(req, false)?
        };
        self.submit_one(req, spec)
    }

    fn multiply_many(&self, req: &Value) -> Result<Value, WireError> {
        let jobs = req
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| WireError::bad("multiply_many needs a \"jobs\" array"))?;
        if jobs.is_empty() {
            return Err(WireError::bad("\"jobs\" must not be empty"));
        }
        let specs = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                parse_spec(job, true)
                    .map_err(|e| WireError::bad(format!("jobs[{i}]: {}", e.message)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tickets = self.submit(specs)?;
        if is_async(req) {
            return Ok(self.hold(tickets));
        }
        // Sync batch: wait for every entry in order. Per-entry failures are
        // rendered in place — one bad entry does not hide its siblings.
        let results = tickets
            .iter()
            .map(|t| self.render(t).unwrap_or_else(WireError::into_response))
            .collect();
        Ok(obj([("ok", true.into()), ("results", Value::Arr(results))]))
    }

    fn power(&self, req: &Value) -> Result<Value, WireError> {
        let k = req
            .get("k")
            .and_then(Value::as_u64)
            .ok_or_else(|| WireError::bad("power needs a numeric \"k\""))?;
        let a = parse_handle(req, "a")?;
        if k < 2 {
            return Err(WireError::new(
                "invalid_op",
                "a chain needs at least two operands",
            ));
        }
        // `k` copies of `a` lower to `k − 1` linked jobs in one batch; a
        // batch longer than the session queue can never be admitted, so
        // refuse it before allocating the operand list.
        let (_, depth) = self
            .session_id()
            .and_then(|s| self.scheduler.session_limits(s))?;
        if k - 1 > depth as u64 {
            return Err(SubmitError::BatchTooLarge {
                len: usize::try_from(k - 1).unwrap_or(usize::MAX),
                depth,
            }
            .into());
        }
        self.linked_chain(req, vec![a; k as usize])
    }

    /// Lowers `operands[0]·operands[1]·…` into one atomic batch of
    /// `$k`-linked multiply jobs: link `j` multiplies the previous link's
    /// product (a back-reference) by `operands[j+1]`, so the links dispatch
    /// through the same weighted-fair queue as any other batch — a long
    /// chain cannot starve another session. Intermediates register as
    /// *tiled* residents (`materialize: false`), so the chain runs
    /// handle-in/handle-out with zero CSR round-trips; the final link
    /// carries the request's `mask`/`keep`/`materialize`.
    fn linked_chain(&self, req: &Value, operands: Vec<MatrixId>) -> Result<Value, WireError> {
        if operands.len() < 2 {
            return Err(WireError::new(
                "invalid_op",
                "a chain needs at least two operands",
            ));
        }
        let mask = opt_handle(req, "mask")?;
        let timeout = parse_timeout(req);
        let keep = req.get("keep").and_then(Value::as_bool) == Some(true);
        let materialize = req
            .get("materialize")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let last = operands.len() - 2;
        let specs = (0..=last)
            .map(|j| SubmitSpec {
                a: if j == 0 {
                    Operand::Id(operands[0])
                } else {
                    Operand::Ref(j - 1)
                },
                b: Operand::Id(operands[j + 1]),
                mask: if j == last {
                    mask.map(Operand::Id)
                } else {
                    None
                },
                add: None,
                timeout,
                keep: j == last && keep,
                materialize: j == last && materialize,
            })
            .collect();
        let tickets = self.submit(specs)?;
        let links = tickets.len();
        self.engine()
            .recorder()
            .add(Counter::ChainLinks, links as u64);
        if is_async(req) {
            return Ok(self.hold(tickets));
        }
        // Sync: wait for every link in order; the reply is the final link's
        // report plus the chain members. A failed link fails its dependents
        // with `dependency_failed`, which the final render then carries.
        let intermediates = tickets[..links - 1]
            .iter()
            .filter_map(|t| t.wait().ok()?.kept)
            .map(|id| Value::Str(id.to_string()))
            .collect();
        let mut v = self.render(&tickets[links - 1])?;
        if let Value::Obj(ref mut members) = v {
            members.push(("links".to_string(), (links as u64).into()));
            members.push(("intermediates".to_string(), Value::Arr(intermediates)));
        }
        Ok(v)
    }

    /// Holds `tickets` for later `wait`s and answers with their ids.
    fn hold(&self, tickets: Vec<ServeTicket>) -> Value {
        let ids = tickets.iter().map(|t| t.job.into()).collect();
        self.lock_tickets()
            .extend(tickets.into_iter().map(|t| (t.job, t)));
        obj([
            ("ok", true.into()),
            ("jobs", Value::Arr(ids)),
            ("queued", true.into()),
        ])
    }

    fn wait(&self, req: &Value) -> Result<Value, WireError> {
        let job = job_id(req, "wait")?;
        let ticket = self.lock_tickets().remove(&job).ok_or_else(unknown_job)?;
        self.render(&ticket)
    }

    /// Cancels one of this session's own `"async"` jobs; another
    /// connection's job id is as unknown here as it is to `wait`.
    fn cancel(&self, req: &Value) -> Result<Value, WireError> {
        let job = job_id(req, "cancel")?;
        if !self.lock_tickets().contains_key(&job) {
            return Err(unknown_job());
        }
        let canceled = self.scheduler.cancel(job);
        Ok(obj([
            ("ok", true.into()),
            ("job", job.into()),
            ("canceled", canceled.into()),
        ]))
    }

    /// Waits for a scheduled job and renders its reply under its serve id,
    /// with `"c"` when the product was kept.
    fn render(&self, ticket: &ServeTicket) -> Result<Value, WireError> {
        Ok(report_response(&ticket.wait()?, self.collector()))
    }

    fn collector(&self) -> Option<&CollectingRecorder> {
        self.engine().collector().map(Arc::as_ref)
    }

    fn lock_session(&self) -> MutexGuard<'_, Option<u64>> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tickets(&self) -> MutexGuard<'_, HashMap<u64, ServeTicket>> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn is_async(req: &Value) -> bool {
    req.get("async").and_then(Value::as_bool) == Some(true)
}

fn job_id(req: &Value, verb: &str) -> Result<u64, WireError> {
    req.get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| WireError::bad(format!("{verb} needs a numeric \"job\"")))
}

fn unknown_job() -> WireError {
    WireError::bad("unknown job id for this session")
}

/// Parses one job spec: operands (`"m…"` ids or `"$k"` batch refs, `"mask"`
/// included), the deadline, and `keep`/`materialize`, the latter defaulting
/// to `default_materialize`.
fn parse_spec(req: &Value, default_materialize: bool) -> Result<SubmitSpec, WireError> {
    let a = parse_operand(req, "a")?;
    let b = parse_operand(req, "b")?;
    let mask = match req.get("mask") {
        Some(_) => Some(parse_operand(req, "mask")?),
        None => None,
    };
    Ok(SubmitSpec {
        a,
        b,
        mask,
        add: None,
        timeout: parse_timeout(req),
        keep: req.get("keep").and_then(Value::as_bool) == Some(true),
        materialize: req
            .get("materialize")
            .and_then(Value::as_bool)
            .unwrap_or(default_materialize),
    })
}

/// The `"timeout_ms"` queue-wait deadline every job verb takes.
fn parse_timeout(req: &Value) -> Option<Duration> {
    req.get("timeout_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis)
}

/// The `"ids"` array of a chain: matrix handles only.
fn chain_ids(req: &Value) -> Result<Vec<MatrixId>, WireError> {
    let ids = req
        .get("ids")
        .and_then(Value::as_arr)
        .ok_or_else(|| WireError::bad("chain needs an \"ids\" array"))?;
    ids.iter()
        .enumerate()
        .map(|(i, v)| {
            let s = v
                .as_str()
                .ok_or_else(|| WireError::bad("each chain id must be a string"))?;
            match operand_from_str(s, "ids") {
                Ok(Operand::Id(id)) => Ok(id),
                Ok(Operand::Ref(_)) => Err(WireError::bad(
                    "chain ids must be matrix handles, not \"$k\" refs",
                )),
                Err(e) => Err(WireError::bad(format!("ids[{i}]: {}", e.message))),
            }
        })
        .collect()
}

fn parse_operand(req: &Value, key: &str) -> Result<Operand, WireError> {
    let s = req
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::bad(format!("missing operand \"{key}\"")))?;
    operand_from_str(s, key)
}

/// An operand that must name a registered matrix, not a `"$k"` ref.
fn parse_handle(req: &Value, key: &str) -> Result<MatrixId, WireError> {
    match parse_operand(req, key)? {
        Operand::Id(id) => Ok(id),
        Operand::Ref(_) => Err(WireError::bad(format!(
            "operand \"{key}\" must be a matrix handle, not a \"$k\" ref"
        ))),
    }
}

fn opt_handle(req: &Value, key: &str) -> Result<Option<MatrixId>, WireError> {
    match req.get(key) {
        Some(_) => parse_handle(req, key).map(Some),
        None => Ok(None),
    }
}

/// The one handle parser: `"m"` + 16 hex digits, or a `"$k"` batch ref.
fn operand_from_str(s: &str, what: &str) -> Result<Operand, WireError> {
    if let Some(rest) = s.strip_prefix('$') {
        let k: usize = rest.parse().map_err(|_| {
            WireError::bad(format!("operand \"{what}\": malformed batch ref {s:?}"))
        })?;
        return Ok(Operand::Ref(k));
    }
    s.parse::<MatrixId>().map(Operand::Id).map_err(|()| {
        WireError::bad(format!(
            "operand \"{what}\": malformed matrix id (want m + 16 hex digits)"
        ))
    })
}

/// A refused request: the stable code, message and cause chain of its
/// error reply, plus the flow-control hint of a `backpressure` refusal.
struct WireError {
    code: &'static str,
    message: String,
    cause: Vec<String>,
    hint: Option<BackpressureHint>,
}

impl WireError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            cause: Vec::new(),
            hint: None,
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        Self::new("bad_request", message)
    }

    fn into_response(self) -> Value {
        let mut v = error_response(self.code, &self.message, &self.cause);
        if let (Some(hint), Value::Obj(members)) = (self.hint, &mut v) {
            members.push(("retry_after_ms".to_string(), ms(hint.retry_after)));
            members.push((
                "queue_position".to_string(),
                (hint.queue_position as u64).into(),
            ));
        }
        v
    }
}

impl From<EngineError> for WireError {
    fn from(e: EngineError) -> Self {
        // Serialize the std error source chain instead of debug-formatting.
        let mut cause = Vec::new();
        let mut src = e.source();
        while let Some(s) = src {
            cause.push(s.to_string());
            src = s.source();
        }
        WireError {
            cause,
            ..WireError::new(e.code(), e.to_string())
        }
    }
}

impl From<SubmitError> for WireError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::UnknownSession(id) => WireError::bad(format!("session {id} is not open")),
            SubmitError::Draining => WireError::new(
                "shutting_down",
                "the server is draining and accepts no new work",
            ),
            SubmitError::BadRef { index, reference } => WireError::bad(format!(
                "jobs[{index}]: \"${reference}\" must reference an earlier batch entry"
            )),
            SubmitError::BatchTooLarge { len, depth } => WireError::bad(format!(
                "batch of {len} exceeds the session queue depth {depth}"
            )),
        }
    }
}

/// The structured flow-control reply: an error envelope (so naive clients
/// treat it as a failure and retry) carrying machine-readable hints at the
/// top level.
impl From<BackpressureHint> for WireError {
    fn from(hint: BackpressureHint) -> Self {
        WireError {
            hint: Some(hint),
            ..WireError::new(
                "backpressure",
                "session queue is full; hold the work and resubmit after retry_after_ms",
            )
        }
    }
}

/// Stamps the `"v"` protocol version into a reply object (error replies
/// included) as its second member.
fn versioned(value: Value) -> Value {
    match value {
        Value::Obj(mut members) => {
            members.insert(
                members.len().min(1),
                ("v".to_string(), PROTOCOL_VERSION.into()),
            );
            Value::Obj(members)
        }
        other => other,
    }
}

fn ms(d: Duration) -> Value {
    Value::Num(d.as_secs_f64() * 1e3)
}

/// The standard error shape: `{"ok":false,"error":{"code","message"
/// [,"cause"]}}`.
fn error_response(code: &str, message: &str, cause: &[String]) -> Value {
    let mut members = vec![
        ("code".to_string(), Value::Str(code.to_string())),
        ("message".to_string(), Value::Str(message.to_string())),
    ];
    if !cause.is_empty() {
        members.push((
            "cause".to_string(),
            Value::Arr(cause.iter().map(|c| Value::Str(c.clone())).collect()),
        ));
    }
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Obj(members)),
    ])
}

/// The shared pool's always-on figures: the scratch arenas' high-water
/// mark, and the recycled job buffers' checkouts (reused and fresh), idle
/// bytes and retention bound.
fn memory_json(s: &EngineStats) -> [(&'static str, Value); 5] {
    let b = &s.buffers;
    [
        ("arena_high_water", s.arena_high_water.into()),
        ("pool_reused", b.reused.into()),
        ("pool_fresh", b.fresh.into()),
        ("pool_idle_bytes", b.idle_bytes.into()),
        ("pool_high_water", b.high_water_bytes.into()),
    ]
}

/// The engine's aggregated counter totals, keyed by the counters' stable
/// snake_case names. All zeros without profiling.
fn counters_json(engine: &Engine) -> Value {
    Value::Obj(
        engine
            .metrics()
            .iter()
            .map(|(_, name, total)| (name.to_string(), total.into()))
            .collect(),
    )
}

/// A span tree as nested `{"name","ms","children"}` objects.
fn spans_json(nodes: &[SpanNode]) -> Value {
    Value::Arr(
        nodes
            .iter()
            .map(|n| {
                Value::Obj(vec![
                    ("name".to_string(), n.name.into()),
                    ("ms".to_string(), ms(n.elapsed)),
                    ("children".to_string(), spans_json(&n.children)),
                ])
            })
            .collect(),
    )
}

/// Renders a completed job as its reply, with its span tree when a
/// collector is profiling and the registered product handle when the
/// request kept it.
fn report_response(done: &JobDone, collector: Option<&CollectingRecorder>) -> Value {
    let r = &done.report;
    let mut members = vec![
        ("ok", Value::Bool(true)),
        ("job", r.job.into()),
        ("nnz_c", r.nnz_c.into()),
        ("tiles_c", r.tiles_c.into()),
        ("queue_wait_ms", ms(done.queue_wait)),
        ("exec_ms", ms(r.exec)),
        ("step1_ms", ms(r.breakdown.step1)),
        ("step2_ms", ms(r.breakdown.step2)),
        ("step3_ms", ms(r.breakdown.step3)),
        ("alloc_ms", ms(r.breakdown.alloc)),
        ("peak_bytes", r.peak_bytes.into()),
        ("cache_hits", u64::from(r.cache_hits).into()),
        ("conversions", u64::from(r.conversions).into()),
        ("est_bytes", r.estimate.est_bytes.into()),
        ("flops", r.estimate.flops.into()),
    ];
    if let Some(id) = done.kept {
        members.push(("c", id.to_string().into()));
    }
    if let Some(collector) = collector {
        members.push(("spans", spans_json(&collector.span_tree(r.job))));
    }
    obj(members)
}

/// The scheduler's statistics as the `stats` verb's `"serve"` member.
pub fn serve_stats_json(s: &SchedulerStats) -> Value {
    let sessions: Vec<Value> = s
        .sessions
        .iter()
        .map(|row| {
            obj([
                ("id", row.id.into()),
                ("name", row.name.as_str().into()),
                ("weight", row.weight.into()),
                ("queued", row.queued.into()),
                ("enqueued", row.enqueued.into()),
                ("completed", row.completed.into()),
                ("failed", row.failed.into()),
                ("canceled", row.canceled.into()),
                ("hints", row.hints.into()),
            ])
        })
        .collect();
    obj([
        ("sessions", Value::Arr(sessions)),
        ("queue_depth", s.queue_depth.into()),
        ("queue_high_water", s.queue_high_water.into()),
        ("wait_ms_mean", ms(s.wait_mean)),
        ("wait_samples", s.wait_samples.into()),
        ("backpressure_hints", s.backpressure_hints.into()),
        ("deferred", s.deferred.into()),
        ("batch_jobs", s.batch_jobs.into()),
        ("dispatched", s.dispatched.into()),
        ("in_flight", s.in_flight.into()),
        ("exec_ms_ewma", ms(s.exec_ewma)),
        ("draining", s.draining.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SchedConfig, SERVE_JOB_BASE};
    use tsg_engine::EngineConfig;

    fn session_over(cfg: EngineConfig) -> ServeSession {
        let engine = Arc::new(Engine::new(cfg));
        ServeSession::new(Arc::new(Scheduler::new(engine, SchedConfig::default())))
    }

    fn reply(s: &ServeSession, line: &str) -> Value {
        let (resp, control) = s.handle_line(line);
        assert_eq!(control, Control::Continue, "{line}");
        parse(&resp).expect("reply is valid JSON")
    }

    fn ok(s: &ServeSession, line: &str) -> Value {
        let v = reply(s, line);
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line}: {v}"
        );
        v
    }

    fn code(v: &Value) -> &str {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("not an error reply: {v}"))
    }

    fn num(v: &Value, key: &str) -> u64 {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no numeric {key:?} in {v}"))
    }

    fn handle(v: &Value, key: &str) -> String {
        v.get(key).and_then(Value::as_str).unwrap().to_string()
    }

    /// The `load` line of an `n`×`n` band matrix with `half` diagonals on
    /// each side of the main one.
    fn band(n: usize, half: usize) -> String {
        let triplets: Vec<String> = (0..n)
            .flat_map(|i| (i.saturating_sub(half)..(i + half + 1).min(n)).map(move |j| (i, j)))
            .map(|(i, j)| format!("[{i},{j},{}]", 1 + (i + j) % 3))
            .collect();
        format!(
            r#"{{"op":"load","rows":{n},"cols":{n},"triplets":[{}]}}"#,
            triplets.join(",")
        )
    }

    /// A 3×3 upper-triangular operand with four entries.
    const SMALL: &str =
        r#"{"op":"load","rows":3,"cols":3,"triplets":[[0,0,1],[0,1,2],[1,1,3],[2,2,4]]}"#;

    #[test]
    fn chain_runs_handle_to_handle_without_csr_round_trips() {
        let s = session_over(EngineConfig::default());
        let id = handle(&ok(&s, &band(300, 3)), "id");
        // Gold path: materialize each step.
        let m1 = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","keep":true}}"#),
        );
        let c1 = handle(&m1, "c");
        assert!(m1.get("links").is_none() && m1.get("intermediates").is_none());
        let m2 = ok(&s, &format!(r#"{{"op":"multiply","a":"{c1}","b":"{id}"}}"#));
        let derivations = num(&ok(&s, r#"{"op":"stats"}"#), "csr_derivations");

        // Chain path: one request, the intermediate stays tiled.
        let ch = ok(
            &s,
            &format!(r#"{{"op":"chain","ids":["{id}","{id}","{id}"],"keep":true}}"#),
        );
        assert_eq!(num(&ch, "links"), 2);
        assert_eq!(num(&ch, "nnz_c"), num(&m2, "nnz_c"));
        let inter = ch.get("intermediates").and_then(Value::as_arr).unwrap();
        assert_eq!(inter.len(), 1);
        let kept = handle(&ch, "c");
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(num(&st, "csr_derivations"), derivations);
        assert!(num(&st, "resident_bytes") > 0);
        assert_eq!(num(&st, "device_bytes_in_use"), 0);

        // The kept tiled handle is a first-class operand: square it, still
        // without deriving its CSR.
        let sq = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{kept}","b":"{kept}"}}"#),
        );
        assert!(num(&sq, "nnz_c") > 0);
        assert_eq!(
            num(&ok(&s, r#"{"op":"stats"}"#), "csr_derivations"),
            derivations
        );

        // The chain's product is the reference A³ entry for entry (small
        // integers, so exactly).
        let dense = |h: &str| {
            let csr = s.engine().csr(h.parse().unwrap()).unwrap();
            tsg_matrix::Dense::from_csr(&csr)
        };
        let a = dense(&id);
        assert_eq!(dense(&kept).max_abs_diff(&a.matmul(&a).matmul(&a)), 0.0);
    }

    #[test]
    fn masked_multiply_add_and_power_verbs() {
        let s = session_over(EngineConfig::default());
        let id = handle(&ok(&s, SMALL), "id");
        // Masking A·A by A keeps only the product entries on A's pattern.
        let full = ok(&s, &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
        let masked = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","mask":"{id}"}}"#),
        );
        assert!(num(&masked, "nnz_c") <= num(&full, "nnz_c"));
        assert!(num(&masked, "nnz_c") <= 4);

        // Addition is a structural union (cancellations stay as explicit
        // zeros, like the SpGEMM kernels), so both A − A and A + A keep
        // exactly A's pattern; an add reply has no chain members.
        let zero = ok(
            &s,
            &format!(r#"{{"op":"add","a":"{id}","b":"{id}","alpha":1,"beta":-1}}"#),
        );
        assert_eq!(num(&zero, "nnz_c"), 4);
        assert!(zero.get("links").is_none());
        let double = ok(&s, &format!(r#"{{"op":"add","a":"{id}","b":"{id}"}}"#));
        assert_eq!(num(&double, "nnz_c"), 4);

        // A power is a chain of k copies; k = 1 is no chain at all.
        let cubed = ok(&s, &format!(r#"{{"op":"power","a":"{id}","k":3}}"#));
        assert_eq!(num(&cubed, "links"), 2);
        let v = reply(&s, &format!(r#"{{"op":"power","a":"{id}","k":1}}"#));
        assert_eq!(code(&v), "invalid_op");
    }

    #[test]
    fn add_refuses_a_mask_instead_of_ignoring_it() {
        let s = session_over(EngineConfig::default());
        let id = handle(&ok(&s, SMALL), "id");
        let one = handle(
            &ok(
                &s,
                r#"{"op":"load","rows":3,"cols":3,"triplets":[[0,0,1]]}"#,
            ),
            "id",
        );
        let v = reply(
            &s,
            &format!(r#"{{"op":"add","a":"{id}","b":"{id}","mask":"{one}"}}"#),
        );
        assert_eq!(code(&v), "bad_request", "{v}");
        // Refused before submission, and the session keeps serving.
        let serve = ok(&s, r#"{"op":"stats"}"#).get("serve").cloned().unwrap();
        assert_eq!(num(&serve, "dispatched"), 0);
        let sum = ok(&s, &format!(r#"{{"op":"add","a":"{id}","b":"{id}"}}"#));
        assert_eq!(num(&sum, "nnz_c"), 4);
    }

    #[test]
    fn errors_carry_code_message_and_cause_chain() {
        let s = session_over(EngineConfig::default());
        let v = reply(
            &s,
            r#"{"op":"multiply","a":"m0000000000000000","b":"m0000000000000000"}"#,
        );
        assert_eq!(code(&v), "unknown_matrix");
        let err = v.get("error").unwrap();
        assert!(err.get("message").and_then(Value::as_str).is_some());
        assert!(err.get("cause").is_none(), "no source, no cause: {v}");

        // A failed read names the I/O error as its cause.
        let v = reply(&s, r#"{"op":"load","path":"/nonexistent/missing.mtx"}"#);
        assert_eq!(code(&v), "io_error");
        let cause = v.get("error").and_then(|e| e.get("cause"));
        assert_eq!(cause.and_then(Value::as_arr).map(<[Value]>::len), Some(1));

        // An engine error serializes its source chain.
        let wide = handle(
            &ok(
                &s,
                r#"{"op":"load","rows":2,"cols":3,"triplets":[[0,2,1]]}"#,
            ),
            "id",
        );
        let v = reply(
            &s,
            &format!(r#"{{"op":"multiply","a":"{wide}","b":"{wide}"}}"#),
        );
        assert_eq!(code(&v), "shape_mismatch");
        let cause = v.get("error").and_then(|e| e.get("cause"));
        let cause = cause.and_then(Value::as_arr).expect("cause array");
        assert!(cause[0].as_str().unwrap().contains("2x3"), "{v}");
    }

    #[test]
    fn stats_carry_counters_even_without_profiling() {
        let s = session_over(EngineConfig::default());
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("profile").and_then(Value::as_bool), Some(false));
        let counters = st.get("counters").expect("counters object");
        assert_eq!(num(counters, "tiles_visited"), 0);
        assert!(st.get("serve").is_some());
    }

    #[test]
    fn add_runs_through_the_scheduler() {
        let s = session_over(EngineConfig::default());
        let id = handle(&ok(&s, SMALL), "id");
        let added = ok(&s, &format!(r#"{{"op":"add","a":"{id}","b":"{id}"}}"#));
        assert!(num(&added, "job") >= SERVE_JOB_BASE, "{added}");
        let serve = ok(&s, r#"{"op":"stats"}"#).get("serve").cloned().unwrap();
        assert_eq!(num(&serve, "dispatched"), 1);

        let queued = ok(
            &s,
            &format!(r#"{{"op":"add","a":"{id}","b":"{id}","beta":-1,"async":true,"keep":true}}"#),
        );
        let job = num(&queued, "job");
        assert!(job >= SERVE_JOB_BASE);
        let done = ok(&s, &format!(r#"{{"op":"wait","job":{job}}}"#));
        assert_eq!(num(&done, "job"), job);
        assert_eq!(num(&done, "nnz_c"), 4);
        assert!(handle(&done, "c").starts_with('m'));
        let serve = ok(&s, r#"{"op":"stats"}"#).get("serve").cloned().unwrap();
        assert_eq!(num(&serve, "dispatched"), 2);

        // `$k` refs need a batch, as for multiply.
        let v = reply(&s, &format!(r#"{{"op":"add","a":"$0","b":"{id}"}}"#));
        assert_eq!(code(&v), "bad_request");
    }

    #[test]
    fn cancel_is_confined_to_the_callers_own_jobs() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let scheduler = Arc::new(Scheduler::new(engine, SchedConfig::default()));
        let a = ServeSession::new(Arc::clone(&scheduler));
        let b = ServeSession::new(scheduler);
        let big = handle(&ok(&a, &band(3000, 8)), "id");
        let small = handle(&ok(&a, SMALL), "id");
        ok(
            &a,
            &format!(r#"{{"op":"multiply","a":"{big}","b":"{big}","async":true}}"#),
        );
        let victim = num(
            &ok(
                &a,
                &format!(r#"{{"op":"multiply","a":"{small}","b":"{small}","async":true}}"#),
            ),
            "job",
        );

        // Another connection cannot cancel (or wait on) A's job.
        let v = reply(&b, &format!(r#"{{"op":"cancel","job":{victim}}}"#));
        assert_eq!(code(&v), "bad_request");
        let v = reply(&b, &format!(r#"{{"op":"wait","job":{victim}}}"#));
        assert_eq!(code(&v), "bad_request");

        // A's job runs to completion.
        let done = ok(&a, &format!(r#"{{"op":"wait","job":{victim}}}"#));
        assert!(num(&done, "nnz_c") > 0);
    }

    #[test]
    fn serve_lowered_chains_count_their_links() {
        let s = session_over(EngineConfig {
            profile: true,
            ..EngineConfig::default()
        });
        let id = handle(&ok(&s, SMALL), "id");
        ok(
            &s,
            &format!(r#"{{"op":"chain","ids":["{id}","{id}","{id}"]}}"#),
        );
        ok(&s, &format!(r#"{{"op":"power","a":"{id}","k":3}}"#));
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(num(st.get("counters").unwrap(), "chain_links"), 4);
    }
}
