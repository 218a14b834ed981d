//! JSON-lines protocol over an [`Engine`].
//!
//! One request per line, one response per line, always an object with an
//! `"ok"` boolean and a `"v"` protocol-version number
//! ([`PROTOCOL_VERSION`]). Requests may carry `"v"` too; the server accepts
//! any generation in [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] and
//! rejects others with the stable `protocol_mismatch` error code, so
//! clients can fail fast by sending `{"op":"hello","v":N}` first.
//! Errors carry a stable `code` (from
//! [`EngineError::code`]/`SpGemmError::code`), a human `message`, and the
//! `std::error::Error::source` chain serialized as a `cause` array — no
//! debug-formatted strings on the wire.
//!
//! Verbs:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"hello","v":1}` | `{"ok":true,"v":1,"server":"tsg-serve","profile":false}` |
//! | `{"op":"load","gen":"fem-00"}` | `{"ok":true,"id":"m…","rows":..,"cols":..,"nnz":..,"dedup":false}` |
//! | `{"op":"load","path":"x.mtx"}` | as above |
//! | `{"op":"load","rows":2,"cols":2,"triplets":[[0,0,1.0],[1,1,2.0]]}` | as above |
//! | `{"op":"convert","id":"m…"}` | `{"ok":true,"id":"m…","tiles":..,"tiled_bytes":..,"cache_hit":false}` |
//! | `{"op":"estimate","a":"m…","b":"m…"}` | `{"ok":true,"flops":..,"est_nnz_c":..,"est_bytes":..}` |
//! | `{"op":"multiply","a":"m…","b":"m…"}` | `{"ok":true,"job":1,"nnz_c":..,"queue_wait_ms":..,"exec_ms":..,"step1_ms":..,…}` |
//! | `{"op":"multiply",…,"mask":"m…"}` | as above, computed as `(A·B) ∘ mask` with the mask pushed into step 2 (v3) |
//! | `{"op":"multiply",…,"async":true}` | `{"ok":true,"job":1,"queued":true}` then `{"op":"wait","job":1}` |
//! | `{"op":"add","a":"m…","b":"m…","alpha":1,"beta":-1}` | multiply-shaped reply for `alpha·A + beta·B` (v3) |
//! | `{"op":"chain","ids":["m…","m…","m…"]}` | multiply-shaped reply plus `"links"` and `"intermediates":["m…"]` (v3) |
//! | `{"op":"power","a":"m…","k":3}` | as `chain` with `k` copies of `a` (v3) |
//! | `{"op":"cancel","job":1}` | `{"ok":true,"job":1,"canceled":true}` |
//! | `{"op":"stats"}` | `{"ok":true,"submitted":..,"cache_hit_rate":..,"counters":{…},…}` |
//! | `{"op":"profile"}` | `{"ok":true,"profile":true,"counters":{…},"jobs":[{"job":1,"spans":[…]}]}` |
//! | `{"op":"evict"}` / `{"op":"evict","id":"m…"}` | `{"ok":true,"evicted":n}` |
//! | `{"op":"unload","id":"m…"}` | `{"ok":true,"id":"m…","unloaded":true}` — drops the CSR too; later references are `unknown_matrix` |
//! | `{"op":"shutdown"}` | `{"ok":true,"bye":true}` and the session ends |
//!
//! Requests longer than [`MAX_FRAME_BYTES`] are refused with the stable
//! `frame_too_large` error code without being parsed; the session keeps
//! serving subsequent lines.
//!
//! `multiply` accepts optional `"scheduling"` (`"per-tile"` or
//! `"per-tile-row"`), `"pair_reuse"` (bool), and `"timeout_ms"` overrides, plus
//! `"keep":true` (v2) to register the product as an operand: the reply then
//! carries its handle as `"c":"m…"`. Handles are content hashes, so equal
//! `"c"` values prove bitwise-identical products.
//!
//! v3 adds the op-expression verbs (`mask` on `multiply`, `add`, `chain`,
//! `power` — DESIGN.md §13) and the `"materialize"` flag on any of them:
//! with `"keep":true,"materialize":false` the kept product registers from
//! its *tiled* form (a resident handle; the CSR is derived only if a later
//! `load`-style consumer actually needs it). `multiply` defaults to
//! `materialize:true` so a v2 client's kept handles are unchanged;
//! `add`/`chain`/`power` default to `false` — handle-in/handle-out with no
//! CSR round-trips. A chain's intermediates always register tiled; their
//! handles come back as `"intermediates"`. The v2 *session* verbs —
//! `open_session`, `multiply_many`, weighted-fair scheduling, backpressure
//! hints — live one layer up, in the `tsg-serve` crate wrapping this
//! session (DESIGN.md §12).
//!
//! When the engine profiles ([`crate::EngineConfig::profile`], the serve
//! binary's `--profile`), `multiply`/`wait` replies additionally carry the
//! job's span tree as `"spans"` (nested `{"name","ms","children"}` nodes),
//! `stats.counters` reports live observability totals, and `profile` dumps
//! every recorded job. Without profiling the counters are all zero and
//! `"spans"` is omitted. The full wire format is documented in DESIGN.md §9.

use std::collections::HashMap;
use std::error::Error as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tilespgemm_core::{Config, Scheduling};
use tsg_matrix::Coo;
use tsg_runtime::{CollectingRecorder, SpanNode};

use crate::engine::{Engine, JobReport, JobSpec, JobTicket, OpSpec};
use crate::json::{obj, parse, Value};
use crate::registry::MatrixId;
use crate::EngineError;

/// The protocol generation this build speaks. Bumped on wire changes; every
/// response echoes it as `"v"`. Requests may name any version down to
/// [`MIN_PROTOCOL_VERSION`] (each generation is a strict superset of the
/// previous — new verbs and new response members only, so v1/v2 requests
/// are answered bit-for-bit as before); anything else is rejected with the
/// `protocol_mismatch` error code.
pub const PROTOCOL_VERSION: u64 = 3;

/// Oldest protocol generation still accepted in a request's `"v"`.
pub const MIN_PROTOCOL_VERSION: u64 = 1;

/// Largest request line the session will parse. A 16 MiB line comfortably
/// holds the triplet loads the protocol is meant for; anything longer is
/// refused with the stable `frame_too_large` code before the parser touches
/// it, bounding per-request memory on hostile input.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A protocol session: parses request lines, drives the shared engine, and
/// renders response lines. Tickets of `"async"` multiplies are held per
/// session for later `wait`/`cancel`.
pub struct Session {
    engine: Arc<Engine>,
    /// Pending `"async"` jobs: ticket plus the request's `"keep"` and
    /// `"materialize"` flags, honoured when `wait` collects the result.
    tickets: Mutex<HashMap<u64, (JobTicket, KeepMode)>>,
}

/// How a request asked to retain its product.
#[derive(Debug, Clone, Copy)]
struct KeepMode {
    keep: bool,
    materialize: bool,
}

/// What the transport should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// The client asked to shut down; stop after sending the response.
    Shutdown,
}

impl Session {
    /// A session over `engine`.
    pub fn new(engine: Arc<Engine>) -> Self {
        Session {
            engine,
            tickets: Mutex::new(HashMap::new()),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Handles one request line, returning the response line (no trailing
    /// newline) and whether the transport should stop. Every response object
    /// carries the `"v"` protocol version.
    pub fn handle_line(&self, line: &str) -> (String, Control) {
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
            return (
                versioned(error_response("frame_too_large", &msg, &[])).to_string(),
                Control::Continue,
            );
        }
        let (value, control) = match parse(line) {
            Ok(req) => self.dispatch(&req),
            Err(e) => (
                error_response("bad_request", &e.to_string(), &[]),
                Control::Continue,
            ),
        };
        (versioned(value).to_string(), control)
    }

    fn dispatch(&self, req: &Value) -> (Value, Control) {
        // Version gate first: a client that names a generation we don't
        // speak gets the stable mismatch code for *any* verb.
        if let Some(v) = req.get("v") {
            if !v
                .as_u64()
                .is_some_and(|v| (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&v))
            {
                let msg = format!(
                    "server speaks protocol versions \
                     {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION} only"
                );
                return (
                    error_response("protocol_mismatch", &msg, &[]),
                    Control::Continue,
                );
            }
        }
        let op = match req.get("op").and_then(Value::as_str) {
            Some(op) => op,
            None => {
                return (
                    error_response("bad_request", "missing \"op\" member", &[]),
                    Control::Continue,
                )
            }
        };
        let out = match op {
            "hello" => Ok(self.hello()),
            "load" => self.load(req),
            "convert" => self.convert(req),
            "estimate" => self.estimate(req),
            "multiply" => self.multiply(req),
            "add" => self.add(req),
            "chain" => self.chain(req),
            "power" => self.power(req),
            "wait" => self.wait(req),
            "cancel" => self.cancel(req),
            "stats" => Ok(self.stats()),
            "profile" => Ok(self.profile()),
            "evict" => self.evict(req),
            "unload" => self.unload(req),
            "shutdown" => {
                return (
                    obj([("ok", true.into()), ("bye", true.into())]),
                    Control::Shutdown,
                )
            }
            _ => Err(ProtocolError::bad("unknown op")),
        };
        (out.unwrap_or_else(|e| e.into_response()), Control::Continue)
    }

    fn hello(&self) -> Value {
        obj([
            ("ok", true.into()),
            ("server", "tsg-serve".into()),
            ("profile", self.engine.collector().is_some().into()),
        ])
    }

    /// Refuses a load shape before anything is allocated for it: every
    /// row and column index must fit the CSR's 32-bit index width, and one
    /// word per row or per column, `(n + 1) · 8` bytes, must fit the device
    /// budget. That is the row-pointer array for rows; for columns it bounds
    /// the column-indexed arrays of the tiled form and the estimator.
    fn check_load_shape(&self, rows: u64, cols: u64) -> Result<(), ProtocolError> {
        let max = u64::from(u32::MAX);
        if rows > max || cols > max {
            return Err(ProtocolError::bad(
                "\"rows\" and \"cols\" must fit the 32-bit index width",
            ));
        }
        let budget = self.engine.device().mem_budget as u64;
        if (rows.max(cols) + 1) * 8 > budget {
            return Err(ProtocolError::bad(
                "one word per row or column exceeds the device budget",
            ));
        }
        Ok(())
    }

    fn load(&self, req: &Value) -> Result<Value, ProtocolError> {
        let csr = if let Some(name) = req.get("gen").and_then(Value::as_str) {
            tsg_gen::suite::by_name(name)
                .ok_or_else(|| ProtocolError::bad("unknown generator dataset name"))?
                .build()
        } else if let Some(path) = req.get("path").and_then(Value::as_str) {
            let coo = tsg_matrix::io::read_matrix_market_file::<f64>(path).map_err(|e| {
                ProtocolError::with_cause("io_error", "failed to read matrix file", &e.to_string())
            })?;
            self.check_load_shape(coo.nrows as u64, coo.ncols as u64)?;
            coo.to_csr()
        } else if let Some(triplets) = req.get("triplets").and_then(Value::as_arr) {
            let rows = req
                .get("rows")
                .and_then(Value::as_u64)
                .ok_or_else(|| ProtocolError::bad("triplet load needs \"rows\""))?;
            let cols = req
                .get("cols")
                .and_then(Value::as_u64)
                .ok_or_else(|| ProtocolError::bad("triplet load needs \"cols\""))?;
            self.check_load_shape(rows, cols)?;
            let mut coo = Coo::new(rows as usize, cols as usize);
            for t in triplets {
                let t = t
                    .as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| ProtocolError::bad("each triplet must be [row, col, value]"))?;
                let r = t[0]
                    .as_u64()
                    .filter(|&r| r < rows)
                    .ok_or_else(|| ProtocolError::bad("triplet row out of range"))?;
                let c = t[1]
                    .as_u64()
                    .filter(|&c| c < cols)
                    .ok_or_else(|| ProtocolError::bad("triplet col out of range"))?;
                let v = t[2]
                    .as_f64()
                    .ok_or_else(|| ProtocolError::bad("triplet value must be a number"))?;
                coo.push(r as u32, c as u32, v);
            }
            coo.to_csr()
        } else {
            return Err(ProtocolError::bad(
                "load needs one of \"gen\", \"path\", or \"triplets\"",
            ));
        };
        let rows = csr.nrows;
        let cols = csr.ncols;
        let nnz = csr.nnz();
        let (id, dedup) = self.engine.register(csr);
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("rows", rows.into()),
            ("cols", cols.into()),
            ("nnz", nnz.into()),
            ("dedup", dedup.into()),
        ]))
    }

    fn matrix_id(req: &Value, key: &str) -> Result<MatrixId, ProtocolError> {
        req.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| ProtocolError::bad("missing matrix id member"))?
            .parse::<MatrixId>()
            .map_err(|()| ProtocolError::bad("malformed matrix id (want m + 16 hex digits)"))
    }

    fn convert(&self, req: &Value) -> Result<Value, ProtocolError> {
        let id = Self::matrix_id(req, "id")?;
        let (tiles, tiled_bytes, cache_hit) = self.engine.convert(id)?;
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("tiles", tiles.into()),
            ("tiled_bytes", tiled_bytes.into()),
            ("cache_hit", cache_hit.into()),
        ]))
    }

    fn estimate(&self, req: &Value) -> Result<Value, ProtocolError> {
        // v3: estimate speaks the full op grammar — optional `"mask"`, or a
        // chain via `"ids"` — but a plain `{a, b}` request is answered by
        // the exact v2 model, bit for bit.
        let op = if req.get("ids").is_some() {
            Self::chain_op(req)?
        } else {
            let a = Self::matrix_id(req, "a")?;
            let b = Self::matrix_id(req, "b")?;
            match Self::opt_matrix_id(req, "mask")? {
                Some(mask) => OpSpec::MaskedMultiply { a, b, mask },
                None => OpSpec::Multiply { a, b },
            }
        };
        let e = self.engine.estimate_op(&op)?;
        let mut fields = vec![
            ("ok", true.into()),
            ("flops", e.flops.into()),
            ("est_nnz_c", e.est_nnz_c.into()),
            ("est_bytes", e.est_bytes.into()),
        ];
        // v3-compatible extension: sampled estimates additionally report
        // how much was measured and the nnz(C) band. Clients that predate
        // the sampler ignore the extra keys; the original three fields keep
        // their exact meaning.
        if let Some(s) = e.sample {
            fields.push(("sampled_tile_rows", u64::from(s.sampled_tile_rows).into()));
            fields.push(("total_tile_rows", u64::from(s.total_tile_rows).into()));
            fields.push(("nnz_lo", s.nnz_lo.into()));
            fields.push(("nnz_hi", s.nnz_hi.into()));
            fields.push(("sample_exact", s.exact.into()));
        }
        Ok(obj(fields))
    }

    fn opt_matrix_id(req: &Value, key: &str) -> Result<Option<MatrixId>, ProtocolError> {
        match req.get(key) {
            Some(_) => Ok(Some(Self::matrix_id(req, key)?)),
            None => Ok(None),
        }
    }

    /// Parses the `chain` verb's op: `"ids"` plus an optional `"mask"`.
    fn chain_op(req: &Value) -> Result<OpSpec, ProtocolError> {
        let ids = req
            .get("ids")
            .and_then(Value::as_arr)
            .ok_or_else(|| ProtocolError::bad("chain needs an \"ids\" array"))?;
        let operands = ids
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(|s| s.parse::<MatrixId>().ok())
                    .ok_or_else(|| {
                        ProtocolError::bad("each chain id must be a matrix handle string")
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OpSpec::Chain {
            operands,
            mask: Self::opt_matrix_id(req, "mask")?,
        })
    }

    fn job_spec(&self, req: &Value, op: OpSpec) -> Result<JobSpec, ProtocolError> {
        let mut spec = JobSpec::of(op);
        let mut config: Option<Config> = None;
        if let Some(s) = req.get("scheduling").and_then(Value::as_str) {
            let scheduling = match s {
                "per-tile" => Scheduling::PerTile,
                "per-tile-row" => Scheduling::PerTileRow,
                _ => return Err(ProtocolError::bad("unknown scheduling")),
            };
            config.get_or_insert_with(Config::default).scheduling = scheduling;
        }
        if let Some(p) = req.get("pair_reuse").and_then(Value::as_bool) {
            config.get_or_insert_with(Config::default).pair_reuse = p;
        }
        spec.config = config;
        if let Some(ms) = req.get("timeout_ms").and_then(Value::as_u64) {
            spec.timeout = Some(Duration::from_millis(ms));
        }
        Ok(spec)
    }

    /// Submits an op-expression job and renders/queues the reply — the
    /// shared tail of `multiply`, `add`, `chain`, and `power`. Each verb
    /// picks its own `materialize` default: `true` for `multiply` (v2-kept
    /// handles are CSR-backed, unchanged) and `false` for the v3 verbs
    /// (kept products stay tiled).
    fn submit_op(
        &self,
        req: &Value,
        op: OpSpec,
        default_materialize: bool,
    ) -> Result<Value, ProtocolError> {
        let spec = self.job_spec(req, op)?;
        let mode = KeepMode {
            keep: req.get("keep").and_then(Value::as_bool) == Some(true),
            materialize: req
                .get("materialize")
                .and_then(Value::as_bool)
                .unwrap_or(default_materialize),
        };
        let ticket = self.engine.submit(spec)?;
        if req.get("async").and_then(Value::as_bool) == Some(true) {
            let job = ticket.job;
            self.lock_tickets().insert(job, (ticket, mode));
            return Ok(obj([
                ("ok", true.into()),
                ("job", job.into()),
                ("queued", true.into()),
            ]));
        }
        let report = ticket.wait()?;
        Ok(self.finish(&report, mode))
    }

    fn multiply(&self, req: &Value) -> Result<Value, ProtocolError> {
        let a = Self::matrix_id(req, "a")?;
        let b = Self::matrix_id(req, "b")?;
        let op = match Self::opt_matrix_id(req, "mask")? {
            Some(mask) => OpSpec::MaskedMultiply { a, b, mask },
            None => OpSpec::Multiply { a, b },
        };
        self.submit_op(req, op, true)
    }

    fn add(&self, req: &Value) -> Result<Value, ProtocolError> {
        let op = OpSpec::Add {
            alpha: req.get("alpha").and_then(Value::as_f64).unwrap_or(1.0),
            a: Self::matrix_id(req, "a")?,
            beta: req.get("beta").and_then(Value::as_f64).unwrap_or(1.0),
            b: Self::matrix_id(req, "b")?,
        };
        self.submit_op(req, op, false)
    }

    fn chain(&self, req: &Value) -> Result<Value, ProtocolError> {
        let op = Self::chain_op(req)?;
        self.submit_op(req, op, false)
    }

    fn power(&self, req: &Value) -> Result<Value, ProtocolError> {
        let k = req
            .get("k")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::bad("power needs a numeric \"k\""))?;
        let op = OpSpec::Power {
            a: Self::matrix_id(req, "a")?,
            k: u32::try_from(k).map_err(|_| ProtocolError::bad("\"k\" out of range"))?,
            mask: Self::opt_matrix_id(req, "mask")?,
        };
        self.submit_op(req, op, false)
    }

    fn wait(&self, req: &Value) -> Result<Value, ProtocolError> {
        let job = req
            .get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::bad("wait needs a numeric \"job\""))?;
        let (ticket, mode) = self
            .lock_tickets()
            .remove(&job)
            .ok_or_else(|| ProtocolError::bad("unknown job id for this session"))?;
        let report = ticket.wait()?;
        Ok(self.finish(&report, mode))
    }

    /// Renders a completed job, registering the product first when the
    /// request asked to `keep` it — as a CSR-backed entry when it asked to
    /// materialize, as a resident tiled entry otherwise.
    fn finish(&self, report: &JobReport, mode: KeepMode) -> Value {
        let kept = mode.keep.then(|| {
            if mode.materialize {
                self.engine.register_product(Arc::clone(&report.c)).0
            } else {
                self.engine.register_tiled(Arc::clone(&report.c)).0
            }
        });
        report_response(report, self.collector(), kept)
    }

    fn cancel(&self, req: &Value) -> Result<Value, ProtocolError> {
        let job = req
            .get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::bad("cancel needs a numeric \"job\""))?;
        let tickets = self.lock_tickets();
        let (ticket, _) = tickets
            .get(&job)
            .ok_or_else(|| ProtocolError::bad("unknown job id for this session"))?;
        ticket.cancel();
        Ok(obj([
            ("ok", true.into()),
            ("job", job.into()),
            ("canceled", true.into()),
        ]))
    }

    fn stats(&self) -> Value {
        stats_response(&self.engine)
    }

    /// Live observability dump: aggregated counters plus (when profiling)
    /// the span tree of every job recorded so far.
    fn profile(&self) -> Value {
        let mut members = vec![
            ("ok", Value::Bool(true)),
            ("profile", self.engine.collector().is_some().into()),
            (
                "arena_high_water",
                self.engine.stats().arena_high_water.into(),
            ),
            ("counters", counters_json(self.engine())),
        ];
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

    fn collector(&self) -> Option<&CollectingRecorder> {
        self.engine.collector().map(Arc::as_ref)
    }

    fn evict(&self, req: &Value) -> Result<Value, ProtocolError> {
        let id = match req.get("id") {
            Some(_) => Some(Self::matrix_id(req, "id")?),
            None => None,
        };
        let evicted = self.engine.evict(id)?;
        Ok(obj([("ok", true.into()), ("evicted", evicted.into())]))
    }

    fn unload(&self, req: &Value) -> Result<Value, ProtocolError> {
        let id = Self::matrix_id(req, "id")?;
        self.engine.unregister(id)?;
        Ok(obj([
            ("ok", true.into()),
            ("id", id.to_string().into()),
            ("unloaded", true.into()),
        ]))
    }

    fn lock_tickets(&self) -> std::sync::MutexGuard<'_, HashMap<u64, (JobTicket, KeepMode)>> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stamps the `"v"` protocol version into a response object (error
/// responses included); non-objects pass through untouched.
pub fn versioned(value: Value) -> Value {
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

/// Renders the engine's statistics snapshot as the `stats` verb's response
/// object. Public so front ends layered over the engine (the `tsg-serve`
/// scheduler) can extend the same object with their own members.
pub fn stats_response(engine: &Engine) -> Value {
    let s = engine.stats();
    let tiled_lookups = s.registry.cache_hits + s.registry.cache_misses;
    let hit_rate = if tiled_lookups > 0 {
        s.registry.cache_hits as f64 / tiled_lookups as f64
    } else {
        0.0
    };
    obj([
        ("ok", true.into()),
        ("submitted", s.submitted.into()),
        ("admitted", s.admitted.into()),
        ("completed", s.completed.into()),
        ("failed", s.failed.into()),
        ("rejected", s.rejected.into()),
        ("shed", s.shed.into()),
        ("canceled", s.canceled.into()),
        ("timed_out", s.timed_out.into()),
        ("queue_depth", s.queue_depth.into()),
        (
            "queue_wait_ms_total",
            Value::Num(s.queue_wait_total.as_secs_f64() * 1e3),
        ),
        (
            "exec_ms_total",
            Value::Num(s.exec_total.as_secs_f64() * 1e3),
        ),
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
        ("arena_high_water", s.arena_high_water.into()),
        ("profile", engine.collector().is_some().into()),
        ("counters", counters_json(engine)),
    ])
}

/// Renders an [`EngineError`] as the standard error response — stable code,
/// human message, `source` chain as `cause`. Public for front ends layered
/// over the engine.
pub fn engine_error_response(e: &EngineError) -> Value {
    ProtocolError::from(e.clone()).into_response()
}

/// The engine's aggregated counter totals as a JSON object, keyed by the
/// counters' stable snake_case names. All zeros without profiling. Public
/// for front ends layered over the engine.
pub fn counters_json(engine: &Engine) -> Value {
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

/// Renders a completed [`JobReport`] as the wire response, with the job's
/// span tree when a collector is profiling and the registered product
/// handle when the request kept it. Public so front ends layered over the
/// engine (the `tsg-serve` scheduler) render identical replies.
pub fn report_response(
    r: &JobReport,
    collector: Option<&CollectingRecorder>,
    kept: Option<MatrixId>,
) -> Value {
    let mut members = vec![
        ("ok", Value::Bool(true)),
        ("job", r.job.into()),
        ("nnz_c", r.nnz_c.into()),
        ("tiles_c", r.tiles_c.into()),
        ("queue_wait_ms", ms(r.queue_wait)),
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
    // v3 members appear only on multi-link (chain/power) replies, so a v2
    // client's multiply responses carry exactly the members they always did.
    if r.links > 1 {
        members.push(("links", u64::from(r.links).into()));
    }
    if !r.intermediates.is_empty() {
        members.push((
            "intermediates",
            Value::Arr(
                r.intermediates
                    .iter()
                    .map(|id| id.to_string().into())
                    .collect(),
            ),
        ));
    }
    if let Some(id) = kept {
        members.push(("c", id.to_string().into()));
    }
    if let Some(collector) = collector {
        members.push(("spans", spans_json(&collector.span_tree(r.job))));
    }
    obj(members)
}

/// Internal protocol failure carrying the response to render.
struct ProtocolError {
    code: &'static str,
    message: String,
    cause: Vec<String>,
}

impl ProtocolError {
    fn bad(message: &str) -> Self {
        ProtocolError {
            code: "bad_request",
            message: message.to_string(),
            cause: Vec::new(),
        }
    }

    fn with_cause(code: &'static str, message: &str, cause: &str) -> Self {
        ProtocolError {
            code,
            message: message.to_string(),
            cause: vec![cause.to_string()],
        }
    }

    fn into_response(self) -> Value {
        error_response(self.code, &self.message, &self.cause)
    }
}

impl From<EngineError> for ProtocolError {
    fn from(e: EngineError) -> Self {
        // Serialize the std error source chain instead of debug-formatting.
        let mut cause = Vec::new();
        let mut src = e.source();
        while let Some(s) = src {
            cause.push(s.to_string());
            src = s.source();
        }
        ProtocolError {
            code: e.code(),
            message: e.to_string(),
            cause,
        }
    }
}

/// Renders the protocol's standard error shape: `{"ok":false,"error":
/// {"code","message"[,"cause"]}}`. Public for front ends layered over the
/// engine.
pub fn error_response(code: &str, message: &str, cause: &[String]) -> Value {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn session() -> Session {
        Session::new(Arc::new(Engine::new(EngineConfig::default())))
    }

    fn ok(s: &Session, line: &str) -> Value {
        let (resp, control) = s.handle_line(line);
        assert_eq!(control, Control::Continue, "{line}");
        let v = parse(&resp).expect("response is valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
        v
    }

    #[test]
    fn load_multiply_stats_flow() {
        let s = session();
        let loaded = ok(
            &s,
            r#"{"op":"load","rows":4,"cols":4,"triplets":[[0,0,1],[1,1,2],[2,2,3],[3,3,4]]}"#,
        );
        let id = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(loaded.get("nnz").and_then(Value::as_u64), Some(4));
        let m = ok(&s, &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
        assert_eq!(m.get("nnz_c").and_then(Value::as_u64), Some(4));
        assert_eq!(m.get("conversions").and_then(Value::as_u64), Some(1));
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("completed").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn errors_carry_code_and_cause_chain() {
        let s = session();
        let (resp, _) =
            s.handle_line(r#"{"op":"multiply","a":"m0000000000000000","b":"m0000000000000000"}"#);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(Value::as_str),
            Some("unknown_matrix")
        );
        assert!(err.get("message").and_then(Value::as_str).is_some());
    }

    #[test]
    fn malformed_lines_are_bad_requests() {
        let s = session();
        for line in ["not json", "{}", r#"{"op":"frobnicate"}"#] {
            let (resp, control) = s.handle_line(line);
            assert_eq!(control, Control::Continue);
            let v = parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
        }
    }

    #[test]
    fn shutdown_signals_the_transport() {
        let s = session();
        let (resp, control) = s.handle_line(r#"{"op":"shutdown"}"#);
        assert_eq!(control, Control::Shutdown);
        assert!(resp.contains("bye"));
    }

    #[test]
    fn responses_carry_the_protocol_version() {
        let s = session();
        let h = ok(&s, r#"{"op":"hello","v":1}"#);
        assert_eq!(h.get("v").and_then(Value::as_u64), Some(PROTOCOL_VERSION));
        assert_eq!(h.get("server").and_then(Value::as_str), Some("tsg-serve"));
        assert_eq!(h.get("profile").and_then(Value::as_bool), Some(false));
        // Errors are versioned too.
        let (resp, _) = s.handle_line("not json");
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("v").and_then(Value::as_u64), Some(PROTOCOL_VERSION));
    }

    #[test]
    fn version_mismatch_is_rejected_with_stable_code() {
        let s = session();
        for line in [r#"{"op":"stats","v":999}"#, r#"{"op":"hello","v":"x"}"#] {
            let (resp, control) = s.handle_line(line);
            assert_eq!(control, Control::Continue);
            let v = parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str),
                Some("protocol_mismatch")
            );
        }
    }

    #[test]
    fn stats_carry_counters_object_even_without_profiling() {
        let s = session();
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("profile").and_then(Value::as_bool), Some(false));
        let counters = st.get("counters").expect("counters object");
        assert_eq!(
            counters.get("tiles_visited").and_then(Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn profiling_session_reports_spans_and_counters() {
        let engine = Engine::new(EngineConfig {
            profile: true,
            ..EngineConfig::default()
        });
        let s = Session::new(Arc::new(engine));
        let loaded = ok(&s, r#"{"op":"load","gen":"fem-00"}"#);
        let id = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let m = ok(&s, &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
        // The reply carries the per-step breakdown and the job's span tree,
        // whose "job" root nests the pipeline phases.
        assert!(m.get("step3_ms").and_then(Value::as_f64).is_some());
        let spans = m.get("spans").and_then(Value::as_arr).expect("spans");
        let job_root = spans
            .iter()
            .find(|n| n.get("name").and_then(Value::as_str) == Some("job"))
            .expect("job root span");
        let children = job_root.get("children").and_then(Value::as_arr).unwrap();
        for phase in ["step1", "step2", "step3", "alloc"] {
            assert!(
                children
                    .iter()
                    .any(|c| c.get("name").and_then(Value::as_str) == Some(phase)),
                "missing {phase} span"
            );
        }
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("profile").and_then(Value::as_bool), Some(true));
        let counters = st.get("counters").unwrap();
        assert!(
            counters
                .get("tiles_visited")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        let p = ok(&s, r#"{"op":"profile"}"#);
        let jobs = p.get("jobs").and_then(Value::as_arr).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].get("spans").and_then(Value::as_arr).is_some());
    }

    #[test]
    fn chain_runs_handle_to_handle_without_csr_round_trips() {
        let s = session();
        let loaded = ok(&s, r#"{"op":"load","gen":"fem-00"}"#);
        let id = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        // Gold path: materialize each step (the v2 idiom the chain replaces).
        let m1 = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","keep":true}}"#),
        );
        let c1 = m1.get("c").and_then(Value::as_str).unwrap().to_string();
        // A plain multiply reply has no v3 members.
        assert!(m1.get("links").is_none());
        assert!(m1.get("intermediates").is_none());
        let m2 = ok(&s, &format!(r#"{{"op":"multiply","a":"{c1}","b":"{id}"}}"#));
        let gold_nnz = m2.get("nnz_c").and_then(Value::as_u64).unwrap();
        let derivations_before = ok(&s, r#"{"op":"stats"}"#)
            .get("csr_derivations")
            .and_then(Value::as_u64)
            .unwrap();

        // Chain path: one request, intermediate stays tiled.
        let ch = ok(
            &s,
            &format!(r#"{{"op":"chain","ids":["{id}","{id}","{id}"],"keep":true}}"#),
        );
        assert_eq!(ch.get("links").and_then(Value::as_u64), Some(2));
        assert_eq!(ch.get("nnz_c").and_then(Value::as_u64), Some(gold_nnz));
        let inter = ch.get("intermediates").and_then(Value::as_arr).unwrap();
        assert_eq!(inter.len(), 1);
        let kept = ch.get("c").and_then(Value::as_str).unwrap().to_string();

        let st = ok(&s, r#"{"op":"stats"}"#);
        // Nothing in the chain touched a CSR: the intermediate and the kept
        // product both registered from their tiled forms.
        assert_eq!(
            st.get("csr_derivations").and_then(Value::as_u64),
            Some(derivations_before)
        );
        assert!(st.get("resident_bytes").and_then(Value::as_u64).unwrap() > 0);

        // The kept tiled handle is a first-class operand: square it.
        let sq = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{kept}","b":"{kept}"}}"#),
        );
        assert!(sq.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);
        // …and still no CSR was derived for it.
        let st = ok(&s, r#"{"op":"stats"}"#);
        assert_eq!(
            st.get("csr_derivations").and_then(Value::as_u64),
            Some(derivations_before)
        );
    }

    #[test]
    fn masked_multiply_and_add_verbs() {
        let s = session();
        let loaded = ok(
            &s,
            r#"{"op":"load","rows":3,"cols":3,"triplets":[[0,0,1],[0,1,2],[1,1,3],[2,2,4]]}"#,
        );
        let id = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        // Masking A·A by A keeps only the product entries on A's pattern.
        let full = ok(&s, &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}"}}"#));
        let masked = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","mask":"{id}"}}"#),
        );
        let full_nnz = full.get("nnz_c").and_then(Value::as_u64).unwrap();
        let masked_nnz = masked.get("nnz_c").and_then(Value::as_u64).unwrap();
        assert!(masked_nnz <= full_nnz);
        assert!(masked_nnz <= 4);

        // Addition is a structural union (cancellations stay as explicit
        // zeros, like the SpGEMM kernels), so both A − A and A + A keep
        // exactly A's pattern.
        let zero = ok(
            &s,
            &format!(r#"{{"op":"add","a":"{id}","b":"{id}","alpha":1,"beta":-1}}"#),
        );
        assert_eq!(zero.get("nnz_c").and_then(Value::as_u64), Some(4));
        let double = ok(&s, &format!(r#"{{"op":"add","a":"{id}","b":"{id}"}}"#));
        assert_eq!(double.get("nnz_c").and_then(Value::as_u64), Some(4));

        // The power verb is a chain of k copies.
        let cubed = ok(&s, &format!(r#"{{"op":"power","a":"{id}","k":3}}"#));
        assert_eq!(cubed.get("links").and_then(Value::as_u64), Some(2));

        // Malformed expressions fail with the stable code.
        let (resp, _) = s.handle_line(&format!(r#"{{"op":"power","a":"{id}","k":1}}"#));
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("invalid_op")
        );
    }

    #[test]
    fn async_multiply_then_wait() {
        let s = session();
        let loaded = ok(&s, r#"{"op":"load","gen":"fem-00"}"#);
        let id = loaded
            .get("id")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        let queued = ok(
            &s,
            &format!(r#"{{"op":"multiply","a":"{id}","b":"{id}","async":true}}"#),
        );
        let job = queued.get("job").and_then(Value::as_u64).unwrap();
        assert_eq!(queued.get("queued").and_then(Value::as_bool), Some(true));
        let done = ok(&s, &format!(r#"{{"op":"wait","job":{job}}}"#));
        assert!(done.get("nnz_c").and_then(Value::as_u64).unwrap() > 0);
    }
}
