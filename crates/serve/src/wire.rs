//! Protocol session verbs (v2 fairness, v3 op expressions) over the
//! engine's JSON-lines protocol.
//!
//! A [`ServeSession`] wraps the engine's [`Session`] and intercepts the
//! verbs that belong to the serving layer; everything else (load, convert,
//! estimate, add, evict, unload, profile, hello…) delegates to the inner
//! session unchanged, so a v1 client keeps working verbatim.
//!
//! Intercepted verbs:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"open_session","name":"etl","weight":2,"depth":8}` | `{"ok":true,"session":1,"weight":2}` |
//! | `{"op":"multiply","a":"m…","b":"m…"[,"keep":true]}` | engine report, plus `"c":"m…"` when kept |
//! | `{"op":"multiply",…,"mask":"m…"}` | masked product `(A·B) ∘ mask` (v3) |
//! | `{"op":"multiply",…}` (queue full) | `{"ok":false,"error":{"code":"backpressure",…},"retry_after_ms":N,"queue_position":P}` |
//! | `{"op":"multiply",…,"async":true}` | `{"ok":true,"job":4294967296,"queued":true}` |
//! | `{"op":"multiply_many","jobs":[{"a":"m…","b":"m…","keep":true},{"a":"$0","b":"$0"}]}` | `{"ok":true,"results":[…]}` |
//! | `{"op":"multiply_many",…,"async":true}` | `{"ok":true,"jobs":[…],"queued":true}` |
//! | `{"op":"chain","ids":["m…","m…","m…"]}` | final link's report plus `"links"` and `"intermediates"` (v3) |
//! | `{"op":"power","a":"m…","k":3}` | as `chain` with `k` copies of `a` (v3) |
//! | `{"op":"wait","job":N}` | serve ids resolve here, engine ids delegate |
//! | `{"op":"cancel","job":N}` | likewise |
//! | `{"op":"stats"}` | the engine object extended with a `"serve"` member |
//! | `{"op":"shutdown"}` | `{"ok":true,"bye":true}`; the transport drains |
//!
//! `multiply` routed through the scheduler never answers `queue_full`: a
//! full session queue holds the submission briefly and then answers with
//! the structured `backpressure` hint above — the client resubmits,
//! nothing is dropped. Batch entries may name an earlier entry's product
//! as `"$k"` (zero-based, strictly backwards); referenced products are
//! registered automatically and the reply carries their `"c"` handles.
//!
//! `chain`/`power` are not forwarded to the engine session's own v3 verbs:
//! the serve layer lowers them onto exactly that `$k` machinery (one
//! linked multiply per link, intermediates registered from their tiled
//! forms with `materialize:false`), so chain links interleave with other
//! sessions' jobs under weighted-fair dispatch instead of holding a worker
//! for the whole expression. A job-shaped verb may carry
//! `"materialize":false` to register its kept product tiled-resident
//! (`multiply` defaults to `true`, `chain`/`power` to `false`).
//!
//! The first scheduler-routed verb on a session that never sent
//! `open_session` opens one implicitly (weight 1, default depth), so
//! single-client scripts need no ceremony.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tilespgemm_core::{Config, Scheduling};
use tsg_engine::json::{obj, parse, Value};
use tsg_engine::protocol::{
    engine_error_response, error_response, report_response, stats_response, versioned, Control,
    Session, MAX_FRAME_BYTES, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use tsg_engine::{Engine, MatrixId};

use crate::scheduler::{
    BackpressureHint, Operand, Scheduler, SchedulerStats, ServeTicket, Submission, SubmitError,
    SubmitSpec, SERVE_JOB_BASE,
};

/// One client's protocol state: the engine session it delegates to, the
/// shared scheduler, its (lazily opened) scheduler session, and the tickets
/// of its `"async"` scheduler jobs.
pub struct ServeSession {
    inner: Session,
    scheduler: Arc<Scheduler>,
    session: Mutex<Option<u64>>,
    tickets: Mutex<HashMap<u64, ServeTicket>>,
}

impl ServeSession {
    /// A session over `scheduler` (and its engine).
    pub fn new(scheduler: Arc<Scheduler>) -> Self {
        ServeSession {
            inner: Session::new(Arc::clone(scheduler.engine())),
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

    /// Handles one request line — serve verbs here, everything else in the
    /// engine session. Same contract as [`Session::handle_line`].
    pub fn handle_line(&self, line: &str) -> (String, Control) {
        // Oversized frames and unparseable lines take the engine session's
        // hardened path (frame-limit refusal, bad_request) untouched.
        if line.len() > MAX_FRAME_BYTES {
            return self.inner.handle_line(line);
        }
        let Ok(req) = parse(line) else {
            return self.inner.handle_line(line);
        };
        let op = req.get("op").and_then(Value::as_str).unwrap_or("");
        if !matches!(
            op,
            "open_session"
                | "multiply"
                | "multiply_many"
                | "chain"
                | "power"
                | "wait"
                | "cancel"
                | "stats"
                | "shutdown"
        ) {
            return self.inner.handle_line(line);
        }
        // Same version gate as the engine session: a client naming a
        // generation we don't speak gets the stable mismatch code here too.
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
                    versioned(error_response("protocol_mismatch", &msg, &[])).to_string(),
                    Control::Continue,
                );
            }
        }
        let (value, control) = match op {
            "open_session" => (self.open_session(&req), Control::Continue),
            "multiply" => (self.multiply(&req), Control::Continue),
            "multiply_many" => (self.multiply_many(&req), Control::Continue),
            "chain" => (self.chain(&req), Control::Continue),
            "power" => (self.power(&req), Control::Continue),
            "wait" => match req.get("job").and_then(Value::as_u64) {
                Some(job) if job >= SERVE_JOB_BASE => (self.wait(job), Control::Continue),
                _ => return self.inner.handle_line(line),
            },
            "cancel" => match req.get("job").and_then(Value::as_u64) {
                Some(job) if job >= SERVE_JOB_BASE => (self.cancel(job), Control::Continue),
                _ => return self.inner.handle_line(line),
            },
            "stats" => (self.stats(), Control::Continue),
            "shutdown" => (
                obj([("ok", true.into()), ("bye", true.into())]),
                Control::Shutdown,
            ),
            _ => unreachable!("op list matched above"),
        };
        (versioned(value).to_string(), control)
    }

    fn open_session(&self, req: &Value) -> Value {
        let name = req.get("name").and_then(Value::as_str).unwrap_or("client");
        let weight = req.get("weight").and_then(Value::as_f64).unwrap_or(1.0);
        let depth = req
            .get("depth")
            .and_then(Value::as_u64)
            .map(|d| d.max(1) as usize);
        match self.scheduler.open_session(name, weight, depth) {
            Ok(id) => {
                *self.lock_session() = Some(id);
                obj([
                    ("ok", true.into()),
                    ("session", id.into()),
                    ("weight", weight.into()),
                ])
            }
            Err(e) => submit_error_response(&e),
        }
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

    fn multiply(&self, req: &Value) -> Value {
        let spec = match parse_spec(req) {
            Ok(s) => s,
            Err(msg) => return error_response("bad_request", &msg, &[]),
        };
        if [Some(spec.a), Some(spec.b), spec.mask]
            .into_iter()
            .flatten()
            .any(|op| matches!(op, Operand::Ref(_)))
        {
            return error_response("bad_request", "\"$k\" refs need multiply_many", &[]);
        }
        let session = match self.session_id() {
            Ok(s) => s,
            Err(e) => return submit_error_response(&e),
        };
        let tickets = match self.scheduler.submit(session, vec![spec]) {
            Ok(Submission::Queued(t)) => t,
            Ok(Submission::Backpressure(hint)) => return backpressure_response(&hint),
            Err(e) => return submit_error_response(&e),
        };
        let ticket = tickets.into_iter().next().expect("one ticket per spec");
        if req.get("async").and_then(Value::as_bool) == Some(true) {
            let job = ticket.job;
            self.lock_tickets().insert(job, ticket);
            return obj([
                ("ok", true.into()),
                ("job", job.into()),
                ("queued", true.into()),
            ]);
        }
        self.render(&ticket)
    }

    fn multiply_many(&self, req: &Value) -> Value {
        let Some(jobs) = req.get("jobs").and_then(Value::as_arr) else {
            return error_response("bad_request", "multiply_many needs a \"jobs\" array", &[]);
        };
        if jobs.is_empty() {
            return error_response("bad_request", "\"jobs\" must not be empty", &[]);
        }
        let mut specs = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            match parse_spec(job) {
                Ok(s) => specs.push(s),
                Err(msg) => {
                    let msg = format!("jobs[{i}]: {msg}");
                    return error_response("bad_request", &msg, &[]);
                }
            }
        }
        let session = match self.session_id() {
            Ok(s) => s,
            Err(e) => return submit_error_response(&e),
        };
        let tickets = match self.scheduler.submit(session, specs) {
            Ok(Submission::Queued(t)) => t,
            Ok(Submission::Backpressure(hint)) => return backpressure_response(&hint),
            Err(e) => return submit_error_response(&e),
        };
        if req.get("async").and_then(Value::as_bool) == Some(true) {
            let ids: Vec<Value> = tickets.iter().map(|t| t.job.into()).collect();
            let mut map = self.lock_tickets();
            for t in tickets {
                map.insert(t.job, t);
            }
            return obj([
                ("ok", true.into()),
                ("jobs", Value::Arr(ids)),
                ("queued", true.into()),
            ]);
        }
        // Sync batch: wait for every entry in order. Per-entry failures are
        // rendered in place — one bad entry does not hide its siblings.
        let results: Vec<Value> = tickets.iter().map(|t| self.render(t)).collect();
        obj([("ok", true.into()), ("results", Value::Arr(results))])
    }

    fn chain(&self, req: &Value) -> Value {
        let Some(ids) = req.get("ids").and_then(Value::as_arr) else {
            return error_response("bad_request", "chain needs an \"ids\" array", &[]);
        };
        let mut operands = Vec::with_capacity(ids.len());
        for (i, v) in ids.iter().enumerate() {
            let Some(s) = v.as_str() else {
                return error_response("bad_request", "each chain id must be a string", &[]);
            };
            match operand_from_str(s, "ids") {
                Ok(op) => operands.push(op),
                Err(msg) => {
                    let msg = format!("ids[{i}]: {msg}");
                    return error_response("bad_request", &msg, &[]);
                }
            }
        }
        self.linked_chain(req, operands)
    }

    fn power(&self, req: &Value) -> Value {
        let Some(k) = req.get("k").and_then(Value::as_u64) else {
            return error_response("bad_request", "power needs a numeric \"k\"", &[]);
        };
        let a = match parse_operand(req, "a") {
            Ok(op) => op,
            Err(msg) => return error_response("bad_request", &msg, &[]),
        };
        if k < 2 {
            return error_response("invalid_op", "a chain needs at least two operands", &[]);
        }
        // `k` copies of `a` lower to `k − 1` linked jobs in one batch; a
        // batch longer than the session queue can never be admitted, so
        // refuse it before allocating the operand list.
        let depth = match self
            .session_id()
            .and_then(|s| self.scheduler.session_depth(s))
        {
            Ok(d) => d,
            Err(e) => return submit_error_response(&e),
        };
        if k - 1 > depth as u64 {
            return submit_error_response(&SubmitError::BatchTooLarge {
                len: usize::try_from(k - 1).unwrap_or(usize::MAX),
                depth,
            });
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
    fn linked_chain(&self, req: &Value, operands: Vec<Operand>) -> Value {
        if operands.len() < 2 {
            return error_response("invalid_op", "a chain needs at least two operands", &[]);
        }
        if operands.iter().any(|op| matches!(op, Operand::Ref(_))) {
            return error_response(
                "bad_request",
                "chain ids must be matrix handles, not \"$k\" refs",
                &[],
            );
        }
        let mask = match req.get("mask") {
            Some(_) => match parse_operand(req, "mask") {
                Ok(Operand::Ref(_)) => {
                    return error_response(
                        "bad_request",
                        "a chain mask must be a matrix handle, not a \"$k\" ref",
                        &[],
                    )
                }
                Ok(op) => Some(op),
                Err(msg) => return error_response("bad_request", &msg, &[]),
            },
            None => None,
        };
        let (config, timeout) = match parse_overrides(req) {
            Ok(o) => o,
            Err(msg) => return error_response("bad_request", &msg, &[]),
        };
        let keep = req.get("keep").and_then(Value::as_bool) == Some(true);
        let materialize = req
            .get("materialize")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let last = operands.len() - 2;
        let specs: Vec<SubmitSpec> = (0..operands.len() - 1)
            .map(|j| SubmitSpec {
                a: if j == 0 {
                    operands[0]
                } else {
                    Operand::Ref(j - 1)
                },
                b: operands[j + 1],
                mask: if j == last { mask } else { None },
                config,
                timeout,
                keep: j == last && keep,
                materialize: j == last && materialize,
            })
            .collect();
        let session = match self.session_id() {
            Ok(s) => s,
            Err(e) => return submit_error_response(&e),
        };
        let tickets = match self.scheduler.submit(session, specs) {
            Ok(Submission::Queued(t)) => t,
            Ok(Submission::Backpressure(hint)) => return backpressure_response(&hint),
            Err(e) => return submit_error_response(&e),
        };
        if req.get("async").and_then(Value::as_bool) == Some(true) {
            let ids: Vec<Value> = tickets.iter().map(|t| t.job.into()).collect();
            let mut map = self.lock_tickets();
            for t in tickets {
                map.insert(t.job, t);
            }
            return obj([
                ("ok", true.into()),
                ("jobs", Value::Arr(ids)),
                ("queued", true.into()),
            ]);
        }
        // Sync: wait for every link in order; the reply is the final link's
        // report plus the chain members. A failed link fails its dependents
        // with `dependency_failed`, which the final render then carries.
        let links = tickets.len();
        let mut intermediates = Vec::new();
        for t in &tickets[..links - 1] {
            if let Ok(done) = t.wait() {
                if let Some(id) = done.kept {
                    intermediates.push(Value::Str(id.to_string()));
                }
            }
        }
        let mut v = self.render(&tickets[links - 1]);
        if let Value::Obj(ref mut members) = v {
            let ok = members
                .iter()
                .any(|(k, val)| k == "ok" && matches!(val, Value::Bool(true)));
            if ok {
                members.push(("links".to_string(), (links as u64).into()));
                members.push(("intermediates".to_string(), Value::Arr(intermediates)));
            }
        }
        v
    }

    fn wait(&self, job: u64) -> Value {
        let Some(ticket) = self.lock_tickets().remove(&job) else {
            return error_response("bad_request", "unknown job id for this session", &[]);
        };
        self.render(&ticket)
    }

    fn cancel(&self, job: u64) -> Value {
        let canceled = self.scheduler.cancel(job);
        obj([
            ("ok", true.into()),
            ("job", job.into()),
            ("canceled", canceled.into()),
        ])
    }

    fn stats(&self) -> Value {
        let mut engine_stats = stats_response(self.engine());
        if let Value::Obj(ref mut members) = engine_stats {
            members.push((
                "serve".to_string(),
                serve_stats_json(&self.scheduler.stats()),
            ));
        }
        engine_stats
    }

    /// Renders one finished scheduler job exactly like an engine reply
    /// (same members, plus `"job"` rewritten to the serve-level id and
    /// `"c"` when the product was kept).
    fn render(&self, ticket: &ServeTicket) -> Value {
        match ticket.wait() {
            Ok(done) => {
                let collector = self.engine().collector().map(Arc::as_ref);
                let mut v = report_response(&done.report, collector, done.kept);
                if let Value::Obj(ref mut members) = v {
                    for (k, val) in members.iter_mut() {
                        if k == "job" {
                            *val = ticket.job.into();
                        }
                    }
                }
                v
            }
            Err(e) => engine_error_response(&e),
        }
    }

    fn lock_session(&self) -> MutexGuard<'_, Option<u64>> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tickets(&self) -> MutexGuard<'_, HashMap<u64, ServeTicket>> {
        self.tickets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parses one multiply spec: operands (`"m…"` ids or `"$k"` batch refs,
/// `"mask"` included) and the engine's scheduling/pair_reuse/timeout/keep/
/// materialize overrides.
fn parse_spec(req: &Value) -> Result<SubmitSpec, String> {
    let a = parse_operand(req, "a")?;
    let b = parse_operand(req, "b")?;
    let mask = match req.get("mask") {
        Some(_) => Some(parse_operand(req, "mask")?),
        None => None,
    };
    let (config, timeout) = parse_overrides(req)?;
    Ok(SubmitSpec {
        a,
        b,
        mask,
        config,
        timeout,
        keep: req.get("keep").and_then(Value::as_bool) == Some(true),
        materialize: req
            .get("materialize")
            .and_then(Value::as_bool)
            .unwrap_or(true),
    })
}

/// The engine overrides shared by every job-shaped verb.
fn parse_overrides(req: &Value) -> Result<(Option<Config>, Option<Duration>), String> {
    let mut config: Option<Config> = None;
    if let Some(s) = req.get("scheduling").and_then(Value::as_str) {
        let scheduling = match s {
            "per-tile" => Scheduling::PerTile,
            "per-tile-row" => Scheduling::PerTileRow,
            _ => return Err("unknown scheduling".to_string()),
        };
        config.get_or_insert_with(Config::default).scheduling = scheduling;
    }
    if let Some(p) = req.get("pair_reuse").and_then(Value::as_bool) {
        config.get_or_insert_with(Config::default).pair_reuse = p;
    }
    Ok((
        config,
        req.get("timeout_ms")
            .and_then(Value::as_u64)
            .map(Duration::from_millis),
    ))
}

fn parse_operand(req: &Value, key: &str) -> Result<Operand, String> {
    let s = req
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing operand \"{key}\""))?;
    operand_from_str(s, key)
}

fn operand_from_str(s: &str, what: &str) -> Result<Operand, String> {
    if let Some(rest) = s.strip_prefix('$') {
        let k: usize = rest
            .parse()
            .map_err(|_| format!("operand \"{what}\": malformed batch ref {s:?}"))?;
        return Ok(Operand::Ref(k));
    }
    s.parse::<MatrixId>()
        .map(Operand::Id)
        .map_err(|()| format!("operand \"{what}\": malformed matrix id (want m + 16 hex digits)"))
}

/// The structured flow-control reply: an error envelope (so naive clients
/// treat it as a failure and retry) carrying machine-readable hints at the
/// top level.
fn backpressure_response(hint: &BackpressureHint) -> Value {
    let mut v = error_response(
        "backpressure",
        "session queue is full; hold the work and resubmit after retry_after_ms",
        &[],
    );
    if let Value::Obj(ref mut members) = v {
        members.push((
            "retry_after_ms".to_string(),
            Value::Num(hint.retry_after.as_secs_f64() * 1e3),
        ));
        members.push((
            "queue_position".to_string(),
            (hint.queue_position as u64).into(),
        ));
    }
    v
}

fn submit_error_response(e: &SubmitError) -> Value {
    match e {
        SubmitError::UnknownSession(id) => {
            let msg = format!("session {id} is not open");
            error_response("bad_request", &msg, &[])
        }
        SubmitError::Draining => error_response(
            "shutting_down",
            "the server is draining and accepts no new work",
            &[],
        ),
        SubmitError::BadRef { index, reference } => {
            let msg =
                format!("jobs[{index}]: \"${reference}\" must reference an earlier batch entry");
            error_response("bad_request", &msg, &[])
        }
        SubmitError::BatchTooLarge { len, depth } => {
            let msg = format!("batch of {len} exceeds the session queue depth {depth}");
            error_response("bad_request", &msg, &[])
        }
    }
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
        ("wait_ms_mean", Value::Num(s.wait_mean.as_secs_f64() * 1e3)),
        ("wait_samples", s.wait_samples.into()),
        ("backpressure_hints", s.backpressure_hints.into()),
        ("deferred", s.deferred.into()),
        ("batch_jobs", s.batch_jobs.into()),
        ("dispatched", s.dispatched.into()),
        ("in_flight", s.in_flight.into()),
        ("exec_ms_ewma", Value::Num(s.exec_ewma.as_secs_f64() * 1e3)),
        ("draining", s.draining.into()),
    ])
}
