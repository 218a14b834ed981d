//! Weighted-fair, backpressure-first job scheduler over the resident engine.
//!
//! The scheduler holds the server's one job queue and runs its own jobs:
//! [`SchedConfig::workers`] runner threads each take the job the fair pick
//! names, run it on the engine ([`Engine::run`], on the runner's own
//! thread) and complete its ticket. A job waits in its session queue and
//! nowhere else, so the weighted-fair pick decides the order jobs run in.
//!
//! * Every client holds a [session](Scheduler::open_session) with its own
//!   bounded FIFO queue and a fairness weight. A submission that finds the
//!   queue full is briefly held (the connection blocks — natural flow
//!   control) and, if space does not free in time, answered with a
//!   structured [`BackpressureHint`] (`retry_after`, `queue_position`)
//!   instead of an error drop. The client resubmits; nothing is lost.
//! * Dispatch across sessions is weighted-fair queueing over virtual time:
//!   each dispatch advances its session's virtual finish tag by
//!   `1/weight`, and the runnable session with the smallest tag goes next.
//!   A bulk batch in one session therefore cannot starve another session's
//!   interactive jobs — dispatches interleave in weight proportion.
//! * Admission is *deferred*, never a rejection: a job whose predicted
//!   footprint does not fit the memory currently free (`budget − in-flight
//!   bytes`) parks at the head of the dispatch order; completions drain
//!   memory and re-evaluate it, and once the device is idle it runs solo,
//!   with the mid-flight tracker as the backstop. Dispatch is
//!   memory-ordered: while the fair-queue head is parked nothing overtakes
//!   it, so deferral cannot become starvation.
//! * Each job is estimated exactly once, and never under a lock: jobs whose
//!   operands are all handles on the submitting thread before it takes the
//!   scheduler lock, `$k` jobs by a runner once their operand exists, with
//!   the scheduler lock dropped around the sampler. The engine runs the job
//!   under that estimate without sampling again.
//! * Batches ([`Scheduler::submit`] with several [`SubmitSpec`]s) may
//!   reference earlier entries' products as operands ([`Operand::Ref`],
//!   `$k` on the wire). Referenced products are registered on completion
//!   ([`Engine::register_product`]) and the dependent job becomes runnable
//!   the moment its operand exists.
//! * Pipeline-stage overlap: after each dispatch the scheduler peeks the
//!   next runnable job and warms its operand conversions on a dedicated
//!   conversion thread ([`Engine::resolve_tiled`] converts outside the
//!   registry lock), so job N+1's CSR→tiled conversion runs while job N
//!   computes.
//! * Deadlines and cancellation act on queued jobs: a head whose
//!   [`SubmitSpec::timeout`] has passed completes as `timed_out` without
//!   running, and [`Scheduler::cancel`] takes a job out of its queue. A
//!   running job is not interruptible.
//!
//! Serve-level job ids live at [`SERVE_JOB_BASE`] and above. The engine
//! runs each job under its serve id, so a reply's job id also names the
//! job's span tree.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsg_engine::{Engine, EngineError, JobEstimate, JobReport, MatrixId, OpSpec};
use tsg_matrix::{Csr, TileMatrix};
use tsg_runtime::observe::Counter;

/// Serve-level job ids count up from here, clear of the small ids
/// in-process callers of [`Engine::run`] tend to pick.
pub const SERVE_JOB_BASE: u64 = 1 << 32;

/// Most recent dispatches [`Scheduler::dispatch_log`] keeps.
const DISPATCH_LOG_CAP: usize = 256;

/// Scheduler construction parameters.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Bounded depth of each session's queue. A session may ask for a
    /// shallower queue at open time, never a deeper one.
    pub session_queue_depth: usize,
    /// How long a submission that finds its queue full is held waiting for
    /// space before it is answered with a [`BackpressureHint`].
    pub backpressure_wait: Duration,
    /// Runner threads, each running one job at a time on the engine: the
    /// most jobs in flight at once.
    pub workers: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            session_queue_depth: 8,
            backpressure_wait: Duration::from_millis(25),
            workers: 1,
        }
    }
}

/// One operand of a scheduled multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A registered matrix.
    Id(MatrixId),
    /// The product of an earlier entry in the same batch (`"$k"` on the
    /// wire). Must point strictly backwards.
    Ref(usize),
}

/// One job in a submission (single job or batch entry): the product
/// `a·b`, masked when `mask` is set, or with `add` the sum `alpha·a +
/// beta·b`.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Left operand.
    pub a: Operand,
    /// Right operand.
    pub b: Operand,
    /// Optional mask operand: the job computes `(A·B) ∘ mask` with the
    /// mask pushed into the pipeline's step 2. Like `a`/`b` it may be a
    /// `$k` back-reference, so a chain's final link can mask by an earlier
    /// entry's product.
    pub mask: Option<Operand>,
    /// `Some((alpha, beta))` makes the job the sum `alpha·a + beta·b`
    /// instead of a product. A sum has no product to mask, so it ignores
    /// `mask`, as [`tsg_engine::JobSpec::mask`] does.
    pub add: Option<(f64, f64)>,
    /// Queue-wait deadline: a job still queued this long after it was
    /// enqueued completes as `timed_out` without running.
    pub timeout: Option<Duration>,
    /// Register the product as an operand and report its handle.
    pub keep: bool,
    /// How a registered product (kept or `$k`-referenced) enters the
    /// registry: `true` materializes its CSR (handles usable everywhere),
    /// `false` registers the tiled form as a resident
    /// entry — chain links stay handle-in/handle-out with no CSR
    /// round-trip.
    pub materialize: bool,
}

impl SubmitSpec {
    /// A job multiplying `a · b` with defaults.
    pub fn new(a: MatrixId, b: MatrixId) -> Self {
        SubmitSpec {
            a: Operand::Id(a),
            b: Operand::Id(b),
            mask: None,
            add: None,
            timeout: None,
            keep: false,
            materialize: true,
        }
    }

    /// Every operand the job depends on, mask included.
    pub(crate) fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        [Some(self.a), Some(self.b), self.mask]
            .into_iter()
            .flatten()
    }
}

/// The engine op for resolved operands: an add when `add` carries its
/// scalars, a masked multiply when a mask rides along, a plain multiply
/// otherwise.
pub(crate) fn op_spec(
    add: Option<(f64, f64)>,
    a: MatrixId,
    b: MatrixId,
    mask: Option<MatrixId>,
) -> OpSpec {
    match (add, mask) {
        (Some((alpha, beta)), _) => OpSpec::Add { alpha, a, beta, b },
        (None, Some(mask)) => OpSpec::MaskedMultiply { a, b, mask },
        (None, None) => OpSpec::Multiply { a, b },
    }
}

/// The engine op of a spec that names registry handles only; `None` while
/// it waits on a `$k` product.
fn handle_op(spec: &SubmitSpec) -> Option<OpSpec> {
    let id = |op| match op {
        Operand::Id(id) => Some(id),
        Operand::Ref(_) => None,
    };
    let mask = match spec.mask {
        Some(m) => Some(id(m)?),
        None => None,
    };
    Some(op_spec(spec.add, id(spec.a)?, id(spec.b)?, mask))
}

/// Structured flow-control answer to a submission that could not be queued:
/// nothing was dropped, the client holds its work and resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureHint {
    /// Suggested wait before resubmitting, derived from the execution-time
    /// EWMA and the backlog depth.
    pub retry_after: Duration,
    /// Jobs currently ahead in the session's queue. Monotone non-increasing
    /// across retries of a blocked client (its own adds are the ones being
    /// refused), so clients can observe drain progress.
    pub queue_position: usize,
}

/// Why a submission was refused outright (not flow control — the request
/// itself is unserviceable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The session id was never opened (or the scheduler restarted).
    UnknownSession(u64),
    /// The scheduler is draining and accepts no new work.
    Draining,
    /// A batch `$k` reference points at itself or forwards.
    BadRef {
        /// Batch entry holding the bad reference.
        index: usize,
        /// The referenced entry.
        reference: usize,
    },
    /// The batch is larger than the session queue can ever hold.
    BatchTooLarge {
        /// Entries in the rejected batch.
        len: usize,
        /// The session's queue depth.
        depth: usize,
    },
}

/// Outcome of [`Scheduler::submit`].
#[derive(Debug)]
pub enum Submission {
    /// All entries queued, in order; one ticket per entry.
    Queued(Vec<ServeTicket>),
    /// The queue stayed full through the bounded hold: retry later.
    Backpressure(BackpressureHint),
}

/// Completed job payload: the engine's report, the job's wait in its
/// session queue, and the registered product handle when the job kept it
/// (or a later batch entry referenced it).
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The engine's completion record. Its `c` is an empty 0×0 stand-in:
    /// a kept product lives in the registry under `kept`, and one nobody
    /// keeps went back to the engine's buffer pool ([`Engine::recycle`]).
    pub report: JobReport,
    /// Time from enqueue to the start of the job's run.
    pub queue_wait: Duration,
    /// Content id the product registered under, when kept.
    pub kept: Option<MatrixId>,
}

/// Terminal state of a scheduled job.
pub type ServeResult = Result<JobDone, EngineError>;

struct STicket {
    result: Mutex<Option<ServeResult>>,
    cv: Condvar,
}

fn complete(ticket: &STicket, result: ServeResult) {
    *ticket.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    ticket.cv.notify_all();
}

/// Handle to a scheduled job; `wait` blocks for the result.
#[derive(Clone)]
pub struct ServeTicket {
    /// Serve-level job id (≥ [`SERVE_JOB_BASE`]).
    pub job: u64,
    inner: Arc<STicket>,
}

impl std::fmt::Debug for ServeTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTicket")
            .field("job", &self.job)
            .field("done", &self.try_result().is_some())
            .finish()
    }
}

impl ServeTicket {
    /// Blocks until the job completes, returning its result.
    pub fn wait(&self) -> ServeResult {
        let mut guard = self
            .inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self
                .inner
                .cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll.
    pub fn try_result(&self) -> Option<ServeResult> {
        self.inner
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

struct QueuedSJob {
    id: u64,
    spec: SubmitSpec,
    /// Batch id (first job id of the batch) for `$k` resolution.
    batch: Option<u64>,
    batch_index: usize,
    /// Register the product on completion (`keep`, or a later entry
    /// references it).
    register: bool,
    enqueued: Instant,
    /// Set once the job has been counted as deferred, so re-evaluations do
    /// not double-count.
    deferred_marked: bool,
    /// The job's one admission estimate, taken outside every lock: at
    /// submit for handle-only jobs, by a runner otherwise. An error (an
    /// operand unloaded, a shape mismatch) fails the job at the head.
    estimate: Option<Result<JobEstimate, EngineError>>,
    /// Set while a runner estimates the job with the lock released, so no
    /// other runner samples it too.
    estimating: bool,
    ticket: Arc<STicket>,
}

struct SessionState {
    name: String,
    weight: f64,
    depth: usize,
    queue: VecDeque<QueuedSJob>,
    /// Weighted-fair virtual finish tag; next dispatch from this session
    /// starts at `max(vtime, vclock)` and finishes `1/weight` later.
    vtime: f64,
    enqueued: u64,
    completed: u64,
    failed: u64,
    canceled: u64,
    hints: u64,
}

/// Per-session statistics row.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Session id.
    pub id: u64,
    /// Client-supplied label.
    pub name: String,
    /// Fairness weight.
    pub weight: f64,
    /// Jobs currently queued (not yet dispatched).
    pub queued: usize,
    /// Jobs accepted into the session queue.
    pub enqueued: u64,
    /// Jobs completed with a product.
    pub completed: u64,
    /// Jobs that failed (including expired deadlines and failed deps).
    pub failed: u64,
    /// Jobs canceled while queued.
    pub canceled: u64,
    /// Backpressure hints issued to this session.
    pub hints: u64,
}

/// Scheduler-level statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerStats {
    /// Per-session rows, in open order.
    pub sessions: Vec<SessionStats>,
    /// Jobs currently queued across all sessions.
    pub queue_depth: u64,
    /// High-water queued jobs across all sessions.
    pub queue_high_water: u64,
    /// Mean scheduler queue wait over the `dispatched` jobs.
    pub wait_mean: Duration,
    /// Backpressure hints issued (submissions held then retried — never
    /// dropped).
    pub backpressure_hints: u64,
    /// Jobs that waited at the dispatch head for memory to free.
    pub deferred: u64,
    /// Jobs submitted as part of a multi-entry batch.
    pub batch_jobs: u64,
    /// Jobs started so far.
    pub dispatched: u64,
    /// Jobs running right now, at most [`SchedConfig::workers`].
    pub in_flight: usize,
    /// Execution-time EWMA feeding `retry_after` hints.
    pub exec_ewma: Duration,
    /// Whether the scheduler is draining.
    pub draining: bool,
}

impl SchedulerStats {
    /// `(completed, failed)` summed over the sessions: every job that ran
    /// to a product, and every job that failed, whether it ran or left its
    /// queue timed out, with a failed dependency or drained.
    pub fn outcomes(&self) -> (u64, u64) {
        self.sessions
            .iter()
            .fold((0, 0), |(completed, failed), row| {
                (completed + row.completed, failed + row.failed)
            })
    }
}

struct Inner {
    sessions: HashMap<u64, SessionState>,
    session_order: Vec<u64>,
    vclock: f64,
    in_flight: usize,
    /// Sum of the admission estimates of every in-flight job. Admission
    /// gates on `budget − max(reserved, tracked)`: reservations cover the
    /// bytes an admitted job has not allocated *yet* (a sampled estimate is
    /// an upper bound on its tracked peak, so `Σ estimates ≤ budget` keeps
    /// concurrent jobs from growing past the budget mid-flight), while the
    /// tracked term covers allocations that outlive or exceed a reservation.
    reserved_bytes: usize,
    /// Batch id → the batch's entries, kept until its last entry finishes.
    batch_products: HashMap<u64, BatchProducts>,
    /// The last [`DISPATCH_LOG_CAP`] `(session, job)` pairs in dispatch
    /// order — the fairness audit trail.
    dispatch_log: VecDeque<(u64, u64)>,
    /// Jobs started so far.
    dispatched: u64,
    /// Summed session-queue wait of the dispatched jobs.
    wait_total: Duration,
    /// Most jobs queued across all sessions at once.
    queue_high_water: u64,
    exec_ewma: Duration,
    deferred: u64,
    hints: u64,
    batch_jobs: u64,
    /// Job admitted solo past the free-memory check: while it runs nothing
    /// else may start (or prefetch), or the combined peaks could blow the
    /// budget mid-flight.
    exclusive_job: Option<u64>,
    draining: bool,
    stopped: bool,
}

/// What a multi-entry batch's `$k` references resolve against.
struct BatchProducts {
    /// Entries that have not finished: run, failed, canceled, timed out or
    /// drained.
    open: usize,
    /// Per entry: the registered product, or the failed job's id when a
    /// registering entry can never produce one.
    products: Vec<Option<Result<MatrixId, u64>>>,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: SchedConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    next_job: AtomicU64,
    next_session: AtomicU64,
    convert_tx: Mutex<Option<Sender<MatrixId>>>,
    /// The empty stand-in a completed job's report carries in place of its
    /// product (see [`JobDone`]).
    no_product: Arc<TileMatrix<f64>>,
}

/// The multi-client scheduler. Construction spawns the runner and
/// conversion threads; [`Scheduler::shutdown`] (or drop) drains and joins
/// them.
pub struct Scheduler {
    shared: Arc<Shared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
    converter: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds a scheduler over `engine` and starts its runners.
    pub fn new(engine: Arc<Engine>, cfg: SchedConfig) -> Self {
        let (tx, rx) = mpsc::channel::<MatrixId>();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                session_order: Vec::new(),
                vclock: 0.0,
                in_flight: 0,
                reserved_bytes: 0,
                batch_products: HashMap::new(),
                dispatch_log: VecDeque::new(),
                dispatched: 0,
                wait_total: Duration::ZERO,
                queue_high_water: 0,
                exec_ewma: Duration::ZERO,
                deferred: 0,
                hints: 0,
                batch_jobs: 0,
                exclusive_job: None,
                draining: false,
                stopped: false,
            }),
            cv: Condvar::new(),
            next_job: AtomicU64::new(SERVE_JOB_BASE),
            next_session: AtomicU64::new(1),
            convert_tx: Mutex::new(Some(tx)),
            no_product: Arc::new(TileMatrix::from_csr(&Csr::zero(0, 0))),
            cfg,
            engine: Arc::clone(&engine),
        });
        let runners = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsg-serve-run-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawning runner")
            })
            .collect();
        let converter = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("tsg-serve-convert".into())
                .spawn(move || {
                    // Warm conversions until the sender side is dropped at
                    // shutdown. Errors (unloaded matrix) are fine — the
                    // job's run re-resolves authoritatively.
                    while let Ok(id) = rx.recv() {
                        let _ = engine.resolve_tiled(id);
                    }
                })
                .expect("spawning converter")
        };
        Scheduler {
            shared,
            runners: Mutex::new(runners),
            converter: Mutex::new(Some(converter)),
        }
    }

    /// The engine jobs run on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Opens a session with fairness `weight` (anything but a finite
    /// positive weight becomes 1) and an optional queue depth, capped at
    /// [`SchedConfig::session_queue_depth`], returning its id.
    pub fn open_session(
        &self,
        name: &str,
        weight: f64,
        depth: Option<usize>,
    ) -> Result<u64, SubmitError> {
        // Failpoint `serve.session_open`: the scheduler refuses the session
        // as if it were draining, exercising the client-visible refusal
        // path without an actual shutdown.
        #[cfg(feature = "failpoints")]
        if tsg_runtime::failpoint::should_fail("serve.session_open") {
            return Err(SubmitError::Draining);
        }
        let weight = if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            1.0
        };
        let max_depth = self.shared.cfg.session_queue_depth;
        let mut inner = self.lock();
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        let id = self
            .shared
            .next_session
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // New sessions start at the current virtual clock, not zero — a
        // late joiner must not replay the virtual time others already
        // consumed.
        let vtime = inner.vclock;
        inner.sessions.insert(
            id,
            SessionState {
                name: name.to_string(),
                weight,
                depth: depth.map_or(max_depth, |d| d.min(max_depth)).max(1),
                queue: VecDeque::new(),
                vtime,
                enqueued: 0,
                completed: 0,
                failed: 0,
                canceled: 0,
                hints: 0,
            },
        );
        inner.session_order.push(id);
        self.shared
            .engine
            .recorder()
            .add(Counter::SessionsOpened, 1);
        Ok(id)
    }

    /// Submits one job (`specs.len() == 1`) or an ordered batch. Entries
    /// may reference earlier entries' products ([`Operand::Ref`]). The
    /// whole submission is admitted atomically: either every entry queues
    /// (in order) or none does and the caller gets a [`BackpressureHint`].
    pub fn submit(&self, session: u64, specs: Vec<SubmitSpec>) -> Result<Submission, SubmitError> {
        assert!(!specs.is_empty(), "a submission needs at least one job");
        // Validate references before touching any queue: `$k` must point
        // strictly backwards.
        let mut referenced = vec![false; specs.len()];
        for (i, spec) in specs.iter().enumerate() {
            for op in spec.operands() {
                if let Operand::Ref(k) = op {
                    if k >= i {
                        return Err(SubmitError::BadRef {
                            index: i,
                            reference: k,
                        });
                    }
                    referenced[k] = true;
                }
            }
        }
        // Sample before taking any lock. A failed estimate is left for a
        // runner to retry, so an operand loaded in the meantime still
        // counts.
        let estimates: Vec<Option<JobEstimate>> = specs
            .iter()
            .map(|spec| {
                let op = handle_op(spec)?;
                self.shared.engine.estimate_op(&op).ok()
            })
            .collect();
        let mut inner = self.lock();
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        let depth = match inner.sessions.get(&session) {
            Some(s) => s.depth,
            None => return Err(SubmitError::UnknownSession(session)),
        };
        if specs.len() > depth {
            return Err(SubmitError::BatchTooLarge {
                len: specs.len(),
                depth,
            });
        }
        // Bounded hold: wait for space, then hint. Holding the submission
        // here (the transport blocks with it) is the backpressure — the
        // hint is only the fallback when the backlog outlives the hold.
        // Failpoint `serve.backpressure_wait`: the hold "expires"
        // immediately, forcing the hint path deterministically.
        #[cfg(feature = "failpoints")]
        let skip_hold = tsg_runtime::failpoint::should_fail("serve.backpressure_wait");
        #[cfg(not(feature = "failpoints"))]
        let skip_hold = false;
        let deadline = Instant::now() + self.shared.cfg.backpressure_wait;
        loop {
            let sess = inner.sessions.get(&session).expect("session exists");
            if sess.queue.len() + specs.len() <= depth && !skip_hold {
                break;
            }
            let now = Instant::now();
            if skip_hold || now >= deadline || inner.draining {
                let backlog = sess.queue.len();
                let hint = BackpressureHint {
                    retry_after: retry_after(&inner, self.shared.cfg.workers, backlog),
                    queue_position: backlog,
                };
                let sess = inner.sessions.get_mut(&session).expect("session exists");
                sess.hints += 1;
                inner.hints += 1;
                self.shared
                    .engine
                    .recorder()
                    .add(Counter::ServeBackpressureHints, 1);
                return Ok(Submission::Backpressure(hint));
            }
            inner = self
                .shared
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if inner.draining {
                return Err(SubmitError::Draining);
            }
        }
        // Space confirmed for the whole submission: enqueue in order.
        let entries = specs.len();
        let batch = entries > 1;
        let mut batch_id = None;
        let mut tickets = Vec::with_capacity(entries);
        let now = Instant::now();
        for (i, (spec, estimate)) in specs.into_iter().zip(estimates).enumerate() {
            let id = self
                .shared
                .next_job
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if batch && batch_id.is_none() {
                batch_id = Some(id);
                inner.batch_products.insert(
                    id,
                    BatchProducts {
                        open: entries,
                        products: vec![None; entries],
                    },
                );
            }
            let ticket = Arc::new(STicket {
                result: Mutex::new(None),
                cv: Condvar::new(),
            });
            tickets.push(ServeTicket {
                job: id,
                inner: Arc::clone(&ticket),
            });
            let register = spec.keep || referenced[i];
            let sess = inner.sessions.get_mut(&session).expect("session exists");
            sess.queue.push_back(QueuedSJob {
                id,
                spec,
                batch: batch_id,
                batch_index: i,
                register,
                enqueued: now,
                deferred_marked: false,
                estimate: estimate.map(Ok),
                estimating: false,
                ticket,
            });
            sess.enqueued += 1;
            self.shared.engine.recorder().add(Counter::ServeEnqueued, 1);
            if batch {
                inner.batch_jobs += 1;
                self.shared
                    .engine
                    .recorder()
                    .add(Counter::ServeBatchJobs, 1);
            }
        }
        inner.queue_high_water = inner.queue_high_water.max(queued_jobs(&inner));
        drop(inner);
        self.shared.cv.notify_all();
        Ok(Submission::Queued(tickets))
    }

    /// The fairness weight and queue depth an open session runs under, as
    /// [`Scheduler::open_session`] applied them. The depth is the longest
    /// batch the session can ever admit.
    pub fn session_limits(&self, session: u64) -> Result<(f64, usize), SubmitError> {
        self.lock()
            .sessions
            .get(&session)
            .map(|s| (s.weight, s.depth))
            .ok_or(SubmitError::UnknownSession(session))
    }

    /// Convenience: submit one job and wait for it, resubmitting through
    /// backpressure hints. Used by tests and the bench harness.
    pub fn multiply_now(&self, session: u64, spec: SubmitSpec) -> Result<ServeResult, SubmitError> {
        loop {
            match self.submit(session, vec![spec.clone()])? {
                Submission::Queued(tickets) => return Ok(tickets[0].wait()),
                Submission::Backpressure(hint) => std::thread::sleep(hint.retry_after),
            }
        }
    }

    /// Cancels a queued job: it leaves its session queue and completes as
    /// `canceled`. Returns `true` only when it removed the job from a
    /// queue; a job already running (or finished, or unknown) is left
    /// alone.
    pub fn cancel(&self, job: u64) -> bool {
        let mut inner = self.lock();
        let sids: Vec<u64> = inner.sessions.keys().copied().collect();
        for sid in sids {
            let sess = inner.sessions.get_mut(&sid).expect("session exists");
            let Some(idx) = sess.queue.iter().position(|j| j.id == job) else {
                continue;
            };
            let j = sess.queue.remove(idx).expect("index in range");
            sess.canceled += 1;
            fail_queued(&mut inner, j, EngineError::Canceled);
            drop(inner);
            self.shared.cv.notify_all();
            return true;
        }
        false
    }

    /// Current scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        let inner = self.lock();
        let sessions = inner
            .session_order
            .iter()
            .filter_map(|id| inner.sessions.get(id).map(|s| (id, s)))
            .map(|(&id, s)| SessionStats {
                id,
                name: s.name.clone(),
                weight: s.weight,
                queued: s.queue.len(),
                enqueued: s.enqueued,
                completed: s.completed,
                failed: s.failed,
                canceled: s.canceled,
                hints: s.hints,
            })
            .collect();
        let wait_mean = if inner.dispatched == 0 {
            Duration::ZERO
        } else {
            inner.wait_total.div_f64(inner.dispatched as f64)
        };
        SchedulerStats {
            sessions,
            queue_depth: queued_jobs(&inner),
            queue_high_water: inner.queue_high_water,
            wait_mean,
            backpressure_hints: inner.hints,
            deferred: inner.deferred,
            batch_jobs: inner.batch_jobs,
            dispatched: inner.dispatched,
            in_flight: inner.in_flight,
            exec_ewma: inner.exec_ewma,
            draining: inner.draining,
        }
    }

    /// The latest `(session, job)` pairs, at most 256, in dispatch order —
    /// the fairness audit trail tests assert interleaving on.
    pub fn dispatch_log(&self) -> Vec<(u64, u64)> {
        self.lock().dispatch_log.iter().copied().collect()
    }

    /// Stops accepting work and waits up to `deadline` for every queued and
    /// in-flight job to finish. Jobs still queued past the deadline
    /// complete as `shutting_down`. Returns `true` when the drain finished
    /// inside the deadline.
    pub fn drain(&self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        let mut inner = self.lock();
        inner.draining = true;
        self.shared.cv.notify_all();
        let drained = loop {
            let idle = inner.in_flight == 0 && inner.sessions.values().all(|s| s.queue.is_empty());
            if idle {
                break true;
            }
            let now = Instant::now();
            if now >= end {
                break false;
            }
            inner = self
                .shared
                .cv
                .wait_timeout(inner, end - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        // Past the deadline: fail whatever is still queued (running jobs are
        // not interruptible; their runners finish them).
        let sids: Vec<u64> = inner.session_order.clone();
        for sid in sids {
            let Some(sess) = inner.sessions.get_mut(&sid) else {
                continue;
            };
            let leftovers: Vec<QueuedSJob> = sess.queue.drain(..).collect();
            sess.failed += leftovers.len() as u64;
            for j in leftovers {
                fail_queued(&mut inner, j, EngineError::ShuttingDown);
            }
        }
        inner.stopped = true;
        drop(inner);
        self.shared.cv.notify_all();
        drained
    }

    /// Drains (with `deadline`) and joins the scheduler threads, which
    /// waits for every running job. Idempotent.
    pub fn shutdown(&self, deadline: Duration) -> bool {
        let drained = self.drain(deadline);
        // Closing the channel ends the conversion thread.
        *self
            .shared
            .convert_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        let runners =
            std::mem::take(&mut *self.runners.lock().unwrap_or_else(PoisonError::into_inner));
        for h in runners {
            let _ = h.join();
        }
        if let Some(h) = self
            .converter
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = h.join();
        }
        drained
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(30));
    }
}

/// `retry_after` for a backpressure hint: the backlog's expected service
/// time under the execution EWMA, spread over the runners.
fn retry_after(inner: &Inner, workers: usize, backlog: usize) -> Duration {
    let ewma = if inner.exec_ewma.is_zero() {
        Duration::from_millis(10)
    } else {
        inner.exec_ewma
    };
    (ewma * backlog.max(1) as u32 / workers.max(1) as u32).max(Duration::from_millis(1))
}

/// Jobs queued across all sessions.
fn queued_jobs(inner: &Inner) -> u64 {
    inner.sessions.values().map(|s| s.queue.len() as u64).sum()
}

/// Notes that entry `index` of `batch` (if any) finished, with the product
/// a registering entry leaves for the entries that reference it. The
/// batch's bookkeeping goes once its last entry has finished.
fn finish_entry(
    inner: &mut Inner,
    batch: Option<u64>,
    index: usize,
    product: Option<Result<MatrixId, u64>>,
) {
    let Some(id) = batch else { return };
    let entries = inner
        .batch_products
        .get_mut(&id)
        .expect("a batch stays open until its last entry finishes");
    entries.products[index] = product;
    entries.open -= 1;
    if entries.open == 0 {
        inner.batch_products.remove(&id);
    }
}

/// Completes a job that leaves its queue without running: canceled, timed
/// out, failed at the head or stranded by a drain. A registering batch
/// entry leaves its id, so the entries referencing it fail too.
fn fail_queued(inner: &mut Inner, job: QueuedSJob, err: EngineError) {
    let product = job.register.then_some(Err(job.id));
    finish_entry(inner, job.batch, job.batch_index, product);
    complete(&job.ticket, Err(err));
}

/// Resolution of one operand at dispatch time.
enum Resolved {
    Ready(MatrixId),
    /// Referenced batch entry has not produced yet.
    Pending,
    /// Referenced batch entry failed; carries the dep's job id.
    Broken(u64),
}

fn resolve_operand(inner: &Inner, job: &QueuedSJob, op: Operand) -> Resolved {
    match op {
        Operand::Id(id) => Resolved::Ready(id),
        Operand::Ref(k) => {
            let Some(entries) = job.batch.and_then(|b| inner.batch_products.get(&b)) else {
                return Resolved::Broken(job.id);
            };
            match entries.products[k] {
                Some(Ok(id)) => Resolved::Ready(id),
                Some(Err(dep)) => Resolved::Broken(dep),
                None => Resolved::Pending,
            }
        }
    }
}

/// What a runner decided while scanning the queues.
enum Scan {
    /// Run this session's head under `estimate`, reserving its bytes of the
    /// budget until it completes; `exclusive` marks a job whose estimate
    /// exceeds the whole budget (the deferred-admission backstop), which
    /// must then run alone.
    Dispatch {
        sid: u64,
        estimate: JobEstimate,
        exclusive: bool,
    },
    /// The fair head's operands exist but it has no estimate yet (a `$k`
    /// job whose product just registered): estimate `op` for job `job`
    /// with the scheduler lock released.
    Estimate { sid: u64, job: u64, op: OpSpec },
    /// Nothing runnable (or the fair head is parked on memory): wait.
    Wait,
}

/// A job a runner took off its session queue, with everything its run and
/// its completion need.
struct Running {
    sid: u64,
    id: u64,
    op: OpSpec,
    estimate: JobEstimate,
    queue_wait: Duration,
    batch: Option<u64>,
    batch_index: usize,
    register: bool,
    materialize: bool,
    ticket: Arc<STicket>,
}

/// One runner thread: scan the queues under `inner`, take the fair head,
/// run it with `inner` released, complete it — until the scheduler stops.
fn runner_loop(shared: &Arc<Shared>) {
    let mut inner = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if inner.stopped {
            return;
        }
        match scan(shared, &mut inner) {
            Scan::Dispatch {
                sid,
                estimate,
                exclusive,
            } => {
                let job = dispatch(shared, &mut inner, sid, estimate, exclusive);
                drop(inner);
                // The head left its queue: a held submission may fit now.
                shared.cv.notify_all();
                run(shared, job);
                inner = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
            }
            Scan::Estimate { sid, job, op } => {
                drop(inner);
                let estimate = shared.engine.estimate_op(&op);
                inner = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
                // The head may have been canceled or failed meanwhile; the
                // next scan then simply picks again.
                let head = inner
                    .sessions
                    .get_mut(&sid)
                    .and_then(|s| s.queue.front_mut())
                    .filter(|head| head.id == job);
                if let Some(head) = head {
                    head.estimate = Some(estimate);
                }
            }
            Scan::Wait => {
                inner = shared
                    .cv
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// One pass over the session queues: fail heads that can never run, then
/// pick the weighted-fair runnable head and check it against free memory.
fn scan(shared: &Arc<Shared>, inner: &mut Inner) -> Scan {
    // A runner only scans while it runs nothing, so the runners cap the jobs
    // in flight; a solo job holds the device alone.
    if inner.exclusive_job.is_some() {
        return Scan::Wait;
    }
    // Terminal heads first: expired deadlines and broken dependencies are
    // completed inline so they never block the fair pick.
    loop {
        let mut doomed: Option<(u64, EngineError)> = None;
        'sessions: for (&sid, sess) in inner.sessions.iter() {
            let Some(head) = sess.queue.front() else {
                continue;
            };
            if head
                .spec
                .timeout
                .is_some_and(|t| head.enqueued.elapsed() > t)
            {
                doomed = Some((sid, EngineError::TimedOut));
                break 'sessions;
            }
            if let Some(Err(e)) = &head.estimate {
                doomed = Some((sid, e.clone()));
                break 'sessions;
            }
            for op in head.spec.operands() {
                if let Resolved::Broken(dep) = resolve_operand(inner, head, op) {
                    doomed = Some((sid, EngineError::DependencyFailed { dep }));
                    break 'sessions;
                }
            }
        }
        let Some((sid, err)) = doomed else { break };
        let sess = inner.sessions.get_mut(&sid).expect("session exists");
        let j = sess.queue.pop_front().expect("head exists");
        sess.failed += 1;
        fail_queued(inner, j, err);
    }
    // The weighted-fair pick: smallest virtual finish tag among sessions
    // whose head is runnable (dependencies resolved). Ties break by
    // session id for determinism.
    let mut pick: Option<(f64, u64)> = None;
    for (&sid, sess) in inner.sessions.iter() {
        let Some(head) = sess.queue.front() else {
            continue;
        };
        let runnable = head
            .spec
            .operands()
            .all(|op| matches!(resolve_operand(inner, head, op), Resolved::Ready(_)));
        if !runnable {
            continue;
        }
        let tag = sess.vtime.max(inner.vclock);
        let better = match pick {
            None => true,
            Some((best, best_sid)) => tag < best || (tag == best && sid < best_sid),
        };
        if better {
            pick = Some((tag, sid));
        }
    }
    let Some((_, sid)) = pick else {
        return Scan::Wait;
    };
    // Memory-ordered admission: the fair head dispatches only into memory
    // known to be free. While it waits, nothing overtakes it — completions
    // free memory, the queue drains, and once the device is idle the job
    // goes solo, so deferral cannot starve.
    let head = inner.sessions[&sid].queue.front().expect("head exists");
    let (Resolved::Ready(a), Resolved::Ready(b)) = (
        resolve_operand(inner, head, head.spec.a),
        resolve_operand(inner, head, head.spec.b),
    ) else {
        return Scan::Wait;
    };
    let mask = match head.spec.mask {
        Some(op) => match resolve_operand(inner, head, op) {
            Resolved::Ready(id) => Some(id),
            _ => return Scan::Wait,
        },
        None => None,
    };
    // With sampling enabled (the engine default) this estimate is the
    // band-upper edge of a measured symbolic sample rather than the old
    // constant-compression bound — most products that actually fit are now
    // admitted directly, and deferred admission remains the backstop for
    // the ones whose measured band genuinely exceeds the free budget (or
    // whose estimate fell back to the constant model).
    let estimate = match head.estimate {
        Some(Ok(e)) => e,
        // Another runner is estimating the fair head; nothing overtakes it.
        _ if head.estimating => return Scan::Wait,
        // Failed estimates were completed inline above.
        _ => {
            let (job, op) = (head.id, op_spec(head.spec.add, a, b, mask));
            let sess = inner.sessions.get_mut(&sid).expect("session exists");
            sess.queue.front_mut().expect("head exists").estimating = true;
            return Scan::Estimate { sid, job, op };
        }
    };
    let est_bytes = estimate.est_bytes;
    let budget = shared.engine.device().mem_budget;
    // Free memory is the budget minus the larger of (a) the in-flight
    // reservations — admitted estimates whose jobs may not have allocated
    // their peak yet — and (b) the bytes actually tracked right now. With
    // sampled estimates upper-bounding each job's tracked peak, gating on
    // reservations makes concurrent admission safe by construction instead
    // of racing the tracker.
    let committed = inner
        .reserved_bytes
        .max(shared.engine.device_tracker().current_bytes());
    let free = budget.saturating_sub(committed);
    if est_bytes > free && inner.in_flight > 0 {
        // Only an estimate the whole budget cannot hold is *deferred* (the
        // run-solo-once-idle backstop the counter reports); a head merely
        // waiting for reservations to drain is ordinary memory-ordered
        // queuing.
        if est_bytes > budget {
            let head = inner
                .sessions
                .get_mut(&sid)
                .expect("session exists")
                .queue
                .front_mut()
                .expect("head exists");
            if !head.deferred_marked {
                head.deferred_marked = true;
                inner.deferred += 1;
                shared.engine.recorder().add(Counter::ServeDeferred, 1);
            }
        }
        return Scan::Wait;
    }
    // An over-budget estimate only gets here with the device idle
    // (`in_flight == 0`): it runs solo until it completes.
    Scan::Dispatch {
        sid,
        estimate,
        exclusive: est_bytes > budget,
    }
}

/// Pops `sid`'s head, advances the fair clock, and reserves the job's
/// estimate; the caller runs the job once `inner` is released.
fn dispatch(
    shared: &Arc<Shared>,
    inner: &mut Inner,
    sid: u64,
    estimate: JobEstimate,
    exclusive: bool,
) -> Running {
    let sess = inner.sessions.get_mut(&sid).expect("session exists");
    let job = sess.queue.pop_front().expect("head exists");
    let start = sess.vtime.max(inner.vclock);
    sess.vtime = start + 1.0 / sess.weight;
    inner.vclock = start;
    let queue_wait = job.enqueued.elapsed();
    inner.wait_total += queue_wait;
    let ready = |op| match resolve_operand(inner, &job, op) {
        Resolved::Ready(id) => id,
        _ => unreachable!("scan only dispatches runnable heads"),
    };
    let op = op_spec(
        job.spec.add,
        ready(job.spec.a),
        ready(job.spec.b),
        job.spec.mask.map(ready),
    );
    inner.in_flight += 1;
    inner.reserved_bytes += estimate.est_bytes;
    if exclusive {
        inner.exclusive_job = Some(job.id);
    }
    inner.dispatched += 1;
    if inner.dispatch_log.len() == DISPATCH_LOG_CAP {
        inner.dispatch_log.pop_front();
    }
    inner.dispatch_log.push_back((sid, job.id));
    // Prefetching converts operands on the device — not while an
    // over-budget job needs every byte of it.
    if !exclusive {
        prefetch_next(shared, inner);
    }
    Running {
        sid,
        id: job.id,
        op,
        estimate,
        queue_wait,
        batch: job.batch,
        batch_index: job.batch_index,
        register: job.register,
        materialize: job.spec.materialize,
        ticket: job.ticket,
    }
}

/// Warms the next runnable head's operand conversions on the conversion
/// thread, overlapping job N+1's CSR→tiled conversion with job N's compute.
fn prefetch_next(shared: &Arc<Shared>, inner: &Inner) {
    let mut pick: Option<(f64, u64)> = None;
    for (&sid, sess) in inner.sessions.iter() {
        let Some(head) = sess.queue.front() else {
            continue;
        };
        let runnable = [head.spec.a, head.spec.b]
            .into_iter()
            .all(|op| matches!(resolve_operand(inner, head, op), Resolved::Ready(_)));
        if !runnable {
            continue;
        }
        let tag = sess.vtime.max(inner.vclock);
        if pick.is_none_or(|(best, _)| tag < best) {
            pick = Some((tag, sid));
        }
    }
    let Some((_, sid)) = pick else { return };
    let head = inner.sessions[&sid].queue.front().expect("head exists");
    let tx = shared
        .convert_tx
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(tx) = tx.as_ref() else { return };
    for op in head.spec.operands() {
        if let Resolved::Ready(id) = resolve_operand(inner, head, op) {
            let _ = tx.send(id);
        }
    }
}

/// Runs `job` on the engine, registers a kept product, and updates the
/// scheduler's accounting before completing the job's ticket.
fn run(shared: &Shared, job: Running) {
    // Product registration happens before the scheduler lock: it takes the
    // registry lock internally and must not nest inside `inner`. The
    // product is handed over, not shared: registration then moves its
    // arrays, and one nobody keeps is recycled once the reply is out. The
    // reply reads only the report's scalars.
    let mut unkept = None;
    let result: ServeResult = shared
        .engine
        .run(job.id, &job.op, job.estimate)
        .map(|mut report| {
            let product = std::mem::replace(&mut report.c, Arc::clone(&shared.no_product));
            let kept = if !job.register {
                unkept = Some(product);
                None
            } else if job.materialize {
                Some(shared.engine.register_product(product).0)
            } else {
                Some(shared.engine.register_tiled(product).0)
            };
            JobDone {
                report,
                queue_wait: job.queue_wait,
                kept,
            }
        });
    let mut inner = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
    inner.in_flight -= 1;
    inner.reserved_bytes = inner.reserved_bytes.saturating_sub(job.estimate.est_bytes);
    if inner.exclusive_job == Some(job.id) {
        inner.exclusive_job = None;
    }
    let product = job.register.then(|| match &result {
        Ok(done) => Ok(done.kept.expect("registered products carry their id")),
        Err(_) => Err(job.id),
    });
    finish_entry(&mut inner, job.batch, job.batch_index, product);
    if let Some(sess) = inner.sessions.get_mut(&job.sid) {
        match &result {
            Ok(done) => {
                sess.completed += 1;
                // EWMA of execution time feeds retry_after hints.
                let exec = done.report.exec;
                inner.exec_ewma = if inner.exec_ewma.is_zero() {
                    exec
                } else {
                    (inner.exec_ewma * 7 + exec * 3) / 10
                };
            }
            Err(_) => sess.failed += 1,
        }
    }
    drop(inner);
    shared.cv.notify_all();
    complete(&job.ticket, result);
    // The reply need not wait for this: freeing what the pool does not keep
    // unmaps it.
    if let Some(product) = unkept {
        shared.engine.recycle(product);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_engine::EngineConfig;

    /// A resident server's bookkeeping stays bounded: every finished batch
    /// drops its entries, and the audit log keeps only the latest
    /// dispatches while the counter keeps them all.
    #[test]
    fn finished_batches_and_old_dispatches_leave_no_bookkeeping() {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let sched = Scheduler::new(engine, SchedConfig::default());
        let sid = sched.open_session("batches", 1.0, None).unwrap();
        let (id, _) = sched.engine().register(Csr::<f64>::identity(32));
        let mut last = 0;
        for _ in 0..200 {
            let batch = vec![
                SubmitSpec::new(id, id),
                SubmitSpec {
                    a: Operand::Ref(0),
                    ..SubmitSpec::new(id, id)
                },
            ];
            let Ok(Submission::Queued(tickets)) = sched.submit(sid, batch) else {
                panic!("an idle session queue takes the batch");
            };
            for t in &tickets {
                t.wait().unwrap();
                last = t.job;
            }
        }
        let log = sched.dispatch_log();
        assert_eq!(log.len(), DISPATCH_LOG_CAP.min(400));
        assert_eq!(log.last(), Some(&(sid, last)), "the log keeps the latest");
        assert_eq!(sched.stats().dispatched, 400);
        assert!(sched.lock().batch_products.is_empty());
    }
}
