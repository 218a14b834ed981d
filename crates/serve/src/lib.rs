#![warn(missing_docs)]

//! # tsg-serve — the JSON-lines server over the resident engine
//!
//! `tsg-engine` is a typed Rust API; this crate puts it on the wire and
//! serves *many clients at once*. It layers three pieces over a shared
//! [`tsg_engine::Engine`]:
//!
//! * [`scheduler`] — sessions with bounded fair-share queues, weighted-fair
//!   dispatch, backpressure instead of shedding (a full queue answers with a
//!   structured retry hint, never a drop), deferred admission when the
//!   memory estimate exceeds what is currently free, batched submission
//!   with intra-batch dependencies, and conversion/compute pipeline
//!   overlap. Every job a client submits runs through it.
//! * [`wire`] — the request handler: [`ServeSession::handle_line`] turns one
//!   request line into one reply line for every verb of protocol version
//!   [`PROTOCOL_VERSION`] (loading and converting matrices, estimates,
//!   sessions, jobs, `wait`/`cancel`, stats and profiles).
//! * [`server`] — the `tsg-serve` binary's transports: stdin/stdout or TCP
//!   (one session per connection, one engine for all), with graceful drain
//!   on SIGINT, EOF, or the `shutdown` verb.
//!
//! The protocol and its guarantees are documented in DESIGN.md §8 and §12.

pub mod scheduler;
pub mod server;
pub mod wire;

pub use scheduler::{
    BackpressureHint, JobDone, Operand, SchedConfig, Scheduler, SchedulerStats, ServeResult,
    ServeTicket, SessionStats, Submission, SubmitError, SubmitSpec, SERVE_JOB_BASE,
};
pub use wire::{Control, ServeSession, MAX_FRAME_BYTES, PROTOCOL_VERSION};
