#![warn(missing_docs)]

//! # tsg-runtime — parallel runtime substrate for the TileSpGEMM reproduction
//!
//! The TileSpGEMM paper (PPoPP '22) evaluates GPU kernels: one warp per sparse
//! tile, scratchpad-resident accumulators, `cudaMalloc` cost accounting, and a
//! two-GPU scalability study (RTX 3060 vs RTX 3090). This crate provides the
//! CPU-side stand-ins for all of those concerns so that the algorithm crates
//! can be written against a uniform interface:
//!
//! * [`device`] — simulated device models: named thread-pool configurations
//!   with a memory budget, mirroring the paper's two test GPUs.
//! * [`tracker`] — a memory tracker recording current/peak "device" bytes and
//!   an allocation-time account, reproducing the paper's Figure 9 (peak space
//!   over time) and the "memory allocation" slice of Figures 10/14.
//! * [`timer`] — the per-step runtime breakdown record used by every SpGEMM
//!   implementation in this workspace.
//! * [`scan`] — serial and parallel exclusive prefix sums (the paper uses a
//!   prefix-sum scan to turn per-tile-row mask popcounts into row pointers).
//! * [`split`] — safe splitting of one output buffer into disjoint mutable
//!   per-tile windows, the CPU analogue of warps writing disjoint global
//!   memory ranges.
//! * [`binning`] — row binning by work estimate, used by the row-row baseline
//!   methods (bhSPARSE's 38 bins, NSPARSE's two-round binning, spECK's
//!   lightweight analysis).
//! * `failpoint` (behind `--features failpoints`) — a deterministic fault
//!   injection registry for tests: named sites in the tracker, the engine's
//!   registry/queue, and the protocol front end that tests can arm to force
//!   OOM, eviction races, and truncated frames. Compiled out otherwise.
//! * [`observe`] — structured observability: the [`Recorder`] trait (spans
//!   nested under a job id, monotonic counters), a disabled-fast-path
//!   [`NullRecorder`], and a [`CollectingRecorder`] with lock-free sharded
//!   counters aggregated into a [`MetricsSnapshot`].
//! * [`arena`] — per-worker reusable [`Scratch`] arenas (the CPU analogue of
//!   the paper's shared-memory tile state) so the step-2/3 hot path runs
//!   allocation-free in steady state, with footprint accounting that feeds
//!   the tracker, and the bounded idle buffers each multiply's large arrays
//!   are recycled through.

pub mod arena;
pub mod binning;
pub mod device;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod observe;
pub mod scan;
pub mod split;
pub mod timer;
pub mod tracker;

pub use arena::{
    BufferStats, PooledBuf, Scratch, ScratchGuard, ScratchPool, ScratchReservation, ScratchSizes,
    ALLOCATOR_MAPS_ABOVE,
};
pub use binning::{bin_rows_by, Bins};
pub use device::{pool_for, run_on, Device};
pub use observe::{
    est_error_bucket, null_recorder, CollectingRecorder, Counter, MetricsSnapshot, NullRecorder,
    Recorder, SpanId, SpanNode,
};
pub use scan::{
    exclusive_scan_in_place, exclusive_scan_to, par_exclusive_scan_in_place, par_exclusive_scan_to,
};
pub use split::split_mut_by_offsets;
pub use timer::{time, Breakdown, Step};
pub use tracker::{MemTracker, TrackedBuf};
