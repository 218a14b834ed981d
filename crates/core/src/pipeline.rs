//! The full TileSpGEMM pipeline: step 1 → allocate → step 2 → allocate →
//! step 3, with the per-step breakdown of Figure 10 and device-memory
//! accounting for Figures 7 and 9.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::convert::{timed_csr_to_tile, ConversionTiming};
use crate::intersect::intersect_binary_search;
use crate::maskops;
use crate::simd::{self, Kernel};
use crate::step1::{live_tile_structure, masked_pair_ptr, Occupancy, TilePattern};
use crate::step2::{self, matched_pairs, symbolic_tile};
use crate::{Config, Scheduling, SpGemmError};

use rayon::prelude::*;
use tsg_matrix::{Csr, Scalar, TileColIndex, TileMatrix, TILE_DIM};
use tsg_runtime::arena::Scratch;
use tsg_runtime::observe::{Counter, NullRecorder, Recorder};
use tsg_runtime::{split_mut_by_offsets, Breakdown, MemTracker, ScratchPool, ScratchSizes, Step};

/// The result of a TileSpGEMM multiplication — the one result type both the
/// tiled and the CSR entry points return.
#[derive(Debug)]
pub struct Output<T> {
    /// The product in sparse-tile form. Unmasked, its layout is exactly the
    /// product's non-empty tiles; under a mask it is the mask's layout, and
    /// mask tiles the product misses hold no entries.
    pub c: TileMatrix<T>,
    /// Per-step wall times (Figure 10's slices).
    pub breakdown: Breakdown,
    /// Peak tracked device bytes of this multiplication alone: the sum of
    /// its own charges (inputs, step-2 temporaries — the row pass's pair
    /// lists among them — the scratch-arena share and the output arrays),
    /// all held until it returns. Charges other jobs hold on a shared
    /// tracker are not included; on a fresh tracker this equals the
    /// tracker's peak.
    pub peak_bytes: usize,
    /// CSR → tiled conversion timing, summed over both operands. `Some` iff
    /// this output came from a CSR entry point; the tiled entry points set
    /// `None`. Conversion stays outside [`Output::breakdown`], matching the
    /// paper's timing protocol (which assumes tiled inputs).
    pub conversion: Option<ConversionTiming>,
}

impl<T: Scalar> Output<T> {
    /// The product as CSR, with exact numeric zeros dropped (the tiled form
    /// keeps structurally-predicted entries that cancelled to zero).
    pub fn to_csr(&self) -> Csr<T> {
        self.c.to_csr().drop_numeric_zeros()
    }
}

/// What the paper's per-tile intersection needs beyond the operands
/// (`pair_reuse = false`): B's column-wise tile index (Algorithm 2's
/// tileColPtr_B/tileRowidx_B) and C's expanded tile-row indices.
struct PaperIndex {
    b_cols: TileColIndex,
    c_rowidx: Vec<u32>,
}

impl PaperIndex {
    fn new<T: Scalar>(b: &TileMatrix<T>, c: &TilePattern) -> Self {
        let mut c_rowidx = vec![0u32; c.nnz()];
        for ti in 0..c.rows {
            c_rowidx[c.ptr[ti]..c.ptr[ti + 1]].fill(ti as u32);
        }
        Self {
            b_cols: b.col_index(),
            c_rowidx,
        }
    }

    /// Tracked size in bytes.
    fn bytes(&self) -> usize {
        self.c_rowidx.len() * std::mem::size_of::<u32>()
            + (self.b_cols.colptr.len() + self.b_cols.rowidx.len()) * 8
    }

    /// The most pairs one tile's intersection can match: the shorter of A's
    /// longest tile row and B's longest tile column.
    fn pair_bound<T: Scalar>(&self, a: &TileMatrix<T>) -> usize {
        let longest = |ptr: &[usize]| ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        longest(&a.tile_ptr).min(longest(&self.b_cols.colptr))
    }

    /// Intersects for tile `t` of `c` by binary search and keeps its live
    /// pairs, leaving their flat ids in `s.id_pairs`.
    fn live_pairs<T: Scalar>(
        &self,
        a: &TileMatrix<T>,
        occupancy: &Occupancy,
        c: &TilePattern,
        t: usize,
        s: &mut Scratch,
    ) {
        matched_pairs(
            a,
            &self.b_cols,
            self.c_rowidx[t] as usize,
            c.idx[t] as usize,
            intersect_binary_search,
            &mut s.pos_pairs,
            &mut s.id_pairs,
        );
        // Dead pairs add nothing to any slot: drop them before the OR and
        // the numeric kernel.
        occupancy.retain_live(&mut s.pos_pairs, &mut s.id_pairs);
    }

    /// Binary-search probes one pass over `c_colidx`'s tiles issues: one
    /// per element of the shorter tile list. Derived from list lengths
    /// outside the parallel hot loops, so the counter is a deterministic
    /// proxy, not a hardware event count.
    fn probes<T: Scalar>(&self, a: &TileMatrix<T>, c_colidx: &[u32]) -> u64 {
        self.c_rowidx
            .iter()
            .zip(c_colidx)
            .map(|(&ti, &tj)| {
                let la = a.tile_row_range(ti as usize).len();
                let lb = self.b_cols.col(tj as usize).0.len();
                la.min(lb) as u64
            })
            .sum()
    }
}

/// Candidate pairs step 2's row pass tests: over the tile rows it walks
/// (those with a live pair), the length of `B`'s tile row each of the
/// row's `A` tiles indexes. Derived from lengths alone, outside the hot
/// loop.
fn row_pass_probes<T: Scalar>(a: &TileMatrix<T>, b: &TileMatrix<T>, pair_ptr: &[usize]) -> u64 {
    (0..a.tile_m)
        .filter(|&i| pair_ptr[i + 1] > pair_ptr[i])
        .flat_map(|i| a.tile_row_cols(i))
        .map(|&k| b.tile_row_range(k as usize).len() as u64)
        .sum()
}

/// Runs `C = A·B` on tiled operands with the paper's three-step algorithm.
///
/// The `tracker` carries the device-memory budget; exceeding it aborts with
/// [`SpGemmError::OutOfMemory`] (the paper's Figure-7 `0.00` bars). Pass
/// [`MemTracker::new()`] for unlimited memory.
///
/// Records nothing and takes worker scratch from a throwaway
/// [`ScratchPool`]. Callers that profile, or that multiply repeatedly, call
/// [`multiply_with_pool`] with their own recorder and pool.
pub fn multiply<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<Output<T>, SpGemmError> {
    let arena = ScratchPool::new();
    multiply_with_pool(a, b, None, config, tracker, &NullRecorder, 0, &arena)
}

/// Computes `C⟨M⟩ = A·B`: the product restricted to the stored pattern of
/// `mask`, the GraphBLAS structural mask the paper's §1 places SpGEMM
/// under (triangle counting is `C⟨A⟩ = A·A` followed by a reduction).
/// Tiles of the product outside `mask`'s tile layout are never formed;
/// inside a surviving tile, only positions present in `mask` are kept.
/// Values of `mask` are ignored.
///
/// Records nothing, like [`multiply`].
pub fn multiply_masked<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    mask: &TileMatrix<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<Output<T>, SpGemmError> {
    let arena = ScratchPool::new();
    multiply_with_pool(a, b, Some(mask), config, tracker, &NullRecorder, 0, &arena)
}

/// The pipeline every other entry point wraps: [`multiply`], optionally
/// under a structural `mask` (see [`multiply_masked`]), recorded into
/// `recorder` under `job`, with worker scratch from a caller-owned
/// [`ScratchPool`] that stays warm across multiplies.
///
/// Phase spans nest under a `"job"` root span recorded for `job`, and the
/// pipeline's counters ([`Counter::TilesVisited`], matched pairs,
/// intersection probes, accumulator and SIMD kernel picks) flow into the
/// recorder. All per-tile instrumentation is derived outside the parallel
/// hot loops from state the pipeline already computes, and is skipped
/// entirely when [`Recorder::is_enabled`] is `false`: a [`NullRecorder`]
/// run costs a few virtual calls per multiply, not per tile. The byte
/// counters come from `tracker`, and only when the recorder is attached
/// to it ([`MemTracker::set_recorder`]).
///
/// The multiply reserves one [`Scratch`] arena per worker from `arena`,
/// and steps 2 and 3 check one out of that reservation once per task
/// chunk; after the first multiply warms the pool, the per-tile and
/// per-row hot paths perform zero heap allocations (DESIGN.md §11). What
/// the multiply as a whole allocates is per-multiply arrays (the pair
/// lists among them) and one slice per task run of each array it splits —
/// fewer than 0.05 allocations per output tile and a bounded number of
/// host bytes per tile, pinned by `tests/pipeline_alloc_audit.rs`. The
/// reserved arenas' footprint is charged to `tracker` for the duration of
/// the call (so `peak_bytes` covers scratch memory) and credited back at
/// the end — growth observed during the run is reconciled before the peak
/// is read.
///
/// The large per-multiply arrays come from `arena` too
/// ([`ScratchPool::take`]): C's `row_idx`, `col_idx`, `vals`, `masks` and
/// `row_ptr`, and step 2's pair lists with their per-tile ends. The step-2
/// temporaries go back when the call returns, whether it succeeds or
/// fails; C's go out with the product, lent (counted against the pool's
/// retention bound) until [`recycle`] hands them back.
/// Tracker charges stay computed from lengths, so `peak_bytes` does not
/// depend on what the pool holds.
///
/// A mask changes three things (DESIGN.md §13.3): step 1 takes `mask`'s
/// tile layout instead of the symbolic tile product (and counts only the
/// live pairs landing in its tiles), step 2 ANDs each tile's symbolic row
/// masks with `mask`'s, and step 3 runs a tile the mask cut through the
/// dense counterpart of its kernel — the sparse accumulator rank-addresses
/// through the row masks, so a product outside them would land in a
/// neighbour's slot.
#[allow(clippy::too_many_arguments)]
pub fn multiply_with_pool<T: Scalar>(
    a: &TileMatrix<T>,
    b: &TileMatrix<T>,
    mask: Option<&TileMatrix<T>>,
    config: &Config,
    tracker: &MemTracker,
    recorder: &dyn Recorder,
    job: u64,
    arena: &ScratchPool,
) -> Result<Output<T>, SpGemmError> {
    if a.ncols != b.nrows {
        return Err(SpGemmError::ShapeMismatch {
            a: (a.nrows, a.ncols),
            b: (b.nrows, b.ncols),
        });
    }
    if let Some(m) = mask {
        if (m.nrows, m.ncols) != (a.nrows, b.ncols) {
            return Err(SpGemmError::ShapeMismatch {
                a: (m.nrows, m.ncols),
                b: (a.nrows, b.ncols),
            });
        }
    }
    let mut breakdown = Breakdown::default();
    let enabled = recorder.is_enabled();
    let root = recorder.span_enter(job, "job");
    // Closes `root` (and reports nothing else) on early error returns.
    let fail = |e: SpGemmError| -> SpGemmError {
        recorder.span_exit(root);
        e
    };

    // Inputs live on the device for the duration of the product.
    let input_bytes = tile_matrix_bytes(a) + tile_matrix_bytes(b);
    if let Err(e) = tracker.on_alloc(input_bytes) {
        return Err(fail(e.into()));
    }

    // ---- Step 1: tile-structure symbolic SpGEMM (Figure 3). ----
    // The operands' occupancy words decide which tile pairs are live, so the
    // unmasked layout is exactly C's non-empty tiles (DESIGN.md §7). Under a
    // mask, C takes M's tile layout instead: a product tile can only survive
    // where M has a tile, and M's tiles the product misses come out with
    // zero nonzeros — the only tiles of C that can. Step 1 also counts each
    // tile row's live pairs (under a mask, those landing in M's tiles), which
    // size and balance step 2's row pass; the paper path counts its own.
    let reuse = config.pair_reuse;
    let span = recorder.span_enter(job, "step1");
    let (occupancy, c_pattern, pair_ptr) = breakdown.timed(Step::Step1, || {
        let occupancy = Occupancy::new(a, b);
        let (pattern, pair_ptr) = match mask {
            Some(m) => {
                let pattern = TilePattern {
                    rows: m.tile_m,
                    cols: m.tile_n,
                    ptr: m.tile_ptr.clone(),
                    idx: m.tile_colidx.clone(),
                };
                let pair_ptr = if reuse {
                    masked_pair_ptr(a, b, &pattern, &occupancy)
                } else {
                    Vec::new()
                };
                (pattern, pair_ptr)
            }
            None => live_tile_structure(a, b, &occupancy),
        };
        (occupancy, pattern, pair_ptr)
    });
    recorder.span_exit(span);
    let num_tiles = c_pattern.nnz();
    let total_pairs = if reuse { pair_ptr[c_pattern.rows] } else { 0 };
    assert!(
        u32::try_from(total_pairs).is_ok(),
        "{total_pairs} live pairs overflow the u32 list offsets"
    );

    // ---- Allocation for step 2 (counted like the paper's cudaMalloc). ----
    // C's row masks and local row pointers, then per path: the row pass's
    // flat pair lists with their per-tile end offsets, or the per-tile
    // intersection's indexes. The arrays come from the pool, zeroed only
    // where step 2 reads before it writes: the row pass ORs into the masks
    // and counts into the ends, and overwrites the row pointers and lists.
    let span = recorder.span_enter(job, "alloc");
    let (paper, mut c_masks, mut c_row_ptr, mut pair_ends, mut pair_lists) =
        breakdown.timed(Step::Alloc, || {
            let paper = (!reuse).then(|| PaperIndex::new(b, &c_pattern));
            // Largest first: a miss frees the least recently used idle
            // buffers, which must not be the ones the next checkout wants.
            let pair_lists = arena.take(total_pairs, (0u32, 0u32));
            let c_masks = arena.take_zeroed(num_tiles * TILE_DIM, 0u16);
            let c_row_ptr = arena.take(num_tiles * TILE_DIM, 0u8);
            let pair_ends = arena.take_zeroed(if reuse { num_tiles + 1 } else { 0 }, 0u32);
            (paper, c_masks, c_row_ptr, pair_ends, pair_lists)
        });
    recorder.span_exit(span);
    // Under a mask, one flag per tile records whether the mask removed
    // anything from the tile's symbolic pattern; step 3 reads it to pick the
    // tile's kernel. Whichever task owns tile `t` writes flag `t`, so the
    // flags need no per-task windows of their own. The flags publish no
    // other data, and the join that ends step 2 orders every store before
    // step 3's loads, so relaxed ordering suffices.
    let cut: Vec<AtomicBool> = match mask {
        Some(_) => (0..num_tiles).map(|_| AtomicBool::new(false)).collect(),
        None => Vec::new(),
    };
    // Live-pair count per tile on the paper path (the row pass's lists
    // carry theirs); it feeds the matched-pair counter.
    let mut pair_counts = vec![0usize; if reuse { 0 } else { num_tiles }];
    let step2_temp_bytes = num_tiles * (TILE_DIM * 3 + 8)
        + pair_ends.len() * std::mem::size_of::<u32>()
        + pair_lists.len() * std::mem::size_of::<(u32, u32)>()
        + (pair_ptr.len() + pair_counts.len()) * std::mem::size_of::<usize>()
        + paper.as_ref().map_or(0, PaperIndex::bytes)
        + occupancy.bytes()
        + cut.len()
        + 8;
    if let Err(e) = tracker.on_alloc(step2_temp_bytes) {
        tracker.on_free(input_bytes);
        return Err(fail(e.into()));
    }

    // Reserve one scratch arena per worker — the `for_each_init` dispatch
    // below checks one out per task chunk, and a worker runs its chunks one
    // at a time — and charge their footprint for the duration of this
    // multiply, so scratch memory shows up in `peak_bytes` every run.
    // Concurrent multiplies on a shared pool each hold their own arenas.
    //
    // Each arena's lists are sized up front to bounds the operands fix. The
    // row pass needs a slot per tile column of B and room for the heaviest
    // tile row's live pairs, which step 1 counted. A tile's intersection
    // matches at most min(la, lb) pairs, so on the paper path the shorter
    // of A's longest tile row and B's longest tile column bounds every
    // tile. Nothing then grows mid-phase, and the charge depends on the
    // operands alone rather than on which worker drew the heaviest work.
    let threads = rayon::current_num_threads().max(1);
    let sizes = match &paper {
        None => ScratchSizes {
            slots: b.tile_n,
            row_pairs: pair_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0),
            ..ScratchSizes::default()
        },
        Some(p) => ScratchSizes {
            pairs: p.pair_bound(a),
            ..ScratchSizes::default()
        },
    };
    let scratch = match arena.reserve(threads, sizes, tracker) {
        Ok(reservation) => reservation,
        Err(e) => {
            tracker.on_free(input_bytes + step2_temp_bytes);
            return Err(fail(e.into()));
        }
    };
    let arena_charged = scratch.charged();
    // The kernel level is a run constant: resolved once (policy, then the
    // `core.simd_dispatch` failpoint, then hardware detection), so the
    // counter replay below re-derives the same choices.
    let simd_level = simd::resolve_level(config.simd);

    // ---- Step 2: per-tile symbolic (Algorithm 2). ----
    let mut c_counts = vec![0usize; num_tiles];
    // Finishes tile `t` from the symbolic masks in its window: applies the
    // output mask, if any, and derives the local row pointers and count.
    let finish_tile = |t: usize, masks_w: &mut [u16], row_ptr_w: &mut [u8], count: &mut usize| {
        let mut masks = [0u16; TILE_DIM];
        masks.copy_from_slice(masks_w);
        if let Some(m) = mask {
            let mut m_masks = [0u16; TILE_DIM];
            m_masks.copy_from_slice(m.tile(t).masks);
            let allowed = maskops::and_masks(&masks, &m_masks, simd_level);
            cut[t].store(allowed != masks, Ordering::Relaxed);
            masks_w.copy_from_slice(&allowed);
            masks = allowed;
        }
        let (row_ptr, nnz) = maskops::row_ptr_from_masks(&masks);
        row_ptr_w.copy_from_slice(&row_ptr);
        *count = nnz;
    };
    // Steps 2 and 3 of the paper path give each parallel task an ascending
    // run of tiles: a `chunk_len` chunk (PerTile) or one tile row
    // (PerTileRow). The row pass takes runs of whole tile rows instead,
    // balanced by their live pairs (or one row each under PerTileRow).
    // C's arrays are split at run boundaries only, and a task slices each
    // tile's window out of its run's from the tile offsets, the way the
    // paper's warps find their output from `tileNnz`.
    let runs: Vec<usize> = match config.scheduling {
        Scheduling::PerTile => step2::chunk_bounds(num_tiles, threads),
        Scheduling::PerTileRow => c_pattern.ptr.clone(),
    };
    let span = recorder.span_enter(job, "step2");
    breakdown.timed(Step::Step2, || match &paper {
        None => {
            let row_runs: Vec<usize> = match config.scheduling {
                Scheduling::PerTile => step2::row_chunk_bounds(&pair_ptr, &c_pattern.ptr, threads),
                Scheduling::PerTileRow => (0..=c_pattern.rows).collect(),
            };
            let tile_bounds: Vec<usize> = row_runs.iter().map(|&i| c_pattern.ptr[i]).collect();
            let elem_bounds: Vec<usize> = tile_bounds.iter().map(|&t| t * TILE_DIM).collect();
            let pair_bounds: Vec<usize> = row_runs.iter().map(|&i| pair_ptr[i]).collect();
            split_mut_by_offsets(&mut c_masks, &elem_bounds)
                .into_par_iter()
                .zip(split_mut_by_offsets(&mut c_row_ptr, &elem_bounds))
                .zip(split_mut_by_offsets(&mut c_counts, &tile_bounds))
                .zip(split_mut_by_offsets(&mut pair_ends[1..], &tile_bounds))
                .zip(split_mut_by_offsets(&mut pair_lists, &pair_bounds))
                .enumerate()
                .for_each_init(
                    || scratch.checkout(),
                    |s, (r, ((((masks_r, rowptr_r), counts_r), ends_r), lists_r))| {
                        let (tile_base, pair_base) = (tile_bounds[r], pair_bounds[r]);
                        for i in row_runs[r]..row_runs[r + 1] {
                            let tiles = c_pattern.ptr[i]..c_pattern.ptr[i + 1];
                            let local = tiles.start - tile_base..tiles.end - tile_base;
                            let pairs = pair_ptr[i]..pair_ptr[i + 1];
                            if !pairs.is_empty() {
                                let found = step2::row_pass(
                                    a,
                                    b,
                                    &occupancy,
                                    i,
                                    c_pattern.row(i),
                                    s,
                                    &mut masks_r[local.start * TILE_DIM..local.end * TILE_DIM],
                                    &mut ends_r[local.clone()],
                                    &mut lists_r[pairs.start - pair_base..pairs.end - pair_base],
                                );
                                debug_assert_eq!(found, pairs.len(), "step 1 counted row {i}");
                            }
                            for (l, t) in local.zip(tiles) {
                                ends_r[l] += pairs.start as u32;
                                finish_tile(
                                    t,
                                    &mut masks_r[l * TILE_DIM..(l + 1) * TILE_DIM],
                                    &mut rowptr_r[l * TILE_DIM..(l + 1) * TILE_DIM],
                                    &mut counts_r[l],
                                );
                            }
                        }
                    },
                );
        }
        Some(p) => {
            let elem_bounds: Vec<usize> = runs.iter().map(|&t| t * TILE_DIM).collect();
            split_mut_by_offsets(&mut c_masks, &elem_bounds)
                .into_par_iter()
                .zip(split_mut_by_offsets(&mut c_row_ptr, &elem_bounds))
                .zip(split_mut_by_offsets(&mut c_counts, &runs))
                .zip(split_mut_by_offsets(&mut pair_counts, &runs))
                .enumerate()
                .for_each_init(
                    || scratch.checkout(),
                    |s, (r, (((masks_r, rowptr_r), counts_r), paircnt_r))| {
                        for (k, t) in (runs[r]..runs[r + 1]).enumerate() {
                            p.live_pairs(a, &occupancy, &c_pattern, t, s);
                            paircnt_r[k] = s.id_pairs.len();
                            let masks_w = &mut masks_r[k * TILE_DIM..(k + 1) * TILE_DIM];
                            masks_w.copy_from_slice(&symbolic_tile(a, b, &s.id_pairs).masks);
                            finish_tile(
                                t,
                                masks_w,
                                &mut rowptr_r[k * TILE_DIM..(k + 1) * TILE_DIM],
                                &mut counts_r[k],
                            );
                        }
                    },
                );
        }
    });
    recorder.span_exit(span);

    // Prefix-sum the per-tile counts into the tileNnz offsets — the scan
    // the paper ends step 2 with — then allocate C's nonzero arrays.
    let mut c_offsets = vec![0usize; num_tiles + 1];
    let span = recorder.span_enter(job, "scan");
    let nnz_c = breakdown.timed(Step::Step2, || {
        tsg_runtime::par_exclusive_scan_to(&c_counts, &mut c_offsets)
    });
    recorder.span_exit(span);

    // Step-2 counters, all derived from state the phase already produced:
    // one visit per output tile (== step-1 nnz) and the live-pair total.
    // The probe count is length-derived: the candidates the row pass tests
    // (`row_pass_probes`), or the per-tile binary searches' lookups
    // (`PaperIndex::probes`).
    let probes = if enabled {
        recorder.add(Counter::TilesVisited, num_tiles as u64);
        let probes = match &paper {
            None => {
                recorder.add(Counter::MatchedPairs, total_pairs as u64);
                row_pass_probes(a, b, &pair_ptr)
            }
            Some(p) => {
                recorder.add(
                    Counter::MatchedPairs,
                    pair_counts.iter().map(|&n| n as u64).sum(),
                );
                p.probes(a, &c_pattern.idx)
            }
        };
        recorder.add(Counter::IntersectionProbes, probes);
        probes
    } else {
        0
    };

    // The output arrays come from the pool unzeroed: step 3 overwrites the
    // indices, and zeroes a recycled value array's tile windows only where
    // the tile's kernel adds into them (a fresh one is zero already). A
    // fresh array is faulted in here, so its page faults land in the
    // allocation slice rather than in step 3.
    let output_bytes = nnz_c * (2 + std::mem::size_of::<T>()) + (num_tiles + 1) * 8;
    let span = recorder.span_enter(job, "alloc");
    let alloc_res = breakdown.timed(Step::Alloc, || {
        tracker.on_alloc(output_bytes)?;
        // Values first, as the largest (see the step-2 checkouts).
        let vals = tracker.timed_alloc(|| arena.take(nnz_c, T::ZERO));
        Ok::<_, SpGemmError>((
            tracker.timed_alloc(|| arena.take(nnz_c, 0u8)),
            tracker.timed_alloc(|| arena.take(nnz_c, 0u8)),
            vals,
        ))
    });
    recorder.span_exit(span);
    let (mut c_row_idx, mut c_col_idx, mut c_vals) = match alloc_res {
        Ok(v) => v,
        Err(e) => {
            tracker.on_free(input_bytes + step2_temp_bytes + arena_charged);
            return Err(fail(e));
        }
    };
    let stale_vals = !c_vals.is_fresh();

    // ---- Step 3: numeric (Algorithm 3). ----
    // The per-tile kernel: the accumulator rule at the run's level, with a
    // tile the mask cut moved from the sparse kernel to its dense
    // counterpart. A pure function of step-2 state, so the counter replay
    // below re-derives exactly what ran.
    let tile_kernel = |t: usize, nnz: usize| {
        let cut = cut.get(t).is_some_and(|c| c.load(Ordering::Relaxed));
        match simd::select_kernel(simd_level, nnz, config.accumulator, config.tnnz_threshold) {
            Kernel::SparseScalar if cut => Kernel::DenseScalar,
            Kernel::SparseSimd if cut => Kernel::DenseSimd,
            kernel => kernel,
        }
    };
    let step3_tile = |s: &mut Scratch,
                      t: usize,
                      row_idx_w: &mut [u8],
                      col_idx_w: &mut [u8],
                      vals_w: &mut [T]| {
        // Only a mask tile the product misses can be empty; nothing to do.
        if vals_w.is_empty() {
            return;
        }
        let masks = &c_masks[t * TILE_DIM..(t + 1) * TILE_DIM];
        let row_ptr = &c_row_ptr[t * TILE_DIM..(t + 1) * TILE_DIM];
        let filled = simd::fill_indices_fast(masks, row_idx_w, col_idx_w, simd_level);
        debug_assert_eq!(filled, vals_w.len());
        // The row pass's list is read as it is; the paper path repeats the
        // tile's intersection.
        let pairs = match &paper {
            None => &pair_lists[pair_ends[t] as usize..pair_ends[t + 1] as usize],
            Some(p) => {
                p.live_pairs(a, &occupancy, &c_pattern, t, s);
                &s.id_pairs[..]
            }
        };
        // The sparse accumulators add into the window; the dense ones
        // overwrite it. A recycled array is zeroed here, with the window
        // about to be read, rather than in a pass of its own.
        let kernel = tile_kernel(t, vals_w.len());
        if stale_vals && matches!(kernel, Kernel::SparseScalar | Kernel::SparseSimd) {
            vals_w.fill(T::ZERO);
        }
        simd::run_numeric(kernel, simd_level, a, b, pairs, masks, row_ptr, vals_w);
    };
    let span = recorder.span_enter(job, "step3");
    breakdown.timed(Step::Step3, || {
        let elem_bounds: Vec<usize> = runs.iter().map(|&t| c_offsets[t]).collect();
        let row_idx_runs = split_mut_by_offsets(&mut c_row_idx, &elem_bounds);
        let col_idx_runs = split_mut_by_offsets(&mut c_col_idx, &elem_bounds);
        let vals_runs = split_mut_by_offsets(&mut c_vals, &elem_bounds);
        row_idx_runs
            .into_par_iter()
            .zip(col_idx_runs)
            .zip(vals_runs)
            .enumerate()
            .for_each_init(
                || scratch.checkout(),
                |s, (r, ((ri_r, ci_r), vals_r))| {
                    let elem_base = elem_bounds[r];
                    for t in runs[r]..runs[r + 1] {
                        let lo = c_offsets[t] - elem_base;
                        let hi = c_offsets[t + 1] - elem_base;
                        step3_tile(
                            s,
                            t,
                            &mut ri_r[lo..hi],
                            &mut ci_r[lo..hi],
                            &mut vals_r[lo..hi],
                        );
                    }
                },
            );
    });
    recorder.span_exit(span);

    // Step-3 counters: the kernel pick per tile re-derives the exact branch
    // `step3_tile` took (same inputs, same pure selector), and the paper
    // path repeats the step-2 intersections, so its probe count is charged
    // again. `sparse + dense` sums to the tiles holding entries (all of
    // them, unmasked); the `simd_*` counters histogram which implementation
    // ran each accumulator shape.
    if enabled {
        if paper.is_some() {
            recorder.add(Counter::IntersectionProbes, probes);
        }
        let (mut sparse, mut dense) = (0u64, 0u64);
        let (mut simd_sparse, mut simd_dense) = (0u64, 0u64);
        for t in (0..num_tiles).filter(|&t| c_offsets[t + 1] > c_offsets[t]) {
            match tile_kernel(t, c_offsets[t + 1] - c_offsets[t]) {
                Kernel::SparseScalar => sparse += 1,
                Kernel::DenseScalar => dense += 1,
                Kernel::SparseSimd => {
                    sparse += 1;
                    simd_sparse += 1;
                }
                Kernel::DenseSimd => {
                    dense += 1;
                    simd_dense += 1;
                }
            }
        }
        recorder.add(Counter::SparseAccPicks, sparse);
        recorder.add(Counter::DenseAccPicks, dense);
        recorder.add(Counter::SimdSparsePicks, simd_sparse);
        recorder.add(Counter::SimdDensePicks, simd_dense);
    }

    // Reconcile arena growth: the reservation charged its arenas at their
    // reserved sizes; any list growth during steps 2/3 is charged now so
    // the peak covers it.
    let arena_total = {
        let grown = scratch.grown();
        if grown > 0 {
            if let Err(e) = tracker.on_alloc(grown) {
                tracker.on_free(input_bytes + step2_temp_bytes + output_bytes + arena_charged);
                return Err(fail(e.into()));
            }
        }
        arena_charged + grown
    };

    // Assemble the output structure. Its arrays go out lent with it;
    // [`recycle`] hands them back.
    let c = TileMatrix {
        nrows: a.nrows,
        ncols: b.ncols,
        tile_m: a.tile_m,
        tile_n: b.tile_n,
        tile_ptr: c_pattern.ptr,
        tile_colidx: c_pattern.idx,
        tile_nnz: c_offsets,
        row_ptr: c_row_ptr.into_vec(),
        row_idx: c_row_idx.into_vec(),
        col_idx: c_col_idx.into_vec(),
        vals: c_vals.into_vec(),
        masks: c_masks.into_vec(),
    };
    // The multiply only adds charges until here, so its own peak is their
    // sum; whatever else a shared tracker carries is not part of it.
    let peak_bytes = input_bytes + step2_temp_bytes + output_bytes + arena_total;
    // Everything this product allocated is released: inputs, step-2
    // temporaries (the pair lists among them), the arena reservation, and
    // the output arrays (handed back to the host). The tracker's
    // current-bytes count returns to its pre-call level — DESIGN.md §5's
    // balanced alloc/free rule. The arenas themselves stay warm in the pool
    // for the next multiply; only the tracker charge is released.
    tracker.on_free(peak_bytes);
    recorder.span_exit(root);

    Ok(Output {
        c,
        breakdown,
        peak_bytes,
        conversion: None,
    })
}

/// Hands a product nobody reads any more back to `pool`: its entry arrays
/// (`row_idx`, `col_idx`, `vals`) and per-tile `masks` and `row_ptr` — the
/// arrays [`multiply_with_pool`] checks out for C — become idle buffers a
/// later multiply reuses instead of faulting in fresh pages. The pool keeps
/// them only within its retention bound ([`ScratchPool::give`]).
pub fn recycle<T: Scalar>(c: TileMatrix<T>, pool: &ScratchPool) {
    pool.give(c.vals);
    pool.give(c.row_idx);
    pool.give(c.col_idx);
    pool.give(c.masks);
    pool.give(c.row_ptr);
}

/// Multiplies CSR operands by converting to tiled form, returning the same
/// [`Output`] as [`multiply`] with [`Output::conversion`] filled in.
/// Conversion time stays outside the breakdown, matching the paper's timing
/// protocol (which assumes tiled inputs); use [`Output::to_csr`] to recover
/// a CSR product.
pub fn multiply_csr<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    config: &Config,
    tracker: &MemTracker,
) -> Result<Output<T>, SpGemmError> {
    let (ta, conv_a) = timed_csr_to_tile(a);
    let (tb, conv_b) = timed_csr_to_tile(b);
    let arena = ScratchPool::new();
    let mut out = multiply_with_pool(&ta, &tb, None, config, tracker, &NullRecorder, 0, &arena)?;
    out.conversion = Some(ConversionTiming {
        conversion: conv_a.conversion + conv_b.conversion,
        tiles: conv_a.tiles + conv_b.tiles,
        nnz: conv_a.nnz + conv_b.nnz,
    });
    Ok(out)
}

/// Total bytes of a tile matrix, as tracked on the simulated device.
pub fn tile_matrix_bytes<T: Scalar>(m: &TileMatrix<T>) -> usize {
    use tsg_matrix::Footprint;
    m.bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step2::matched_pairs;
    use tsg_matrix::{Coo, Dense};

    fn random_csr(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = Coo::new(n, n);
        for r in 0..n as u32 {
            for _ in 0..per_row {
                coo.push(
                    r,
                    (next() % n as u64) as u32,
                    ((next() % 9) + 1) as f64 * 0.5,
                );
            }
        }
        coo.to_csr()
    }

    #[test]
    fn multiply_matches_dense_oracle() {
        for (n, per_row, seed) in [(16usize, 3usize, 1u64), (50, 4, 2), (130, 6, 3)] {
            let a = random_csr(n, per_row, seed);
            let b = random_csr(n, per_row, seed + 100);
            let c = multiply_csr(&a, &b, &Config::default(), &MemTracker::new())
                .unwrap()
                .to_csr();
            let expect = Dense::from_csr(&a).matmul(&Dense::from_csr(&b)).to_csr();
            assert!(
                c.approx_eq_ignoring_zeros(&expect, 1e-10),
                "mismatch for n={n}"
            );
        }
    }

    #[test]
    fn output_tile_structure_validates() {
        let a = random_csr(100, 5, 7);
        let ta = TileMatrix::from_csr(&a);
        let out = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        out.c.validate().unwrap();
        assert!(out.breakdown.total().as_nanos() > 0);
        assert!(out.peak_bytes > 0);
    }

    #[test]
    fn all_config_variants_agree() {
        let a = random_csr(80, 5, 11);
        let reference = multiply_csr(&a, &a, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        for accumulator in [
            crate::AccumulatorKind::Adaptive,
            crate::AccumulatorKind::AlwaysSparse,
            crate::AccumulatorKind::AlwaysDense,
        ] {
            for tnnz_threshold in [0, 64, 192, 256] {
                let cfg = Config::builder()
                    .tnnz_threshold(tnnz_threshold)
                    .accumulator(accumulator)
                    .build();
                let c = multiply_csr(&a, &a, &cfg, &MemTracker::new())
                    .unwrap()
                    .to_csr();
                assert!(
                    c.approx_eq_ignoring_zeros(&reference, 1e-10),
                    "variant {cfg:?} disagrees"
                );
            }
        }
    }

    #[test]
    fn scheduling_variants_agree_bitwise() {
        use tsg_gen::suite::GenSpec;
        // Skewed R-MAT inputs (a Graph500-parameter one and a webbase-like
        // one) on top of the uniform random matrix: task granularity and
        // pair reuse must be invisible in the output on every input family.
        let inputs: Vec<(&str, Csr<f64>)> = vec![
            ("uniform-random", random_csr(150, 6, 21)),
            (
                "rmat-skewed",
                GenSpec::Rmat {
                    scale: 11,
                    edges: 18_000,
                    mild: false,
                    seed: 7,
                }
                .build(),
            ),
            (
                "webbase-like",
                GenSpec::Rmat {
                    scale: 12,
                    edges: 30_000,
                    mild: false,
                    seed: 112,
                }
                .build(),
            ),
        ];
        for (name, a) in &inputs {
            let ta = TileMatrix::from_csr(a);
            let reference = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
            for scheduling in [crate::Scheduling::PerTile, crate::Scheduling::PerTileRow] {
                for pair_reuse in [true, false] {
                    let cfg = Config {
                        scheduling,
                        pair_reuse,
                        ..Config::default()
                    };
                    let out = multiply(&ta, &ta, &cfg, &MemTracker::new()).unwrap();
                    assert_eq!(
                        reference.c, out.c,
                        "{name}: {scheduling:?}/pair_reuse={pair_reuse} must agree bitwise"
                    );
                }
            }
        }
    }

    /// A product shaped to stress the row pass's chunk split: each tile row
    /// of A is empty (kind 0), light (kind 1: inner tiles 0 and `INNER - 1`)
    /// or heavy (kind 2: every inner tile), with one entry per tile in local
    /// column 0. B's tile column `j` holds two entries picked by `j % 3` —
    /// inner tiles 0 and `INNER - 1`, adjacent inner tiles 0 and 1, or local
    /// row 1 of inner tile 0 (which A never touches: a dead pair) beside
    /// `INNER - 1` — plus an entry in every inner tile from 2 to
    /// `INNER - 2`, which only heavy rows reach.
    fn row_stress(row_kinds: &[u8], cols: usize) -> (TileMatrix<f64>, TileMatrix<f64>) {
        const INNER: u32 = 64;
        let mut a = Coo::new(row_kinds.len() * TILE_DIM, INNER as usize * TILE_DIM);
        for (i, &kind) in (0u32..).zip(row_kinds) {
            let inner: Vec<u32> = match kind {
                0 => vec![],
                1 => vec![0, INNER - 1],
                _ => (0..INNER).collect(),
            };
            for k in inner {
                a.push(i * 16, k * 16, 1.0 + (i + k) as f64 * 0.5);
            }
        }
        let mut b = Coo::new(INNER as usize * TILE_DIM, cols * TILE_DIM);
        for j in 0..cols as u32 {
            // (inner tile, local row) of the column's two entries.
            let [near, far] = match j % 3 {
                0 => [(0, 0), (INNER - 1, 0)],
                1 => [(0, 0), (1, 0)],
                _ => [(0, 1), (INNER - 1, 0)],
            };
            b.push(near.0 * 16 + near.1, j * 16, 2.0);
            b.push(far.0 * 16 + far.1, j * 16 + 3, -1.0);
            for k in 2..INNER - 1 {
                b.push(k * 16, j * 16 + 5, 0.25 * (k % 7) as f64);
            }
        }
        (
            TileMatrix::from_csr(&a.to_csr()),
            TileMatrix::from_csr(&b.to_csr()),
        )
    }

    /// Asserts that every tile of the layout `c` gets from the row pass
    /// exactly the live pairs of the paper's intersection, in its order,
    /// and returns how many dead pairs the intersections matched. A pair is
    /// live iff some entry `(r, c)` of its A tile meets a non-empty row `c`
    /// of its B tile.
    fn assert_row_lists_match_intersection(
        ta: &TileMatrix<f64>,
        tb: &TileMatrix<f64>,
        c: &TileMatrix<f64>,
        what: &str,
    ) -> usize {
        let live = |(a_id, b_id): (u32, u32)| {
            let b_masks = tb.tile(b_id as usize).masks;
            ta.tile(a_id as usize)
                .col_idx
                .iter()
                .any(|&col| b_masks[col as usize] != 0)
        };
        let lists = step2::row_pass_lists(ta, tb, &c.tile_ptr, &c.tile_colidx);
        assert_eq!(lists.len(), c.tile_count(), "{what}: one list per tile");
        let b_cols = tb.col_index();
        let (mut positions, mut pairs) = (Vec::new(), Vec::new());
        let mut dead = 0;
        for ti in 0..c.tile_m {
            for t in c.tile_row_range(ti) {
                matched_pairs(
                    ta,
                    &b_cols,
                    ti,
                    c.tile_colidx[t] as usize,
                    crate::intersect::intersect_binary_search,
                    &mut positions,
                    &mut pairs,
                );
                let matched = pairs.len();
                pairs.retain(|&pair| live(pair));
                dead += matched - pairs.len();
                assert_eq!(lists[t], pairs, "{what}: tile {t}");
            }
        }
        dead
    }

    #[test]
    fn pair_buffer_matches_recomputed_pairs() {
        let random = TileMatrix::from_csr(&random_csr(120, 5, 29));
        let mask = TileMatrix::from_csr(&random_csr(120, 7, 30));
        // Rows 0 and 9 are empty, row 5 heavy, the rest light.
        let kinds: Vec<u8> = (0..40)
            .map(|i| match i {
                0 | 9 => 0,
                5 => 2,
                _ => 1,
            })
            .collect();
        let (sa, sb) = row_stress(&kinds, 150);
        for threads in [1usize, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for scheduling in [crate::Scheduling::PerTile, crate::Scheduling::PerTileRow] {
                let what = format!("{scheduling:?}/{threads} workers");
                let cfg = |pair_reuse| {
                    Config::builder()
                        .scheduling(scheduling)
                        .pair_reuse(pair_reuse)
                        .build()
                };
                for (name, ta, tb) in [("random", &random, &random), ("stress", &sa, &sb)] {
                    let run = |pair_reuse| {
                        pool.install(|| multiply(ta, tb, &cfg(pair_reuse), &MemTracker::new()))
                            .unwrap()
                    };
                    let (out, recomputed) = (run(true), run(false));
                    assert_eq!(
                        out.c, recomputed.c,
                        "{name}/{what}: reuse must be bitwise invisible"
                    );
                    assert_row_lists_match_intersection(ta, tb, &out.c, &format!("{name}/{what}"));
                }
                // Under a mask the lists hold only the pairs landing in M's
                // tiles, and a mask tile the product misses holds none.
                let masked = |pair_reuse| {
                    pool.install(|| {
                        multiply_masked(
                            &random,
                            &random,
                            &mask,
                            &cfg(pair_reuse),
                            &MemTracker::new(),
                        )
                    })
                    .unwrap()
                };
                assert_eq!(masked(true).c, masked(false).c, "masked/{what}");
                assert_row_lists_match_intersection(
                    &random,
                    &random,
                    &mask,
                    &format!("masked/{what}"),
                );
            }
            // The stress product really straddles what it is meant to: an
            // empty tile row, a row heavier than a chunk's share in a chunk
            // of its own, a ragged last chunk, and dead pairs beside live
            // ones in tiles that all hold entries.
            let out = pool
                .install(|| multiply(&sa, &sb, &Config::default(), &MemTracker::new()))
                .unwrap();
            let c = &out.c;
            assert_eq!(c.tile_count(), 38 * 150, "every tile of a non-empty row");
            assert!(c.tile_row_range(9).is_empty());
            let occ = Occupancy::new(&sa, &sb);
            let (_, pair_ptr) = live_tile_structure(&sa, &sb, &occ);
            let rows = step2::row_chunk_bounds(&pair_ptr, &c.tile_ptr, threads);
            let weight = |i: usize| pair_ptr[i] + c.tile_ptr[i];
            let share = weight(40).div_ceil(threads * 8);
            assert!(weight(6) - weight(5) > share, "row 5 outweighs a chunk");
            assert!(
                rows.windows(2).any(|w| w == [5, 6]),
                "the heavy row is a chunk of its own: {rows:?}"
            );
            let last = rows[rows.len() - 2];
            assert!(
                weight(40) - weight(last) < share,
                "ragged last chunk: {rows:?}"
            );
            assert!((0..c.tile_count()).all(|t| c.tile_nnz_of(t) > 0));
            let dead = assert_row_lists_match_intersection(&sa, &sb, c, "stress");
            assert_eq!(dead, 38 * 50, "one dead pair per `j % 3 == 2` tile");
        }
    }

    #[test]
    fn tracker_returns_to_zero_after_multiply() {
        let a = random_csr(120, 5, 33);
        let ta = TileMatrix::from_csr(&a);
        for scheduling in [crate::Scheduling::PerTile, crate::Scheduling::PerTileRow] {
            for pair_reuse in [true, false] {
                let cfg = Config {
                    scheduling,
                    pair_reuse,
                    ..Config::default()
                };
                let tracker = MemTracker::new();
                let out = multiply(&ta, &ta, &cfg, &tracker).unwrap();
                assert!(out.peak_bytes > 0);
                assert_eq!(
                    tracker.current_bytes(),
                    0,
                    "unbalanced alloc/free for {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn shared_arena_pool_is_reused_and_invisible_in_output() {
        let a = random_csr(100, 5, 57);
        let ta = TileMatrix::from_csr(&a);
        let reference = multiply(&ta, &ta, &Config::default(), &MemTracker::new()).unwrap();
        let pool = tsg_runtime::ScratchPool::new();
        let tracker = MemTracker::new();
        let first = multiply_with_pool(
            &ta,
            &ta,
            None,
            &Config::default(),
            &tracker,
            &NullRecorder,
            0,
            &pool,
        )
        .unwrap();
        assert_eq!(reference.c, first.c);
        assert_eq!(tracker.current_bytes(), 0, "arena charge must balance");
        let created_after_first = pool.created();
        assert!(created_after_first > 0, "the multiply warmed the pool");
        let warmed_bytes = pool.bytes();
        assert!(warmed_bytes >= created_after_first * tsg_runtime::Scratch::BASE_BYTES);
        // Steady state: a second multiply reuses the warmed arenas and
        // produces the identical result.
        let second = multiply_with_pool(
            &ta,
            &ta,
            None,
            &Config::default(),
            &tracker,
            &NullRecorder,
            1,
            &pool,
        )
        .unwrap();
        assert_eq!(reference.c, second.c);
        assert_eq!(pool.created(), created_after_first, "no new arenas");
        assert_eq!(pool.bytes(), warmed_bytes, "no scratch growth in reuse");
        assert_eq!(tracker.current_bytes(), 0);
    }

    /// Products of other operands, recycled with NaN and ±inf in their
    /// values, leave a pool whose every buffer holds stale indices, masks,
    /// row pointers, pair lists and ends. A multiply drawing only on those
    /// buffers must match a fresh-pool run bit for bit and in `peak_bytes`,
    /// masked and unmasked, under both schedulings, on both step-2 paths
    /// and through all four numeric kernels.
    #[test]
    fn recycled_buffers_never_reach_the_product() {
        let ta = TileMatrix::from_csr(&random_csr(120, 5, 81));
        let tm = TileMatrix::from_csr(&random_csr(120, 7, 82));
        // Denser than `ta`, so every array their products check out is at
        // least as long as the target's (and within the 2× reuse window).
        let others = [83u64, 84].map(|seed| TileMatrix::from_csr(&random_csr(120, 6, seed)));
        let dense = TileMatrix::from_csr(&random_csr(120, 16, 85));
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let kernels = [
            (
                crate::AccumulatorKind::AlwaysSparse,
                crate::SimdPolicy::ForceScalar,
            ),
            (
                crate::AccumulatorKind::AlwaysSparse,
                crate::SimdPolicy::Auto,
            ),
            (
                crate::AccumulatorKind::AlwaysDense,
                crate::SimdPolicy::ForceScalar,
            ),
            (crate::AccumulatorKind::AlwaysDense, crate::SimdPolicy::Auto),
        ];
        for mask in [None, Some(&tm)] {
            for scheduling in [crate::Scheduling::PerTile, crate::Scheduling::PerTileRow] {
                for pair_reuse in [true, false] {
                    for (accumulator, simd) in kernels {
                        let cfg = Config {
                            scheduling,
                            pair_reuse,
                            accumulator,
                            simd,
                            ..Config::default()
                        };
                        let what = format!("masked={} {cfg:?}", mask.is_some());
                        let run = |pool: &ScratchPool, m: &TileMatrix<f64>| {
                            let tracker = MemTracker::new();
                            multiply_with_pool(m, m, mask, &cfg, &tracker, &NullRecorder, 0, pool)
                                .unwrap()
                        };
                        let fresh = run(&ScratchPool::new(), &ta);
                        // Keeps every buffer, however small. A much denser
                        // product first raises the retention bound, so the
                        // pool keeps all that the others hand back.
                        let pool = ScratchPool::keeping_above(0);
                        recycle(run(&pool, &dense).c, &pool);
                        for m in &others {
                            let mut c = run(&pool, m).c;
                            for (v, p) in c.vals.iter_mut().zip(poison.iter().cycle()) {
                                *v = *p;
                            }
                            recycle(c, &pool);
                        }
                        let before = pool.buffer_stats();
                        let warm = run(&pool, &ta);
                        let after = pool.buffer_stats();
                        assert_eq!(after.fresh, before.fresh, "{what}: a checkout missed");
                        assert!(after.reused > before.reused, "{what}");
                        assert_eq!(after.checked_out_bytes, 0, "{what}");
                        assert_eq!(warm.c, fresh.c, "{what}");
                        let bits = |c: &TileMatrix<f64>| -> Vec<u64> {
                            c.vals.iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&warm.c), bits(&fresh.c), "{what}");
                        assert_eq!(warm.peak_bytes, fresh.peak_bytes, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn peak_bytes_are_the_jobs_own_on_a_shared_tracker() {
        let large = TileMatrix::from_csr(&random_csr(400, 8, 71));
        let small = TileMatrix::from_csr(&random_csr(40, 3, 72));
        let pool = tsg_runtime::ScratchPool::new();
        let run = |m: &TileMatrix<f64>, tracker: &MemTracker| {
            let cfg = Config::default();
            multiply_with_pool(m, m, None, &cfg, tracker, &NullRecorder, 0, &pool)
                .unwrap()
                .peak_bytes
        };
        let shared = MemTracker::new();
        let large_peak = run(&large, &shared);
        let small_after_large = run(&small, &shared);
        // The same small call, on a fresh tracker and the same warm pool.
        let fresh = MemTracker::new();
        let small_alone = run(&small, &fresh);
        assert!(small_alone < large_peak, "{small_alone} vs {large_peak}");
        assert_eq!(
            small_after_large, small_alone,
            "a job's peak must not inherit an earlier job's"
        );
        assert_eq!(small_alone, fresh.peak_bytes(), "fresh tracker: its peak");
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        let b = TileMatrix::from_csr(&Csr::<f64>::zero(48, 48));
        let err = multiply(&a, &b, &Config::default(), &MemTracker::new()).unwrap_err();
        assert!(matches!(err, SpGemmError::ShapeMismatch { .. }));
    }

    #[test]
    fn memory_budget_failure_surfaces_as_oom() {
        let a = random_csr(200, 8, 13);
        let ta = TileMatrix::from_csr(&a);
        let tracker = MemTracker::with_budget(1024); // absurdly small
        let err = multiply(&ta, &ta, &Config::default(), &tracker).unwrap_err();
        assert!(matches!(err, SpGemmError::OutOfMemory(_)));
    }

    #[test]
    fn identity_times_matrix_is_identity_map() {
        let a = random_csr(64, 4, 17);
        let i = Csr::<f64>::identity(64);
        let out = multiply_csr(&i, &a, &Config::default(), &MemTracker::new()).unwrap();
        assert!(out.to_csr().approx_eq_ignoring_zeros(&a, 1e-12));
        assert!(out.conversion.is_some(), "CSR entry point times conversion");
        let c2 = multiply_csr(&a, &i, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        assert!(c2.approx_eq_ignoring_zeros(&a, 1e-12));
    }

    #[test]
    fn csr_entry_point_reports_conversion() {
        let a = Csr::<f64>::identity(64);
        let out = multiply_csr(&a, &a, &Config::default(), &MemTracker::new()).unwrap();
        let conv = out.conversion.expect("CSR entry point times conversion");
        assert_eq!(conv.nnz, 128, "both operands' nonzeros are converted");
        assert_eq!(out.to_csr(), a);
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let z = TileMatrix::from_csr(&Csr::<f64>::zero(32, 32));
        let out = multiply(&z, &z, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.c.tile_count(), 0);
    }

    #[test]
    fn cancelled_entries_stay_stored_as_zeros() {
        // A(0, 16) * B(16, 0): step 1 pairs tile (0,1) of A with tile (1,0)
        // of B through a live pair, giving C tile (0,0). Use values that
        // cancel: A has two entries whose products into the same C position
        // cancel exactly.
        let mut coo_a = Coo::new(32, 32);
        coo_a.push(0, 16, 1.0);
        coo_a.push(0, 17, 1.0);
        let mut coo_b = Coo::new(32, 32);
        coo_b.push(16, 0, 1.0);
        coo_b.push(17, 0, -1.0);
        let ta = TileMatrix::from_csr(&coo_a.to_csr());
        let tb = TileMatrix::from_csr(&coo_b.to_csr());
        let out = multiply(&ta, &tb, &Config::default(), &MemTracker::new()).unwrap();
        // The tile exists structurally (mask bit set), with a stored value
        // of exactly zero — numeric cancellation is not removed, matching
        // the paper's "no tile-wise cancellation" rule at the numeric level.
        assert_eq!(out.c.tile_count(), 1);
        assert_eq!(out.c.nnz(), 1);
        assert_eq!(out.c.vals[0], 0.0);
        let csr = out.c.to_csr().drop_numeric_zeros();
        assert_eq!(csr.nnz(), 0);
    }

    fn masked_oracle(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        let full = multiply_csr(a, b, &Config::default(), &MemTracker::new())
            .unwrap()
            .to_csr();
        let pattern = mask.map_values(|_| 1.0);
        tsg_matrix::ops::hadamard(&full, &pattern)
    }

    #[test]
    fn masked_product_matches_hadamard_oracle() {
        for seed in [1u64, 7, 23] {
            let a = random_csr(80, 5, seed);
            let b = random_csr(80, 5, seed + 50);
            let mask = random_csr(80, 8, seed + 99);
            let ta = TileMatrix::from_csr(&a);
            let tb = TileMatrix::from_csr(&b);
            let tm = TileMatrix::from_csr(&mask);
            let out =
                multiply_masked(&ta, &tb, &tm, &Config::default(), &MemTracker::new()).unwrap();
            out.c.validate().unwrap();
            // C takes M's tile layout, mask tiles with an empty product
            // included.
            assert_eq!(out.c.tile_ptr, tm.tile_ptr);
            assert_eq!(out.c.tile_colidx, tm.tile_colidx);
            let got = out.c.to_csr().drop_numeric_zeros();
            let want = masked_oracle(&a, &b, &mask).drop_numeric_zeros();
            assert!(got.approx_eq_ignoring_zeros(&want, 1e-10), "seed {seed}");
        }
    }

    #[test]
    fn masked_variants_agree_bitwise() {
        let a = TileMatrix::from_csr(&random_csr(150, 6, 61));
        let mask = TileMatrix::from_csr(&random_csr(150, 9, 62));
        let reference = multiply_masked(&a, &a, &mask, &Config::default(), &MemTracker::new())
            .unwrap()
            .c;
        for scheduling in [crate::Scheduling::PerTile, crate::Scheduling::PerTileRow] {
            for pair_reuse in [true, false] {
                for simd in [crate::SimdPolicy::Auto, crate::SimdPolicy::ForceScalar] {
                    let cfg = Config {
                        scheduling,
                        pair_reuse,
                        simd,
                        ..Config::default()
                    };
                    let tracker = MemTracker::new();
                    let out = multiply_masked(&a, &a, &mask, &cfg, &tracker).unwrap();
                    assert_eq!(reference, out.c, "{cfg:?} must agree bitwise");
                    assert_eq!(tracker.current_bytes(), 0, "unbalanced for {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn self_mask_gives_triangle_counting_kernel() {
        // C<A> = A·A on a small undirected graph: per-edge common-neighbour
        // counts.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 3)] {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let t = TileMatrix::from_csr(&coo.to_csr());
        let out = multiply_masked(&t, &t, &t, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        // Edge (0,1): common neighbour {2} -> 1. Edge (2,3): no common
        // neighbour, so the position is absent from the product pattern and
        // the mask intersection drops it.
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(2, 3), None);
        // Triangle count = sum / 6.
        assert_eq!(tsg_matrix::ops::sum_all(&c), 6.0);
    }

    #[test]
    fn masked_output_never_exceeds_mask_pattern() {
        let a = random_csr(60, 6, 3);
        let mask = random_csr(60, 2, 4);
        let ta = TileMatrix::from_csr(&a);
        let tm = TileMatrix::from_csr(&mask);
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        let c = out.c.to_csr();
        for row in 0..60 {
            let (cols, _) = c.row(row);
            let (mcols, _) = mask.row(row);
            for &col in cols {
                assert!(mcols.contains(&col), "({row},{col}) outside the mask");
            }
        }
        assert!(out.c.nnz() <= mask.nnz());
    }

    #[test]
    fn empty_mask_gives_empty_product() {
        let ta = TileMatrix::from_csr(&random_csr(40, 5, 9));
        let tm = TileMatrix::from_csr(&Csr::zero(40, 40));
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &MemTracker::new()).unwrap();
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.c.tile_count(), 0);
    }

    #[test]
    fn masked_tracker_returns_to_baseline_after_success_and_every_refusal() {
        let a = random_csr(80, 5, 31);
        let mask = random_csr(80, 8, 32);
        let (ta, tm) = (TileMatrix::from_csr(&a), TileMatrix::from_csr(&mask));
        // A resident charge the multiply must leave exactly as it found it.
        let baseline = 4096;
        let tracker = MemTracker::with_timeline(usize::MAX);
        tracker.on_alloc(baseline).unwrap();
        let out = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap();
        assert!(out.c.nnz() > 0);
        assert_eq!(tracker.current_bytes(), baseline, "success credits all");

        // Refuse each charge in turn — inputs, step-2 temporaries (the
        // pair lists among them), arena reservation, output arrays — by a
        // budget one byte short of the level that charge reached.
        let timeline = tracker.timeline();
        let levels: Vec<usize> = timeline
            .windows(2)
            .filter(|w| w[1].current_bytes > w[0].current_bytes)
            .map(|w| w[1].current_bytes)
            .collect();
        assert_eq!(levels.len(), 4, "charges: {levels:?}");
        for level in levels {
            let tracker = MemTracker::with_budget(level - 1);
            tracker.on_alloc(baseline).unwrap();
            let err = multiply_masked(&ta, &ta, &tm, &Config::default(), &tracker).unwrap_err();
            assert!(matches!(err, SpGemmError::OutOfMemory(_)), "{err:?}");
            assert_eq!(tracker.current_bytes(), baseline, "budget {}", level - 1);
        }
    }

    #[test]
    fn masked_shape_mismatch_is_rejected() {
        let a = TileMatrix::from_csr(&Csr::<f64>::identity(32));
        let m = TileMatrix::from_csr(&Csr::<f64>::identity(48));
        let err = multiply_masked(&a, &a, &m, &Config::default(), &MemTracker::new()).unwrap_err();
        assert_eq!(
            err,
            SpGemmError::ShapeMismatch {
                a: (48, 48),
                b: (32, 32)
            }
        );
    }
}
