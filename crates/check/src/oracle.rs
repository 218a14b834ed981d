//! The differential oracle.
//!
//! For one operand pair the oracle establishes the serial Gustavson product
//! ([`tsg_baselines::reference::reference_spgemm`]) as gold, then drives
//! every implementation the workspace ships and compares each against it:
//!
//! * **Bitwise tier** — the tiled pipeline under every knob that must not
//!   change a single bit of the output: scheduling × pair-reuse ×
//!   recorder. These variants reorder *scheduling*,
//!   never the per-tile arithmetic, so their tiled outputs are compared for
//!   exact equality against the default-config run.
//! * **Value tier** — knobs and methods that legitimately reorder the float
//!   summation (accumulator policy × `tnnz` threshold, and all five
//!   baseline methods). Their products are compared against gold under the
//!   [`ValuePolicy`] after canonicalization.
//! * **SIMD-dispatch tier** ([`check_simd`]) — the vector kernels, and the
//!   dense vector kernel on every tile, against the forced-scalar run,
//!   *bitwise*, across the plain, masked and chained products: the vector
//!   kernels are written to preserve the scalar per-slot addition order
//!   exactly.
//!
//! Every single run uses a fresh [`MemTracker`] and the oracle asserts it
//! returns to zero bytes — a leak in any variant is a failure even when the
//! product is right.

use tilespgemm_core::{
    multiply, multiply_csr, multiply_masked, multiply_with_pool, AccumulatorKind, Config,
    Scheduling, SimdPolicy,
};
use tsg_baselines::reference::reference_spgemm;
use tsg_baselines::{run_method, MethodKind};
use tsg_matrix::{ops, Coo, Csr, TileMatrix};
use tsg_runtime::{CollectingRecorder, Counter, MemTracker, Recorder, ScratchPool};

use crate::compare::{compare_csr, Mismatch, ValuePolicy};

/// A passed oracle run.
#[derive(Debug, Clone, Copy)]
pub struct OracleReport {
    /// Implementation variants checked (pipeline configs + baselines).
    pub variants: usize,
    /// Stored nonzeros of the canonical gold product.
    pub gold_nnz: usize,
}

/// A failed oracle run: which variant diverged, and how.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Human-readable variant label (e.g. `tile[sched=PerTileRow,reuse=off]`).
    pub variant: String,
    /// The first difference found.
    pub mismatch: Mismatch,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variant {}: {}", self.variant, self.mismatch)
    }
}

impl std::error::Error for OracleFailure {}

fn fail(variant: impl Into<String>, mismatch: Mismatch) -> OracleFailure {
    OracleFailure {
        variant: variant.into(),
        mismatch,
    }
}

fn run_detail(variant: &str, e: impl std::fmt::Display) -> OracleFailure {
    fail(
        variant,
        Mismatch::Run {
            detail: format!("run failed: {e}"),
        },
    )
}

/// Runs the unmasked tiled pipeline once under `config` with a
/// balanced-tracker check and the exact-layout check, returning the raw
/// output.
fn run_tile(
    variant: &str,
    a: &Csr<f64>,
    b: &Csr<f64>,
    config: &Config,
) -> Result<tilespgemm_core::Output<f64>, OracleFailure> {
    let tracker = MemTracker::new();
    let out = multiply_csr(a, b, config, &tracker).map_err(|e| run_detail(variant, e))?;
    balanced(variant, &tracker)?;
    exact_layout(variant, &out.c)?;
    Ok(out)
}

/// An unmasked product's tile layout is exactly its non-empty tiles: step
/// 1 gathers through live tile pairs only, so a tile without a stored
/// entry is a failure. Every unmasked tiled run of the sweep is held to
/// this; a masked product keeps the mask's layout, empty tiles included.
fn exact_layout(variant: &str, c: &TileMatrix<f64>) -> Result<(), OracleFailure> {
    match (0..c.tile_count()).find(|&t| c.tile_nnz_of(t) == 0) {
        Some(t) => Err(fail(
            variant,
            Mismatch::Run {
                detail: format!(
                    "unmasked product stores tile {t} with no entry ({} tiles)",
                    c.tile_count()
                ),
            },
        )),
        None => Ok(()),
    }
}

fn balanced(variant: &str, tracker: &MemTracker) -> Result<(), OracleFailure> {
    if tracker.current_bytes() != 0 {
        return Err(fail(
            variant,
            Mismatch::Run {
                detail: format!(
                    "tracker leaked {} bytes after the multiply",
                    tracker.current_bytes()
                ),
            },
        ));
    }
    Ok(())
}

/// Checks the five baseline methods (and the tiled pipeline run through the
/// same entry point) against gold. Returns how many variants were checked.
pub fn check_methods(
    a: &Csr<f64>,
    b: &Csr<f64>,
    policy: &ValuePolicy,
) -> Result<usize, OracleFailure> {
    let gold = reference_spgemm(a, b);
    let mut checked = 0;
    for kind in MethodKind::all() {
        let variant = format!("method[{}]", kind.name());
        let tracker = MemTracker::new();
        let got = run_method(kind, a, b, &tracker).map_err(|e| run_detail(&variant, e))?;
        // The methods' documented accounting contract differs from the
        // pipeline's: temporaries and inputs are credited back, but the
        // long-lived *output* allocation stays attributed until reset (see
        // `tsg_runtime::tracker`). So the leftover must be bounded by the
        // peak, not zero.
        if tracker.current_bytes() > tracker.peak_bytes() {
            return Err(fail(
                &variant,
                Mismatch::Run {
                    detail: format!(
                        "tracker leftover {} bytes exceeds peak {}",
                        tracker.current_bytes(),
                        tracker.peak_bytes()
                    ),
                },
            ));
        }
        compare_csr(&got.c, &gold, policy).map_err(|m| fail(&variant, m))?;
        checked += 1;
    }
    Ok(checked)
}

/// Sweeps the tiled pipeline's full `Config` space. Bitwise-tier knobs are
/// compared exactly against the default-config run; value-tier knobs
/// (accumulator × threshold) against gold under `policy`. Returns how many
/// variants were checked.
pub fn check_configs(
    a: &Csr<f64>,
    b: &Csr<f64>,
    policy: &ValuePolicy,
) -> Result<usize, OracleFailure> {
    let gold = reference_spgemm(a, b);
    let pivot = run_tile("tile[default]", a, b, &Config::default())?;
    compare_csr(&pivot.to_csr(), &gold, policy).map_err(|m| fail("tile[default]", m))?;
    let mut checked = 1;

    // Bitwise tier: scheduling × pair-reuse never touch the per-tile
    // arithmetic order, so the tiled product must be identical.
    for scheduling in SCHEDULINGS {
        for pair_reuse in [true, false] {
            let variant = format!(
                "tile[sched={scheduling:?},reuse={}]",
                if pair_reuse { "on" } else { "off" }
            );
            let cfg = Config::builder()
                .scheduling(scheduling)
                .pair_reuse(pair_reuse)
                .build();
            let out = run_tile(&variant, a, b, &cfg)?;
            if out.c != pivot.c {
                return Err(not_identical(variant, "the default run"));
            }
            checked += 1;
        }
    }

    // Recorder attachment must also be invisible to the product. The
    // recorded run is repeated on the paper path: the row pass must visit
    // the same tiles and find exactly the live pairs the per-tile
    // intersection finds.
    {
        let variant = "tile[recorder=collecting]";
        let (ta, tb) = (TileMatrix::from_csr(a), TileMatrix::from_csr(b));
        let recorded = |config: &Config| {
            let tracker = MemTracker::new();
            let recorder = CollectingRecorder::new();
            let pool = ScratchPool::new();
            let out = multiply_with_pool(&ta, &tb, None, config, &tracker, &recorder, 1, &pool)
                .map_err(|e| run_detail(variant, e))?;
            balanced(variant, &tracker)?;
            Ok((out, recorder.snapshot()))
        };
        let (out, counters) = recorded(&Config::default())?;
        exact_layout(variant, &out.c)?;
        if out.c != pivot.c {
            return Err(fail(
                variant,
                Mismatch::Run {
                    detail: "recorded run is not bitwise identical to the default run".to_string(),
                },
            ));
        }
        let (_, paper) = recorded(&Config::builder().pair_reuse(false).build())?;
        for counter in [Counter::TilesVisited, Counter::MatchedPairs] {
            let (rows, tiles) = (counters.get(counter), paper.get(counter));
            if rows != tiles {
                return Err(fail(
                    variant,
                    Mismatch::Run {
                        detail: format!(
                            "{counter:?}: the row pass counts {rows}, the per-tile \
                             intersection {tiles}"
                        ),
                    },
                ));
            }
        }
        checked += 1;
    }

    // Value tier: accumulator policy and threshold reorder the summation,
    // so these compare against gold under the policy — including thresholds
    // straddling the paper's 192 on both sides and both degenerate ends.
    for accumulator in [
        AccumulatorKind::Adaptive,
        AccumulatorKind::AlwaysSparse,
        AccumulatorKind::AlwaysDense,
    ] {
        for tnnz in [0usize, 64, 192, 256] {
            let variant = format!("tile[acc={accumulator:?},tnnz={tnnz}]");
            let cfg = Config::builder()
                .accumulator(accumulator)
                .tnnz_threshold(tnnz)
                .build();
            let out = run_tile(&variant, a, b, &cfg)?;
            compare_csr(&out.to_csr(), &gold, policy).map_err(|m| fail(&variant, m))?;
            checked += 1;
        }
    }
    Ok(checked)
}

/// Every task granularity the pipeline offers.
const SCHEDULINGS: [Scheduling; 2] = [Scheduling::PerTile, Scheduling::PerTileRow];

/// A failure for a run whose tiled output differs from its pivot.
fn not_identical(variant: String, pivot: &str) -> OracleFailure {
    fail(
        variant,
        Mismatch::Run {
            detail: format!("output is not bitwise identical to {pivot}"),
        },
    )
}

/// A unit-valued structural mask keeping the entries of `pattern` whose
/// coordinates satisfy `keep`. Values are 1.0 so the same matrix doubles
/// as the Hadamard multiplicand when building the masked gold.
fn pattern_mask(pattern: &Csr<f64>, keep: impl Fn(u32, u32) -> bool) -> Csr<f64> {
    let mut coo = Coo::new(pattern.nrows, pattern.ncols);
    for r in 0..pattern.nrows {
        let (cols, _) = pattern.row(r);
        for &c in cols {
            if keep(r as u32, c) {
                coo.push(r as u32, c, 1.0);
            }
        }
    }
    coo.to_csr()
}

/// Checks the masked product (`C⟨M⟩ = A·B`) against the composed gold
/// `hadamard(reference(a, b), mask)` for a full mask (every product entry
/// survives) and a checkerboard-thinned one (roughly half pruned —
/// exercises both tile-level and in-tile rejection). Per mask, every
/// scheduling × pair-reuse variant must be bitwise identical to the default
/// masked run, and the masked product must hold, bit for bit, the unmasked
/// product's value at every position the mask keeps. Returns how many
/// variants were checked.
pub fn check_masked(
    a: &Csr<f64>,
    b: &Csr<f64>,
    policy: &ValuePolicy,
) -> Result<usize, OracleFailure> {
    let gold = reference_spgemm(a, b);
    let ta = TileMatrix::from_csr(a);
    let tb = TileMatrix::from_csr(b);
    let unmasked = run_tile("masked[unmasked]", a, b, &Config::default())?
        .c
        .to_csr();
    let masks = [
        ("full", pattern_mask(&gold, |_, _| true)),
        (
            "checkerboard",
            pattern_mask(&gold, |r, c| (r + c).is_multiple_of(2)),
        ),
    ];
    let mut checked = 0;
    for (name, mask) in &masks {
        let tm = TileMatrix::from_csr(mask);
        let run = |variant: &str, config: &Config| {
            let tracker = MemTracker::new();
            let out = multiply_masked(&ta, &tb, &tm, config, &tracker)
                .map_err(|e| run_detail(variant, e))?;
            balanced(variant, &tracker)?;
            Ok::<_, OracleFailure>(out)
        };
        let variant = format!("masked[{name}]");
        let pivot = run(&variant, &Config::default())?;
        let expected = ops::hadamard(&gold, mask);
        compare_csr(&pivot.to_csr(), &expected, policy).map_err(|m| fail(&variant, m))?;
        checked += 1;

        for scheduling in SCHEDULINGS {
            for pair_reuse in [true, false] {
                let cfg = Config::builder()
                    .scheduling(scheduling)
                    .pair_reuse(pair_reuse)
                    .build();
                if cfg == Config::default() {
                    continue;
                }
                let variant = format!(
                    "masked[{name},sched={scheduling:?},reuse={}]",
                    if pair_reuse { "on" } else { "off" }
                );
                if run(&variant, &cfg)?.c != pivot.c {
                    return Err(not_identical(variant, "the default masked run"));
                }
                checked += 1;
            }
        }

        let variant = format!("masked[{name},vs-unmasked]");
        if pivot.c.to_csr() != restricted(&unmasked, mask) {
            return Err(not_identical(
                variant,
                "the unmasked product at the kept positions",
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// `c` restricted to the stored positions of `mask`, keeping every stored
/// value of `c` (explicit zeros included) as it is.
fn restricted(c: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
    let mut out = Csr {
        nrows: c.nrows,
        ncols: c.ncols,
        rowptr: vec![0],
        colidx: Vec::new(),
        vals: Vec::new(),
    };
    for r in 0..c.nrows {
        let (keep, _) = mask.row(r);
        let (cols, vals) = c.row(r);
        for (&col, &v) in cols.iter().zip(vals) {
            if keep.binary_search(&col).is_ok() {
                out.colidx.push(col);
                out.vals.push(v);
            }
        }
        out.rowptr.push(out.colidx.len());
    }
    out
}

/// Checks the tiled linear combination `αX + βY` against the elementwise
/// CSR gold [`ops::add`]. Both operands are derived from `a` (the corpus
/// pair may be rectangular, and addition needs matching shapes): `X = a`
/// and `Y` a checkerboard-thinned, value-shifted variant so the union has
/// overlap-only, X-only and Y-absent positions. Sweeps identity, scaled
/// and subtracting coefficient pairs — the last exercises the explicit-zero
/// cancellation path, which canonicalization folds away on both sides.
/// Returns how many variants were checked.
pub fn check_add(a: &Csr<f64>, policy: &ValuePolicy) -> Result<usize, OracleFailure> {
    let x = a.clone();
    let mut coo = Coo::new(a.nrows, a.ncols);
    for r in 0..a.nrows {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if (r as u32 + c).is_multiple_of(2) {
                coo.push(r as u32, c, 2.0 * v + 1.0);
            }
        }
    }
    let y = coo.to_csr();
    let tx = TileMatrix::from_csr(&x);
    let ty = TileMatrix::from_csr(&y);
    let mut checked = 0;
    for (alpha, beta) in [(1.0, 1.0), (2.0, -0.5), (1.0, -1.0)] {
        let variant = format!("add[alpha={alpha},beta={beta}]");
        let got = tilespgemm_core::add(alpha, &tx, beta, &ty);
        let expected = ops::add(alpha, &x, beta, &y);
        compare_csr(&got.to_csr(), &expected, policy).map_err(|m| fail(&variant, m))?;
        checked += 1;
    }
    Ok(checked)
}

/// Checks a two-link chain the way the engine folds one — the first link's
/// *tiled* product fed straight back as the next link's left operand, no
/// CSR round-trip — against the composed gold
/// `reference(reference(a, b), d)`, plus a variant with a structural mask
/// on the final link. `d` is a deterministic square matrix (scaled
/// diagonal plus an off-diagonal band) sized to `b`'s column count.
/// Returns how many variants were checked.
pub fn check_chain(
    a: &Csr<f64>,
    b: &Csr<f64>,
    policy: &ValuePolicy,
) -> Result<usize, OracleFailure> {
    let n = b.ncols;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i as u32, i as u32, 1.0 + i as f64 * 0.25);
        if n > 1 {
            coo.push(i as u32, ((i + 3) % n) as u32, -0.5);
        }
    }
    let d = coo.to_csr();
    let gold = reference_spgemm(&reference_spgemm(a, b), &d);
    let ta = TileMatrix::from_csr(a);
    let tb = TileMatrix::from_csr(b);
    let td = TileMatrix::from_csr(&d);
    let config = Config::default();
    let mut checked = 0;

    // Unmasked: fold the links handle-to-handle on tiled intermediates.
    {
        let variant = "chain[a*b*d]";
        let tracker = MemTracker::new();
        let cur = multiply(&ta, &tb, &config, &tracker).map_err(|e| run_detail(variant, e))?;
        let out = multiply(&cur.c, &td, &config, &tracker).map_err(|e| run_detail(variant, e))?;
        balanced(variant, &tracker)?;
        exact_layout(variant, &cur.c)?;
        exact_layout(variant, &out.c)?;
        compare_csr(&out.to_csr(), &gold, policy).map_err(|m| fail(variant, m))?;
        checked += 1;
    }

    // Mask pushed into the final link only, per the engine's pushdown rule.
    {
        let variant = "chain[a*b*d,masked]";
        let mask = pattern_mask(&gold, |r, c| (r + c).is_multiple_of(2));
        let tm = TileMatrix::from_csr(&mask);
        let tracker = MemTracker::new();
        let cur = multiply(&ta, &tb, &config, &tracker).map_err(|e| run_detail(variant, e))?;
        let out = multiply_masked(&cur.c, &td, &tm, &config, &tracker)
            .map_err(|e| run_detail(variant, e))?;
        balanced(variant, &tracker)?;
        exact_layout(variant, &cur.c)?;
        let expected = ops::hadamard(&gold, &mask);
        compare_csr(&out.to_csr(), &expected, policy).map_err(|m| fail(variant, m))?;
        checked += 1;
    }
    Ok(checked)
}

/// Checks the SIMD dispatch axis **bitwise** against the forced-scalar run:
/// [`SimdPolicy::Auto`] under the default accumulator, and under
/// [`AccumulatorKind::AlwaysDense`] so the dense vector micro-kernel runs on
/// every tile. The vector kernels preserve the per-output-slot addition
/// order (separate mul/add roundings, no FMA, lane blending — see the
/// `tilespgemm_core::simd` module docs), so unlike the accumulator value
/// tier this axis demands exact equality, and it demands it across the
/// plain product (under `tnnz` thresholds on both sides of the tiles'
/// densities), the masked product, and a two-link tiled chain. Returns how
/// many variants were checked.
pub fn check_simd(a: &Csr<f64>, b: &Csr<f64>) -> Result<usize, OracleFailure> {
    const VECTOR: [(&str, AccumulatorKind); 2] = [
        ("auto", AccumulatorKind::Adaptive),
        ("auto,always-dense", AccumulatorKind::AlwaysDense),
    ];
    let vector_config = |accumulator| {
        Config::builder()
            .simd(SimdPolicy::Auto)
            .accumulator(accumulator)
    };
    let scalar = "the forced-scalar run";
    let mut checked = 0;

    // Plain product, with the accumulator threshold on both sides of the
    // tiles' densities so sparse-SIMD and dense-SIMD both get exercised
    // against their scalar references.
    for tnnz in [64usize, 192] {
        let pivot_cfg = Config::builder()
            .simd(SimdPolicy::ForceScalar)
            .tnnz_threshold(tnnz)
            .build();
        let pivot = run_tile(&format!("simd[scalar,tnnz={tnnz}]"), a, b, &pivot_cfg)?;
        checked += 1;
        for (name, accumulator) in VECTOR {
            let variant = format!("simd[{name},tnnz={tnnz}]");
            let cfg = vector_config(accumulator).tnnz_threshold(tnnz).build();
            let out = run_tile(&variant, a, b, &cfg)?;
            if out.c != pivot.c {
                return Err(not_identical(variant, scalar));
            }
            checked += 1;
        }
    }

    // Masked product: the checkerboard mask forces the remap of sparse
    // kernels to their dense counterparts (products land outside the mask).
    {
        let gold = reference_spgemm(a, b);
        let mask = pattern_mask(&gold, |r, c| (r + c).is_multiple_of(2));
        let ta = TileMatrix::from_csr(a);
        let tb = TileMatrix::from_csr(b);
        let tm = TileMatrix::from_csr(&mask);
        let run = |variant: &str, cfg: &Config| {
            let tracker = MemTracker::new();
            let out = multiply_masked(&ta, &tb, &tm, cfg, &tracker)
                .map_err(|e| run_detail(variant, e))?;
            balanced(variant, &tracker)?;
            Ok::<_, OracleFailure>(out)
        };
        let pivot = run(
            "simd[scalar,masked]",
            &Config::builder().simd(SimdPolicy::ForceScalar).build(),
        )?;
        checked += 1;
        for (name, accumulator) in VECTOR {
            let variant = format!("simd[{name},masked]");
            let out = run(&variant, &vector_config(accumulator).build())?;
            if out.c != pivot.c {
                return Err(not_identical(variant, scalar));
            }
            checked += 1;
        }
    }

    // Two-link chain on tiled intermediates: the second link consumes a
    // SIMD-produced tiled matrix, so divergence would compound here first.
    // `d` is the same deterministic diagonal-plus-band shape `check_chain`
    // folds with.
    {
        let n = b.ncols;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i as u32, i as u32, 1.0 + i as f64 * 0.25);
            if n > 1 {
                coo.push(i as u32, ((i + 3) % n) as u32, -0.5);
            }
        }
        let d = coo.to_csr();
        let ta = TileMatrix::from_csr(a);
        let tb = TileMatrix::from_csr(b);
        let td = TileMatrix::from_csr(&d);
        let run = |variant: &str, cfg: &Config| {
            let tracker = MemTracker::new();
            let cur = multiply(&ta, &tb, cfg, &tracker).map_err(|e| run_detail(variant, e))?;
            let out = multiply(&cur.c, &td, cfg, &tracker).map_err(|e| run_detail(variant, e))?;
            balanced(variant, &tracker)?;
            exact_layout(variant, &cur.c)?;
            exact_layout(variant, &out.c)?;
            Ok::<_, OracleFailure>(out)
        };
        let pivot = run(
            "simd[scalar,chain]",
            &Config::builder().simd(SimdPolicy::ForceScalar).build(),
        )?;
        checked += 1;
        for (name, accumulator) in VECTOR {
            let variant = format!("simd[{name},chain]");
            let out = run(&variant, &vector_config(accumulator).build())?;
            if out.c != pivot.c {
                return Err(not_identical(variant, scalar));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// The full oracle: config sweep, all baseline methods, the op-expression
/// axes (masked product, linear combination, chained product), and the
/// SIMD bitwise-dispatch axis.
pub fn check_pair(
    a: &Csr<f64>,
    b: &Csr<f64>,
    policy: &ValuePolicy,
) -> Result<OracleReport, OracleFailure> {
    let variants = check_configs(a, b, policy)?
        + check_methods(a, b, policy)?
        + check_masked(a, b, policy)?
        + check_add(a, policy)?
        + check_chain(a, b, policy)?
        + check_simd(a, b)?;
    Ok(OracleReport {
        variants,
        gold_nnz: crate::compare::canonicalize(&reference_spgemm(a, b)).nnz(),
    })
}
