//! # tsg-bench — the figure/table harness
//!
//! One binary per table/figure of the paper's evaluation (§4). Each binary
//! prints (a) a human-readable table mirroring the paper's rows/series and
//! (b) machine-readable CSV lines prefixed with `csv,` for plotting.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2` | Table 2 (matrix statistics) |
//! | `fig6` | Figure 6 (GFlops vs compression rate, 5 methods × A²/AAᵀ × 2 devices + scalability) |
//! | `fig7` | Figure 7 (A² bars on the 18 representative matrices, failures as 0.00) |
//! | `fig8` | Figure 8 (AAᵀ bars on the 6 asymmetric matrices) |
//! | `fig9` | Figure 9 (peak memory vs completion time) |
//! | `fig10` | Figure 10 (TileSpGEMM runtime breakdown) |
//! | `fig11` | Figure 11 (format space: CSR / CSB-M / CSB-I / tiled) |
//! | `fig12` | Figure 12 (conversion time vs single SpGEMM time) |
//! | `fig13` | Figure 13 (TileSpGEMM vs tSparse, both `f32`) |
//! | `fig14` | Figure 14 (runtime breakdown, tSparse vs TileSpGEMM) |
//! | `all_figures` | everything above, in order |
//!
//! Environment knobs: `TSG_QUICK=1` subsamples the sweeps for smoke runs;
//! `TSG_REPS=n` overrides the repetition count.

pub mod plot;

use std::time::Duration;
use tilespgemm_core::Config;
use tsg_baselines::{MethodKind, PreparedOperands};
use tsg_gen::DatasetEntry;
use tsg_matrix::Csr;
use tsg_runtime::{run_on, Breakdown, Device, MemTracker};

/// GFlops given the paper's flop count (2 per intermediate product).
pub fn gflops(flops: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    flops as f64 / elapsed.as_secs_f64() / 1e9
}

/// Geometric mean of positive values (zeros/failures excluded).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Least-squares line `y = slope·x + intercept` (the regression lines of
/// Figure 6). Returns `None` with fewer than two points.
pub fn linreg(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some((slope, (sy - slope * sx) / n))
}

/// One measured run of one method on one matrix.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Dataset entry name.
    pub matrix: String,
    /// Method name.
    pub method: &'static str,
    /// `A²` or `AAᵀ`.
    pub op: &'static str,
    /// Device name.
    pub device: String,
    /// Completion time (best of the measured repetitions); `None` if the
    /// method failed (out of device memory).
    pub elapsed: Option<Duration>,
    /// GFlops (0.0 on failure, the paper's convention for its bars).
    pub gflops: f64,
    /// Breakdown of the best run.
    pub breakdown: Breakdown,
    /// Peak tracked device bytes (0 on failure).
    pub peak_bytes: usize,
    /// nnz(C) reported by the method (0 on failure).
    pub nnz_c: usize,
    /// flop count of the product.
    pub flops: u64,
    /// Compression rate (products / nnz(C), from the independent oracle).
    pub compression_rate: f64,
}

/// Repetition count (`TSG_REPS`, default 2: one warm-up inside the timing
/// loop amortises allocator effects; we keep the fastest run, like the
/// paper's best-of-N protocol).
pub fn reps() -> u32 {
    std::env::var("TSG_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Whether the quick (subsampled) mode is on.
pub fn quick() -> bool {
    std::env::var("TSG_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Runs one `(matrix, method, op, device)` cell.
pub fn measure(
    entry_name: &str,
    prep: &PreparedOperands,
    kind: MethodKind,
    op: &'static str,
    device: &Device,
    stats: &tsg_gen::MatrixStats,
) -> Measurement {
    let reps = reps();
    run_on(device, || {
        let mut best: Option<(Duration, Breakdown, usize, usize)> = None;
        let mut failure = false;
        for _ in 0..reps {
            let tracker = MemTracker::with_budget(device.mem_budget);
            let start = std::time::Instant::now();
            match prep.run(kind, &tracker) {
                Ok((breakdown, nnz_c, peak)) => {
                    let elapsed = start.elapsed();
                    if best.as_ref().map(|b| elapsed < b.0).unwrap_or(true) {
                        best = Some((elapsed, breakdown, nnz_c, peak));
                    }
                }
                Err(_) => {
                    failure = true;
                    break;
                }
            }
        }
        match (failure, best) {
            (false, Some((elapsed, breakdown, nnz_c, peak))) => Measurement {
                matrix: entry_name.to_string(),
                method: kind.name(),
                op,
                device: device.name.clone(),
                elapsed: Some(elapsed),
                gflops: gflops(stats.flops, elapsed),
                breakdown,
                peak_bytes: peak,
                nnz_c,
                flops: stats.flops,
                compression_rate: stats.compression_rate,
            },
            _ => Measurement {
                matrix: entry_name.to_string(),
                method: kind.name(),
                op,
                device: device.name.clone(),
                elapsed: None,
                gflops: 0.0,
                breakdown: Breakdown::default(),
                peak_bytes: 0,
                nnz_c: 0,
                flops: stats.flops,
                compression_rate: stats.compression_rate,
            },
        }
    })
}

/// Builds the operands + oracle statistics for one dataset entry and one
/// operation.
pub fn prepare(entry: &DatasetEntry, aat: bool) -> (PreparedOperands, tsg_gen::MatrixStats) {
    let a = entry.build();
    prepare_csr(a, aat)
}

/// Like [`prepare`] but from an existing matrix.
pub fn prepare_csr(a: Csr<f64>, aat: bool) -> (PreparedOperands, tsg_gen::MatrixStats) {
    let prep = if aat {
        PreparedOperands::aat(a)
    } else {
        PreparedOperands::squared(a)
    };
    let stats = tsg_gen::matrix_stats(&prep.a, &prep.b);
    (prep, stats)
}

/// Prints the standard CSV line for a measurement.
pub fn emit_csv(figure: &str, m: &Measurement) {
    println!(
        "csv,{figure},{},{},{},{},{:.4},{:.3},{},{},{:.2}",
        m.matrix,
        m.method,
        m.op,
        m.device,
        m.elapsed.map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0),
        m.gflops,
        m.peak_bytes,
        m.nnz_c,
        m.compression_rate,
    );
}

/// CSV header matching [`emit_csv`].
pub fn csv_header() {
    println!("csv,figure,matrix,method,op,device,time_ms,gflops,peak_bytes,nnz_c,compression_rate");
}

/// Formats a duration in the paper's milliseconds convention.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timed runs, after one warm-up, behind each `"method":"tilespgemm"` row
/// of `BENCH_pipeline.json` and behind `perf_smoke`'s reading of it.
pub const PIPELINE_RUNS: usize = 9;

/// The median of `values` (the upper middle one of an even count). Sorts
/// `values` in place; panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// What [`pipeline_medians`] measures, in ms unless named otherwise.
#[derive(Debug, Clone, Copy)]
pub struct PipelineMedians {
    /// Median wall time.
    pub wall_ms: f64,
    /// Fastest wall time.
    pub wall_ms_min: f64,
    /// Slowest wall time.
    pub wall_ms_max: f64,
    /// Median step 1, step 2, step 3 and allocation times, each on its own.
    pub steps_ms: [f64; 4],
    /// Tracked peak bytes of the last run.
    pub peak_bytes: usize,
}

/// Times `a·a` under `config`: one warm-up run, then [`PIPELINE_RUNS`]
/// timed ones. Both a `BENCH_pipeline.json` row and `perf_smoke` come from
/// here, so the gate reads the statistic the row records.
pub fn pipeline_medians(a: &tsg_matrix::TileMatrix<f64>, config: &Config) -> PipelineMedians {
    let run = || tilespgemm_core::multiply(a, a, config, &MemTracker::new()).expect("multiply");
    run();
    let mut walls = Vec::with_capacity(PIPELINE_RUNS);
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut peak_bytes = 0;
    for _ in 0..PIPELINE_RUNS {
        let t0 = std::time::Instant::now();
        let out = run();
        walls.push(ms(t0.elapsed()));
        let b = &out.breakdown;
        for (times, step) in steps.iter_mut().zip([b.step1, b.step2, b.step3, b.alloc]) {
            times.push(ms(step));
        }
        peak_bytes = out.peak_bytes;
    }
    PipelineMedians {
        wall_ms: median(&mut walls),
        wall_ms_min: walls[0],
        wall_ms_max: walls[PIPELINE_RUNS - 1],
        steps_ms: steps.map(|mut times| median(&mut times)),
        peak_bytes,
    }
}

/// Section banner for figure binaries.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_run() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn gflops_basic() {
        assert_eq!(gflops(2_000_000_000, Duration::from_secs(1)), 2.0);
        assert_eq!(gflops(100, Duration::ZERO), 0.0);
    }

    #[test]
    fn geomean_ignores_failures() {
        let g = geomean([2.0, 8.0, 0.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn linreg_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let (slope, intercept) = linreg(&pts).unwrap();
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!(linreg(&[(1.0, 1.0)]).is_none());
        assert!(linreg(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn measurement_pipeline_runs_end_to_end() {
        let a = tsg_gen::random::erdos_renyi(200, 200, 1200, 5);
        let (prep, stats) = prepare_csr(a, false);
        let device = Device::serial();
        for kind in MethodKind::all() {
            let m = measure("er-200", &prep, kind, "A2", &device, &stats);
            assert!(m.elapsed.is_some(), "{} failed", kind.name());
            assert!(m.gflops > 0.0);
            assert_eq!(m.flops, stats.flops);
        }
    }

    #[test]
    fn all_methods_agree_on_nnz_c() {
        let a = tsg_gen::fem::banded(300, 12, 6, 3);
        let (prep, stats) = prepare_csr(a, false);
        let device = Device::serial();
        for kind in MethodKind::all() {
            let m = measure("banded", &prep, kind, "A2", &device, &stats);
            assert_eq!(m.nnz_c, stats.nnz_c, "{} nnz mismatch", kind.name());
        }
    }

    #[test]
    fn aat_preparation_transposes() {
        let a = tsg_gen::stencil::grid_2d_upwind(20, 20);
        let (prep, _) = prepare_csr(a.clone(), true);
        assert_eq!(prep.b, a.transpose());
    }
}
