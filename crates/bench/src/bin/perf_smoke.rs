//! CI perf-smoke gate for the step-2/step-3 hot path.
//!
//! Runs the default pipeline (row pass with pair reuse, per-tile
//! scheduling) on the webbase-like R-MAT matrix `BENCH_pipeline.json` was
//! measured on, [`PIPELINE_RUNS`] times after a warm-up — the runs behind
//! each committed row — and takes the median step 2 and the median step 3.
//! It fails (exit 1) when step2+step3, or step 3 alone, regresses more than
//! [`GATE_PCT`] over the committed baseline row's medians
//! (`matrix=webbase-like, scheduling=per-tile, pair_reuse=true`). A fresh
//! machine-readable record is written to `target/perf_smoke.json` for CI to
//! upload next to the committed baseline.
//!
//! ```text
//! cargo run --release -p tsg-bench --bin perf_smoke
//! ```

use std::process::ExitCode;

use tilespgemm_core::Config;
use tsg_bench::{pipeline_medians, PIPELINE_RUNS};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;

/// Allowed step2+step3 regression over the committed baseline, in percent.
/// Medians on shared runners still jitter at the several-percent level, so
/// the gate is looser than the ~0% target.
const GATE_PCT: f64 = 10.0;

/// Extracts `"key":<number>` from a JSON fragment (crude, but the baseline
/// file is machine-written by `tile_pipeline.rs` with a fixed shape).
fn field(fragment: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = fragment.find(&pat)? + pat.len();
    let rest = &fragment[at..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed baseline's gated row (`matrix=webbase-like,
/// scheduling=per-tile, pair_reuse=true`). The `simd_ablation` records
/// carry neither a `scheduling` nor a `pair_reuse` key, so they can never
/// shadow this lookup.
fn baseline_row(json: &str) -> Option<&str> {
    json.lines().find(|line| {
        line.contains("\"matrix\":\"webbase-like\"")
            && line.contains("\"scheduling\":\"per-tile\"")
            && line.contains("\"pair_reuse\":true")
    })
}

fn main() -> ExitCode {
    let a = GenSpec::Rmat {
        scale: 14,
        edges: 80_000,
        mild: false,
        seed: 112,
    }
    .build();
    let ta = TileMatrix::from_csr(&a);
    let m = pipeline_medians(&ta, &Config::default());
    let (step2, step3, wall, peak_bytes) = (m.steps_ms[1], m.steps_ms[2], m.wall_ms, m.peak_bytes);
    let fresh = step2 + step3;

    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let json = std::fs::read_to_string(baseline_path).expect("read committed BENCH_pipeline.json");
    let row = baseline_row(&json).expect("baseline row for webbase-like/per-tile/reuse");
    let baseline3 = field(row, "step3_ms").expect("baseline step3_ms");
    let baseline = field(row, "step2_ms").expect("baseline step2_ms") + baseline3;

    let delta_pct = (fresh - baseline) / baseline * 100.0;
    let delta3_pct = (step3 - baseline3) / baseline3 * 100.0;
    println!(
        "perf_smoke: webbase-like step2+step3 {fresh:.1} ms vs baseline {baseline:.1} ms \
         ({delta_pct:+.1}%, gate +{GATE_PCT}%)"
    );
    println!(
        "perf_smoke: webbase-like step3 alone {step3:.1} ms vs baseline {baseline3:.1} ms \
         ({delta3_pct:+.1}%, gate +{GATE_PCT}%)"
    );
    println!(
        "  medians of {PIPELINE_RUNS} runs: step2 {step2:.1} ms | step3 {step3:.1} ms | \
         wall {wall:.1} ms | peak {peak_bytes} B"
    );

    let record = format!(
        concat!(
            "{{\"matrix\":\"webbase-like\",\"method\":\"perf_smoke\",",
            "\"step2_ms\":{:.4},\"step3_ms\":{:.4},\"wall_ms\":{:.4},",
            "\"peak_bytes\":{},\"baseline_step23_ms\":{:.4},\"delta_pct\":{:.2},",
            "\"baseline_step3_ms\":{:.4},\"delta3_pct\":{:.2}}}\n"
        ),
        step2, step3, wall, peak_bytes, baseline, delta_pct, baseline3, delta3_pct
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/perf_smoke.json");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(out_path, &record).expect("write perf_smoke.json");
    println!("wrote {out_path}");

    if delta_pct > GATE_PCT {
        eprintln!("perf_smoke: FAIL — step2+step3 regressed {delta_pct:+.1}% (gate +{GATE_PCT}%)");
        return ExitCode::FAILURE;
    }
    // The SIMD step-3 kernels are this row's headline win; gate step 3 on
    // its own so a kernel regression can't hide behind a step-2 improvement.
    if delta3_pct > GATE_PCT {
        eprintln!("perf_smoke: FAIL — step3 regressed {delta3_pct:+.1}% (gate +{GATE_PCT}%)");
        return ExitCode::FAILURE;
    }
    println!("perf_smoke: OK");
    ExitCode::SUCCESS
}
