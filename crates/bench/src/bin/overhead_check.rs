//! CI gate for the observability layer's zero-cost claim: runs the default
//! pipeline through the free function and through a `SpGemm` context with
//! the `NullRecorder` in back-to-back pairs, alternating which goes first,
//! and fails (exit 1) if the median context/free time ratio shows the
//! context path more than 5% slower. The design target is ≤2% (DESIGN.md
//! §9); the gate sits at 5% to absorb shared-runner jitter. A pair's two
//! runs see the same host state, so the median of many paired ratios
//! tells a few-millisecond regression from host noise where the best of a
//! few runs per side did not.
//!
//! ```text
//! cargo run --release -p tsg-bench --bin overhead_check
//! ```

use std::process::ExitCode;
use std::time::Instant;

use tilespgemm_core::{Config, SpGemm};
use tsg_bench::{median, ms};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;
use tsg_runtime::MemTracker;

/// Allowed Null-recorder regression, in percent.
const GATE_PCT: f64 = 5.0;

/// Timed pairs per matrix.
const PAIRS: usize = 21;

/// Median overhead of `ctx.multiply` over the free function on one matrix
/// across `pairs` paired runs, after verifying the two paths produce
/// identical products.
fn overhead_pct(ta: &TileMatrix<f64>, pairs: usize) -> f64 {
    let cfg = Config::default();
    let ctx = SpGemm::new();
    let free = tilespgemm_core::multiply(ta, ta, &cfg, &MemTracker::new()).expect("warmup");
    let through_ctx = ctx.multiply(ta, ta).expect("warmup");
    assert_eq!(
        free.c, through_ctx.c,
        "context path must be bitwise-identical to the free function"
    );
    let time_free = || {
        let t = Instant::now();
        tilespgemm_core::multiply(ta, ta, &cfg, &MemTracker::new()).expect("multiply");
        ms(t.elapsed())
    };
    let time_ctx = || {
        let t = Instant::now();
        ctx.multiply(ta, ta).expect("multiply");
        ms(t.elapsed())
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (free, ctx) = if i % 2 == 0 {
                let free = time_free();
                (free, time_ctx())
            } else {
                let ctx = time_ctx();
                (time_free(), ctx)
            };
            ctx / free
        })
        .collect();
    (median(&mut ratios) - 1.0) * 100.0
}

fn main() -> ExitCode {
    let suite: [(&str, GenSpec); 2] = [
        (
            "fem-500",
            GenSpec::Fem {
                nodes: 500,
                block: 6,
                couplings: 4,
                spread: 20,
                seed: 1,
            },
        ),
        (
            "rmat-skewed",
            GenSpec::Rmat {
                scale: 12,
                edges: 25_000,
                mild: false,
                seed: 1,
            },
        ),
    ];
    let mut worst = f64::NEG_INFINITY;
    for (name, spec) in suite {
        let ta = TileMatrix::from_csr(&spec.build());
        let pct = overhead_pct(&ta, PAIRS);
        println!(
            "{name}: ctx-with-NullRecorder overhead {pct:+.2}% \
             (median of {PAIRS} pairs, gate {GATE_PCT}%)"
        );
        worst = worst.max(pct);
    }
    if worst > GATE_PCT {
        eprintln!("overhead_check: FAIL — worst overhead {worst:+.2}% exceeds {GATE_PCT}%");
        return ExitCode::FAILURE;
    }
    println!("overhead_check: OK — worst overhead {worst:+.2}%");
    ExitCode::SUCCESS
}
