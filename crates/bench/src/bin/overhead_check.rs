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

use tsg_bench::{overhead_pct, OVERHEAD_PAIRS};
use tsg_gen::suite::GenSpec;
use tsg_matrix::TileMatrix;

/// Allowed Null-recorder regression, in percent.
const GATE_PCT: f64 = 5.0;

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
        let pct = overhead_pct(&ta);
        println!(
            "{name}: ctx-with-NullRecorder overhead {pct:+.2}% \
             (median of {OVERHEAD_PAIRS} pairs, gate {GATE_PCT}%)"
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
