#!/usr/bin/env bash
# Builds the server under test and the benchmark from source (release), then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash crates/benchmark/bench.sh --workload mesh --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the result object; build and progress
# output go to standard error.
set -euo pipefail
cargo build --release --offline -q --manifest-path Cargo.toml -p tsg-serve -p tsg-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/tsg-benchmark" "$@"
