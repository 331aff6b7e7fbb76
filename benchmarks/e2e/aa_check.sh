#!/usr/bin/env bash
# A/A check: runs the whole suite twice on the same build and fails unless
# `compare` reports no regression between the two result files.
#
# Usage (from anywhere):  benchmarks/e2e/aa_check.sh [--seed N] [--seconds S]
set -euo pipefail

cd "$(dirname "$0")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/e2e}"
cargo build --release --quiet --manifest-path benchmarks/e2e/Cargo.toml
bench="$CARGO_TARGET_DIR/release/ptolemy-e2e-bench"

"$bench" run "$@" --out target/e2e/aa_first.json
"$bench" run "$@" --out target/e2e/aa_second.json
"$bench" compare target/e2e/aa_first.json target/e2e/aa_second.json --bounds BENCHMARK.json
